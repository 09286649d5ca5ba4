use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{Interval, ModelError};

/// Index of a field within a [`Schema`], in the schema's fixed order.
///
/// The paper assumes a total order `F1 ≺ … ≺ Fd` over packet fields
/// (Definition 4.1); `FieldId` *is* that order: smaller ids come first on
/// every FDD decision path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FieldId(pub usize);

impl FieldId {
    /// The position as a plain index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0 + 1)
    }
}

/// A packet field: a named variable whose domain is `[0, 2^bits − 1]`.
///
/// Bit width (rather than an arbitrary maximum) matches how real header
/// fields are sized and drives both prefix conversion ([`crate::prefix`]) and
/// the bit-level BDD baseline.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldDef {
    name: String,
    bits: u32,
}

impl FieldDef {
    /// Creates a field named `name` with a `bits`-bit domain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFieldBits`] unless `1 <= bits <= 64`.
    pub fn new(name: impl Into<String>, bits: u32) -> Result<Self, ModelError> {
        let name = name.into();
        if bits == 0 || bits > 64 {
            return Err(ModelError::InvalidFieldBits { name, bits });
        }
        Ok(FieldDef { name, bits })
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The inclusive domain maximum, `2^bits − 1`.
    pub fn max(&self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// The field's whole domain `[0, 2^bits − 1]` as an interval.
    pub fn domain(&self) -> Interval {
        Interval::new(0, self.max()).expect("0 <= max always holds")
    }
}

/// An ordered list of packet fields — the `d` dimensions every packet, rule
/// and FDD in one analysis shares.
///
/// All operations in the workspace require their operands to use the *same*
/// schema (compared with `==`); mixing schemas is a caller error surfaced as
/// [`ModelError::ArityMismatch`] or [`ModelError::UnknownField`].
///
/// The field list sits behind an [`Arc`]: a clone allocates nothing, and
/// `==` between clones of one schema returns on pointer identity (`Arc`'s
/// `==` does for any `Eq` content).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::Schema;
///
/// let schema = Schema::tcp_ip();
/// assert_eq!(schema.len(), 5);
/// assert_eq!(schema.field_by_name("dport").map(|(_, f)| f.bits()), Some(16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    fields: Arc<[FieldDef]>,
}

impl Schema {
    /// Creates a schema from an ordered field list.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySchema`] for an empty list and
    /// [`ModelError::DuplicateFieldName`] if two fields share a name.
    pub fn new(fields: Vec<FieldDef>) -> Result<Self, ModelError> {
        if fields.is_empty() {
            return Err(ModelError::EmptySchema);
        }
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name() == f.name()) {
                return Err(ModelError::DuplicateFieldName {
                    name: f.name().to_owned(),
                });
            }
        }
        Ok(Schema {
            fields: fields.into(),
        })
    }

    /// The classic TCP/IP five-tuple the paper's evaluation uses (§8.2.2):
    /// `src` /32, `dst` /32, `sport` /16, `dport` /16, `proto` /8.
    pub fn tcp_ip() -> Self {
        Schema::new(vec![
            FieldDef::new("src", 32).expect("static widths are valid"),
            FieldDef::new("dst", 32).expect("static widths are valid"),
            FieldDef::new("sport", 16).expect("static widths are valid"),
            FieldDef::new("dport", 16).expect("static widths are valid"),
            FieldDef::new("proto", 8).expect("static widths are valid"),
        ])
        .expect("static schema is valid")
    }

    /// The schema of the paper's running example (§2): interface `iface` /1,
    /// source `src` /32, destination `dst` /32, destination port `dport` /16,
    /// protocol `proto` /1 (0 = TCP, 1 = UDP, as the paper simplifies).
    pub fn paper_example() -> Self {
        Schema::new(vec![
            FieldDef::new("iface", 1).expect("static widths are valid"),
            FieldDef::new("src", 32).expect("static widths are valid"),
            FieldDef::new("dst", 32).expect("static widths are valid"),
            FieldDef::new("dport", 16).expect("static widths are valid"),
            FieldDef::new("proto", 1).expect("static widths are valid"),
        ])
        .expect("static schema is valid")
    }

    /// Number of fields `d`.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields. Always `false` for a constructed
    /// schema; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at position `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this schema.
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.0]
    }

    /// The field at position `id`, or `None` if out of range.
    pub fn get(&self, id: FieldId) -> Option<&FieldDef> {
        self.fields.get(id.0)
    }

    /// Looks a field up by name.
    pub fn field_by_name(&self, name: &str) -> Option<(FieldId, &FieldDef)> {
        self.fields
            .iter()
            .enumerate()
            .find(|(_, f)| f.name() == name)
            .map(|(i, f)| (FieldId(i), f))
    }

    /// Iterates `(id, field)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldDef)> {
        self.fields.iter().enumerate().map(|(i, f)| (FieldId(i), f))
    }

    /// Total number of domain bits across all fields (the BDD variable
    /// count; the paper's §7.5 example is 88 bits).
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(FieldDef::bits).sum()
    }

    /// Number of distinct packets `|Σ| = |D(F1)| × … × |D(Fd)|`, saturating
    /// at `u128::MAX` for very wide schemas.
    pub fn packet_space(&self) -> u128 {
        self.fields
            .iter()
            .fold(1u128, |acc, f| acc.saturating_mul(f.domain().count()))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fd) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}", fd.name(), fd.bits())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_domain_widths() {
        assert_eq!(FieldDef::new("a", 1).unwrap().max(), 1);
        assert_eq!(FieldDef::new("a", 8).unwrap().max(), 255);
        assert_eq!(FieldDef::new("a", 32).unwrap().max(), u64::from(u32::MAX));
        assert_eq!(FieldDef::new("a", 64).unwrap().max(), u64::MAX);
    }

    #[test]
    fn field_rejects_bad_widths() {
        assert!(matches!(
            FieldDef::new("a", 0),
            Err(ModelError::InvalidFieldBits { .. })
        ));
        assert!(matches!(
            FieldDef::new("a", 65),
            Err(ModelError::InvalidFieldBits { .. })
        ));
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        let dup = Schema::new(vec![
            FieldDef::new("x", 8).unwrap(),
            FieldDef::new("x", 16).unwrap(),
        ]);
        assert!(matches!(dup, Err(ModelError::DuplicateFieldName { .. })));
        assert!(matches!(Schema::new(vec![]), Err(ModelError::EmptySchema)));
    }

    #[test]
    fn tcp_ip_schema_shape() {
        let s = Schema::tcp_ip();
        assert_eq!(s.len(), 5);
        assert_eq!(s.total_bits(), 104);
        let (id, f) = s.field_by_name("proto").unwrap();
        assert_eq!(id, FieldId(4));
        assert_eq!(f.max(), 255);
    }

    #[test]
    fn paper_example_schema_shape() {
        let s = Schema::paper_example();
        assert_eq!(s.len(), 5);
        assert_eq!(s.field(FieldId(0)).name(), "iface");
        assert_eq!(s.field(FieldId(0)).max(), 1);
        assert_eq!(s.field(FieldId(4)).max(), 1);
    }

    #[test]
    fn packet_space_saturates() {
        let wide = Schema::new(vec![
            FieldDef::new("a", 64).unwrap(),
            FieldDef::new("b", 64).unwrap(),
            FieldDef::new("c", 64).unwrap(),
        ])
        .unwrap();
        assert_eq!(wide.packet_space(), u128::MAX);
        assert_eq!(
            Schema::paper_example().packet_space(),
            2u128 * (1 << 32) * (1 << 32) * (1 << 16) * 2
        );
    }

    #[test]
    fn display_lists_fields() {
        assert_eq!(
            Schema::paper_example().to_string(),
            "iface/1, src/32, dst/32, dport/16, proto/1"
        );
    }
}
