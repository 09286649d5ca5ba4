use serde::{Deserialize, Serialize};

use crate::{FieldId, IntervalSet, ModelError, Packet, Schema};

/// A rule predicate: `F1 ∈ S1 ∧ … ∧ Fd ∈ Sd`, one value set per field.
///
/// Per §3.1, every field appears in every predicate (an unconstrained field
/// is `Fi ∈ D(Fi)`). A predicate is **simple** when every `Si` is a single
/// interval — the construction algorithm accepts general predicates, but the
/// paper's Theorem 1 path bound and most real configurations concern simple
/// rules.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::{FieldId, Interval, Packet, Predicate, Schema};
///
/// let schema = Schema::tcp_ip();
/// let web = Predicate::any(&schema)
///     .with_field(FieldId(3), Interval::new(80, 80)?.into())?;
/// assert!(web.matches(&Packet::new(vec![1, 2, 3, 80, 6])));
/// assert!(!web.matches(&Packet::new(vec![1, 2, 3, 81, 6])));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    sets: Vec<IntervalSet>,
}

impl Predicate {
    /// The predicate matching **every** packet of `schema` (each field
    /// constrained to its full domain).
    pub fn any(schema: &Schema) -> Self {
        Predicate {
            sets: schema
                .iter()
                .map(|(_, f)| IntervalSet::from_interval(f.domain()))
                .collect(),
        }
    }

    /// Builds a predicate from one value set per field, in schema order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] on a wrong field count,
    /// [`ModelError::EmptyPredicateField`] if some set is empty, and
    /// [`ModelError::OutOfDomain`] if some set leaves its field's domain.
    pub fn new(schema: &Schema, sets: Vec<IntervalSet>) -> Result<Self, ModelError> {
        Predicate::check(schema, &sets)?;
        Ok(Predicate { sets })
    }

    /// Checks `sets` as [`Predicate::new`] would, without taking them.
    pub(crate) fn check(schema: &Schema, sets: &[IntervalSet]) -> Result<(), ModelError> {
        if sets.len() != schema.len() {
            return Err(ModelError::ArityMismatch {
                expected: schema.len(),
                found: sets.len(),
            });
        }
        for ((_, field), s) in schema.iter().zip(sets) {
            if s.is_empty() {
                return Err(ModelError::EmptyPredicateField {
                    field: field.name().to_owned(),
                });
            }
            if let Some(max) = s.max_value() {
                if max > field.max() {
                    return Err(ModelError::OutOfDomain {
                        field: field.name().to_owned(),
                        value: max,
                        max: field.max(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Returns a copy with field `id` constrained to `set`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownField`] if `id` is out of range and
    /// [`ModelError::EmptyPredicateField`] if `set` is empty.
    pub fn with_field(&self, id: FieldId, set: IntervalSet) -> Result<Self, ModelError> {
        let mut out = self.clone();
        out.set_field(id, set)?;
        Ok(out)
    }

    /// Constrains field `id` to `set` in place.
    ///
    /// # Errors
    ///
    /// As for [`Predicate::with_field`]; the predicate is then unchanged.
    pub fn set_field(&mut self, id: FieldId, set: IntervalSet) -> Result<(), ModelError> {
        if id.index() >= self.sets.len() {
            return Err(ModelError::UnknownField {
                name: id.to_string(),
            });
        }
        if set.is_empty() {
            return Err(ModelError::EmptyPredicateField {
                field: id.to_string(),
            });
        }
        self.sets[id.index()] = set;
        Ok(())
    }

    /// The value set of field `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: FieldId) -> &IntervalSet {
        &self.sets[id.index()]
    }

    /// All per-field value sets in schema order.
    pub fn sets(&self) -> &[IntervalSet] {
        &self.sets
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.sets.len()
    }

    /// Heap bytes the predicate owns: its vector of sets plus the runs of
    /// every set that keeps them on the heap (two runs or more).
    pub fn heap_bytes(&self) -> usize {
        self.sets.capacity() * std::mem::size_of::<IntervalSet>()
            + self.sets.iter().map(IntervalSet::heap_bytes).sum::<usize>()
    }

    /// Whether the packet satisfies `p1 ∈ S1 ∧ … ∧ pd ∈ Sd`.
    pub fn matches(&self, packet: &Packet) -> bool {
        packet.len() == self.sets.len()
            && self
                .sets
                .iter()
                .enumerate()
                .all(|(i, s)| s.contains(packet.value(FieldId(i))))
    }

    /// Whether every `Si` is one single interval (a *simple* rule predicate,
    /// §3.1).
    pub fn is_simple(&self) -> bool {
        self.sets.iter().all(|s| s.as_single_interval().is_some())
    }

    /// Whether the predicate matches every packet of `schema`.
    pub fn is_any(&self, schema: &Schema) -> bool {
        self.arity() == schema.len()
            && schema
                .iter()
                .all(|(id, f)| self.sets[id.index()].covers(f.domain()))
    }

    /// The field-wise intersection `self ∧ other`, or `None` if some field's
    /// intersection is empty (the predicates match disjoint packet sets).
    pub fn intersect(&self, other: &Predicate) -> Option<Predicate> {
        if self.sets.len() != other.sets.len() {
            return None;
        }
        let mut sets = Vec::with_capacity(self.sets.len());
        for (a, b) in self.sets.iter().zip(&other.sets) {
            let c = a.intersect(b);
            if c.is_empty() {
                return None;
            }
            sets.push(c);
        }
        Some(Predicate { sets })
    }

    /// Whether every packet matching `self` also matches `other`.
    pub fn is_subset_of(&self, other: &Predicate) -> bool {
        self.sets.len() == other.sets.len()
            && self
                .sets
                .iter()
                .zip(&other.sets)
                .all(|(a, b)| a.is_subset_of(b))
    }

    /// Number of packets matched, saturating at `u128::MAX`.
    pub fn count(&self) -> u128 {
        self.sets
            .iter()
            .fold(1u128, |acc, s| acc.saturating_mul(s.count()))
    }

    /// One witness packet matching the predicate.
    ///
    /// Predicates are non-empty by construction, so this always succeeds for
    /// a validly constructed predicate.
    pub fn witness(&self) -> Packet {
        Packet::new(
            self.sets
                .iter()
                .map(|s| s.any_value().unwrap_or(0))
                .collect(),
        )
    }

    /// Decomposes a general predicate into simple (single-interval-per-field)
    /// predicates whose union is exactly `self`.
    ///
    /// The output has `∏ run_count(Si)` entries — this is how a general rule
    /// is lowered to the simple rules that hardware and most firewall
    /// software accept.
    pub fn to_simple_predicates(&self) -> Vec<Predicate> {
        let mut out: Vec<Vec<IntervalSet>> = vec![Vec::new()];
        for s in &self.sets {
            let mut next = Vec::with_capacity(out.len() * s.run_count());
            for prefix in &out {
                for iv in s.iter() {
                    let mut p = prefix.clone();
                    p.push(IntervalSet::from_interval(*iv));
                    next.push(p);
                }
            }
            out = next;
        }
        out.into_iter().map(|sets| Predicate { sets }).collect()
    }

    /// Per-field domains as intervals, for the paper-style display of a
    /// predicate over a specific schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayPredicate<'a> {
        DisplayPredicate {
            predicate: self,
            schema,
        }
    }
}

/// Helper returned by [`Predicate::display`]: formats the predicate with
/// field names, eliding unconstrained fields and rendering 32-bit fields
/// in IP notation, e.g. `iface=0, src=224.168.0.0/16`.
#[derive(Debug)]
pub struct DisplayPredicate<'a> {
    predicate: &'a Predicate,
    schema: &'a Schema,
}

impl std::fmt::Display for DisplayPredicate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        for (id, field) in self.schema.iter() {
            let s = self.predicate.set(id);
            if s.covers(field.domain()) {
                continue;
            }
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "{}=", field.name())?;
            if field.bits() == 32 {
                fmt_ip_set(f, s)?;
            } else {
                write!(f, "{s}")?;
            }
            wrote = true;
        }
        if !wrote {
            write!(f, "*")?;
        }
        Ok(())
    }
}

/// Renders a 32-bit field's value set in the notation administrators read
/// (§7.1's output conversion): a prefix (`224.168.0.0/16`) when a run is
/// prefix-aligned, a bare dotted quad for single addresses, and a dotted
/// range otherwise; runs joined with `|`. The DSL parser accepts every
/// form, so `Display` output still round-trips.
fn fmt_ip_set(f: &mut std::fmt::Formatter<'_>, s: &IntervalSet) -> std::fmt::Result {
    use crate::prefix::{format_ipv4, interval_to_prefixes};
    for (i, iv) in s.iter().enumerate() {
        if i > 0 {
            write!(f, "|")?;
        }
        match interval_to_prefixes(*iv, 32) {
            Ok(ps) if ps.len() == 1 => {
                let p = ps[0];
                if p.plen() == 32 {
                    write!(f, "{}", format_ipv4(p.value()))?;
                } else {
                    write!(f, "{p}")?;
                }
            }
            _ => {
                write!(f, "{}-{}", format_ipv4(iv.lo()), format_ipv4(iv.hi()))?;
            }
        }
    }
    Ok(())
}

/// A convenience alias used across the workspace: a predicate where every
/// field is one interval, i.e. an axis-aligned hyper-rectangle of packets.
pub type PacketBox = Predicate;

impl Predicate {
    /// Internal constructor for trusted (already-validated) sets; used by the
    /// FDD algorithms which maintain the invariants themselves.
    #[doc(hidden)]
    pub fn from_sets_unchecked(sets: Vec<IntervalSet>) -> Self {
        debug_assert!(sets.iter().all(|s| !s.is_empty()));
        Predicate { sets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    fn schema() -> Schema {
        Schema::paper_example()
    }

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn any_matches_everything() {
        let s = schema();
        let p = Predicate::any(&s);
        assert!(p.is_any(&s));
        assert!(p.is_simple());
        assert!(p.matches(&Packet::new(vec![1, u64::from(u32::MAX), 0, 65535, 0])));
    }

    #[test]
    fn new_validates() {
        let s = schema();
        let bad_arity = Predicate::new(&s, vec![IntervalSet::from_value(0)]);
        assert!(matches!(bad_arity, Err(ModelError::ArityMismatch { .. })));

        let mut sets: Vec<IntervalSet> = s
            .iter()
            .map(|(_, f)| IntervalSet::from_interval(f.domain()))
            .collect();
        sets[0] = IntervalSet::empty();
        assert!(matches!(
            Predicate::new(&s, sets.clone()),
            Err(ModelError::EmptyPredicateField { .. })
        ));

        sets[0] = IntervalSet::from_value(7); // iface domain is [0,1]
        assert!(matches!(
            Predicate::new(&s, sets),
            Err(ModelError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn with_field_and_matches() {
        let s = schema();
        let p = Predicate::any(&s)
            .with_field(FieldId(0), IntervalSet::from_value(0))
            .unwrap()
            .with_field(FieldId(3), IntervalSet::from_value(25))
            .unwrap();
        assert!(p.matches(&Packet::new(vec![0, 1, 2, 25, 0])));
        assert!(!p.matches(&Packet::new(vec![1, 1, 2, 25, 0])));
        assert!(!p.matches(&Packet::new(vec![0, 1, 2, 80, 0])));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let s = schema();
        let a = Predicate::any(&s)
            .with_field(FieldId(3), IntervalSet::from_value(25))
            .unwrap();
        let b = Predicate::any(&s)
            .with_field(FieldId(3), IntervalSet::from_value(80))
            .unwrap();
        assert!(a.intersect(&b).is_none());
        let c = Predicate::any(&s)
            .with_field(FieldId(3), IntervalSet::from_interval(iv(0, 100)))
            .unwrap();
        let i = a.intersect(&c).unwrap();
        assert_eq!(i.set(FieldId(3)), &IntervalSet::from_value(25));
    }

    #[test]
    fn subset_and_count() {
        let s = schema();
        let narrow = Predicate::any(&s)
            .with_field(FieldId(0), IntervalSet::from_value(0))
            .unwrap()
            .with_field(FieldId(4), IntervalSet::from_value(1))
            .unwrap();
        assert!(narrow.is_subset_of(&Predicate::any(&s)));
        assert!(!Predicate::any(&s).is_subset_of(&narrow));
        assert_eq!(narrow.count(), (1u128 << 32) * (1 << 32) * (1 << 16));
    }

    #[test]
    fn witness_matches_self() {
        let s = schema();
        let p = Predicate::any(&s)
            .with_field(FieldId(1), IntervalSet::from_interval(iv(100, 200)))
            .unwrap();
        assert!(p.matches(&p.witness()));
    }

    #[test]
    fn to_simple_predicates_cross_product() {
        let s = schema();
        let p = Predicate::any(&s)
            .with_field(
                FieldId(3),
                IntervalSet::from_intervals(vec![iv(25, 25), iv(80, 80), iv(443, 443)]),
            )
            .unwrap()
            .with_field(
                FieldId(0),
                IntervalSet::from_intervals(vec![iv(0, 0), iv(1, 1)]),
            )
            .unwrap();
        // iface intervals merge to one run [0,1]; dport has 3 runs.
        let simple = p.to_simple_predicates();
        assert_eq!(simple.len(), 3);
        assert!(simple.iter().all(Predicate::is_simple));
        // Union of the parts covers the original.
        for sp in &simple {
            assert!(sp.is_subset_of(&p));
        }
    }

    #[test]
    fn display_elides_full_domains() {
        let s = schema();
        let p = Predicate::any(&s)
            .with_field(FieldId(0), IntervalSet::from_value(0))
            .unwrap()
            .with_field(FieldId(3), IntervalSet::from_value(25))
            .unwrap();
        assert_eq!(p.display(&s).to_string(), "iface=0, dport=25");
        assert_eq!(Predicate::any(&s).display(&s).to_string(), "*");
    }
}
