use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::{FieldId, ModelError, Schema};

/// Field values a packet stores inline: every schema in the tree has five
/// fields, and five keep an inline packet at 48 bytes. A wider packet keeps
/// its values on the heap.
const INLINE: usize = 5;

/// A packet: one value per schema field, in schema order (§3.1's `d`-tuple).
///
/// Up to five values are stored inline, so building, cloning and dropping
/// such a packet never touches the allocator; wider packets fall back to
/// the heap. Equality, hashing and formatting see only the values.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::{Packet, Schema};
///
/// let schema = Schema::tcp_ip();
/// let p = Packet::new(vec![0x0A00_0001, 0xC0A8_0001, 49152, 443, 6]);
/// p.validate(&schema)?;
/// assert_eq!(p.get(fw_model::FieldId(3)), Some(443));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Packet {
    values: Values,
}

/// A packet's storage: inline up to [`INLINE`] values, else on the heap.
#[derive(Clone, Serialize, Deserialize)]
enum Values {
    Inline { len: u8, buf: [u64; INLINE] },
    Heap(Vec<u64>),
}

impl Packet {
    /// Creates a packet from field values in schema order.
    pub fn new(values: Vec<u64>) -> Self {
        if values.len() <= INLINE {
            values.into_iter().collect()
        } else {
            Packet {
                values: Values::Heap(values),
            }
        }
    }

    /// Decodes one [`crate::trace_wire`] row: little-endian `u64`s back to
    /// back. A fixed loop over a count known up front; collecting the row
    /// through [`FromIterator`], which tests for the end of input at every
    /// value, made a 1,024-packet decode take about 1.7 times as long. The
    /// heap arm builds its vector here too: routing it through
    /// [`Packet::new`] tripled the same decode (16 → 48 µs), though no
    /// five-field row takes that arm.
    pub(crate) fn from_le_row(row: &[u8]) -> Packet {
        let (words, _) = row.as_chunks::<{ crate::trace_wire::VALUE_LEN }>();
        let len = words.len();
        if len > INLINE {
            return Packet {
                values: Values::Heap(words.iter().map(|&w| crate::trace_wire::value(w)).collect()),
            };
        }
        let mut buf = [0u64; INLINE];
        for (slot, &word) in buf.iter_mut().zip(words) {
            *slot = crate::trace_wire::value(word);
        }
        Packet {
            values: Values::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// The value of field `id`, or `None` if out of range.
    pub fn get(&self, id: FieldId) -> Option<u64> {
        self.values().get(id.index()).copied()
    }

    /// The value of field `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: FieldId) -> u64 {
        self.values()[id.index()]
    }

    /// All field values in schema order.
    pub fn values(&self) -> &[u64] {
        match &self.values {
            Values::Inline { len, buf } => &buf[..usize::from(*len)],
            Values::Heap(values) => values,
        }
    }

    /// Number of fields in the packet.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Whether the packet carries no fields.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Checks the packet against a schema: right arity, every value inside
    /// its field's domain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] or [`ModelError::OutOfDomain`].
    pub fn validate(&self, schema: &Schema) -> Result<(), ModelError> {
        let values = self.values();
        if values.len() != schema.len() {
            return Err(ModelError::ArityMismatch {
                expected: schema.len(),
                found: values.len(),
            });
        }
        for (id, field) in schema.iter() {
            let v = values[id.index()];
            if v > field.max() {
                return Err(ModelError::OutOfDomain {
                    field: field.name().to_owned(),
                    value: v,
                    max: field.max(),
                });
            }
        }
        Ok(())
    }
}

/// Collects values inline while they fit, moving them to the heap at the
/// sixth.
impl FromIterator<u64> for Packet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [0u64; INLINE];
        for len in 0..INLINE {
            match iter.next() {
                Some(v) => buf[len] = v,
                None => {
                    return Packet {
                        values: Values::Inline {
                            len: len as u8,
                            buf,
                        },
                    }
                }
            }
        }
        let values = match iter.next() {
            None => Values::Inline {
                len: INLINE as u8,
                buf,
            },
            Some(next) => {
                let mut heap = buf.to_vec();
                heap.push(next);
                heap.extend(iter);
                Values::Heap(heap)
            }
        };
        Packet { values }
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Packet {}

/// Hashes the value slice alone, as a `Vec<u64>` of the same values does.
impl Hash for Packet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("values", &self.values())
            .finish()
    }
}

impl From<Vec<u64>> for Packet {
    fn from(values: Vec<u64>) -> Self {
        Packet::new(values)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_arity_and_domain() {
        let schema = Schema::paper_example();
        assert!(Packet::new(vec![0, 1, 2, 3, 1]).validate(&schema).is_ok());
        assert!(matches!(
            Packet::new(vec![0, 1, 2]).validate(&schema),
            Err(ModelError::ArityMismatch {
                expected: 5,
                found: 3
            })
        ));
        assert!(matches!(
            Packet::new(vec![2, 1, 2, 3, 1]).validate(&schema),
            Err(ModelError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn accessors() {
        let p = Packet::new(vec![10, 20, 30]);
        assert_eq!(p.get(FieldId(1)), Some(20));
        assert_eq!(p.get(FieldId(9)), None);
        assert_eq!(p.value(FieldId(2)), 30);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn display_tuple() {
        assert_eq!(Packet::new(vec![1, 2, 3]).to_string(), "(1, 2, 3)");
    }
}
