use std::error::Error;
use std::fmt;

use fw_model::{FieldId, ModelError, Schema};

/// Errors produced by the FDD algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Two operands (firewalls or FDDs) use different schemas; the paper's
    /// algorithms require a common field set and order.
    SchemaMismatch,
    /// The rule sequence is not comprehensive: some packet matches no rule,
    /// so no total FDD exists (§3.1 requires comprehensiveness).
    NotComprehensive {
        /// A human-readable description of an uncovered packet region.
        witness: String,
    },
    /// An operation required a *simple* FDD (every edge one interval, every
    /// node one parent; Definition 4.3) but the input was not simple.
    NotSimple,
    /// An FDD invariant (consistency, completeness, orderedness, label
    /// domains) was violated; carries a description of the violation.
    Invariant(String),
    /// An underlying model error (invalid rule, packet, schema, …).
    Model(ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SchemaMismatch => {
                write!(f, "operands use different schemas")
            }
            CoreError::NotComprehensive { witness } => {
                write!(
                    f,
                    "rule sequence is not comprehensive: no rule matches {witness}"
                )
            }
            CoreError::NotSimple => write!(f, "operation requires a simple FDD"),
            CoreError::Invariant(msg) => write!(f, "FDD invariant violated: {msg}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

/// Spells a packet region as `field=value` pairs, one per constrained
/// field, every other field free: the form every constructor and
/// [`crate::ConsArena::unmatched_witness`] report an unmatched packet in.
pub(crate) fn spell_region(
    schema: &Schema,
    path: impl IntoIterator<Item = (FieldId, u64)>,
) -> String {
    path.into_iter()
        .map(|(f, v)| format!("{}={v}", schema.field(f).name()))
        .collect::<Vec<_>>()
        .join(", ")
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_chains_model_errors() {
        let e = CoreError::Model(ModelError::EmptySchema);
        assert!(e.source().is_some());
        assert!(CoreError::SchemaMismatch.source().is_none());
    }

    #[test]
    fn display_mentions_witness() {
        let e = CoreError::NotComprehensive {
            witness: "iface=1".to_owned(),
        };
        assert!(e.to_string().contains("iface=1"));
    }
}
