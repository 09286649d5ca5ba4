use std::error::Error;
use std::fmt;

use fw_core::CoreError;
use fw_model::ModelError;

/// Errors produced while compiling, serialising or running a matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// An underlying FDD-algorithm error (construction or reduction).
    Core(CoreError),
    /// An underlying model error (packet/schema validation).
    Model(ModelError),
    /// The source diagram violates an invariant the lowering pass relies on
    /// (a node whose edges do not partition its field's domain, an
    /// out-of-order edge target, or an oversized arena).
    Invariant(String),
    /// A wire image failed to decode (truncation, bad magic/version, schema
    /// mismatch, or structurally invalid content).
    Wire(String),
    /// A batch or serving configuration error (ragged columns, an empty
    /// calibration batch, a zero cache capacity, a profile sized for
    /// another image).
    Batch(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Core(e) => write!(f, "core error: {e}"),
            ExecError::Model(e) => write!(f, "model error: {e}"),
            ExecError::Invariant(m) => write!(f, "lowering invariant violated: {m}"),
            ExecError::Wire(m) => write!(f, "wire format error: {m}"),
            ExecError::Batch(m) => write!(f, "batch error: {m}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Core(e) => Some(e),
            ExecError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ExecError {
    fn from(e: CoreError) -> Self {
        ExecError::Core(e)
    }
}

impl From<ModelError> for ExecError {
    fn from(e: ModelError) -> Self {
        ExecError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain() {
        assert!(ExecError::from(CoreError::SchemaMismatch)
            .source()
            .is_some());
        assert!(ExecError::from(ModelError::EmptySchema).source().is_some());
        assert!(ExecError::Invariant("x".into()).source().is_none());
        assert!(ExecError::Wire("y".into()).to_string().contains("wire"));
        assert!(ExecError::Batch("z".into()).to_string().contains("batch"));
    }
}
