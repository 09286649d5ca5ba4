use std::error::Error;
use std::fmt;

use fw_core::CoreError;
use fw_model::ModelError;

/// Errors produced by the diverse-design workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiverseError {
    /// An underlying FDD-algorithm error.
    Core(CoreError),
    /// An underlying model error.
    Model(ModelError),
    /// An underlying compiled-runtime error (lowering the agreed firewall
    /// into an executable matcher).
    Exec(fw_exec::ExecError),
    /// A resolution does not match the comparison it claims to resolve
    /// (its entries are not the comparison's discrepancies, in order), or
    /// names a version the comparison does not have.
    ResolutionMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
    /// The finalisation self-check failed: a generated firewall does not
    /// satisfy the resolution (this indicates a bug and is always worth
    /// surfacing rather than silently deploying a wrong policy).
    VerificationFailed {
        /// Human-readable description of the failed check.
        message: String,
    },
}

impl fmt::Display for DiverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiverseError::Core(e) => write!(f, "core error: {e}"),
            DiverseError::Model(e) => write!(f, "model error: {e}"),
            DiverseError::Exec(e) => write!(f, "exec error: {e}"),
            DiverseError::ResolutionMismatch { message } => {
                write!(f, "resolution mismatch: {message}")
            }
            DiverseError::VerificationFailed { message } => {
                write!(f, "verification failed: {message}")
            }
        }
    }
}

impl Error for DiverseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DiverseError::Core(e) => Some(e),
            DiverseError::Model(e) => Some(e),
            DiverseError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DiverseError {
    fn from(e: CoreError) -> Self {
        DiverseError::Core(e)
    }
}

impl From<ModelError> for DiverseError {
    fn from(e: ModelError) -> Self {
        DiverseError::Model(e)
    }
}

impl From<fw_exec::ExecError> for DiverseError {
    fn from(e: fw_exec::ExecError) -> Self {
        DiverseError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain() {
        let e = DiverseError::from(CoreError::SchemaMismatch);
        assert!(e.source().is_some());
        let e = DiverseError::ResolutionMismatch {
            message: "x".into(),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn nested_model_error_converts() {
        let e: DiverseError = ModelError::EmptySchema.into();
        assert!(e.to_string().contains("schema"));
    }
}
