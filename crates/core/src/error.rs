//! Error type for the core solver.

use std::fmt;
use umsc_linalg::LinalgError;

/// Errors from fitting the unified model.
#[derive(Debug, Clone, PartialEq)]
pub enum UmscError {
    /// The input dataset failed validation (message from
    /// `MultiViewDataset::validate` or solver-specific checks).
    InvalidInput(String),
    /// An underlying linear-algebra routine failed.
    Linalg(LinalgError),
}

impl fmt::Display for UmscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UmscError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            UmscError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for UmscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UmscError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for UmscError {
    fn from(e: LinalgError) -> Self {
        UmscError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = UmscError::InvalidInput("no views".into());
        assert!(e.to_string().contains("no views"));
        let e = UmscError::from(LinalgError::NoConvergence { routine: "tql2", max_iter: 50 });
        assert!(e.to_string().contains("did not converge"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
