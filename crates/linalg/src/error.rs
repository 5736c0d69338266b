//! Error type shared by every fallible routine in the crate.

use std::fmt;

/// Errors produced by numeric routines.
///
/// Dimension mismatches are treated as programming errors and panic at the
/// call site instead; the variants here are conditions a caller may
/// legitimately want to recover from.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// An iterative routine exceeded its iteration budget.
    ///
    /// Carries the routine name and the iteration limit that was hit.
    NoConvergence {
        /// Name of the routine that failed to converge.
        routine: &'static str,
        /// Iteration limit that was exhausted.
        max_iter: usize,
    },
    /// Input matrix was expected to be symmetric but is not.
    NotSymmetric {
        /// Largest observed asymmetry `|a_ij - a_ji|`.
        max_asymmetry: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NoConvergence { routine, max_iter } => {
                write!(f, "{routine} did not converge within {max_iter} iterations")
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(f, "matrix is not symmetric: max |a_ij - a_ji| = {max_asymmetry:e}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence { routine: "tql2", max_iter: 30 };
        assert_eq!(e.to_string(), "tql2 did not converge within 30 iterations");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> =
            Box::new(LinalgError::NotSymmetric { max_asymmetry: 0.5 });
        assert!(e.to_string().contains("symmetric"));
    }
}
