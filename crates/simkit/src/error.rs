//! Shared error type for the simulation toolkit.

use std::fmt;

/// Convenience alias for results produced by `simkit` and the crates built
/// on top of it.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the simulation toolkit.
///
/// # Examples
///
/// ```
/// use simkit::Error;
///
/// let err = Error::DimensionMismatch { expected: 4, actual: 3 };
/// assert_eq!(err.to_string(), "dimension mismatch: expected 4, got 3");
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Two operands did not have compatible dimensions.
    DimensionMismatch {
        /// Dimension the operation required.
        expected: usize,
        /// Dimension that was actually supplied.
        actual: usize,
    },
    /// An iterative solver failed to reach the requested tolerance.
    NonConverged {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual norm when iteration stopped.
        residual: f64,
    },
    /// A matrix was structurally or numerically singular.
    SingularMatrix {
        /// Row (or diagonal index) at which singularity was detected.
        index: usize,
    },
    /// A factorization that requires symmetric positive definiteness
    /// encountered a non-positive pivot.
    NotPositiveDefinite {
        /// Diagonal index (in the original, unpermuted numbering) at
        /// which the offending pivot appeared.
        index: usize,
        /// Value of the offending pivot.
        pivot: f64,
    },
    /// A matrix's sparsity pattern differs from the one a cached
    /// structure was built for (an LDLᵀ factor's elimination tree and
    /// column windows), though its size and entry count match.
    PatternMismatch,
    /// An argument was outside its legal range.
    InvalidArgument {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// A lookup table or interpolation domain was empty or malformed.
    EmptyDomain,
}

impl Error {
    /// Builds an [`Error::InvalidArgument`] from anything printable.
    pub fn invalid_argument(reason: impl Into<String>) -> Self {
        Error::InvalidArgument {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::NonConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            Error::SingularMatrix { index } => {
                write!(f, "matrix is singular at index {index}")
            }
            Error::NotPositiveDefinite { index, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:.3e} at index {index}"
            ),
            Error::PatternMismatch => {
                write!(f, "sparsity pattern differs from the factored matrix's")
            }
            Error::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            Error::EmptyDomain => write!(f, "empty interpolation or lookup domain"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = Error::NonConverged {
            iterations: 100,
            residual: 1e-3,
        };
        let msg = err.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("converge"));
    }

    #[test]
    fn invalid_argument_builder() {
        let err = Error::invalid_argument("negative area");
        assert_eq!(err.to_string(), "invalid argument: negative area");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(Error::EmptyDomain, Error::EmptyDomain);
        assert_ne!(Error::EmptyDomain, Error::SingularMatrix { index: 0 },);
    }
}
