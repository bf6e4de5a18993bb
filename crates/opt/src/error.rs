//! Error type for the optimization crate.

use std::fmt;

/// Result alias for optimization routines.
pub type Result<T> = std::result::Result<T, OptError>;

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The problem definition is inconsistent (shapes, negative costs, …).
    InvalidProblem(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
        }
    }
}

impl std::error::Error for OptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(OptError::InvalidProblem("x".into())
            .to_string()
            .contains("x"));
    }
}
