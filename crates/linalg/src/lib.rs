//! # mm-linalg
//!
//! Dense linear algebra substrate for the adaptive matrix mechanism.
//!
//! The matrix mechanism (Li & Miklau, VLDB 2012) is linear-algebraic throughout:
//! workloads and strategies are matrices, error is a trace expression, strategy
//! selection diagonalises the workload gram matrix `WᵀW`.  This crate provides
//! everything those computations need, implemented from scratch on a simple
//! row-major [`Matrix`] type:
//!
//! * basic matrix/vector arithmetic, [`ops::matmul`], [`ops::gram`],
//!   [`ops::kron`] (Kronecker products drive multi-dimensional workloads),
//! * factorizations in [`decomp`]: Cholesky (with multi-right-hand-side
//!   triangular solves, the matrix mechanism's least-squares inference step),
//!   symmetric eigendecomposition (tridiagonalisation + implicit-shift QL)
//!   and its truncated block-subspace variant,
//! * the matrix-free [`LinearOperator`] abstraction structured strategies
//!   answer through.
//!
//! The crate is `no-unsafe`, has no dependencies, and every routine is covered
//! by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
pub mod error;
pub mod matrix;
pub mod operator;
pub mod ops;
pub mod parallel;
pub mod vector;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use operator::{ExplicitOperator, LinearOperator};

/// Default absolute tolerance used when comparing floating point results in
/// this workspace (tests, rank decisions, convergence checks).
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns true when `a` and `b` are equal up to `tol` absolutely or relatively.
///
/// This is the comparison used throughout the workspace's tests: two values are
/// considered equal when either their absolute difference or their difference
/// relative to the larger magnitude is below `tol`.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
    }
}
