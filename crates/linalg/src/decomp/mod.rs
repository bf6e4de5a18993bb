//! Matrix factorizations.
//!
//! * [`cholesky`] — `A = L Lᵀ` for symmetric positive definite matrices; the
//!   workhorse for inverting strategy gram matrices `AᵀA` and for the
//!   mechanism's least-squares inference step (two triangular solves).
//! * [`eigen`] — symmetric eigendecomposition (Householder tridiagonalisation
//!   followed by the implicit-shift QL iteration), the heart of the
//!   Eigen-Design algorithm which diagonalises `WᵀW`.
//! * [`subspace`] — truncated symmetric eigendecomposition by block subspace
//!   iteration with Rayleigh–Ritz extraction, the `O(n²r)` kernel behind the
//!   Low-Rank Mechanism's subspace selection.

pub mod cholesky;
pub mod eigen;
pub mod subspace;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use subspace::TruncatedEigen;
