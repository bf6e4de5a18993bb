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

/// Workload grams built from their closed forms, for the decomposition
/// tests: degenerate spectra and rank deficiency without a dependency on
/// the workload crate.
#[cfg(test)]
pub(crate) mod test_grams {
    use crate::matrix::Matrix;
    use crate::ops::kron;

    /// Gram of the unnormalized 1D all-range workload on `n` cells:
    /// `G[i][j] = (min + 1)(n − max)`.
    pub fn all_range_gram(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (lo + 1.0) * (n as f64 - hi)
        })
    }

    /// Gram of the 2-way range marginals on `sizes`, rank-deficient: for
    /// each attribute pair, the Kronecker product of the all-range grams on
    /// the pair and all-ones blocks on the attributes summed out.
    pub fn range_marginal_gram(sizes: &[usize]) -> Matrix {
        let n: usize = sizes.iter().product();
        let mut g = Matrix::zeros(n, n);
        for a in 0..sizes.len() {
            for b in (a + 1)..sizes.len() {
                let mut block = Matrix::identity(1);
                for (k, &d) in sizes.iter().enumerate() {
                    let factor = if k == a || k == b {
                        all_range_gram(d)
                    } else {
                        Matrix::filled(d, d, 1.0)
                    };
                    block = kron(&block, &factor);
                }
                g += &block;
            }
        }
        g
    }
}
