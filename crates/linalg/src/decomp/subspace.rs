//! Truncated symmetric eigendecomposition by block subspace iteration.
//!
//! The Low-Rank Mechanism selects a strategy in an `r`-dimensional invariant
//! subspace of the workload gram matrix `G = WᵀW` with `r ≪ n`, so it needs
//! the *top* `r` eigenpairs of `G` without paying the dense `O(n³)`
//! tridiagonalisation of [`super::SymmetricEigen`].  This module provides
//! them via classical block subspace (simultaneous) iteration with a
//! Rayleigh–Ritz extraction:
//!
//! 1. start from the deterministic block `V₀ = G[:, 0..r] + E_r` (the first
//!    `r` columns of `G` plus the matching identity columns, so the block is
//!    full rank even when `G` is badly scaled),
//! 2. repeat a fixed number of times: `V ← orth(G · V)`,
//! 3. Rayleigh–Ritz: diagonalise the small projection `R = Vᵀ G V` (`r × r`)
//!    with the exact symmetric eigensolver and rotate `Q = V · U`.
//!
//! The cost is `O(n² r)` per iteration plus `O(r³)` for the projected
//! eigenproblem — for `r ≪ n` this is orders of magnitude below the dense
//! decomposition.  The returned Ritz pairs are *approximations* of the top
//! eigenpairs; downstream consumers (the low-rank selector) are constructed
//! so that privacy and unbiasedness within the captured subspace hold for
//! any orthonormal basis, converged or not.
//!
//! # Determinism
//!
//! The start block, the iteration count, and the Gram–Schmidt
//! re-orthogonalisation are all fixed and data-independent; every heavy
//! product goes through the blocked [`crate::ops`] kernels.  Results are
//! therefore bit-identical across thread counts, like every other kernel in
//! this crate.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ops;

use super::SymmetricEigen;

/// Fixed number of `V ← orth(G·V)` power steps.  Eight steps contract the
/// unwanted spectrum by `(λ_{r+1}/λ_r)⁸`, ample for the well-separated
/// spectra of range/marginal workload grams; the constant is part of the
/// determinism contract (never adapt it to observed residuals).
pub const DEFAULT_SUBSPACE_ITERATIONS: usize = 8;

/// Column whose norm falls below this after orthogonalisation against the
/// block is treated as numerically dependent and re-seeded.
const DEPENDENT_COL_TOL: f64 = 1e-12;

/// Rayleigh–Ritz approximation of the top-`r` eigenpairs of a symmetric
/// matrix: `G ≈ basisᵀ · diag(ritz_values) · basis` restricted to the
/// captured subspace.
#[derive(Debug, Clone)]
pub struct TruncatedEigen {
    ritz_values: Vec<f64>,
    basis: Matrix,
}

impl TruncatedEigen {
    /// Computes the top-`rank` Ritz pairs of the symmetric matrix `g` with
    /// [`DEFAULT_SUBSPACE_ITERATIONS`] power steps.  `rank` is clamped to
    /// the dimension of `g`.
    pub fn new(g: &Matrix, rank: usize) -> Result<Self> {
        Self::with_iterations(g, rank, DEFAULT_SUBSPACE_ITERATIONS)
    }

    /// [`TruncatedEigen::new`] with an explicit iteration count (0 performs
    /// only the Rayleigh–Ritz extraction on the start block).
    pub fn with_iterations(g: &Matrix, rank: usize, iterations: usize) -> Result<Self> {
        if !g.is_square() {
            return Err(LinalgError::NotSquare {
                rows: g.rows(),
                cols: g.cols(),
            });
        }
        let n = g.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if rank == 0 {
            return Err(LinalgError::InvalidArgument(
                "subspace iteration requires rank >= 1".into(),
            ));
        }
        let r = rank.min(n);

        // Deterministic start block: the first r columns of G plus the
        // matching identity columns.  The identity part keeps the block full
        // rank even when G's leading columns are dependent or zero.
        let mut v = Matrix::from_fn(n, r, |i, j| g[(i, j)] + if i == j { 1.0 } else { 0.0 });
        orthonormalize_columns(&mut v);

        for _ in 0..iterations {
            v = ops::matmul(g, &v)?;
            orthonormalize_columns(&mut v);
        }

        // Rayleigh–Ritz: diagonalise the r x r projection exactly, then
        // rotate the basis so its columns are the Ritz vectors.
        let gv = ops::matmul(g, &v)?;
        let mut projected = ops::matmul_transpose_left(&v, &gv)?;
        projected.symmetrize_mut();
        let eig = SymmetricEigen::new(&projected)?;
        let rotated = ops::matmul(&v, &eig.eigenvector_rows().transpose())?;

        Ok(TruncatedEigen {
            ritz_values: eig.eigenvalues().to_vec(),
            basis: rotated.transpose(),
        })
    }

    /// Ritz values in descending order (approximations of the top
    /// eigenvalues of `g`).
    pub fn ritz_values(&self) -> &[f64] {
        &self.ritz_values
    }

    /// Orthonormal basis of the captured subspace, one Ritz vector per
    /// **row** (`r x n`), ordered to match [`TruncatedEigen::ritz_values`].
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// Consumes the decomposition, returning `(ritz_values, basis)`.
    pub fn into_parts(self) -> (Vec<f64>, Matrix) {
        (self.ritz_values, self.basis)
    }
}

/// In-place modified Gram–Schmidt with one re-orthogonalisation pass.
///
/// Columns that collapse (numerically dependent on their predecessors, which
/// happens as soon as `rank(G) < r` contracts the block) are re-seeded with
/// the first canonical basis vector that has a non-trivial component in the
/// orthogonal complement — a deterministic choice, so the completed block is
/// always full column rank.
fn orthonormalize_columns(v: &mut Matrix) {
    let (n, r) = v.shape();
    for k in 0..r {
        // Two MGS passes: the second removes the O(eps * condition) residual
        // the first leaves on nearly-dependent columns.
        for _ in 0..2 {
            for j in 0..k {
                let mut dot = 0.0;
                for i in 0..n {
                    dot += v[(i, j)] * v[(i, k)];
                }
                for i in 0..n {
                    v[(i, k)] -= dot * v[(i, j)];
                }
            }
        }
        let mut norm_sq = 0.0;
        for i in 0..n {
            norm_sq += v[(i, k)] * v[(i, k)];
        }
        if norm_sq.sqrt() <= DEPENDENT_COL_TOL {
            reseed_column(v, k);
        } else {
            let inv = 1.0 / norm_sq.sqrt();
            for i in 0..n {
                v[(i, k)] *= inv;
            }
        }
    }
}

/// Replaces column `k` with the first canonical basis vector whose residual
/// against columns `0..k` is non-trivial, orthogonalised and normalised.
fn reseed_column(v: &mut Matrix, k: usize) {
    let n = v.rows();
    for seed in 0..n {
        for i in 0..n {
            v[(i, k)] = if i == seed { 1.0 } else { 0.0 };
        }
        for _ in 0..2 {
            for j in 0..k {
                let mut dot = 0.0;
                for i in 0..n {
                    dot += v[(i, j)] * v[(i, k)];
                }
                for i in 0..n {
                    v[(i, k)] -= dot * v[(i, j)];
                }
            }
        }
        let mut norm_sq = 0.0;
        for i in 0..n {
            norm_sq += v[(i, k)] * v[(i, k)];
        }
        // Some canonical vector always has residual norm² >= (n-k)/n, so
        // this branch is taken within the first few seeds.
        if norm_sq.sqrt() > 1e-6 {
            let inv = 1.0 / norm_sq.sqrt();
            for i in 0..n {
                v[(i, k)] *= inv;
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// A symmetric matrix with a known spectrum: Qᵀ diag(d) Q for a
    /// Householder Q.
    fn spectrum_matrix(n: usize, d: &[f64]) -> Matrix {
        let mut u = vec![0.0; n];
        for (i, x) in u.iter_mut().enumerate() {
            *x = (i as f64 + 1.0).sqrt();
        }
        let norm_sq: f64 = u.iter().map(|x| x * x).sum();
        let q = Matrix::from_fn(n, n, |i, j| {
            let delta = if i == j { 1.0 } else { 0.0 };
            delta - 2.0 * u[i] * u[j] / norm_sq
        });
        let dq = ops::scale_rows(d, &q).unwrap();
        ops::matmul_transpose_left(&q, &dq).unwrap()
    }

    #[test]
    fn recovers_top_eigenpairs_of_a_separated_spectrum() {
        let n = 24;
        let d: Vec<f64> = (0..n).map(|i| 10.0_f64.powi(-(i as i32))).collect();
        let g = spectrum_matrix(n, &d);
        let r = 6;
        let trunc = TruncatedEigen::new(&g, r).unwrap();
        assert_eq!(trunc.ritz_values().len(), r);
        assert_eq!(trunc.basis().shape(), (r, n));
        for (k, &ritz) in trunc.ritz_values().iter().enumerate() {
            assert!(
                approx_eq(ritz, d[k], 1e-8 * d[0]),
                "ritz value {k}: {ritz} vs eigenvalue {}",
                d[k]
            );
        }
        // Residual check: ||G q - λ q|| small for each Ritz pair.
        for k in 0..r {
            let q: Vec<f64> = (0..n).map(|i| trunc.basis()[(k, i)]).collect();
            let gq = g.matvec(&q).unwrap();
            let mut resid = 0.0_f64;
            for i in 0..n {
                let diff = gq[i] - trunc.ritz_values()[k] * q[i];
                resid += diff * diff;
            }
            assert!(resid.sqrt() < 1e-7 * d[0], "residual for pair {k}: {resid}");
        }
    }

    #[test]
    fn basis_rows_are_orthonormal() {
        let n = 16;
        let d: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let g = spectrum_matrix(n, &d);
        let trunc = TruncatedEigen::new(&g, 5).unwrap();
        let b = trunc.basis();
        let bbt = ops::matmul_a_bt(b, b).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(bbt[(i, j)], want, 1e-12), "BBᵀ[{i},{j}]");
            }
        }
    }

    #[test]
    fn rank_deficient_matrix_yields_zero_tail_ritz_values() {
        // rank(G) = 3 but we ask for r = 6: the tail Ritz values must be
        // (numerically) zero and the basis still full rank / orthonormal.
        let n = 12;
        let mut d = vec![0.0; n];
        d[0] = 5.0;
        d[1] = 3.0;
        d[2] = 1.0;
        let g = spectrum_matrix(n, &d);
        let trunc = TruncatedEigen::new(&g, 6).unwrap();
        for (k, &dk) in d.iter().enumerate().take(3) {
            assert!(approx_eq(trunc.ritz_values()[k], dk, 1e-8));
        }
        for k in 3..6 {
            assert!(trunc.ritz_values()[k].abs() < 1e-8);
        }
        let b = trunc.basis();
        let bbt = ops::matmul_a_bt(b, b).unwrap();
        for i in 0..6 {
            assert!(approx_eq(bbt[(i, i)], 1.0, 1e-10), "row {i} not unit");
        }
    }

    #[test]
    fn full_rank_request_matches_dense_eigensolver() {
        let n = 10;
        let d: Vec<f64> = (0..n).map(|i| (2 * n - i) as f64).collect();
        let g = spectrum_matrix(n, &d);
        let trunc = TruncatedEigen::new(&g, n).unwrap();
        let dense = SymmetricEigen::new(&g).unwrap();
        for k in 0..n {
            assert!(
                approx_eq(trunc.ritz_values()[k], dense.eigenvalues()[k], 1e-8),
                "value {k}"
            );
        }
    }

    #[test]
    fn rank_is_clamped_and_zero_rank_rejected() {
        let g = spectrum_matrix(4, &[4.0, 3.0, 2.0, 1.0]);
        let trunc = TruncatedEigen::new(&g, 99).unwrap();
        assert_eq!(trunc.ritz_values().len(), 4);
        assert!(TruncatedEigen::new(&g, 0).is_err());
        assert!(TruncatedEigen::new(&Matrix::zeros(3, 4), 2).is_err());
    }

    #[test]
    fn deterministic_across_calls() {
        let n = 20;
        let d: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let g = spectrum_matrix(n, &d);
        let a = TruncatedEigen::new(&g, 7).unwrap();
        let b = TruncatedEigen::new(&g, 7).unwrap();
        assert_eq!(
            a.ritz_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.ritz_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            a.basis()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.basis()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
