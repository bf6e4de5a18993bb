//! Symmetric eigendecomposition.
//!
//! The Eigen-Design algorithm (Program 2 of the paper) diagonalises the
//! workload gram matrix `WᵀW = Qᵀ D Q`; the rows of `Q` (the eigenvectors of
//! `WᵀW`) become the *design queries* and the eigenvalues become the costs of
//! the weighting program.  This module provides that decomposition via the
//! classical two-phase algorithm:
//!
//! 1. Householder reduction to tridiagonal form (`tred2`),
//! 2. implicit-shift QL iteration on the tridiagonal matrix with accumulation
//!    of the transformations (`tql2_rows`).
//!
//! A cyclic Jacobi implementation is also provided; it is slower but
//! independent, and the test-suite uses it to cross-validate the QL results.
//! Every constructor returns the eigenvectors as the rows of `Q`
//! ([`SymmetricEigen::eigenvector_rows`]), sorted by descending eigenvalue.
//!
//! # Performance and determinism
//!
//! The production kernels behind [`SymmetricEigen::new`] are restructured for
//! locality and parallelism.  `tred2`'s symmetric matvec and its rank-2 /
//! rank-1 updates run row-wise (the textbook formulation walks columns of a
//! row-major matrix).
//!
//! The QL phase runs on the **transposed basis**.  `tred2` accumulates the
//! eigenvector basis as columns; it is transposed once, in place, so each
//! basis vector is a contiguous row.  A QL rotation `(i, c, s)` mixes
//! columns `i` and `i + 1` of the textbook basis, which are now rows `i` and
//! `i + 1`: two contiguous streams the compiler vectorises.  Each
//! implicit-shift sweep records its rotations and applies them in recorded
//! order, so every basis entry sees exactly the multiplies and adds the
//! textbook loop (`tql2_scalar`) gives it, in the same order: the bits do
//! not change.  The sorted rows are the paper's `Q` with no further
//! transpose.
//!
//! Work is partitioned over fixed boundaries with per-block sequential
//! accumulation (the [`crate::parallel`] contract), so results are
//! bit-identical across thread counts.  A sweep large enough to thread splits
//! the columns of the basis into one chunk per thread, and each thread
//! replays the whole sweep on its chunk; no entry's update order depends on
//! the split.  The textbook scalar kernels are kept as
//! [`SymmetricEigen::new_scalar`] for cross-validation and benchmarking,
//! exactly as `jacobi` is kept as an independent reference.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ops;
use crate::parallel;

/// Maximum QL iterations per eigenvalue before reporting non-convergence.
const MAX_QL_ITER: usize = 100;

/// Rows per partial in blocked vector reductions.  A compile-time constant so
/// partial boundaries — and therefore results — never depend on the thread
/// count.
const REDUCE_BLOCK: usize = 128;

/// Minimum number of updated entries before a phase spawns worker threads.
///
/// Each phase starts its own scoped threads, and below about a million
/// entries the start-up costs more than the split saves: on a 2-vCPU host an
/// n = 256 eigensolve took 41 ms on two threads against 9 ms on one at a
/// floor of 16 384.  No phase of an n ≤ 1024 eigensolve reaches this floor
/// (its largest is 1024 × 1023 entries); n = 2048 still gains from threads.
const EIG_PARALLEL_WORK: usize = 1 << 20;

/// Eigendecomposition of a real symmetric matrix `A = Qᵀ diag(λ) Q`.
///
/// Eigenvalues are sorted in descending order and the rows of `Q` are the
/// corresponding orthonormal eigenvectors.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Matrix whose rows are eigenvectors (same order as `eigenvalues`).
    eigenvector_rows: Matrix,
}

impl SymmetricEigen {
    /// Computes the decomposition of a symmetric matrix using
    /// Householder tridiagonalisation + implicit QL on the transposed basis.
    ///
    /// The matrix is symmetrised (`(A+Aᵀ)/2`) first, so small asymmetries from
    /// accumulated floating point error in gram computations are tolerated.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut z = symmetrized(a)?;
        let n = z.rows();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2(&mut z, &mut d, &mut e);
        // Transposed in place: until the sort copies the rows, the basis is
        // the one n×n buffer the eigensolve holds.
        for i in 0..n {
            for j in (i + 1)..n {
                let t = z[(i, j)];
                z[(i, j)] = z[(j, i)];
                z[(j, i)] = t;
            }
        }
        tql2_rows(&mut z, &mut d, &mut e)?;
        Ok(Self::sorted(&d, &z))
    }

    /// Computes the decomposition with the textbook scalar kernels
    /// (`tred2_scalar` + `tql2_scalar`).
    ///
    /// This is the **reference implementation** the restructured
    /// [`SymmetricEigen::new`] is cross-validated against in tests and
    /// benchmarked against in `selection_latency`; production callers should
    /// use [`SymmetricEigen::new`].
    pub fn new_scalar(a: &Matrix) -> Result<Self> {
        let mut z = symmetrized(a)?;
        let n = z.rows();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2_scalar(&mut z, &mut d, &mut e);
        tql2_scalar(&mut z, &mut d, &mut e)?;
        Ok(Self::sorted(&d, &z.transpose()))
    }

    /// Computes the decomposition with the cyclic Jacobi method.
    ///
    /// O(n³) per sweep with a larger constant than [`SymmetricEigen::new`];
    /// intended for small matrices and cross-validation.
    pub fn jacobi(a: &Matrix) -> Result<Self> {
        let mut m = symmetrized(a)?;
        let n = m.rows();
        let mut v = Matrix::identity(n);
        let max_sweeps = 64;
        for _sweep in 0..max_sweeps {
            // Sum of off-diagonal magnitudes.
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)].abs();
                }
            }
            if off < 1e-14 * (1.0 + m.max_abs()) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Apply the rotation to M on both sides.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Ok(Self::sorted(&m.diag(), &v.transpose()))
    }

    /// Sorts the eigenpairs by descending eigenvalue: `rows` holds eigenvector
    /// `j` in row `j`, paired with `d[j]`.
    fn sorted(d: &[f64], rows: &Matrix) -> Self {
        let mut order: Vec<usize> = (0..d.len()).collect();
        order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
        SymmetricEigen {
            eigenvalues: order.iter().map(|&i| d[i]).collect(),
            eigenvector_rows: rows
                .select_rows(&order)
                .expect("the sort order is a permutation of the rows"),
        }
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The matrix `Q` whose **rows** are the eigenvectors, ordered like the
    /// eigenvalues: the paper's convention `WᵀW = Qᵀ D Q`.
    pub fn eigenvector_rows(&self) -> &Matrix {
        &self.eigenvector_rows
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Number of eigenvalues larger than `tol * max(|λ|)` — the numerical rank.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self
            .eigenvalues
            .iter()
            .fold(0.0_f64, |m, &x| m.max(x.abs()));
        if max == 0.0 {
            return 0;
        }
        self.eigenvalues
            .iter()
            .filter(|&&x| x.abs() > tol * max)
            .count()
    }

    /// Reconstructs `Qᵀ diag(λ) Q` (used by tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        let q = &self.eigenvector_rows;
        let mut out = Matrix::zeros(n, n);
        for (k, &lam) in self.eigenvalues.iter().enumerate() {
            if lam == 0.0 {
                continue;
            }
            let qk = q.row(k);
            for (i, &qki) in qk.iter().enumerate() {
                if qki == 0.0 {
                    continue;
                }
                for (o, &qkj) in out.row_mut(i).iter_mut().zip(qk) {
                    *o += lam * qki * qkj;
                }
            }
        }
        out
    }
}

/// Checks that `a` is square and non-empty and returns `(A + Aᵀ)/2`.
fn symmetrized(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if a.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    let mut z = a.clone();
    z.symmetrize_mut();
    Ok(z)
}

/// Blocked vector reduction: `rows` items produce one `len`-vector.  Each
/// fixed [`REDUCE_BLOCK`]-row block accumulates its own partial sequentially
/// (ascending rows); blocks are distributed over threads and the partials are
/// merged in ascending block order, so the result is bit-identical for any
/// thread count.
fn block_reduce<F>(rows: usize, len: usize, fill: &F) -> Vec<f64>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let nblocks = rows.div_ceil(REDUCE_BLOCK).max(1);
    let threads = if rows * len >= EIG_PARALLEL_WORK {
        parallel::threads_for(nblocks)
    } else {
        1
    };
    let mut partials = vec![0.0f64; nblocks * len];
    if threads <= 1 {
        for (b, partial) in partials.chunks_mut(len).enumerate() {
            let start = b * REDUCE_BLOCK;
            fill(start, (start + REDUCE_BLOCK).min(rows), partial);
        }
    } else {
        let bpt = nblocks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, chunk) in partials.chunks_mut(bpt * len).enumerate() {
                scope.spawn(move || {
                    for (bi, partial) in chunk.chunks_mut(len).enumerate() {
                        let start = (t * bpt + bi) * REDUCE_BLOCK;
                        if start >= rows {
                            break;
                        }
                        fill(start, (start + REDUCE_BLOCK).min(rows), partial);
                    }
                });
            }
        });
    }
    let mut out = vec![0.0f64; len];
    for partial in partials.chunks(len) {
        for (o, &p) in out.iter_mut().zip(partial) {
            *o += p;
        }
    }
    out
}

/// Householder reduction of the symmetric matrix stored in `z` to tridiagonal
/// form, accumulating the orthogonal transformation in `z`.
///
/// On exit `d` holds the diagonal and `e[1..]` the sub-diagonal.  Same
/// algorithm as [`tred2_scalar`], restructured row-wise: the symmetric matvec
/// `Z·u` is a blocked row reduction (dot for the lower part, axpy for the
/// mirrored part), and the rank-2 / rank-1 updates run over disjoint rows in
/// parallel.
fn tred2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for &v in &z.row(i)[..=l] {
                scale += v.abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for v in &mut z.row_mut(i)[..=l] {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                // The Householder vector u is the (scaled) row i; stable for
                // the rest of the iteration (only rows 0..=l are updated).
                let u: Vec<f64> = z.row(i)[..=l].to_vec();
                for (j, &uj) in u.iter().enumerate() {
                    z[(j, i)] = uj / h;
                }
                // e0 = Z u over the leading (l+1)² block stored in the lower
                // triangle: per row j, a dot for Σ_{k≤j} Z_{jk} u_k plus an
                // axpy scattering Z_{jk} u_j into e0[k], k < j.
                let z_ro: &Matrix = z;
                let e0 = block_reduce(l + 1, l + 1, &|start, end, partial: &mut [f64]| {
                    for j in start..end {
                        let row = &z_ro.row(j)[..=j];
                        partial[j] += ops::dot(row, &u[..=j]);
                        let uj = u[j];
                        if uj != 0.0 {
                            for (p, &v) in partial[..j].iter_mut().zip(&row[..j]) {
                                *p += uj * v;
                            }
                        }
                    }
                });
                let mut f_acc = 0.0;
                for j in 0..=l {
                    e[j] = e0[j] / h;
                    f_acc += e[j] * u[j];
                }
                let hh = f_acc / (h + h);
                for (ej, &uj) in e[..=l].iter_mut().zip(u.iter()) {
                    *ej -= hh * uj;
                }
                // Symmetric rank-2 update A ← A − u eᵀ − e uᵀ on the lower
                // triangle: disjoint rows, fixed per-entry order.
                let e_ro: &[f64] = &e[..=l];
                let threads = if (l + 1) * (l + 1) / 2 >= EIG_PARALLEL_WORK {
                    parallel::threads_for(l + 1)
                } else {
                    1
                };
                let n_cols = z.cols();
                parallel::for_rows(
                    z.as_mut_slice(),
                    n_cols,
                    l + 1,
                    threads,
                    &|j, row: &mut [f64]| {
                        let fj = u[j];
                        let gj = e_ro[j];
                        for ((v, &ek), &uk) in row[..=j].iter_mut().zip(&e_ro[..=j]).zip(&u[..=j]) {
                            *v -= fj * ek + gj * uk;
                        }
                    },
                );
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate the transformations: each stored Householder vector applies
    // a rank-1 update `Z ← Z − w gᵀ` to the leading i×i block, with
    // `g = Zᵀ u` computed as a blocked row reduction.
    for i in 0..n {
        if d[i] != 0.0 {
            let u: Vec<f64> = z.row(i)[..i].to_vec();
            let z_ro: &Matrix = z;
            let g_vec = block_reduce(i, i, &|start, end, partial: &mut [f64]| {
                for (k, &uk) in u.iter().enumerate().take(end).skip(start) {
                    if uk == 0.0 {
                        continue;
                    }
                    for (p, &v) in partial.iter_mut().zip(&z_ro.row(k)[..i]) {
                        *p += uk * v;
                    }
                }
            });
            let w: Vec<f64> = (0..i).map(|k| z[(k, i)]).collect();
            let threads = if i * i >= EIG_PARALLEL_WORK {
                parallel::threads_for(i)
            } else {
                1
            };
            let n_cols = z.cols();
            parallel::for_rows(
                z.as_mut_slice(),
                n_cols,
                i,
                threads,
                &|k, row: &mut [f64]| {
                    let wk = w[k];
                    if wk == 0.0 {
                        return;
                    }
                    for (v, &gj) in row[..i].iter_mut().zip(&g_vec) {
                        *v -= wk * gj;
                    }
                },
            );
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// The textbook (EISPACK-style) scalar Householder reduction — the
/// **reference kernel** [`tred2`] is cross-validated and benchmarked against.
fn tred2_scalar(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g_acc = 0.0;
                    for k in 0..=j {
                        g_acc += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g_acc += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let fj = z[(i, j)];
                    let gj = e[j] - hh * fj;
                    e[j] = gj;
                    for k in 0..=j {
                        let delta = fj * e[k] + gj * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

fn sign_of(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Applies one sweep of recorded Givens rotations to the basis rows.
///
/// Rotation `(i, c, s)` mixes rows `i` and `i + 1` entry by entry, as the
/// textbook loop mixes columns `i` and `i + 1`; the rotations apply in
/// recorded order, so every entry sees the textbook sequence (see the
/// module docs).  Above the parallel floor the columns split into one
/// chunk per thread and each thread replays the whole sweep on its chunk.
fn rotate_rows(basis: &mut Matrix, rotations: &[(usize, f64, f64)]) {
    // A sweep records descending `i` and touches rows `low..=high + 1`.
    let (Some(&(high, _, _)), Some(&(low, _, _))) = (rotations.first(), rotations.last()) else {
        return;
    };
    let n = basis.cols();
    let threads = if n * rotations.len() >= EIG_PARALLEL_WORK {
        parallel::threads_for(n)
    } else {
        1
    };
    let touched = &mut basis.as_mut_slice()[low * n..(high + 2) * n];
    let width = n.div_ceil(threads);
    let mut chunks: Vec<Vec<&mut [f64]>> = (0..threads).map(|_| Vec::new()).collect();
    for row in touched.chunks_mut(n) {
        for (chunk, piece) in chunks.iter_mut().zip(row.chunks_mut(width)) {
            chunk.push(piece);
        }
    }
    chunks.retain(|chunk| !chunk.is_empty());
    let replay = |mut rows: Vec<&mut [f64]>| {
        for &(i, c, s) in rotations {
            let [upper, lower] = rows
                .get_disjoint_mut([i - low, i + 1 - low])
                .expect("a rotation touches two distinct recorded rows");
            for (a, b) in upper.iter_mut().zip(lower.iter_mut()) {
                let f = *b;
                *b = s * *a + c * f;
                *a = c * *a - s * f;
            }
        }
    };
    if chunks.len() == 1 {
        chunks.into_iter().for_each(replay);
        return;
    }
    std::thread::scope(|scope| {
        for chunk in chunks {
            let replay = &replay;
            scope.spawn(move || replay(chunk));
        }
    });
}

/// Implicit-shift QL iteration on a tridiagonal matrix (`d` diagonal, `e`
/// sub-diagonal), accumulating eigenvectors into the rows of `rows` (which
/// must hold the **transpose** of the orthogonal matrix produced by
/// [`tred2`]).  Identical arithmetic to [`tql2_scalar`]; each sweep's
/// rotations are recorded and applied to the basis rows in one pass
/// ([`rotate_rows`]).
fn tql2_rows(rows: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    // Absolute deflation floor: off-diagonals this small relative to the
    // overall matrix scale are treated as zero even next to (numerically)
    // zero eigenvalues, which otherwise stall the iteration on the highly
    // degenerate spectra of structured workload gram matrices.
    let scale = d
        .iter()
        .chain(e.iter())
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    let floor = f64::EPSILON * scale;
    let mut rotations: Vec<(usize, f64, f64)> = Vec::with_capacity(n);
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd + floor {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITER {
                return Err(LinalgError::NonConvergence {
                    algorithm: "tql2",
                    iterations: iter,
                });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            rotations.clear();
            let mut i = m;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Record the rotation; the sweep is applied to the basis
                // rows in one pass below.
                rotations.push((i, c, s));
            }
            rotate_rows(rows, &rotations);
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// The textbook scalar QL iteration (rotation-at-a-time accumulation) — the
/// **reference kernel** [`tql2_rows`] is cross-validated and benchmarked
/// against.
fn tql2_scalar(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let scale = d
        .iter()
        .chain(e.iter())
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    let floor = f64::EPSILON * scale;
    for l in 0..n {
        let mut iter = 0;
        loop {
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd + floor {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITER {
                return Err(LinalgError::NonConvergence {
                    algorithm: "tql2",
                    iterations: iter,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            let mut i = m;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    let fk = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * fk;
                    z[(k, i)] = c * z[(k, i)] - s * fk;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::decomp::test_grams::{all_range_gram, range_marginal_gram};
    use crate::ops::{gram, kron, outer_gram};

    fn symmetric_test_matrix(n: usize, seed: u64) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| {
            let v = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((j as u64).wrapping_mul(40503))
                .wrapping_add(seed);
            ((v % 1000) as f64) / 500.0 - 1.0
        });
        gram(&b)
    }

    fn check_decomposition(a: &Matrix, eig: &SymmetricEigen, tol: f64) {
        let rec = eig.reconstruct();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    approx_eq(rec[(i, j)], a[(i, j)], tol),
                    "reconstruction mismatch at ({i},{j}): {} vs {}",
                    rec[(i, j)],
                    a[(i, j)]
                );
            }
        }
        // Orthonormality of the eigenvector rows.
        let vtv = outer_gram(eig.eigenvector_rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!(
                    approx_eq(vtv[(i, j)], e, 1e-8),
                    "eigenvectors not orthonormal at ({i},{j})"
                );
            }
        }
        // Descending order.
        for w in eig.eigenvalues().windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let vals = eig.eigenvalues();
        assert!(approx_eq(vals[0], 3.0, 1e-12));
        assert!(approx_eq(vals[1], 2.0, 1e-12));
        assert!(approx_eq(vals[2], 1.0, 1e-12));
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn two_by_two_known() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(approx_eq(eig.eigenvalues()[0], 3.0, 1e-12));
        assert!(approx_eq(eig.eigenvalues()[1], 1.0, 1e-12));
        check_decomposition(&a, &eig, 1e-12);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_diag(&[5.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[5.0]);
        assert_eq!(eig.eigenvector_rows()[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn random_symmetric_matrices_decompose() {
        for &n in &[3usize, 5, 8, 16, 33] {
            let a = symmetric_test_matrix(n, n as u64);
            let eig = SymmetricEigen::new(&a).unwrap();
            check_decomposition(&a, &eig, 1e-7 * (1.0 + a.max_abs()));
        }
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let a = symmetric_test_matrix(12, 7);
        let eig = SymmetricEigen::new(&a).unwrap();
        for &l in eig.eigenvalues() {
            assert!(l > -1e-8, "gram eigenvalue should be >= 0, got {l}");
        }
    }

    #[test]
    fn trace_and_frobenius_preserved() {
        let a = symmetric_test_matrix(10, 3);
        let eig = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!(approx_eq(sum, a.trace(), 1e-7));
        let sq: f64 = eig.eigenvalues().iter().map(|x| x * x).sum();
        assert!(approx_eq(sq, a.sum_of_squares(), 1e-6));
    }

    #[test]
    fn restructured_kernels_cross_validate_against_scalar_reference() {
        // The row-wise tred2 and the sweep-batched tql2 must agree with the
        // textbook scalar kernels on eigenvalues and on the reconstructed
        // matrix (eigenvector signs/order may legitimately differ within a
        // degenerate eigenspace, the reconstruction may not).
        for &n in &[2usize, 7, 16, 33, 64, 97] {
            let a = symmetric_test_matrix(n, 1000 + n as u64);
            let fast = SymmetricEigen::new(&a).unwrap();
            let scalar = SymmetricEigen::new_scalar(&a).unwrap();
            let tol = 1e-8 * (1.0 + a.max_abs());
            for (x, y) in fast.eigenvalues().iter().zip(scalar.eigenvalues()) {
                assert!(approx_eq(*x, *y, tol), "n={n}: eigenvalue {x} vs {y}");
            }
            check_decomposition(&a, &fast, tol);
            check_decomposition(&a, &scalar, tol);
        }
        // Degenerate spectra (the structured-workload case) too.
        let g = Matrix::from_diag(&[5.0, 5.0, 5.0, 1.0, 0.0, 0.0]);
        let fast = SymmetricEigen::new(&g).unwrap();
        let scalar = SymmetricEigen::new_scalar(&g).unwrap();
        for (x, y) in fast.eigenvalues().iter().zip(scalar.eigenvalues()) {
            assert!(approx_eq(*x, *y, 1e-12));
        }
        assert!(SymmetricEigen::new_scalar(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new_scalar(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn ql_matches_jacobi() {
        let a = symmetric_test_matrix(9, 42);
        let ql = SymmetricEigen::new(&a).unwrap();
        let ja = SymmetricEigen::jacobi(&a).unwrap();
        for (x, y) in ql.eigenvalues().iter().zip(ja.eigenvalues().iter()) {
            assert!(approx_eq(*x, *y, 1e-7), "{x} vs {y}");
        }
        check_decomposition(&a, &ja, 1e-7 * (1.0 + a.max_abs()));
    }

    #[test]
    fn rank_of_rank_deficient_matrix() {
        // Rank-2 PSD matrix in dimension 5.
        let b = Matrix::from_fn(2, 5, |i, j| ((i + 1) * (j + 2)) as f64 % 7.0);
        let g = gram(&b);
        let eig = SymmetricEigen::new(&g).unwrap();
        assert_eq!(eig.rank(1e-9), 2);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_basis_ql_is_the_scalar_reference_bit_for_bit() {
        // From one tred2 output, the row-basis QL must reproduce the
        // textbook column-at-a-time QL exactly: every eigenvalue, and basis
        // row j equal to reference column j.  These sizes stay below the
        // parallel floor, so the sweeps run on one thread; the threaded
        // split is pinned by `tests/determinism.rs`'s n = 1056 eigensolve.
        // Replaying a sweep in any other rotation order changes these bits.
        let cases = [
            ("all-range 192", all_range_gram(192)),
            (
                "all-range 16x12",
                kron(&all_range_gram(16), &all_range_gram(12)),
            ),
            (
                "2-way range marginals 8x8x4",
                range_marginal_gram(&[8, 8, 4]),
            ),
            ("random symmetric 160", symmetric_test_matrix(160, 77)),
        ];
        for (name, a) in cases {
            let n = a.rows();
            let mut z = a.clone();
            z.symmetrize_mut();
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n];
            tred2(&mut z, &mut d, &mut e);
            let (mut d_ref, mut e_ref) = (d.clone(), e.clone());
            let mut rows = z.transpose();
            tql2_scalar(&mut z, &mut d_ref, &mut e_ref).unwrap();
            tql2_rows(&mut rows, &mut d, &mut e).unwrap();
            assert_eq!(bits(&d), bits(&d_ref), "{name}: eigenvalues");
            assert_eq!(
                bits(rows.as_slice()),
                bits(z.transpose().as_slice()),
                "{name}: basis"
            );
        }
    }

    #[test]
    fn shape_errors() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
        assert!(SymmetricEigen::jacobi(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn all_range_gram_eigen_structure() {
        // Gram of the 1D all-range workload on 8 cells: G[i][j] = (min+1)(n-max).
        let n = 8;
        let g = Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (lo + 1.0) * (n as f64 - hi)
        });
        let eig = SymmetricEigen::new(&g).unwrap();
        check_decomposition(&g, &eig, 1e-8);
        // All eigenvalues strictly positive (the workload has full rank).
        assert!(eig.eigenvalues().iter().all(|&l| l > 1e-9));
    }
}
