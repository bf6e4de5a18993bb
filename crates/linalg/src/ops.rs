//! Matrix-level operations: products, gram matrices, Kronecker products.
//!
//! The inner loops are written in the cache-friendly `i-k-j` order so the
//! innermost traversal is over contiguous rows of the right operand.  The
//! mat-mat kernels ([`matmul`], [`matmul_transpose_left`]) are additionally
//! *blocked*: the loop nest is tiled over row blocks and depth panels sized so
//! the streamed panel of the right operand stays cache-resident while a block
//! of output rows accumulates — the difference between answering a K-vector
//! batch with one product versus K cache-cold matvecs.  Larger products are
//! parallelised over blocks of output rows with `std::thread::scope` (no
//! external dependencies) when more than one thread is allowed; with one,
//! they run on the calling thread.
//!
//! Every kernel accumulates each output entry in ascending depth order
//! regardless of blocking or operand width, so the column `k` of a multi-RHS
//! product is *bit-identical* to the same product computed on that column
//! alone — the property the serving engine's vectorised batch path relies on.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::parallel;

/// Row count above which products are parallelised across threads.
const PARALLEL_THRESHOLD: usize = 96;

/// Rows of the left operand (resp. output) accumulated per block: one block
/// of output rows stays hot while a depth panel of the right operand streams
/// through it.
const BLOCK_ROWS: usize = 128;

/// Depth (inner-dimension) panel width: `BLOCK_DEPTH * b.cols() * 8` bytes of
/// the right operand are re-read per output row block, so the panel should
/// fit mid-level cache for the row-count/width shapes this workspace serves.
const BLOCK_DEPTH: usize = 128;

/// Dot product with a fixed 8-lane accumulation scheme.
///
/// Eight independent accumulators let the compiler keep several
/// multiply-adds in flight (a plain sequential fold is latency-bound on the
/// add chain); the lanes and the remainder are combined in a fixed order, so
/// the result depends only on the inputs — never on blocking, threading or
/// call context.  This is the inner kernel of the blocked Cholesky, the
/// restructured eigensolver and the weighting solver's constraint products.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 8];
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    // Fixed pairwise lane reduction, then the remainder in order.
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

/// Slice sum with the same fixed 8-lane accumulation scheme as [`dot`].
///
/// This is the blessed reduction primitive for plain `f64` totals in the
/// numeric crates: the lanes and the remainder combine in a fixed order, so
/// the result depends only on the input slice — never on call context.  The
/// workspace lint (`blessed-reduction`) keeps ad-hoc `.sum()` folds out of
/// the kernels so every total flows through here or [`dot`].
#[inline]
pub fn sum(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut chunks = values.chunks_exact(8);
    for c in &mut chunks {
        for l in 0..8 {
            lanes[l] += c[l];
        }
    }
    // Fixed pairwise lane reduction, then the remainder in order.
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for &x in chunks.remainder() {
        acc += x;
    }
    acc
}

/// Computes the matrix product `A * B` with the blocked kernel.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    let threads = product_threads(m, m.saturating_mul(n).saturating_mul(k));
    if threads > 1 {
        matmul_parallel(a, b, &mut out, threads);
    } else {
        matmul_serial_range(a, b, out.as_mut_slice(), 0, m);
    }
    Ok(out)
}

/// Worker threads for a product with `rows` output rows and `work`
/// multiply-adds: [`parallel::threads_for`] from [`PARALLEL_THRESHOLD`] rows
/// and more than 10⁶ multiply-adds, else one.  One thread is the calling
/// thread: a lone spawned worker would add a thread start and a join to
/// every product, and could run it on another core whose caches hold none
/// of the operands.
fn product_threads(rows: usize, work: usize) -> usize {
    if rows >= PARALLEL_THRESHOLD && work > 1_000_000 {
        parallel::threads_for(rows)
    } else {
        1
    }
}

fn matmul_serial_range(a: &Matrix, b: &Matrix, out: &mut [f64], row_start: usize, row_end: usize) {
    let n = b.cols();
    let depth = a.cols();
    // Width-1 fast path: a register-accumulating dot product per output row.
    // The addition sequence (k ascending, zero terms skipped) is exactly the
    // blocked kernel's, so `A·x` stays bit-identical to a width-1 `A·X` —
    // only the per-k slicing overhead goes away.
    if n == 1 {
        let b_col = b.as_slice();
        for (i, o) in (row_start..row_end).zip(out.iter_mut()) {
            let mut acc = 0.0;
            for (&aik, &bk) in a.row(i).iter().zip(b_col.iter()) {
                if aik == 0.0 {
                    continue;
                }
                acc += aik * bk;
            }
            *o = acc;
        }
        return;
    }
    // Blocked i0-k0-i-k-j nest: for each block of output rows, stream the
    // depth panels of B in ascending order.  Per (i, j) the accumulation
    // visits k strictly ascending (panels ascend, k ascends within a panel),
    // so blocking never changes the floating-point result.
    for i0 in (row_start..row_end).step_by(BLOCK_ROWS) {
        let i1 = (i0 + BLOCK_ROWS).min(row_end);
        for k0 in (0..depth).step_by(BLOCK_DEPTH) {
            let k1 = (k0 + BLOCK_DEPTH).min(depth);
            for i in i0..i1 {
                let a_panel = &a.row(i)[k0..k1];
                let out_row = &mut out[(i - row_start) * n..(i - row_start + 1) * n];
                for (dk, &aik) in a_panel.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = b.row(k0 + dk);
                    for (o, &bkj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += aik * bkj;
                    }
                }
            }
        }
    }
}

fn matmul_parallel(a: &Matrix, b: &Matrix, out: &mut Matrix, threads: usize) {
    let m = a.rows();
    let n = b.cols();
    let chunk = m.div_ceil(threads);
    let out_data = out.as_mut_slice();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, out_chunk) in out_data.chunks_mut(chunk * n).enumerate() {
            let row_start = t * chunk;
            let row_end = (row_start + chunk).min(m);
            if row_start >= row_end {
                break;
            }
            handles.push(scope.spawn(move || {
                matmul_serial_range(a, b, out_chunk, row_start, row_end);
            }));
        }
        for h in handles {
            h.join().expect("matmul worker thread panicked");
        }
    });
}

/// Computes `Aᵀ * B` without materialising `Aᵀ`, with the blocked kernel.
///
/// This is the `AᵀY` half of the matrix mechanism's inference step `x̂ =
/// (AᵀA)⁻¹ Aᵀ Y`, batched over the columns of `Y`.
pub fn matmul_transpose_left(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_transpose_left",
            left: (a.cols(), a.rows()),
            right: b.shape(),
        });
    }
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    let threads = product_threads(m, m.saturating_mul(n).saturating_mul(k));
    if threads > 1 {
        let chunk = m.div_ceil(threads);
        let out_data = out.as_mut_slice();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, out_chunk) in out_data.chunks_mut(chunk * n).enumerate() {
                let row_start = t * chunk;
                let row_end = (row_start + chunk).min(m);
                if row_start >= row_end {
                    break;
                }
                handles.push(scope.spawn(move || {
                    matmul_transpose_left_range(a, b, out_chunk, row_start, row_end);
                }));
            }
            for h in handles {
                h.join()
                    .expect("matmul_transpose_left worker thread panicked");
            }
        });
    } else {
        matmul_transpose_left_range(a, b, out.as_mut_slice(), 0, m);
    }
    Ok(out)
}

/// Serial `AᵀB` over output rows `[row_start, row_end)` (columns of `A`).
fn matmul_transpose_left_range(
    a: &Matrix,
    b: &Matrix,
    out: &mut [f64],
    row_start: usize,
    row_end: usize,
) {
    let n = b.cols();
    let depth = a.rows();
    // Width-1 fast path: stream A row-wise once, accumulating into the
    // (cache-resident) output column.  Per output row the depth index r
    // ascends and the same zero terms are skipped as in the blocked kernel
    // below, so `Aᵀy` stays bit-identical to a width-1 `AᵀY`.
    if n == 1 {
        let b_col = b.as_slice();
        for (r, &br) in b_col.iter().enumerate() {
            let a_panel = &a.row(r)[row_start..row_end];
            for (o, &ari) in out.iter_mut().zip(a_panel.iter()) {
                if ari == 0.0 {
                    continue;
                }
                *o += ari * br;
            }
        }
        return;
    }
    // The depth axis runs over rows of A and B.  Tiling output rows first
    // keeps the accumulating block hot while a depth panel of B streams
    // through it; per (i, j) the depth index r ascends across and within
    // panels, so the result is blocking-invariant bit for bit.
    for i0 in (row_start..row_end).step_by(BLOCK_ROWS) {
        let i1 = (i0 + BLOCK_ROWS).min(row_end);
        for r0 in (0..depth).step_by(BLOCK_DEPTH) {
            let r1 = (r0 + BLOCK_DEPTH).min(depth);
            for r in r0..r1 {
                let a_row = a.row(r);
                let b_row = b.row(r);
                for i in i0..i1 {
                    let ari = a_row[i];
                    if ari == 0.0 {
                        continue;
                    }
                    let out_row = &mut out[(i - row_start) * n..(i - row_start + 1) * n];
                    for (o, &brj) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += ari * brj;
                    }
                }
            }
        }
    }
}

/// Computes `A * Bᵀ` without materialising `Bᵀ`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_a_bt",
            left: a.shape(),
            right: (b.cols(), b.rows()),
        });
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate().take(n) {
            let b_row = b.row(j);
            let mut acc = 0.0;
            for (x, y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    Ok(out)
}

/// Computes the gram matrix `Aᵀ A` (always symmetric positive semidefinite).
///
/// Only the upper triangle is computed and then mirrored, which roughly halves
/// the work compared to a general product.
pub fn gram(a: &Matrix) -> Matrix {
    let n = a.cols();
    let mut g = Matrix::zeros(n, n);
    for r in 0..a.rows() {
        let row = a.row(r);
        for i in 0..n {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            let g_row = g.row_mut(i);
            for (j, &rj) in row.iter().enumerate().skip(i) {
                g_row[j] += ri * rj;
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..n {
        for j in (i + 1)..n {
            let v = g[(i, j)];
            g[(j, i)] = v;
        }
    }
    g
}

/// Computes the outer gram `A Aᵀ`.
pub fn outer_gram(a: &Matrix) -> Matrix {
    matmul_a_bt(a, a).expect("A * Aᵀ shapes always agree")
}

/// Kronecker product `A ⊗ B`.
///
/// Multi-dimensional workloads and strategies in the matrix mechanism are
/// Kronecker products of their one-dimensional building blocks, so this is a
/// core primitive for the workload crate.
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let mut out = Matrix::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            for p in 0..br {
                let b_row = b.row(p);
                let out_row = out.row_mut(i * br + p);
                for (q, &bpq) in b_row.iter().enumerate() {
                    out_row[j * bc + q] = aij * bpq;
                }
            }
        }
    }
    out
}

/// Kronecker product of a sequence of matrices, `A₁ ⊗ A₂ ⊗ … ⊗ Aₖ`.
///
/// Returns the `1x1` identity for an empty sequence.
pub fn kron_all(factors: &[Matrix]) -> Matrix {
    let mut acc = Matrix::identity(1);
    for f in factors {
        acc = kron(&acc, f);
    }
    acc
}

/// Computes `trace(A * B)` without forming the product.
///
/// Both matrices must be square of the same size; the trace of a product is
/// the sum of the elementwise products of `A` and `Bᵀ`.
pub fn trace_of_product(a: &Matrix, b: &Matrix) -> Result<f64> {
    if a.cols() != b.rows() || a.rows() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "trace_of_product",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut acc = 0.0;
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (j, &aij) in a_row.iter().enumerate() {
            acc += aij * b[(j, i)];
        }
    }
    Ok(acc)
}

/// Computes `diag(d) * A` (scales row `i` of `A` by `d[i]`).
pub fn scale_rows(d: &[f64], a: &Matrix) -> Result<Matrix> {
    if d.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "scale_rows",
            left: (d.len(), d.len()),
            right: a.shape(),
        });
    }
    let mut out = a.clone();
    for (i, &di) in d.iter().enumerate() {
        for v in out.row_mut(i) {
            *v *= di;
        }
    }
    Ok(out)
}

/// Computes `A * diag(d)` (scales column `j` of `A` by `d[j]`).
pub fn scale_cols(a: &Matrix, d: &[f64]) -> Result<Matrix> {
    if d.len() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "scale_cols",
            left: a.shape(),
            right: (d.len(), d.len()),
        });
    }
    let mut out = a.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        for (v, &dj) in row.iter_mut().zip(d.iter()) {
            *v *= dj;
        }
    }
    Ok(out)
}

/// Minimum number of updated entries before [`syrk_sub_lower`] and
/// [`trsm_right_transpose_lower`] spawn worker threads.
const SYRK_PARALLEL_WORK: usize = 32_768;

/// Symmetric rank-k update: subtracts `A Aᵀ` from the **lower triangle**
/// (diagonal included) of the square block of `c` anchored at
/// `(offset, offset)`, where row `i` of `a` corresponds to row `offset + i`
/// of `c`.  Entries outside that lower triangle are untouched.
///
/// This is the trailing update of the blocked right-looking Cholesky
/// ([`crate::decomp::Cholesky::new`]): after a panel of columns is factored,
/// the remaining block shrinks by `P Pᵀ` of the panel rows.  Each output
/// entry is one [`dot`] over the corresponding rows of `a` — self-contained
/// and order-fixed — so the update is parallelised over row blocks with
/// bit-identical results for every thread count (see [`crate::parallel`]).
pub fn syrk_sub_lower(c: &mut Matrix, a: &Matrix, offset: usize) -> Result<()> {
    let k = a.rows();
    if offset + k > c.rows() || c.rows() != c.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "syrk_sub_lower",
            left: c.shape(),
            right: (offset + k, offset + k),
        });
    }
    if k == 0 || a.cols() == 0 {
        return Ok(());
    }
    let n = c.cols();
    let work = k * (k + 1) / 2 * a.cols();
    let threads = if work >= SYRK_PARALLEL_WORK {
        parallel::threads_for(k)
    } else {
        1
    };
    // Skip the first `offset` rows of `c`; the updated block starts there.
    let c_data = &mut c.as_mut_slice()[offset * n..(offset + k) * n];
    parallel::for_rows(c_data, n, k, threads, &|i, c_row: &mut [f64]| {
        let a_i = a.row(i);
        for (j, c_ij) in c_row[offset..=offset + i].iter_mut().enumerate() {
            *c_ij -= dot(a_i, a.row(j));
        }
    });
    Ok(())
}

/// Triangular solve `X Lᵀ = B` in place (`b` becomes `X`) for a
/// lower-triangular `L`, i.e. `X = B L⁻ᵀ`.
///
/// Only the lower triangle of `l` is read.  Each row of `b` is an
/// independent forward substitution (`x_j = (b_j − Σ_{t<j} x_t L_{jt}) /
/// L_{jj}`, `j` ascending), so the solve is parallelised over row blocks
/// with bit-identical results for every thread count.  In the blocked
/// Cholesky this computes the panel's sub-diagonal block `L₂₁ = A₂₁ L₁₁⁻ᵀ`.
///
/// Returns [`LinalgError::Singular`] when a diagonal entry of `l` is zero.
pub fn trsm_right_transpose_lower(b: &mut Matrix, l: &Matrix) -> Result<()> {
    let k = l.rows();
    if !l.is_square() || b.cols() != k {
        return Err(LinalgError::ShapeMismatch {
            op: "trsm_right_transpose_lower",
            left: b.shape(),
            right: l.shape(),
        });
    }
    for (j, &d) in l.diag().iter().enumerate() {
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: j });
        }
    }
    let m = b.rows();
    if m == 0 || k == 0 {
        return Ok(());
    }
    let work = m * k * (k + 1) / 2;
    let threads = if work >= SYRK_PARALLEL_WORK {
        parallel::threads_for(m)
    } else {
        1
    };
    parallel::for_rows(b.as_mut_slice(), k, m, threads, &|_, x: &mut [f64]| {
        for j in 0..k {
            let l_j = l.row(j);
            let s = dot(&x[..j], &l_j[..j]);
            x[j] = (x[j] - s) / l_j[j];
        }
    });
    Ok(())
}

/// Computes the congruence `Qᵀ * D * Q` where `D = diag(d)` — the form of
/// `AᵀA` for a strategy built from weighted design queries `A = diag(λ) Q`
/// with `d = λ²`.
pub fn congruence_diag(q: &Matrix, d: &[f64]) -> Result<Matrix> {
    if d.len() != q.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "congruence_diag",
            left: (d.len(), d.len()),
            right: q.shape(),
        });
    }
    let n = q.cols();
    let mut out = Matrix::zeros(n, n);
    for (r, &dr) in d.iter().enumerate() {
        if dr == 0.0 {
            continue;
        }
        let row = q.row(r);
        for i in 0..n {
            let s = dr * row[i];
            if s == 0.0 {
                continue;
            }
            let out_row = out.row_mut(i);
            for (j, &rj) in row.iter().enumerate().skip(i) {
                out_row[j] += s * rj;
            }
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let v = out[(i, j)];
            out[(j, i)] = v;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn assert_matrix_eq(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    approx_eq(a[(i, j)], b[(i, j)], tol),
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert_matrix_eq(&c, &expected, 1e-12);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(5, 5, |i, j| (i * j) as f64 + 1.0);
        let c = matmul(&a, &Matrix::identity(5)).unwrap();
        assert_matrix_eq(&c, &a, 1e-12);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_parallel_agrees_with_serial() {
        let n = 150;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let par = matmul(&a, &b).unwrap();
        // Serial reference.
        let mut serial = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    serial[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        assert_matrix_eq(&par, &serial, 1e-9);
    }

    #[test]
    fn transposed_products_agree_with_explicit() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64) - (j as f64));
        let atb = matmul_transpose_left(&a, &b).unwrap();
        let explicit = matmul(&a.transpose(), &b).unwrap();
        assert_matrix_eq(&atb, &explicit, 1e-12);

        let c = Matrix::from_fn(5, 3, |i, j| (2 * i + j) as f64);
        let abt = matmul_a_bt(&a, &c).unwrap();
        let explicit2 = matmul(&a, &c.transpose()).unwrap();
        assert_matrix_eq(&abt, &explicit2, 1e-12);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let g = gram(&a);
        let explicit = matmul(&a.transpose(), &a).unwrap();
        assert_matrix_eq(&g, &explicit, 1e-12);
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn outer_gram_matches_explicit() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) * 0.5 + (j as f64));
        let g = outer_gram(&a);
        let explicit = matmul(&a, &a.transpose()).unwrap();
        assert_matrix_eq(&g, &explicit, 1e-12);
    }

    #[test]
    fn kron_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
        let k = kron(&a, &b);
        assert_eq!(k.shape(), (2, 2));
        assert_eq!(k[(0, 0)], 3.0);
        assert_eq!(k[(0, 1)], 6.0);
        assert_eq!(k[(1, 0)], 4.0);
        assert_eq!(k[(1, 1)], 8.0);
    }

    #[test]
    fn kron_identity_sizes() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        let k = kron(&a, &b);
        assert_matrix_eq(&k, &Matrix::identity(6), 1e-15);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = Matrix::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(3, 3, |i, j| (i as f64) - (j as f64));
        let c = Matrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let d = Matrix::from_fn(3, 3, |i, j| ((i + j) % 3) as f64);
        let lhs = matmul(&kron(&a, &b), &kron(&c, &d)).unwrap();
        let rhs = kron(&matmul(&a, &c).unwrap(), &matmul(&b, &d).unwrap());
        assert_matrix_eq(&lhs, &rhs, 1e-9);
    }

    #[test]
    fn kron_all_of_empty_is_identity1() {
        let k = kron_all(&[]);
        assert_eq!(k.shape(), (1, 1));
        assert_eq!(k[(0, 0)], 1.0);
    }

    #[test]
    fn trace_of_product_matches_explicit() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(4, 4, |i, j| (i as f64) * 2.0 - (j as f64));
        let t = trace_of_product(&a, &b).unwrap();
        let explicit = matmul(&a, &b).unwrap().trace();
        assert!(approx_eq(t, explicit, 1e-12));
        assert!(trace_of_product(&a, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_rows_and_cols() {
        let a = Matrix::filled(2, 3, 1.0);
        let r = scale_rows(&[2.0, 3.0], &a).unwrap();
        assert_eq!(r[(0, 0)], 2.0);
        assert_eq!(r[(1, 2)], 3.0);
        let c = scale_cols(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c[(1, 2)], 3.0);
        assert!(scale_rows(&[1.0], &a).is_err());
        assert!(scale_cols(&a, &[1.0]).is_err());
    }

    #[test]
    fn dot_matches_sequential_for_all_lengths() {
        // The 8-lane kernel must agree with a plain fold across every
        // remainder length (0..=17 covers full chunks, empty, and partials).
        for len in 0..=17usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64) * 0.7 - 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let reference: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!(
                approx_eq(dot(&a, &b), reference, 1e-12),
                "len {len}: {} vs {reference}",
                dot(&a, &b)
            );
        }
    }

    #[test]
    fn syrk_sub_lower_matches_explicit_product() {
        // C -= A·Aᵀ on the lower triangle, anchored at an offset; entries
        // outside the block's lower triangle are untouched.
        for &(rows, depth, offset) in &[
            (3usize, 2usize, 0usize),
            (5, 4, 2),
            (40, 17, 3),
            (130, 64, 6),
        ] {
            let n = rows + offset;
            let a = Matrix::from_fn(rows, depth, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
            let mut c = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 17) as f64);
            let before = c.clone();
            syrk_sub_lower(&mut c, &a, offset).unwrap();
            let aat = matmul_a_bt(&a, &a).unwrap();
            for i in 0..n {
                for j in 0..n {
                    let expected = if i >= offset && j >= offset && j <= i {
                        before[(i, j)] - aat[(i - offset, j - offset)]
                    } else {
                        before[(i, j)]
                    };
                    assert!(
                        approx_eq(c[(i, j)], expected, 1e-9),
                        "rows={rows} offset={offset} ({i},{j})"
                    );
                }
            }
        }
        // Shape errors and the empty update.
        let mut c = Matrix::zeros(4, 4);
        assert!(syrk_sub_lower(&mut c, &Matrix::zeros(3, 2), 2).is_err());
        assert!(syrk_sub_lower(&mut c, &Matrix::zeros(0, 2), 4).is_ok());
        let mut rect = Matrix::zeros(4, 5);
        assert!(syrk_sub_lower(&mut rect, &Matrix::zeros(2, 2), 0).is_err());
    }

    #[test]
    fn trsm_right_solves_against_transposed_lower_factor() {
        // X Lᵀ = B  ⇒  X·Lᵀ reconstructs B.
        for &(m, k) in &[(1usize, 1usize), (4, 3), (33, 8), (150, 64)] {
            let l = Matrix::from_fn(k, k, |i, j| {
                if j < i {
                    ((i * 7 + j * 5) % 9) as f64 / 4.0 - 1.0
                } else if j == i {
                    2.0 + (i % 3) as f64
                } else {
                    0.0
                }
            });
            let b = Matrix::from_fn(m, k, |i, j| ((i * 13 + j * 3) % 11) as f64 - 5.0);
            let mut x = b.clone();
            trsm_right_transpose_lower(&mut x, &l).unwrap();
            let rec = matmul_a_bt(&x, &l).unwrap();
            for i in 0..m {
                for j in 0..k {
                    assert!(
                        approx_eq(rec[(i, j)], b[(i, j)], 1e-9),
                        "m={m} k={k} ({i},{j}): {} vs {}",
                        rec[(i, j)],
                        b[(i, j)]
                    );
                }
            }
        }
        // Singular diagonal and shape mismatches are rejected.
        let mut b = Matrix::zeros(2, 2);
        assert!(matches!(
            trsm_right_transpose_lower(&mut b, &Matrix::zeros(2, 2)),
            Err(LinalgError::Singular { pivot: 0 })
        ));
        assert!(trsm_right_transpose_lower(&mut b, &Matrix::identity(3)).is_err());
        assert!(trsm_right_transpose_lower(&mut b, &Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn congruence_diag_matches_explicit() {
        let q = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let d = vec![0.5, 2.0, 0.0, 1.5];
        let c = congruence_diag(&q, &d).unwrap();
        let explicit =
            matmul(&matmul(&q.transpose(), &Matrix::from_diag(&d)).unwrap(), &q).unwrap();
        assert_matrix_eq(&c, &explicit, 1e-12);
        assert!(congruence_diag(&q, &[1.0]).is_err());
    }
}
