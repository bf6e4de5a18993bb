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
//! Both products skip the zero entries of their left operand; they never
//! add them.
//!
//! # Row spans
//!
//! [`matmul_spans`] and [`matmul_transpose_left_spans`] take the left
//! operand's [`RowSpans`]: one `(lo, hi)` per row, with every nonzero of
//! row `i` in columns `lo..hi`.  Row `i`'s depth loop (`A·X`) and row `r`'s
//! output range (`AᵀY`) are clipped to that span.  The clipped-off entries
//! are zeros the kernels would have skipped, so a span product is bit-identical
//! to the span-less one, which runs every row whole.  A strategy with many
//! single-entry rows (Program 2's column completion) then reads only its
//! nonzeros.
//!
//! # Four chains at width 1
//!
//! At width 1, `A·x` runs four rows at once over their common span, one
//! register accumulator per row: each `x[k]` is loaded once for four rows
//! and four independent addition chains hide each other's latency.  A row's
//! parts outside the common span (before it and after it), and the rows
//! left over after the last group of four, run alone through the same
//! ascending loop.  Each output still adds its terms in ascending `k`,
//! starting from `0.0`, so the grouping — which shifts with the thread
//! split — never changes a bit.

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

/// The nonzero extent of each row of a matrix: every nonzero entry of row
/// `i` lies in columns `lo..hi` of its span `(lo, hi)`, and an all-zero row
/// is `(0, 0)`.  `-0.0` counts as zero, as it does in every kernel here.
///
/// The products that take spans ([`matmul_spans`],
/// [`matmul_transpose_left_spans`]) clip each row to its span; spans built
/// by [`RowSpans::of`] from the same matrix make them bit-identical to the
/// span-less products (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSpans {
    cols: usize,
    spans: Vec<(usize, usize)>,
}

impl RowSpans {
    /// Scans `a` once for the first and last nonzero of every row.
    pub fn of(a: &Matrix) -> RowSpans {
        let spans = a
            .rows_iter()
            .map(|row| match row.iter().position(|&v| v != 0.0) {
                None => (0, 0),
                Some(lo) => {
                    let last = row.iter().rposition(|&v| v != 0.0).unwrap_or(lo);
                    (lo, last + 1)
                }
            })
            .collect();
        RowSpans {
            cols: a.cols(),
            spans,
        }
    }

    fn check(&self, op: &'static str, a: &Matrix) -> Result<()> {
        if (self.spans.len(), self.cols) != a.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                left: a.shape(),
                right: (self.spans.len(), self.cols),
            });
        }
        Ok(())
    }
}

/// Row `i`'s span, or the whole row when no spans are given.
#[inline]
fn span_of(spans: Option<&RowSpans>, i: usize, cols: usize) -> (usize, usize) {
    spans.map_or((0, cols), |s| s.spans[i])
}

/// Computes the matrix product `A * B` with the blocked kernel, every row of
/// `A` whole.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_over(a, None, b)
}

/// [`matmul`] with each row of `A` clipped to its span in `spans` (from
/// [`RowSpans::of`] on `a`): bit-identical, reading only the spans.
pub fn matmul_spans(a: &Matrix, spans: &RowSpans, b: &Matrix) -> Result<Matrix> {
    spans.check("matmul_spans", a)?;
    matmul_over(a, Some(spans), b)
}

fn matmul_over(a: &Matrix, spans: Option<&RowSpans>, b: &Matrix) -> Result<Matrix> {
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
    split_rows(out.as_mut_slice(), n, m, threads, &|chunk, start, end| {
        matmul_serial_range(a, spans, b, chunk, start, end)
    });
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

/// Runs `kernel(chunk, row_start, row_end)` over `ceil(rows / threads)`-row
/// chunks of the row-major `out` (`width` entries per row), on scoped
/// workers when `threads > 1`, else on the calling thread.
fn split_rows<F>(out: &mut [f64], width: usize, rows: usize, threads: usize, kernel: &F)
where
    F: Fn(&mut [f64], usize, usize) + Sync,
{
    if threads <= 1 {
        kernel(out, 0, rows);
        return;
    }
    let chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, out_chunk) in out.chunks_mut(chunk * width).enumerate() {
            let row_start = t * chunk;
            let row_end = (row_start + chunk).min(rows);
            scope.spawn(move || kernel(out_chunk, row_start, row_end));
        }
    });
}

/// `acc` plus `a[k]·x[k]` for `k` ascending, zero entries of `a` skipped:
/// the width-1 loop for a row's parts outside its group's common span and
/// for rows outside any group of four.
#[inline(always)]
fn skip_zero_dot(mut acc: f64, a: &[f64], x: &[f64]) -> f64 {
    for (&ak, &xk) in a.iter().zip(x) {
        if ak != 0.0 {
            acc += ak * xk;
        }
    }
    acc
}

/// Rows of `A·x` advanced together at width 1 (see the module docs).
const CHAINS: usize = 4;

/// Width-1 `A·x` over rows `row_start..` into `out`, [`CHAINS`] rows at a
/// time over their common span.
fn matvec_range(
    a: &Matrix,
    spans: Option<&RowSpans>,
    x: &[f64],
    out: &mut [f64],
    row_start: usize,
) {
    let cols = a.cols();
    let tail_start = row_start + out.len() / CHAINS * CHAINS;
    let mut groups = out.chunks_exact_mut(CHAINS);
    for (g, o) in (&mut groups).enumerate() {
        let i0 = row_start + g * CHAINS;
        let sp: [(usize, usize); CHAINS] = std::array::from_fn(|r| span_of(spans, i0 + r, cols));
        let rows: [&[f64]; CHAINS] = std::array::from_fn(|r| a.row(i0 + r));
        // Common span [c_lo, c_hi), empty when the spans do not overlap; a
        // row's own parts are its span before c_lo and from c_hi on.
        let c_lo = sp.iter().map(|s| s.0).max().unwrap_or(0);
        let c_hi = sp.iter().map(|s| s.1).min().unwrap_or(0).max(c_lo);
        let mut acc = [0.0; CHAINS];
        for r in 0..CHAINS {
            let (lo, hi) = sp[r];
            let end = hi.min(c_lo);
            if lo < end {
                acc[r] = skip_zero_dot(acc[r], &rows[r][lo..end], &x[lo..end]);
            }
        }
        let [r0, r1, r2, r3] = rows.map(|row| &row[c_lo..c_hi]);
        let [mut s0, mut s1, mut s2, mut s3] = acc;
        for ((((&xk, &a0), &a1), &a2), &a3) in x[c_lo..c_hi].iter().zip(r0).zip(r1).zip(r2).zip(r3)
        {
            if a0 != 0.0 {
                s0 += a0 * xk;
            }
            if a1 != 0.0 {
                s1 += a1 * xk;
            }
            if a2 != 0.0 {
                s2 += a2 * xk;
            }
            if a3 != 0.0 {
                s3 += a3 * xk;
            }
        }
        acc = [s0, s1, s2, s3];
        for r in 0..CHAINS {
            let (lo, hi) = sp[r];
            let start = lo.max(c_hi);
            if start < hi {
                acc[r] = skip_zero_dot(acc[r], &rows[r][start..hi], &x[start..hi]);
            }
        }
        o.copy_from_slice(&acc);
    }
    for (i, o) in (tail_start..).zip(groups.into_remainder()) {
        let (lo, hi) = span_of(spans, i, cols);
        *o = skip_zero_dot(0.0, &a.row(i)[lo..hi], &x[lo..hi]);
    }
}

fn matmul_serial_range(
    a: &Matrix,
    spans: Option<&RowSpans>,
    b: &Matrix,
    out: &mut [f64],
    row_start: usize,
    row_end: usize,
) {
    let n = b.cols();
    let depth = a.cols();
    if n == 1 {
        matvec_range(a, spans, b.as_slice(), out, row_start);
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
                let (lo, hi) = span_of(spans, i, depth);
                let (p0, p1) = (k0.max(lo), k1.min(hi));
                if p0 >= p1 {
                    continue;
                }
                let out_row = &mut out[(i - row_start) * n..(i - row_start + 1) * n];
                for (k, &aik) in (p0..p1).zip(&a.row(i)[p0..p1]) {
                    if aik == 0.0 {
                        continue;
                    }
                    for (o, &bkj) in out_row.iter_mut().zip(b.row(k)) {
                        *o += aik * bkj;
                    }
                }
            }
        }
    }
}

/// Computes `Aᵀ * B` without materialising `Aᵀ`, with the blocked kernel,
/// every row of `A` whole.
///
/// This is the `AᵀY` half of the matrix mechanism's inference step `x̂ =
/// (AᵀA)⁻¹ Aᵀ Y`, batched over the columns of `Y`.
pub fn matmul_transpose_left(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_transpose_left_over(a, None, b)
}

/// [`matmul_transpose_left`] with row `r` of `A` contributing only to the
/// output rows inside its span in `spans` (from [`RowSpans::of`] on `a`):
/// bit-identical, reading only the spans.
pub fn matmul_transpose_left_spans(a: &Matrix, spans: &RowSpans, b: &Matrix) -> Result<Matrix> {
    spans.check("matmul_transpose_left_spans", a)?;
    matmul_transpose_left_over(a, Some(spans), b)
}

fn matmul_transpose_left_over(a: &Matrix, spans: Option<&RowSpans>, b: &Matrix) -> Result<Matrix> {
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
    split_rows(out.as_mut_slice(), n, m, threads, &|chunk, start, end| {
        matmul_transpose_left_range(a, spans, b, chunk, start, end)
    });
    Ok(out)
}

/// Serial `AᵀB` over output rows `[row_start, row_end)` (columns of `A`).
fn matmul_transpose_left_range(
    a: &Matrix,
    spans: Option<&RowSpans>,
    b: &Matrix,
    out: &mut [f64],
    row_start: usize,
    row_end: usize,
) {
    let n = b.cols();
    let depth = a.rows();
    let cols = a.cols();
    // Width-1 fast path: stream A row-wise once, accumulating into the
    // (cache-resident) output column.  Per output row the depth index r
    // ascends and the same zero terms are skipped as in the blocked kernel
    // below, so `Aᵀy` stays bit-identical to a width-1 `AᵀY`.  The skip is
    // a select, which keeps the loop branch-free and vectorised: a branch
    // there made it about 1.6× slower at 2047×1024.
    if n == 1 {
        for (r, &br) in b.as_slice().iter().enumerate() {
            let (lo, hi) = span_of(spans, r, cols);
            let (c0, c1) = (row_start.max(lo), row_end.min(hi));
            if c0 >= c1 {
                continue;
            }
            let out_part = &mut out[c0 - row_start..c1 - row_start];
            for (o, &ari) in out_part.iter_mut().zip(&a.row(r)[c0..c1]) {
                *o = if ari != 0.0 { *o + ari * br } else { *o };
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
                let (lo, hi) = span_of(spans, r, cols);
                let a_row = a.row(r);
                let b_row = b.row(r);
                for i in i0.max(lo)..i1.min(hi) {
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

    /// A left operand with every row kind the spans meet, in a 7-row cycle
    /// so four-row groups mix them: empty rows, single-entry rows, whole
    /// rows with `-0.0` and zero entries inside, short runs in the middle,
    /// prefix runs followed by a `-0.0` (outside the span, which treats it as
    /// zero) and suffix runs.
    fn span_test_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| match i % 7 {
            0 => 0.0,
            1 if j == (i * 5) % cols => 1.5 + i as f64,
            2 if j % 3 == 0 => -0.0,
            2 if j % 3 == 1 => ((i * 3 + j) % 5) as f64 - 2.0,
            3 if (cols / 3..cols / 2 + 1).contains(&j) => j as f64 * 0.25 - 1.0,
            4 if j < i % cols => 0.5 * j as f64 - 0.3,
            4 if j + 1 == cols => -0.0,
            5 if j > (i * 3) % cols => ((i + 2 * j) % 9) as f64 / 4.0 - 1.0,
            6 => ((i * 13 + j * 7) % 11) as f64 / 3.0 - 5.0 / 3.0,
            _ => 0.0,
        })
    }

    /// `A·B` by the textbook loop: ascending `k`, zero entries of `A`
    /// skipped.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                if a[(i, k)] != 0.0 {
                    acc += a[(i, k)] * b[(k, j)];
                }
            }
            acc
        })
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn span_products_are_the_span_less_products_bit_for_bit() {
        // Row counts ≡ 1, 2, 3 (mod 4) leave one, two and three rows after
        // the last four-row group; 3 and 2 rows have no group at all.
        for &(rows, cols) in &[
            (2usize, 5usize),
            (3, 4),
            (9, 7),
            (14, 12),
            (23, 30),
            (203, 41),
        ] {
            let a = span_test_matrix(rows, cols);
            let spans = RowSpans::of(&a);
            for k in [1usize, 3, 8] {
                // Right-hand sides with negatives and -0.0 entries.
                let b = Matrix::from_fn(cols, k, |i, c| {
                    if (i + c) % 6 == 0 {
                        -0.0
                    } else {
                        ((i * 7 + c * 3) % 13) as f64 / 2.0 - 3.0
                    }
                });
                let plain = matmul(&a, &b).unwrap();
                let clipped = matmul_spans(&a, &spans, &b).unwrap();
                assert_eq!(bits(&clipped), bits(&plain), "A·X {rows}×{cols}, K = {k}");
                assert_eq!(bits(&plain), bits(&reference_matmul(&a, &b)));
                let y = Matrix::from_fn(rows, k, |i, c| {
                    if (i * 2 + c) % 5 == 0 {
                        -0.0
                    } else {
                        ((i * 5 + c * 11) % 17) as f64 / 4.0 - 2.0
                    }
                });
                let plain_t = matmul_transpose_left(&a, &y).unwrap();
                let clipped_t = matmul_transpose_left_spans(&a, &spans, &y).unwrap();
                assert_eq!(
                    bits(&clipped_t),
                    bits(&plain_t),
                    "AᵀY {rows}×{cols}, K = {k}"
                );
                assert_eq!(bits(&plain_t), bits(&reference_matmul(&a.transpose(), &y)));
            }
        }
        // Spans describe one matrix shape; another is rejected.
        let spans = RowSpans::of(&span_test_matrix(9, 7));
        assert!(matmul_spans(&Matrix::zeros(9, 8), &spans, &Matrix::zeros(8, 1)).is_err());
        assert!(
            matmul_transpose_left_spans(&Matrix::zeros(8, 7), &spans, &Matrix::zeros(8, 1))
                .is_err()
        );
    }

    #[test]
    fn row_spans_bound_the_nonzeros() {
        let a = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 0.0],
            vec![-0.0, 1.0, 0.0, 3.0],
            vec![4.0, 0.0, 5.0, -0.0],
        ])
        .unwrap();
        let spans = RowSpans::of(&a);
        assert_eq!(spans.spans, vec![(0, 0), (1, 2), (1, 4), (0, 3)]);
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
