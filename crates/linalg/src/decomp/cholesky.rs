//! Cholesky factorization `A = L Lᵀ` of symmetric positive definite matrices.
//!
//! [`Cholesky::new`] is a *blocked right-looking* factorization: the matrix
//! is processed in panels of [`CHOLESKY_BLOCK`] columns — factor the panel's
//! diagonal block, solve the rows below it against that block
//! ([`ops::trsm_right_transpose_lower`]), then shrink the trailing block by
//! the panel's symmetric rank-k product ([`ops::syrk_sub_lower`], the O(n³)
//! bulk of the work, parallelised over row blocks).  All inner products use
//! the fixed 8-lane accumulation of the shared `dot` kernel, so results are
//! deterministic and bit-identical across thread counts (the
//! [`crate::parallel`] contract) — they differ from the scalar reference
//! [`Cholesky::new_scalar`] only by floating-point reassociation, which the
//! test-suite cross-validates the same way `jacobi` cross-validates the
//! symmetric eigensolver.
//!
//! # Storage
//!
//! A [`Cholesky`] keeps one row-major n×n buffer.  `L` fills the diagonal
//! and the lower triangle, and every constructor mirrors `Lᵀ` into the
//! strict upper triangle, which `L` leaves zero.  Both triangular solves
//! then read rows: the forward solve `L y = b` reads row `i` left of the
//! diagonal, the backward solve `Lᵀ x = y` reads row `i` right of it
//! (column `i` of `L`).  The mirror costs no second n×n buffer;
//! [`Cholesky::l`] returns a copy with the upper triangle masked to zero,
//! which only the strategy store and tests read.
//!
//! # Four chains at width 1
//!
//! At width 1 the forward solve advances four rows, `i` to `i + 3`,
//! together.  First they subtract their terms `j < i`, all known, as four
//! independent chains that load each `y[j]` once.  Then the in-block terms
//! run in ascending order, each row finishing before the next needs it.
//! Every row thus subtracts its terms in ascending `j`, zero factors
//! skipped, exactly as a row-at-a-time loop does, so the bits do not
//! change.  The backward solve stays one row at a time: row `i`'s sum
//! starts at `j = i + 1`, inside any block of rows solved together, so
//! interleaving rows would reorder it.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::ops;

/// Panel width of the blocked factorization: two panel rows (the operands of
/// every trailing-update dot product) occupy 2 KiB, so a block of them stays
/// L1-resident while the trailing rows stream through.
pub const CHOLESKY_BLOCK: usize = 64;

/// A Cholesky factorization holding the lower-triangular factor `L`, with
/// `Lᵀ` mirrored into its strict upper triangle (see the module docs).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Rows the width-1 forward solve advances together (see the module docs).
const CHAINS: usize = 4;

impl Cholesky {
    /// Factors a symmetric positive definite matrix with the blocked
    /// right-looking algorithm (see the module docs).
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::new_with_shift(a, 0.0)
    }

    /// Factors `A + shift * I` with the blocked right-looking algorithm.
    ///
    /// A small positive `shift` regularises nearly-singular gram matrices
    /// (e.g. for rank-deficient workloads); callers decide the amount.
    pub fn new_with_shift(a: &Matrix, shift: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        // Working factor: the lower triangle of `a` (plus the shift), zeros
        // above.  Panels update it in place.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            l[(i, i)] += shift;
        }
        for k0 in (0..n).step_by(CHOLESKY_BLOCK) {
            let k1 = (k0 + CHOLESKY_BLOCK).min(n);
            let w = k1 - k0;
            // Factor the w×w diagonal block in place (left-looking over the
            // panel columns; contributions of earlier panels were already
            // subtracted by their trailing updates).
            factor_diag_block(&mut l, k0, w)?;
            if k1 == n {
                break;
            }
            // Copy the sub-diagonal panel rows into a compact (n−k1)×w
            // buffer: contiguous rows for the triangular solve and the
            // rank-k update, and a clean borrow against the trailing block.
            let d_block =
                Matrix::from_fn(w, w, |i, j| if j <= i { l[(k0 + i, k0 + j)] } else { 0.0 });
            let mut panel = Matrix::from_fn(n - k1, w, |i, j| l[(k1 + i, k0 + j)]);
            // L₂₁ = A₂₁ L₁₁⁻ᵀ, one independent forward substitution per row.
            ops::trsm_right_transpose_lower(&mut panel, &d_block)
                .expect("diagonal block pivots are strictly positive");
            for i in 0..(n - k1) {
                l.row_mut(k1 + i)[k0..k1].copy_from_slice(panel.row(i));
            }
            // Trailing update: A₂₂ ← A₂₂ − L₂₁ L₂₁ᵀ (lower triangle only).
            ops::syrk_sub_lower(&mut l, &panel, k1).expect("panel shape matches trailing block");
        }
        Ok(Cholesky::mirrored(l))
    }

    /// Factors a symmetric positive definite matrix with the textbook
    /// unblocked scalar loop.
    ///
    /// This is the **reference kernel** the blocked [`Cholesky::new`] is
    /// cross-validated against (tests) and benchmarked against
    /// (`selection_latency`); production callers should use [`Cholesky::new`].
    pub fn new_scalar(a: &Matrix) -> Result<Self> {
        Self::new_scalar_with_shift(a, 0.0)
    }

    /// Scalar-reference variant of [`Cholesky::new_with_shift`]; see
    /// [`Cholesky::new_scalar`].
    pub fn new_scalar_with_shift(a: &Matrix, shift: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)] + shift;
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky::mirrored(l))
    }

    /// Reassembles a factorization from a previously computed
    /// lower-triangular factor `L` (e.g. one deserialised from a persistent
    /// strategy store), without refactorizing.
    ///
    /// The factor must be square with strictly positive, finite diagonal
    /// entries and an all-zero strict upper triangle — exactly the shape
    /// [`Cholesky::l`] returns.  Re-wrapping a stored factor instead of
    /// refactorizing keeps solves bit-identical to the run that produced it.
    pub fn from_factor(l: Matrix) -> Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare {
                rows: l.rows(),
                cols: l.cols(),
            });
        }
        let n = l.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        for i in 0..n {
            let d = l[(i, i)];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: d });
            }
            for j in (i + 1)..n {
                if l[(i, j)] != 0.0 {
                    return Err(LinalgError::ShapeMismatch {
                        op: "cholesky from_factor (upper triangle must be zero)",
                        left: (n, n),
                        right: (i, j),
                    });
                }
            }
        }
        Ok(Cholesky::mirrored(l))
    }

    /// Wraps a lower-triangular `l` (zero strict upper triangle) after
    /// mirroring `Lᵀ` into that triangle, tile by tile so the rows read and
    /// the rows written both stay cache-resident.
    fn mirrored(mut l: Matrix) -> Self {
        const TILE: usize = 32;
        let n = l.rows();
        let data = l.as_mut_slice();
        for i0 in (0..n).step_by(TILE) {
            for j0 in (i0..n).step_by(TILE) {
                for i in i0..(i0 + TILE).min(n) {
                    for j in j0.max(i + 1)..(j0 + TILE).min(n) {
                        data[i * n + j] = data[j * n + i];
                    }
                }
            }
        }
        Cholesky { l }
    }

    /// Returns the lower-triangular factor `L`: a copy of the factor's
    /// buffer with the strict upper triangle, which holds the mirrored `Lᵀ`,
    /// set to zero.
    pub fn l(&self) -> Matrix {
        let mut l = self.l.clone();
        for i in 0..l.rows() {
            l.row_mut(i)[i + 1..].fill(0.0);
        }
        l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b (row `i` of L is contiguous, so the
        // partial inner product runs through the fixed-lane kernel).
        let mut y = b.to_vec();
        for i in 0..n {
            let s = ops::dot(&self.l.row(i)[..i], &y[..i]);
            y[i] = (y[i] - s) / self.l[(i, i)];
        }
        // Backward substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            // mm-lint: allow(blessed-reduction): strided column-of-L access cannot use the slice kernel; the k-ascending fold is order-fixed
            let s: f64 = ((i + 1)..n).map(|k| self.l[(k, i)] * y[k]).sum();
            y[i] = (y[i] - s) / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L Y = B` (forward substitution) for a multi-column right-hand
    /// side in one blocked sweep over the factor.
    ///
    /// The update of row `i` is a sequence of contiguous row-axpys `Y[i] -=
    /// L[i,k] · Y[k]`, so all `K` right-hand sides advance together through
    /// one traversal of `L` — the multi-RHS half of the engine's batched
    /// inference `L⁻ᵀ(L⁻¹(AᵀY))`.  Column `c` of the result is bit-identical
    /// to `solve_lower_multi` on that column alone: per entry the
    /// eliminations apply in the same ascending order for every width.
    pub fn solve_lower_multi(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_lower_multi",
                left: (n, n),
                right: b.shape(),
            });
        }
        let k = b.cols();
        let mut x = b.clone();
        if k == 0 {
            return Ok(x);
        }
        let data = x.as_mut_slice();
        // Width-1 fast path: the same sequential eliminations (j ascending,
        // zero factors skipped) in registers, four rows at a time (see the
        // module docs) — so a single right-hand side stays bit-identical to
        // a width-1 solve.
        if k == 1 {
            let blocks = n / CHAINS * CHAINS;
            for i in (0..blocks).step_by(CHAINS) {
                forward_rows::<CHAINS>(&self.l, data, i);
            }
            for i in blocks..n {
                forward_rows::<1>(&self.l, data, i);
            }
            return Ok(x);
        }
        for i in 0..n {
            let (done, rest) = data.split_at_mut(i * k);
            let xi = &mut rest[..k];
            let l_row = self.l.row(i);
            for (j, &lij) in l_row[..i].iter().enumerate() {
                if lij == 0.0 {
                    continue;
                }
                let xj = &done[j * k..(j + 1) * k];
                for (a, &b) in xi.iter_mut().zip(xj.iter()) {
                    *a -= lij * b;
                }
            }
            let d = l_row[i];
            for a in xi.iter_mut() {
                *a /= d;
            }
        }
        Ok(x)
    }

    /// Solves `Lᵀ X = Y` (backward substitution) for a multi-column
    /// right-hand side; the transposed counterpart of
    /// [`Cholesky::solve_lower_multi`], with the same column-wise
    /// bit-identity across widths.
    pub fn solve_upper_multi(&self, y: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if y.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_upper_multi",
                left: (n, n),
                right: y.shape(),
            });
        }
        let k = y.cols();
        let mut x = y.clone();
        if k == 0 {
            return Ok(x);
        }
        let data = x.as_mut_slice();
        // Row i of Lᵀ is column i of L below the diagonal, mirrored into
        // row i right of the diagonal: one contiguous read per row.
        // Width-1 fast path: identical elimination sequence, register
        // accumulation.
        if k == 1 {
            for i in (0..n).rev() {
                let row = self.l.row(i);
                let (head, tail) = data.split_at_mut(i + 1);
                let mut v = head[i];
                for (&lji, &xj) in row[i + 1..].iter().zip(tail.iter()) {
                    if lji != 0.0 {
                        v -= lji * xj;
                    }
                }
                head[i] = v / row[i];
            }
            return Ok(x);
        }
        for i in (0..n).rev() {
            let row = self.l.row(i);
            let (head, tail) = data.split_at_mut((i + 1) * k);
            let xi = &mut head[i * k..];
            for (&lji, xj) in row[i + 1..].iter().zip(tail.chunks_exact(k)) {
                if lji == 0.0 {
                    continue;
                }
                for (a, &b) in xi.iter_mut().zip(xj.iter()) {
                    *a -= lji * b;
                }
            }
            let d = row[i];
            for a in xi.iter_mut() {
                *a /= d;
            }
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix right-hand side through the two
    /// multi-RHS triangular sweeps (`A = L Lᵀ`).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let y = self.solve_lower_multi(b)?;
        self.solve_upper_multi(&y)
    }

    /// Computes the inverse `A⁻¹`.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        self.solve_matrix(&Matrix::identity(n))
            .expect("identity has matching shape")
    }

    /// Log-determinant of `A` (twice the sum of log diagonal entries of `L`).
    pub fn log_det(&self) -> f64 {
        let logs: Vec<f64> = self.l.diag().iter().map(|d| d.ln()).collect();
        2.0 * ops::sum(&logs)
    }

    /// Determinant of `A`.
    pub fn det(&self) -> f64 {
        let p: f64 = self.l.diag().iter().product();
        p * p
    }

    /// Computes `trace(G * A⁻¹)` where `A` is the factored matrix, without
    /// forming the inverse explicitly.
    ///
    /// This is the Prop. 4 error expression `trace(WᵀW (AᵀA)⁻¹)` with
    /// `G = WᵀW`.  With `A = L Lᵀ` the cyclic property gives
    /// `trace(G L⁻ᵀ L⁻¹) = trace(L⁻¹ G L⁻ᵀ) = trace(L⁻¹ (L⁻¹ G)ᵀ)`, so the
    /// whole trace is two blocked multi-RHS forward sweeps
    /// ([`Cholesky::solve_lower_multi`]) and a diagonal sum — the n
    /// column-by-column scalar solves this replaces were the last unblocked
    /// O(n³) step on the engine's selection-miss path.  (The sweeps evaluate
    /// `trace(Gᵀ A⁻¹)`, which equals `trace(G A⁻¹)` for *any* square `G` —
    /// symmetric or not — because `A⁻¹` is symmetric.)
    pub fn trace_of_gram_times_inverse(&self, g: &Matrix) -> Result<f64> {
        let n = self.dim();
        if g.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "trace_of_gram_times_inverse",
                left: (n, n),
                right: g.shape(),
            });
        }
        let y = self.solve_lower_multi(g)?;
        let z = self.solve_lower_multi(&y.transpose())?;
        Ok(ops::sum(&z.diag()))
    }
}

/// Forward substitution of rows `i..i + R` of `L y = b` at width 1, in
/// place in `y`: first the terms `j < i` as `R` chains, then the in-block
/// terms in ascending order (see the module docs).
#[inline(always)]
fn forward_rows<const R: usize>(l: &Matrix, y: &mut [f64], i: usize) {
    let rows: [&[f64]; R] = std::array::from_fn(|r| l.row(i + r));
    let (solved, block) = y.split_at_mut(i);
    let mut v: [f64; R] = std::array::from_fn(|r| block[r]);
    for (j, &yj) in solved.iter().enumerate() {
        for r in 0..R {
            let lrj = rows[r][j];
            if lrj != 0.0 {
                v[r] -= lrj * yj;
            }
        }
    }
    for r in 0..R {
        for t in 0..r {
            let lrt = rows[r][i + t];
            if lrt != 0.0 {
                v[r] -= lrt * block[t];
            }
        }
        block[r] = v[r] / rows[r][i + r];
    }
}

/// Factors the `w`×`w` diagonal block anchored at `(k0, k0)` of `l` in place
/// (plain left-looking loop over the panel columns, `dot`-kernel inner
/// products).  Reports failed pivots at their global index.
fn factor_diag_block(l: &mut Matrix, k0: usize, w: usize) -> Result<()> {
    let n = l.cols();
    // The block lives in rows k0..k0+w; work on that contiguous slab.
    let data = &mut l.as_mut_slice()[k0 * n..(k0 + w) * n];
    for j in 0..w {
        let row_j = &data[j * n + k0..j * n + k0 + j];
        let d = data[j * n + k0 + j] - ops::dot(row_j, row_j);
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: k0 + j,
                value: d,
            });
        }
        let dj = d.sqrt();
        data[j * n + k0 + j] = dj;
        for i in (j + 1)..w {
            let (head, tail) = data.split_at_mut(i * n);
            let row_j = &head[j * n + k0..j * n + k0 + j];
            let row_i = &mut tail[k0..k0 + j + 1];
            let s = ops::dot(&row_i[..j], row_j);
            row_i[j] = (row_i[j] - s) / dj;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::ops::{gram, matmul};

    fn spd_matrix(n: usize) -> Matrix {
        // Build a random-ish SPD matrix as BᵀB + I.
        let b = Matrix::from_fn(n + 2, n, |i, j| ((i * 7 + j * 13) % 9) as f64 / 4.0 - 1.0);
        let mut g = gram(&b);
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    }

    /// Forward substitution `L y = b` by the textbook loop, column by
    /// column: ascending `j`, zero factors skipped.
    fn reference_lower(l: &Matrix, b: &Matrix) -> Matrix {
        let mut y = b.clone();
        for c in 0..b.cols() {
            for i in 0..l.rows() {
                let mut v = y[(i, c)];
                for j in 0..i {
                    if l[(i, j)] != 0.0 {
                        v -= l[(i, j)] * y[(j, c)];
                    }
                }
                y[(i, c)] = v / l[(i, i)];
            }
        }
        y
    }

    /// Backward substitution `Lᵀ x = y` by the textbook loop, column by
    /// column: ascending `j` over column `i` of `L`, zero factors skipped.
    fn reference_upper(l: &Matrix, y: &Matrix) -> Matrix {
        let mut x = y.clone();
        for c in 0..y.cols() {
            for i in (0..l.rows()).rev() {
                let mut v = x[(i, c)];
                for j in (i + 1)..l.rows() {
                    if l[(j, i)] != 0.0 {
                        v -= l[(j, i)] * x[(j, c)];
                    }
                }
                x[(i, c)] = v / l[(i, i)];
            }
        }
        x
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_constructor_mirrors_its_factor() {
        // A constructor that leaves the upper triangle zero makes the
        // backward solve drop every off-diagonal term of Lᵀ.
        for &n in &[1usize, 5, 64, 67] {
            let a = spd_matrix(n);
            let blocked = Cholesky::new_with_shift(&a, 0.25).unwrap();
            let scalar = Cholesky::new_scalar_with_shift(&a, 0.25).unwrap();
            let rebuilt = Cholesky::from_factor(blocked.l()).unwrap();
            assert_eq!(bits(&rebuilt.l()), bits(&blocked.l()));
            for (name, ch) in [
                ("new_with_shift", &blocked),
                ("new_scalar_with_shift", &scalar),
                ("from_factor", &rebuilt),
            ] {
                let l = ch.l();
                for i in 0..n {
                    for j in (i + 1)..n {
                        assert_eq!(l[(i, j)].to_bits(), 0, "{name} n={n}: l() at ({i},{j})");
                    }
                }
                for k in [1usize, 3] {
                    let b = Matrix::from_fn(n, k, |i, c| ((i * 5 + c * 3) % 7) as f64 - 3.0);
                    let lower = ch.solve_lower_multi(&b).unwrap();
                    assert_eq!(bits(&lower), bits(&reference_lower(&l, &b)), "{name} n={n}");
                    let upper = ch.solve_upper_multi(&b).unwrap();
                    assert_eq!(bits(&upper), bits(&reference_upper(&l, &b)), "{name} n={n}");
                }
            }
        }
    }

    #[test]
    fn width_one_solves_are_the_textbook_loops_bit_for_bit() {
        // A sparse factor with -0.0 entries, diagonal-only rows, and
        // right-hand sides of -0.0 on those rows: a solve that subtracted a
        // zero factor's term instead of skipping it would turn some -0.0
        // into +0.0 (-0.0 - 0·y = +0.0 for y < 0).
        let sizes = (1..=9).chain([63, 64, 65]);
        for n in sizes {
            let l = Matrix::from_fn(n, n, |i, j| {
                if j == i {
                    1.5 + (i % 4) as f64
                } else if j > i || i % 5 == 0 {
                    0.0
                } else if (i + j) % 3 == 0 {
                    ((i * 7 + j) % 5) as f64 / 4.0 - 0.6
                } else if (i + j) % 3 == 1 {
                    -0.0
                } else {
                    0.0
                }
            });
            let ch = Cholesky::from_factor(l.clone()).unwrap();
            let b = Matrix::from_fn(n, 1, |i, _| {
                if i % 5 == 0 {
                    -0.0
                } else {
                    ((i * 3) % 7) as f64 - 4.0
                }
            });
            let lower = ch.solve_lower_multi(&b).unwrap();
            assert_eq!(bits(&lower), bits(&reference_lower(&l, &b)), "lower n={n}");
            let upper = ch.solve_upper_multi(&b).unwrap();
            assert_eq!(bits(&upper), bits(&reference_upper(&l, &b)), "upper n={n}");
        }
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_matrix(6);
        let ch = Cholesky::new(&a).unwrap();
        let rec = matmul(&ch.l(), &ch.l().transpose()).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(rec[(i, j)], a[(i, j)], 1e-9));
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_matrix(5);
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 3.0, 0.5, -1.5];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!(approx_eq(*xi, *ti, 1e-8));
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_matrix(4);
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = matmul(&a, &inv).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod[(i, j)], expect, 1e-8), "({i},{j})");
            }
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
        assert!(Cholesky::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn shift_regularises_singular_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap(); // rank 1
        assert!(Cholesky::new(&a).is_err());
        assert!(Cholesky::new_with_shift(&a, 1e-6).is_ok());
    }

    #[test]
    fn determinants() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        assert!(approx_eq(ch.det(), 8.0, 1e-10));
        assert!(approx_eq(ch.log_det(), 8.0_f64.ln(), 1e-10));
    }

    #[test]
    fn solve_matrix_rhs() {
        let a = spd_matrix(4);
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let x = ch.solve_matrix(&b).unwrap();
        let rec = matmul(&a, &x).unwrap();
        for i in 0..4 {
            for j in 0..2 {
                assert!(approx_eq(rec[(i, j)], b[(i, j)], 1e-8));
            }
        }
        assert!(ch.solve_matrix(&Matrix::zeros(3, 1)).is_err());
        assert!(ch.solve_vec(&[0.0; 3]).is_err());
    }

    #[test]
    fn solve_lower_multi_matches_per_column_reference() {
        // Property: for every column k, solve_lower_multi(L, X)[:, k] equals
        // a scalar forward substitution L y = x_k to 1e-12, and is
        // bit-identical to the K = 1 solve on that column alone.
        for &(n, k) in &[(1usize, 1usize), (5, 3), (24, 8), (40, 17)] {
            let a = spd_matrix(n);
            let ch = Cholesky::new(&a).unwrap();
            let l = ch.l();
            let b = Matrix::from_fn(n, k, |i, j| ((i * 13 + j * 7) % 11) as f64 - 5.0);
            let multi = ch.solve_lower_multi(&b).unwrap();
            assert_eq!(multi.shape(), (n, k));
            for c in 0..k {
                // Scalar reference: plain forward substitution.
                let mut y = b.col(c);
                for i in 0..n {
                    let s: f64 = (0..i).map(|j| l[(i, j)] * y[j]).sum();
                    y[i] = (y[i] - s) / l[(i, i)];
                }
                for i in 0..n {
                    assert!(
                        approx_eq(multi[(i, c)], y[i], 1e-12),
                        "({i},{c}): {} vs {}",
                        multi[(i, c)],
                        y[i]
                    );
                }
                // Bitwise K-invariance.
                let single_rhs = Matrix::from_fn(n, 1, |i, _| b[(i, c)]);
                let single = ch.solve_lower_multi(&single_rhs).unwrap();
                for i in 0..n {
                    assert_eq!(multi[(i, c)].to_bits(), single[(i, 0)].to_bits());
                }
            }
        }
    }

    #[test]
    fn solve_upper_multi_matches_per_column_reference() {
        for &(n, k) in &[(1usize, 2usize), (6, 4), (24, 9)] {
            let a = spd_matrix(n);
            let ch = Cholesky::new(&a).unwrap();
            let l = ch.l();
            let b = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
            let multi = ch.solve_upper_multi(&b).unwrap();
            for c in 0..k {
                // Scalar reference: plain backward substitution on Lᵀ.
                let mut y = b.col(c);
                for i in (0..n).rev() {
                    let s: f64 = ((i + 1)..n).map(|j| l[(j, i)] * y[j]).sum();
                    y[i] = (y[i] - s) / l[(i, i)];
                }
                for i in 0..n {
                    assert!(
                        approx_eq(multi[(i, c)], y[i], 1e-12),
                        "({i},{c}): {} vs {}",
                        multi[(i, c)],
                        y[i]
                    );
                }
                let single_rhs = Matrix::from_fn(n, 1, |i, _| b[(i, c)]);
                let single = ch.solve_upper_multi(&single_rhs).unwrap();
                for i in 0..n {
                    assert_eq!(multi[(i, c)].to_bits(), single[(i, 0)].to_bits());
                }
            }
        }
    }

    #[test]
    fn triangular_multi_solves_compose_to_full_solve() {
        // L⁻ᵀ(L⁻¹ B) must reconstruct A X = B, and zero-width / mismatched
        // right-hand sides are handled.
        let a = spd_matrix(6);
        let ch = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(6, 3, |i, j| (i as f64) - 2.0 * (j as f64));
        let x = ch
            .solve_upper_multi(&ch.solve_lower_multi(&b).unwrap())
            .unwrap();
        let rec = matmul(&a, &x).unwrap();
        for i in 0..6 {
            for j in 0..3 {
                assert!(approx_eq(rec[(i, j)], b[(i, j)], 1e-8));
            }
        }
        let empty = ch.solve_lower_multi(&Matrix::zeros(6, 0)).unwrap();
        assert_eq!(empty.shape(), (6, 0));
        assert!(ch.solve_lower_multi(&Matrix::zeros(5, 2)).is_err());
        assert!(ch.solve_upper_multi(&Matrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn blocked_factor_cross_validates_against_scalar_reference() {
        // The blocked right-looking factorization must agree with the
        // textbook scalar loop everywhere, including sizes that are not a
        // multiple of the panel width and sizes spanning several panels.
        for &n in &[1usize, 5, 63, 64, 65, 130, 200] {
            let a = spd_matrix(n);
            let blocked = Cholesky::new(&a).unwrap();
            let scalar = Cholesky::new_scalar(&a).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        approx_eq(blocked.l()[(i, j)], scalar.l()[(i, j)], 1e-9),
                        "n={n} ({i},{j}): {} vs {}",
                        blocked.l()[(i, j)],
                        scalar.l()[(i, j)]
                    );
                }
                for j in (i + 1)..n {
                    assert_eq!(blocked.l()[(i, j)], 0.0, "upper triangle stays zero");
                }
            }
        }
    }

    #[test]
    fn blocked_factor_reports_the_same_failing_pivot() {
        // An indefinite matrix whose leading principal minors stay positive
        // until deep into the second panel: the blocked path must report the
        // same pivot index as the scalar reference.
        let n = 100;
        let mut a = spd_matrix(n);
        a[(80, 80)] = -1e6;
        let blocked = Cholesky::new(&a);
        let scalar = Cholesky::new_scalar(&a);
        let Err(LinalgError::NotPositiveDefinite { pivot: pb, .. }) = blocked else {
            panic!("blocked factorization must fail");
        };
        let Err(LinalgError::NotPositiveDefinite { pivot: ps, .. }) = scalar else {
            panic!("scalar factorization must fail");
        };
        assert_eq!(pb, ps);
        assert_eq!(pb, 80);
        // The shifted variants agree as well.
        assert!(Cholesky::new_scalar_with_shift(&spd_matrix(8), 0.5).is_ok());
        assert!(Cholesky::new_scalar(&Matrix::zeros(2, 3)).is_err());
        assert!(Cholesky::new_scalar(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn trace_of_gram_times_inverse_matches_explicit() {
        let a = spd_matrix(5);
        let g = spd_matrix(5);
        let ch = Cholesky::new(&a).unwrap();
        let t = ch.trace_of_gram_times_inverse(&g).unwrap();
        let explicit = matmul(&g, &ch.inverse()).unwrap().trace();
        assert!(approx_eq(t, explicit, 1e-8));
        assert!(ch
            .trace_of_gram_times_inverse(&Matrix::zeros(2, 2))
            .is_err());
    }

    #[test]
    fn from_factor_round_trips_bit_identically() {
        let a = spd_matrix(7);
        let ch = Cholesky::new(&a).unwrap();
        let rebuilt = Cholesky::from_factor(ch.l().clone()).unwrap();
        assert_eq!(rebuilt.l().as_slice(), ch.l().as_slice());
        let b: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let x1 = ch.solve_vec(&b).unwrap();
        let x2 = rebuilt.solve_vec(&b).unwrap();
        // Bit-identical, not merely approximately equal: a stored factor must
        // reproduce the original run's answers exactly.
        for (u, v) in x1.iter().zip(&x2) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn from_factor_rejects_malformed_factors() {
        assert!(Cholesky::from_factor(Matrix::zeros(2, 3)).is_err());
        assert!(Cholesky::from_factor(Matrix::zeros(0, 0)).is_err());
        // Non-positive diagonal.
        let mut bad = Matrix::identity(3);
        bad[(1, 1)] = -2.0;
        assert!(Cholesky::from_factor(bad).is_err());
        // Non-finite diagonal.
        let mut inf = Matrix::identity(3);
        inf[(2, 2)] = f64::INFINITY;
        assert!(Cholesky::from_factor(inf).is_err());
        // Nonzero strict upper triangle.
        let mut upper = Matrix::identity(3);
        upper[(0, 2)] = 1.0;
        assert!(Cholesky::from_factor(upper).is_err());
        // A genuine lower-triangular factor is accepted.
        let l = Cholesky::new(&spd_matrix(4)).unwrap().l().clone();
        assert!(Cholesky::from_factor(l).is_ok());
    }
}
