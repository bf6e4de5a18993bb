//! Structured (matrix-free) strategies: Haar wavelet and hierarchical trees
//! as [`LinearOperator`]s, with byte-serialisable descriptors.
//!
//! A dense [`Strategy`](crate::Strategy) stores its O(n²) gram matrix even
//! when the explicit matrix is dropped, which caps the served domain near
//! n ≈ 1024.  The two strategy families the paper leans on for range
//! workloads are sparse by construction, though: every row of the Haar
//! wavelet and of a k-ary hierarchy is a union of at most two constant runs
//! of ±1.  [`RunRowsOperator`] stores exactly those runs — O(n log n) total
//! — and applies them in the dense kernels' canonical order, so structured
//! and dense applies agree *bit for bit* (see [`mm_linalg::operator`] for
//! the contract; `tests/structured.rs` cross-validates).  Both families
//! also have an exact O(n) least-squares inverse
//! ([`StructuredStrategy::least_squares`]).
//!
//! [`StructuredStrategy`] bundles an operator with the sensitivities the
//! noise backends calibrate against, computed with the *same expressions*
//! as the dense constructors ([`crate::wavelet::wavelet_1d`],
//! [`crate::hierarchical::hierarchical_1d`]) so both paths draw identically
//! scaled noise.  [`StrategyDescriptor`] is the few-byte persistent form:
//! the engine's structured store writes descriptors instead of n×n factors
//! and rebuilds the operator on load.

use crate::hierarchical::hierarchy_intervals;
use mm_linalg::{LinearOperator, Matrix};
use std::sync::Arc;

/// Maximum entry count for [`RunRowsOperator::materialize`] (mirrors
/// [`crate::strategy::EXPLICIT_ENTRY_LIMIT`]).
use crate::strategy::EXPLICIT_ENTRY_LIMIT;

/// One constant run of a sparse strategy row: cells `lo..=hi` all carry
/// `coeff` (always ±1 for the families here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// First cell of the run (inclusive).
    pub lo: usize,
    /// Last cell of the run (inclusive).
    pub hi: usize,
    /// The constant coefficient over the run (never exactly zero).
    pub coeff: f64,
}

/// A strategy matrix stored as per-row lists of constant ±1 runs.
///
/// Storage is O(total runs) — 2 per Haar row, 1 per hierarchy row — and
/// applies cost O(total run length).  Runs within a row are ascending and
/// disjoint, which makes the sequential per-row accumulation bit-identical
/// to the dense width-1 kernel (it skips exactly the stored zeros).
#[derive(Debug, Clone)]
pub struct RunRowsOperator {
    n: usize,
    rows: Vec<Vec<Run>>,
}

impl RunRowsOperator {
    /// Builds an operator over `n` cells from per-row run lists.
    ///
    /// Panics when `n == 0`, a row is empty, a run is malformed (out of
    /// range, `lo > hi`, zero or non-finite coefficient), or a row's runs
    /// are not strictly ascending and disjoint.
    pub fn new(n: usize, rows: Vec<Vec<Run>>) -> Self {
        assert!(n > 0, "operator needs at least one cell");
        assert!(!rows.is_empty(), "operator needs at least one row");
        for row in &rows {
            assert!(!row.is_empty(), "strategy rows must be non-empty");
            let mut prev_end: Option<usize> = None;
            for run in row {
                assert!(
                    run.lo <= run.hi && run.hi < n,
                    "run ({}, {}) is malformed for {n} cells",
                    run.lo,
                    run.hi
                );
                assert!(
                    run.coeff != 0.0 && run.coeff.is_finite(),
                    "run coefficients must be non-zero and finite"
                );
                if let Some(end) = prev_end {
                    assert!(
                        end < run.lo,
                        "runs within a row must be ascending and disjoint"
                    );
                }
                prev_end = Some(run.hi);
            }
        }
        RunRowsOperator { n, rows }
    }

    /// Total number of stored runs (the operator's memory footprint).
    pub fn run_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

impl LinearOperator for RunRowsOperator {
    fn dims(&self) -> (usize, usize) {
        (self.rows.len(), self.n)
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "apply: dimension mismatch");
        let mut out = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            // Sequential ascending accumulation over the row's non-zero
            // coefficients — exactly the dense width-1 kernel's order.
            let mut acc = 0.0;
            for run in row {
                for &xi in &x[run.lo..=run.hi] {
                    acc += run.coeff * xi;
                }
            }
            out.push(acc);
        }
        out
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.rows.len(),
            "apply_transpose: dimension mismatch"
        );
        let mut out = vec![0.0; self.n];
        for (row, &yr) in self.rows.iter().zip(y.iter()) {
            for run in row {
                for o in &mut out[run.lo..=run.hi] {
                    *o += run.coeff * yr;
                }
            }
        }
        out
    }

    fn gram_diag(&self) -> Option<Vec<f64>> {
        // ±1 coefficients square to exactly 1, so the diagonal is an exact
        // integer coverage count whatever the accumulation order.
        let mut out = vec![0.0; self.n];
        for row in &self.rows {
            for run in row {
                for o in &mut out[run.lo..=run.hi] {
                    *o += run.coeff * run.coeff;
                }
            }
        }
        Some(out)
    }

    fn materialize(&self) -> Option<Matrix> {
        if self.rows.len().saturating_mul(self.n) > EXPLICIT_ENTRY_LIMIT {
            return None;
        }
        let mut m = Matrix::zeros(self.rows.len(), self.n);
        for (r, row) in self.rows.iter().enumerate() {
            for run in row {
                for v in &mut m.row_mut(r)[run.lo..=run.hi] {
                    *v = run.coeff;
                }
            }
        }
        Some(m)
    }
}

/// The persistent identity of a structured strategy: a few bytes that
/// rebuild the full operator.  This is what the engine's structured store
/// writes instead of an n×n factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyDescriptor {
    /// The unnormalised Haar wavelet over `n = 2^k` cells
    /// ([`haar_strategy`]).
    Haar {
        /// Domain size (a power of two).
        n: usize,
    },
    /// The k-ary hierarchy of interval counts over `n` cells
    /// ([`hierarchical_strategy_structured`]).
    Hierarchical {
        /// Domain size.
        n: usize,
        /// Branching factor (≥ 2).
        branching: usize,
    },
}

impl StrategyDescriptor {
    /// Serialises the descriptor: a variant tag byte followed by its
    /// little-endian `u64` fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        match self {
            StrategyDescriptor::Haar { n } => {
                out.push(1u8);
                out.extend_from_slice(&(*n as u64).to_le_bytes());
            }
            StrategyDescriptor::Hierarchical { n, branching } => {
                out.push(2u8);
                out.extend_from_slice(&(*n as u64).to_le_bytes());
                out.extend_from_slice(&(*branching as u64).to_le_bytes());
            }
        }
        out
    }

    /// Parses [`StrategyDescriptor::encode`] output, rejecting unknown
    /// tags, truncated payloads, trailing bytes and parameters that
    /// [`StrategyDescriptor::instantiate`] would panic on — a corrupt store
    /// entry must degrade to "not present", never to a panic.
    pub fn decode(bytes: &[u8]) -> Option<StrategyDescriptor> {
        let (&tag, rest) = bytes.split_first()?;
        let u64_at =
            |chunk: &[u8]| -> Option<u64> { Some(u64::from_le_bytes(chunk.try_into().ok()?)) };
        match tag {
            1 if rest.len() == 8 => {
                let n = usize::try_from(u64_at(rest)?).ok()?;
                (n > 0 && n.is_power_of_two()).then_some(StrategyDescriptor::Haar { n })
            }
            2 if rest.len() == 16 => {
                let n = usize::try_from(u64_at(&rest[..8])?).ok()?;
                let branching = usize::try_from(u64_at(&rest[8..])?).ok()?;
                (n > 0 && branching >= 2)
                    .then_some(StrategyDescriptor::Hierarchical { n, branching })
            }
            _ => None,
        }
    }

    /// Rebuilds the full strategy this descriptor names.
    pub fn instantiate(&self) -> StructuredStrategy {
        match *self {
            StrategyDescriptor::Haar { n } => haar_strategy(n),
            StrategyDescriptor::Hierarchical { n, branching } => {
                hierarchical_strategy_structured(n, branching)
            }
        }
    }

    /// Domain size of the described strategy.
    pub fn dim(&self) -> usize {
        match *self {
            StrategyDescriptor::Haar { n } => n,
            StrategyDescriptor::Hierarchical { n, .. } => n,
        }
    }
}

/// A matrix-free strategy: an operator plus the calibration scalars the
/// noise backends need, and the descriptor that persists it.
///
/// The structured analogue of [`Strategy`](crate::Strategy) — it carries no
/// gram matrix at all; answering inverts the observations with
/// [`StructuredStrategy::least_squares`], an exact O(n) solve, instead of a
/// dense factor.  Every instance comes from [`haar_strategy`] or
/// [`hierarchical_strategy_structured`] (the fields are private), which is
/// what lets that solve rely on the row order those constructors emit.
#[derive(Debug, Clone)]
pub struct StructuredStrategy {
    name: String,
    operator: Arc<RunRowsOperator>,
    descriptor: StrategyDescriptor,
    l2_sensitivity: f64,
    l1_sensitivity: f64,
}

impl StructuredStrategy {
    /// Strategy name (matches the dense constructor's name for the same
    /// parameters).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The strategy matrix as a matrix-free operator.
    pub fn operator(&self) -> &Arc<RunRowsOperator> {
        &self.operator
    }

    /// The persistent descriptor.
    pub fn descriptor(&self) -> StrategyDescriptor {
        self.descriptor
    }

    /// Number of strategy queries (rows of `A`).
    pub fn rows(&self) -> usize {
        self.operator.dims().0
    }

    /// Number of cells (columns of `A`).
    pub fn dim(&self) -> usize {
        self.operator.dims().1
    }

    /// L2 sensitivity `‖A‖₂` (maximum column L2 norm, Prop. 1) — equal, bit
    /// for bit, to the dense constructor's value.
    pub fn l2_sensitivity(&self) -> f64 {
        self.l2_sensitivity
    }

    /// L1 sensitivity `‖A‖₁` (maximum column L1 norm).
    pub fn l1_sensitivity(&self) -> f64 {
        self.l1_sensitivity
    }

    /// The least-squares estimate `x̂ = (AᵀA)⁻¹Aᵀy` of the cells from one
    /// answer per strategy row, exact up to rounding, in O(n) time and
    /// memory and with a fixed operation order (so it replays bit for bit
    /// at any thread count).
    ///
    /// * **Haar.** The rows are mutually orthogonal, so
    ///   `x̂ = Hᵀ·diag(1/‖h_r‖²)·y`: the all-ones row has `‖h‖² = n`, a
    ///   detail row over a block of `B` cells has `‖h‖² = B`.  The estimate
    ///   is built top-down, one level of blocks at a time.
    /// * **Hierarchy.** Every node is observed once at the same noise scale
    ///   and the leaves are the cells, so Hay et al.'s two-pass inference
    ///   (VLDB 2010) applies, in its general form that is exact for any
    ///   tree, uneven depths included.  Upward, each node folds its
    ///   children's estimates `S = Σ z_c` and weights `A = Σ a_c` into
    ///   `z = (A·y + S)/(A + 1)`, `a = A/(A + 1)` (a leaf has `z = y`,
    ///   `a = 1`); downward, each child takes `x_c = z_c + (a_c/A)·(x − S)`
    ///   from its parent's final `x`.
    ///
    /// Panics when `y` does not hold one value per strategy row.
    pub fn least_squares(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows(), "least_squares: dimension mismatch");
        match self.descriptor {
            StrategyDescriptor::Haar { n } => haar_least_squares(n, y),
            StrategyDescriptor::Hierarchical { n, branching } => {
                tree_least_squares(&self.operator.rows, n, branching, y)
            }
        }
    }
}

/// [`StructuredStrategy::least_squares`] for the Haar rows of
/// [`haar_strategy`]: the detail row of block `b` at block size `B` is row
/// `n/B + b`.  `x` holds one value per block of the current size; each
/// level splits every block into its `+` and `−` halves, back to front so
/// no value is overwritten before it is read.
fn haar_least_squares(n: usize, y: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; n];
    x[0] = y[0] / n as f64;
    let mut blocks = 1;
    while blocks < n {
        let size = (n / blocks) as f64;
        for b in (0..blocks).rev() {
            let parent = x[b];
            let detail = y[blocks + b] / size;
            x[2 * b] = parent + detail;
            x[2 * b + 1] = parent - detail;
        }
        blocks *= 2;
    }
    x
}

/// [`StructuredStrategy::least_squares`] for the interval rows of
/// [`hierarchical_strategy_structured`], which are
/// [`hierarchy_intervals`]' breadth-first order.  In that order a node of
/// length ≥ 2 has `min(branching, length)` children, contiguous and right
/// after the previous internal node's children, so the tree's shape is read
/// off the row lengths with no index arrays.
fn tree_least_squares(nodes: &[Vec<Run>], n: usize, branching: usize, y: &[f64]) -> Vec<f64> {
    let span = |i: usize| (nodes[i][0].lo, nodes[i][0].hi - nodes[i][0].lo + 1);
    let child_count = |len: usize| if len < 2 { 0 } else { branching.min(len) };
    let sums = |z: &[f64], a: &[f64]| {
        let (mut s, mut total) = (0.0, 0.0);
        for (zc, ac) in z.iter().zip(a) {
            s += zc;
            total += ac;
        }
        (s, total)
    };
    // Upward: children blocks tile rows 1.. in parent order, so walking
    // the parents backwards peels them off the end.
    let mut z = y.to_vec();
    let mut a = vec![1.0; nodes.len()];
    let mut end = nodes.len();
    for i in (0..nodes.len()).rev() {
        let k = child_count(span(i).1);
        if k == 0 {
            continue;
        }
        let first = end - k;
        let (s, total) = sums(&z[first..end], &a[first..end]);
        z[i] = (total * y[i] + s) / (total + 1.0);
        a[i] = total / (total + 1.0);
        end = first;
    }
    debug_assert_eq!(end, 1, "every non-root row is some node's child");
    // Downward: `z[i]` already holds node i's final estimate when it is
    // reached, and its children still hold their upward values.
    let mut x = vec![0.0; n];
    let mut next = 1;
    for i in 0..nodes.len() {
        let (lo, len) = span(i);
        let k = child_count(len);
        if k == 0 {
            x[lo] = z[i];
            continue;
        }
        let children = next..next + k;
        let (s, total) = sums(&z[children.clone()], &a[children.clone()]);
        let residual = z[i] - s;
        for c in children {
            z[c] += (a[c] / total) * residual;
        }
        next += k;
    }
    x
}

/// The unnormalised Haar wavelet strategy over `n = 2^k` cells as a
/// [`StructuredStrategy`]: 2 runs per detail row, O(n log n) apply, same
/// row order, name and sensitivities as [`crate::wavelet::wavelet_1d`].
///
/// Panics when `n` is not a power of two (like the dense constructor).
pub fn haar_strategy(n: usize) -> StructuredStrategy {
    assert!(
        n.is_power_of_two(),
        "the Haar wavelet requires a power-of-two domain, got {n}"
    );
    let mut rows = Vec::with_capacity(n);
    rows.push(vec![Run {
        lo: 0,
        hi: n - 1,
        coeff: 1.0,
    }]);
    let mut block = n;
    while block >= 2 {
        let half = block / 2;
        for start in (0..n).step_by(block) {
            rows.push(vec![
                Run {
                    lo: start,
                    hi: start + half - 1,
                    coeff: 1.0,
                },
                Run {
                    lo: start + half,
                    hi: start + block - 1,
                    coeff: -1.0,
                },
            ]);
        }
        block = half;
    }
    debug_assert_eq!(rows.len(), n);
    let levels = n.trailing_zeros() as usize;
    // Same expressions as `wavelet_1d`, so both paths calibrate identical
    // noise scales for the same privacy parameters.
    let l2 = ((levels + 1) as f64).sqrt();
    let l1 = (levels + 1) as f64;
    StructuredStrategy {
        name: format!("wavelet (n={n})"),
        operator: Arc::new(RunRowsOperator::new(n, rows)),
        descriptor: StrategyDescriptor::Haar { n },
        l2_sensitivity: l2,
        l1_sensitivity: l1,
    }
}

/// The k-ary hierarchical strategy over `n` cells as a
/// [`StructuredStrategy`]: 1 run per row (one per tree interval), same
/// interval order, name and sensitivities as
/// [`crate::hierarchical::hierarchical_1d`].
///
/// Panics when `n == 0` or `branching < 2` (like the dense constructor).
pub fn hierarchical_strategy_structured(n: usize, branching: usize) -> StructuredStrategy {
    let intervals = hierarchy_intervals(n, branching);
    let rows: Vec<Vec<Run>> = intervals
        .iter()
        .map(|&(lo, hi)| vec![Run { lo, hi, coeff: 1.0 }])
        .collect();
    // Each cell's column L1 norm is its covering-interval count; the same
    // per-cell counting `hierarchical_1d` does, without the gram.
    let mut counts = vec![0usize; n];
    for &(lo, hi) in &intervals {
        for c in counts.iter_mut().take(hi + 1).skip(lo) {
            *c += 1;
        }
    }
    let max_count = *counts.iter().max().expect("n > 0") as f64;
    StructuredStrategy {
        name: format!("hierarchical (b={branching}, n={n})"),
        operator: Arc::new(RunRowsOperator::new(n, rows)),
        descriptor: StrategyDescriptor::Hierarchical { n, branching },
        l2_sensitivity: max_count.sqrt(),
        l1_sensitivity: max_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::hierarchical_1d;
    use crate::wavelet::{haar_matrix, wavelet_1d};
    use mm_linalg::decomp::Cholesky;
    use mm_linalg::ExplicitOperator;

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn haar_operator_matches_dense_matrix_exactly() {
        for n in [2usize, 8, 32] {
            let s = haar_strategy(n);
            assert_eq!(s.operator().materialize().unwrap(), haar_matrix(n));
            assert_eq!(s.rows(), n);
            assert_eq!(s.dim(), n);
        }
    }

    #[test]
    fn haar_applies_match_dense_bitwise() {
        let n = 64;
        let s = haar_strategy(n);
        let dense = ExplicitOperator::new(haar_matrix(n));
        let x: Vec<f64> = (0..n).map(|i| 0.3 + (i as f64) * 0.017).collect();
        assert_bits_eq(&s.operator().apply(&x), &dense.apply(&x));
        let y: Vec<f64> = (0..n).map(|i| -1.0 + (i as f64) * 0.05).collect();
        assert_bits_eq(
            &s.operator().apply_transpose(&y),
            &dense.apply_transpose(&y),
        );
        assert_bits_eq(
            &s.operator().gram_diag().unwrap(),
            &dense.gram_diag().unwrap(),
        );
    }

    #[test]
    fn haar_sensitivities_match_dense_strategy_bitwise() {
        for n in [4usize, 16, 128] {
            let s = haar_strategy(n);
            let d = wavelet_1d(n);
            assert_eq!(s.l2_sensitivity().to_bits(), d.l2_sensitivity().to_bits());
            assert_eq!(s.l1_sensitivity().to_bits(), d.l1_sensitivity().to_bits());
            assert_eq!(s.name(), d.name());
        }
    }

    #[test]
    fn hierarchical_operator_matches_dense_strategy() {
        for (n, b) in [(8usize, 2usize), (7, 2), (16, 4)] {
            let s = hierarchical_strategy_structured(n, b);
            let d = hierarchical_1d(n, b);
            assert_eq!(s.rows(), d.rows());
            assert_eq!(
                s.operator().materialize().unwrap(),
                d.matrix().unwrap().clone()
            );
            assert_eq!(s.l2_sensitivity().to_bits(), d.l2_sensitivity().to_bits());
            assert_eq!(s.l1_sensitivity().to_bits(), d.l1_sensitivity().to_bits());
            assert_eq!(s.name(), d.name());
        }
    }

    #[test]
    fn hierarchical_applies_match_dense_bitwise() {
        let s = hierarchical_strategy_structured(13, 3);
        let dense = ExplicitOperator::new(s.operator().materialize().unwrap());
        let x: Vec<f64> = (0..13).map(|i| (i as f64) * 0.7 - 2.0).collect();
        assert_bits_eq(&s.operator().apply(&x), &dense.apply(&x));
        let y: Vec<f64> = (0..s.rows()).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        assert_bits_eq(
            &s.operator().apply_transpose(&y),
            &dense.apply_transpose(&y),
        );
    }

    #[test]
    fn descriptors_round_trip() {
        for desc in [
            StrategyDescriptor::Haar { n: 1024 },
            StrategyDescriptor::Hierarchical {
                n: 999,
                branching: 3,
            },
        ] {
            assert_eq!(StrategyDescriptor::decode(&desc.encode()), Some(desc));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(StrategyDescriptor::decode(&[]), None);
        assert_eq!(StrategyDescriptor::decode(&[9, 0, 0]), None);
        // Truncated payload.
        assert_eq!(StrategyDescriptor::decode(&[1, 0, 4]), None);
        // Trailing bytes.
        let mut enc = StrategyDescriptor::Haar { n: 8 }.encode();
        enc.push(0);
        assert_eq!(StrategyDescriptor::decode(&enc), None);
        // Parameters instantiate() would reject: non-power-of-two Haar,
        // branching < 2, n = 0.
        let mut bad = vec![1u8];
        bad.extend_from_slice(&6u64.to_le_bytes());
        assert_eq!(StrategyDescriptor::decode(&bad), None);
        let mut bad = vec![2u8];
        bad.extend_from_slice(&8u64.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(StrategyDescriptor::decode(&bad), None);
    }

    #[test]
    fn instantiate_rebuilds_the_same_strategy() {
        let s = haar_strategy(16);
        let rebuilt = s.descriptor().instantiate();
        assert_eq!(rebuilt.name(), s.name());
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_bits_eq(&rebuilt.operator().apply(&x), &s.operator().apply(&x));
    }

    #[test]
    fn large_haar_skips_materialization_but_applies() {
        // 2^13 = 8192: 8192² = 67M entries is over the cap, but the
        // operator itself is O(n log n) and applies fine.
        let s = haar_strategy(8192);
        assert!(s.operator().materialize().is_none());
        assert!(s.operator().run_count() < 2 * 8192 + 1);
        let x = vec![1.0; 8192];
        let y = s.operator().apply(&x);
        assert_eq!(y.len(), 8192);
        assert_eq!(y[0], 8192.0);
        assert_eq!(y[2], 0.0); // balanced detail row on constant data
    }

    #[test]
    fn least_squares_matches_a_cholesky_solve_on_both_families() {
        // The dense direct solution: Cholesky on the closed-form gram of
        // the dense constructor, right-hand side `Aᵀy`.  The hierarchies
        // at 7, 13, 48 and 1 000 have leaves at uneven depths.
        let mut cases: Vec<(StructuredStrategy, Matrix)> = [1usize, 2, 8, 64, 512]
            .into_iter()
            .map(|n| (haar_strategy(n), wavelet_1d(n).gram().clone()))
            .collect();
        for (n, b) in [
            (1usize, 2usize),
            (2, 2),
            (7, 2),
            (13, 2),
            (48, 2),
            (100, 4),
            (1000, 16),
        ] {
            let gram = hierarchical_1d(n, b).gram().clone();
            cases.push((hierarchical_strategy_structured(n, b), gram));
        }
        for (s, gram) in cases {
            let y: Vec<f64> = (0..s.rows())
                .map(|i| ((i * 7919 + 13) % 2003) as f64 / 7.0 - 143.0)
                .collect();
            let exact = s.least_squares(&y);
            let direct = Cholesky::new(&gram)
                .unwrap()
                .solve_vec(&s.operator().apply_transpose(&y))
                .unwrap();
            let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (i, (e, d)) in exact.iter().zip(&direct).enumerate() {
                assert!(
                    (e - d).abs() <= 1e-11 * scale,
                    "{}: cell {i}: {e} vs Cholesky {d}",
                    s.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending and disjoint")]
    fn overlapping_runs_rejected() {
        RunRowsOperator::new(
            4,
            vec![vec![
                Run {
                    lo: 0,
                    hi: 2,
                    coeff: 1.0,
                },
                Run {
                    lo: 2,
                    hi: 3,
                    coeff: -1.0,
                },
            ]],
        );
    }
}
