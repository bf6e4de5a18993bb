//! Structured (matrix-free) workloads: range queries as `LinearOperator`s.
//!
//! A dense workload caps the served domain near n ≈ 1024 — its gram matrix
//! alone is O(n²).  But the paper's central workload family, 1D range
//! queries, is *structured*: every query is an interval indicator, so `W·x`
//! is a batch of prefix-sum evaluations and the whole workload is described
//! by its interval list.  [`RangeQueryWorkload`] carries that description,
//! evaluates it in O(n + m) — one prefix-sum pass, then one difference per
//! interval — exposes it as a [`LinearOperator`] whose applies cost
//! O(total interval length) (O(n) for the prefix workload), and implements
//! [`Workload`] densely for small-n cross-validation.
//!
//! [`StructuredWorkload`] is the capability trait the serving engine's
//! matrix-free path keys on: an operator for evaluation plus a
//! [`WorkloadDescriptor`] that identifies the workload *without* an O(n²)
//! gram (see [`crate::fingerprint::structured_fingerprint`]).
//!
//! The operator obeys the crate-wide bitwise contract (see
//! [`mm_linalg::operator`]): `apply`/`apply_transpose` reproduce the dense
//! width-1 kernels bit for bit.  In particular `apply` shares one ascending
//! accumulator across queries with the same lower endpoint — the running
//! prefix sum for `(lo, h)` *is* the dense sequential sum for every shorter
//! `(lo, h′)` along the way — which is what makes the n-query prefix
//! workload an O(n) apply instead of O(n²).
//!
//! Evaluation trades that bitwise parity for speed on intervals that start
//! past cell 0: `t[hi] − t[lo − 1]` of the running prefix sum `t` differs
//! from the interval's own ascending sum by rounding only, at most
//! 1e-10·‖x‖₁.  Intervals from cell 0 read `t[hi]`, which *is* the
//! ascending sum, so prefix answers keep their bits.

use crate::{Workload, WorkloadDescriptor};
use mm_linalg::{LinearOperator, Matrix};
use std::sync::Arc;

/// Maximum number of entries for which [`RangeQueryWorkload::to_matrix`]
/// materialises the explicit query matrix (matches the caps used by the
/// dense range workloads).
const EXPLICIT_ENTRY_LIMIT: usize = 16_777_216; // 16M entries = 128 MiB

/// A workload of 1D range (interval) queries, stored structurally.
///
/// Each query is the indicator of an inclusive cell interval `[lo, hi]`;
/// answers come back in the order the intervals were given.  All
/// coefficients are exactly `1.0`, so the operator and the materialised
/// matrix agree bit for bit; `evaluate` agrees with them up to rounding
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct RangeQueryWorkload {
    n: usize,
    intervals: Arc<Vec<(usize, usize)>>,
    operator: Arc<IntervalOperator>,
}

impl RangeQueryWorkload {
    /// Builds a workload from explicit inclusive intervals over `n` cells.
    ///
    /// Panics when `n == 0`, the interval list is empty, or any interval
    /// has `lo > hi` or `hi >= n` (workload constructors in this crate
    /// assert on malformed shapes; serving layers validate upstream).
    pub fn from_intervals(n: usize, intervals: Vec<(usize, usize)>) -> Self {
        assert!(n > 0, "range workload needs at least one cell");
        assert!(
            !intervals.is_empty(),
            "range workload needs at least one query"
        );
        for &(lo, hi) in &intervals {
            assert!(
                lo <= hi && hi < n,
                "interval ({lo}, {hi}) is malformed for a domain of {n} cells"
            );
        }
        let intervals = Arc::new(intervals);
        let operator = Arc::new(IntervalOperator::new(n, intervals.clone()));
        RangeQueryWorkload {
            n,
            intervals,
            operator,
        }
    }

    /// The n-query prefix workload over `n` cells: intervals `[0, k]` for
    /// every `k` — the 1D CDF, the workload the structured path answers in
    /// O(n) per apply.
    pub fn prefixes(n: usize) -> Self {
        RangeQueryWorkload::from_intervals(n, (0..n).map(|k| (0, k)).collect())
    }

    /// The queried intervals, in evaluation order.
    pub fn intervals(&self) -> &[(usize, usize)] {
        &self.intervals
    }
}

impl Workload for RangeQueryWorkload {
    fn dim(&self) -> usize {
        self.n
    }

    fn query_count(&self) -> usize {
        self.intervals.len()
    }

    fn gram(&self) -> Matrix {
        // (WᵀW)[i][j] = number of intervals containing both i and j: each
        // interval contributes +1 over the square block [lo..=hi]².  A 2D
        // difference array makes this O(m + n²) with exact integer counts,
        // so the result is independent of interval order bit for bit.
        let n = self.n;
        let mut diff = vec![0i64; (n + 1) * (n + 1)];
        for &(lo, hi) in self.intervals.iter() {
            diff[lo * (n + 1) + lo] += 1;
            diff[lo * (n + 1) + hi + 1] -= 1;
            diff[(hi + 1) * (n + 1) + lo] -= 1;
            diff[(hi + 1) * (n + 1) + hi + 1] += 1;
        }
        let mut gram = Matrix::zeros(n, n);
        let mut above = vec![0i64; n];
        for i in 0..n {
            let mut acc = 0i64;
            for j in 0..n {
                acc += diff[i * (n + 1) + j];
                above[j] += acc;
                gram[(i, j)] = above[j] as f64;
            }
        }
        gram
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "evaluate: dimension mismatch");
        let mut acc = 0.0;
        let prefix: Vec<f64> = x
            .iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect();
        self.intervals
            .iter()
            .map(|&(lo, hi)| match lo {
                0 => prefix[hi],
                _ => prefix[hi] - prefix[lo - 1],
            })
            .collect()
    }

    fn description(&self) -> String {
        format!("range queries (m={}, n={})", self.intervals.len(), self.n)
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.intervals
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as f64)
            .collect()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        let m = self.intervals.len();
        if m.saturating_mul(self.n) > EXPLICIT_ENTRY_LIMIT {
            return None;
        }
        let mut w = Matrix::zeros(m, self.n);
        for (r, &(lo, hi)) in self.intervals.iter().enumerate() {
            for v in &mut w.row_mut(r)[lo..=hi] {
                *v = 1.0;
            }
        }
        Some(w)
    }
}

/// A workload that can serve through the engine's matrix-free path.
///
/// Implementors provide a [`LinearOperator`] view of the query matrix and a
/// structural [`WorkloadDescriptor`] identifying the workload without
/// materialising anything O(n²).  The contract mirrors [`Workload`]'s:
/// `operator().apply(x)` equals `evaluate(x)` bit for bit on queries whose
/// interval starts at cell 0 and within 1e-10·‖x‖₁ on the others, and two
/// workloads with equal descriptors must answer identically.
pub trait StructuredWorkload: Workload {
    /// The workload's query matrix as a matrix-free operator.
    fn operator(&self) -> Arc<dyn LinearOperator>;

    /// The structural description used for fingerprinting and persistence.
    fn descriptor(&self) -> WorkloadDescriptor;
}

impl StructuredWorkload for RangeQueryWorkload {
    fn operator(&self) -> Arc<dyn LinearOperator> {
        self.operator.clone()
    }

    fn descriptor(&self) -> WorkloadDescriptor {
        WorkloadDescriptor::Intervals {
            n: self.n,
            intervals: self.intervals.clone(),
        }
    }
}

/// The interval-indicator operator behind [`RangeQueryWorkload`].
///
/// `apply` walks each group of queries sharing a lower endpoint with one
/// ascending running accumulator (bitwise equal to the dense row sums, see
/// the module docs); `apply_transpose` scatters each row in ascending query
/// order, matching the dense width-1 transpose kernel.
#[derive(Debug)]
pub struct IntervalOperator {
    n: usize,
    intervals: Arc<Vec<(usize, usize)>>,
    /// Queries grouped by `lo` and sorted by `hi`, each carrying its
    /// original output index: `(lo, [(hi, index), …])`, ascending in both.
    groups: Vec<(usize, Vec<(usize, usize)>)>,
}

impl IntervalOperator {
    fn new(n: usize, intervals: Arc<Vec<(usize, usize)>>) -> Self {
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by_key(|&q| (intervals[q].0, intervals[q].1, q));
        let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        for q in order {
            let (lo, hi) = intervals[q];
            match groups.last_mut() {
                Some((glo, members)) if *glo == lo => members.push((hi, q)),
                _ => groups.push((lo, vec![(hi, q)])),
            }
        }
        IntervalOperator {
            n,
            intervals,
            groups,
        }
    }
}

impl LinearOperator for IntervalOperator {
    fn dims(&self) -> (usize, usize) {
        (self.intervals.len(), self.n)
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "apply: dimension mismatch");
        let mut out = vec![0.0; self.intervals.len()];
        for (lo, members) in &self.groups {
            let mut acc = 0.0;
            let mut next = members.iter();
            let mut pending = next.next();
            let mut i = *lo;
            while let Some(&(hi, q)) = pending {
                while i <= hi {
                    acc += x[i];
                    i += 1;
                }
                out[q] = acc;
                pending = next.next();
            }
        }
        out
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.intervals.len(),
            "apply_transpose: dimension mismatch"
        );
        let mut out = vec![0.0; self.n];
        // Rows in *original* ascending order: the dense kernel accumulates
        // row contributions into each cell in row order, and reordering
        // float additions would change bits.
        for (&(lo, hi), &yr) in self.intervals.iter().zip(y.iter()) {
            for o in &mut out[lo..=hi] {
                *o += yr;
            }
        }
        out
    }

    fn gram_diag(&self) -> Option<Vec<f64>> {
        // Coverage counts via a difference array: exact integers, so the
        // result matches the dense squared-column-norm sums bit for bit.
        let mut diff = vec![0i64; self.n + 1];
        for &(lo, hi) in self.intervals.iter() {
            diff[lo] += 1;
            diff[hi + 1] -= 1;
        }
        let mut out = Vec::with_capacity(self.n);
        let mut acc = 0i64;
        for d in diff.iter().take(self.n) {
            acc += d;
            out.push(acc as f64);
        }
        Some(out)
    }

    fn materialize(&self) -> Option<Matrix> {
        let m = self.intervals.len();
        if m.saturating_mul(self.n) > EXPLICIT_ENTRY_LIMIT {
            return None;
        }
        let mut w = Matrix::zeros(m, self.n);
        for (r, &(lo, hi)) in self.intervals.iter().enumerate() {
            for v in &mut w.row_mut(r)[lo..=hi] {
                *v = 1.0;
            }
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::PrefixWorkload;
    use mm_linalg::ExplicitOperator;

    fn sample() -> RangeQueryWorkload {
        RangeQueryWorkload::from_intervals(8, vec![(0, 7), (2, 5), (0, 3), (6, 6), (0, 7), (3, 3)])
    }

    #[test]
    fn apply_matches_dense_bitwise() {
        let w = sample();
        let dense = ExplicitOperator::new(w.to_matrix().unwrap());
        let x: Vec<f64> = (0..8).map(|i| 0.1 + (i as f64) * 0.37).collect();
        let got = w.operator().apply(&x);
        let expect = dense.apply(&x);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(expect.iter()) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn transpose_and_gram_diag_match_dense_bitwise() {
        let w = sample();
        let op = w.operator();
        let dense = ExplicitOperator::new(op.materialize().unwrap());
        let y: Vec<f64> = (0..6).map(|i| -0.3 + (i as f64) * 0.11).collect();
        for (g, e) in op
            .apply_transpose(&y)
            .iter()
            .zip(dense.apply_transpose(&y).iter())
        {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        for (g, e) in op
            .gram_diag()
            .unwrap()
            .iter()
            .zip(dense.gram_diag().unwrap().iter())
        {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn gram_matches_dense_gram() {
        let w = sample();
        let dense = mm_linalg::ops::gram(&w.to_matrix().unwrap());
        let gram = w.gram();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(gram[(i, j)], dense[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn prefixes_agree_with_prefix_workload() {
        let n = 16;
        let structured = RangeQueryWorkload::prefixes(n);
        let classic = PrefixWorkload::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 3.0).collect();
        let a = structured.evaluate(&x);
        let b = classic.evaluate(&x);
        for (ai, bi) in a.iter().zip(b.iter()) {
            assert_eq!(ai.to_bits(), bi.to_bits());
        }
        let g = structured.gram();
        let gc = classic.gram();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(g[(i, j)], gc[(i, j)]);
            }
        }
    }

    #[test]
    fn evaluate_matches_the_operator_within_rounding_on_random_intervals() {
        // 1 024 pseudo-random intervals over n = 65 536, every eighth from
        // cell 0: prefix differences stay within 1e-10·‖x‖₁ of the
        // operator's ascending interval sums, and prefixes keep their bits.
        let n = 65_536;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let intervals: Vec<(usize, usize)> = (0..1024)
            .map(|q| {
                let (a, b) = (next(), next());
                let lo = if q % 8 == 0 { 0 } else { a.min(b) };
                (lo, a.max(b))
            })
            .collect();
        let w = RangeQueryWorkload::from_intervals(n, intervals);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 7919 + 17) % 2003) as f64 / 7.0 - 100.0)
            .collect();
        let norm: f64 = x.iter().map(|v| v.abs()).sum();
        let fast = w.evaluate(&x);
        let exact = w.operator().apply(&x);
        for (q, (&(lo, _), (f, e))) in w
            .intervals()
            .iter()
            .zip(fast.iter().zip(&exact))
            .enumerate()
        {
            if lo == 0 {
                assert_eq!(f.to_bits(), e.to_bits(), "prefix query {q}");
            } else {
                assert!((f - e).abs() <= 1e-10 * norm, "query {q}: {f} vs {e}");
            }
        }
    }

    #[test]
    fn descriptor_identifies_the_query_set() {
        let a = sample().descriptor();
        let b = sample().descriptor();
        assert_eq!(a, b);
        assert_ne!(a, RangeQueryWorkload::prefixes(8).descriptor());
        assert_eq!(a.dim(), 8);
        assert_eq!(a.query_count(), 6);
    }

    #[test]
    fn query_norms_are_interval_lengths() {
        let w = sample();
        assert_eq!(w.query_squared_norms(), vec![8.0, 4.0, 4.0, 1.0, 8.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn out_of_range_interval_panics() {
        RangeQueryWorkload::from_intervals(4, vec![(0, 4)]);
    }
}
