//! Workload transformations: cell permutation and query scaling.
//!
//! The paper's *semantic equivalence* experiments (Prop. 5, Table 2, Fig. 5)
//! permute the order of the cell conditions: the permuted workload answers the
//! same logical queries but its matrix has permuted columns, which breaks
//! strategies that rely on cell locality (wavelet, hierarchical) while the
//! Eigen-Design algorithm is invariant.  [`ScaledWorkload`] applies one global
//! scale factor to every query (used by tests of error scaling behaviour).

use crate::fingerprint::{Fingerprint, FingerprintMemo, NanGramEntry};
use crate::Workload;
use mm_linalg::Matrix;

/// A workload whose cell conditions have been reordered by a permutation.
///
/// `perm[j]` gives, for column `j` of the permuted workload, the cell index of
/// the inner workload it corresponds to: `W' = W P` with `P[perm[j], j] = 1`,
/// equivalently `x_inner[perm[j]] = x_permuted[j]`.
pub struct PermutedWorkload<W> {
    inner: W,
    perm: Vec<usize>,
    inverse: Vec<usize>,
    fingerprint: FingerprintMemo,
}

impl<W: Workload> PermutedWorkload<W> {
    /// Wraps a workload with a cell permutation.
    ///
    /// Panics unless `perm` is a permutation of `0..inner.dim()`.
    pub fn new(inner: W, perm: Vec<usize>) -> Self {
        let n = inner.dim();
        assert_eq!(
            perm.len(),
            n,
            "permutation length must equal the cell count"
        );
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(p < n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut inverse = vec![0usize; n];
        for (j, &p) in perm.iter().enumerate() {
            inverse[p] = j;
        }
        PermutedWorkload {
            inner,
            perm,
            inverse,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// The permutation applied to the cells.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }
}

impl<W: Workload> Workload for PermutedWorkload<W> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn gram(&self) -> Matrix {
        // G' = Pᵀ G P: entry (i, j) of the permuted gram is G[perm[i], perm[j]].
        let g = self.inner.gram();
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| g[(self.perm[i], self.perm[j])])
    }

    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        self.fingerprint.get_or_derive(|| self.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim());
        // Un-permute the data vector, then evaluate the inner workload.
        let mut inner_x = vec![0.0; x.len()];
        for (j, &p) in self.perm.iter().enumerate() {
            inner_x[p] = x[j];
        }
        self.inner.evaluate(&inner_x)
    }

    fn description(&self) -> String {
        format!("{} with permuted cell conditions", self.inner.description())
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.inner.query_squared_norms()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        let m = self.inner.to_matrix()?;
        // Column j of the permuted workload is column perm[j] of the inner one.
        m.permute_cols(&self.perm).ok()
    }
}

impl<W: Workload> PermutedWorkload<W> {
    /// Maps a cell index of the permuted workload to the inner workload's index.
    pub fn to_inner_cell(&self, permuted_cell: usize) -> usize {
        self.perm[permuted_cell]
    }

    /// Maps an inner cell index to the permuted workload's index.
    pub fn from_inner_cell(&self, inner_cell: usize) -> usize {
        self.inverse[inner_cell]
    }
}

/// A workload with every query multiplied by a constant factor.
pub struct ScaledWorkload<W> {
    inner: W,
    scale: f64,
}

impl<W: Workload> ScaledWorkload<W> {
    /// Wraps a workload, scaling every query by `scale` (must be nonzero).
    pub fn new(inner: W, scale: f64) -> Self {
        assert!(
            scale != 0.0 && scale.is_finite(),
            "scale must be finite and nonzero"
        );
        ScaledWorkload { inner, scale }
    }

    /// The scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl<W: Workload> Workload for ScaledWorkload<W> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn gram(&self) -> Matrix {
        self.inner.gram().scaled(self.scale * self.scale)
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inner
            .evaluate(x)
            .into_iter()
            .map(|v| v * self.scale)
            .collect()
    }

    fn description(&self) -> String {
        format!("{} scaled by {}", self.inner.description(), self.scale)
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.inner
            .query_squared_norms()
            .into_iter()
            .map(|v| v * self.scale * self.scale)
            .collect()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        Some(self.inner.to_matrix()?.scaled(self.scale))
    }
}

/// Generates a deterministic pseudo-random permutation of `0..n` from a seed,
/// used by the "permuted cell conditions" experiments.
pub fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    // Simple xorshift-based Fisher–Yates shuffle; deterministic across runs.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::gram_consistent;
    use crate::prefix::PrefixWorkload;
    use crate::range::AllRangeWorkload;
    use crate::Domain;
    use mm_linalg::approx_eq;

    #[test]
    fn permuted_gram_matches_matrix() {
        let inner = PrefixWorkload::new(6);
        let perm = seeded_permutation(6, 42);
        let w = PermutedWorkload::new(inner, perm);
        assert!(gram_consistent(&w, 1e-10));
    }

    #[test]
    fn permuted_evaluate_matches_matrix() {
        let inner = PrefixWorkload::new(5);
        let perm = seeded_permutation(5, 7);
        let w = PermutedWorkload::new(inner, perm);
        let x: Vec<f64> = (0..5).map(|i| (i * i) as f64).collect();
        let fast = w.evaluate(&x);
        let slow = w.to_matrix().unwrap().matvec(&x).unwrap();
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(*f, *s, 1e-12));
        }
    }

    #[test]
    fn permutation_preserves_gram_trace_and_eigen_structure() {
        let inner = AllRangeWorkload::new(Domain::new(&[8]));
        let g_inner = inner.gram();
        let perm = seeded_permutation(8, 3);
        let w = PermutedWorkload::new(inner, perm);
        let g_perm = w.gram();
        assert!(approx_eq(g_inner.trace(), g_perm.trace(), 1e-9));
        assert!(approx_eq(
            g_inner.sum_of_squares(),
            g_perm.sum_of_squares(),
            1e-9
        ));
    }

    #[test]
    fn cell_index_mapping_roundtrip() {
        let w = PermutedWorkload::new(PrefixWorkload::new(6), seeded_permutation(6, 9));
        for c in 0..6 {
            assert_eq!(w.from_inner_cell(w.to_inner_cell(c)), c);
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let inner = PrefixWorkload::new(4);
        let g1 = inner.gram();
        let w = PermutedWorkload::new(inner, vec![0, 1, 2, 3]);
        let g2 = w.gram();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g1[(i, j)], g2[(i, j)]);
            }
        }
    }

    #[test]
    fn scaled_workload_scales_gram_quadratically() {
        let w = ScaledWorkload::new(PrefixWorkload::new(4), 3.0);
        let g = w.gram();
        let g0 = PrefixWorkload::new(4).gram();
        for i in 0..4 {
            for j in 0..4 {
                assert!(approx_eq(g[(i, j)], 9.0 * g0[(i, j)], 1e-12));
            }
        }
        assert!(gram_consistent(&w, 1e-10));
        assert_eq!(w.evaluate(&[1.0; 4])[3], 12.0);
    }

    #[test]
    fn seeded_permutation_is_valid_and_deterministic() {
        let p1 = seeded_permutation(100, 5);
        let p2 = seeded_permutation(100, 5);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // A different seed gives a different permutation.
        assert_ne!(p1, seeded_permutation(100, 6));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_permutation_panics() {
        PermutedWorkload::new(PrefixWorkload::new(3), vec![0, 0, 2]);
    }
}
