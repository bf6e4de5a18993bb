//! Marginal and range-marginal workloads over multi-attribute domains.
//!
//! A *k-way marginal* on an attribute subset `S` (|S| = k) has one query per
//! combination of values of the attributes in `S`; each query counts the
//! tuples matching those values (summing out the remaining attributes).  A
//! *k-way range marginal* (Sec. 2.1) instead has one query per combination of
//! **ranges** on the attributes of `S`, so that aggregate range conditions on
//! the margin can be answered directly rather than by summing noisy marginal
//! cells.
//!
//! As Kronecker products over attributes:
//!
//! * point marginal on `S`:  `⊗ᵢ (I_{dᵢ} if i ∈ S else 1ᵀ_{dᵢ})`
//! * range marginal on `S`:  `⊗ᵢ (R_{dᵢ} if i ∈ S else 1ᵀ_{dᵢ})`
//!
//! where `R_d` is the 1D all-range matrix.  A [`MarginalWorkload`] is the
//! union of such blocks over a list of attribute subsets, which covers "all
//! k-way marginals", "low-order marginals", random cuboid unions and the
//! paper's range-marginal workloads.

use crate::domain::Domain;
use crate::fingerprint::{Fingerprint, FingerprintMemo, NanGramEntry};
use crate::range::{all_range_1d_count, all_range_1d_gram, all_range_1d_matrix};
use crate::tensor::kron_apply;
use crate::Workload;
use mm_linalg::{ops, Matrix};
use rand::Rng;

/// Whether marginal queries are point (single margin value) or range queries
/// on the margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginalKind {
    /// One query per value combination on the subset.
    Point,
    /// One query per range combination on the subset.
    Range,
}

/// A union of marginal (or range-marginal) query blocks over attribute subsets.
#[derive(Debug, Clone)]
pub struct MarginalWorkload {
    domain: Domain,
    subsets: Vec<Vec<usize>>,
    kind: MarginalKind,
    normalized: bool,
    fingerprint: FingerprintMemo,
}

impl MarginalWorkload {
    /// Builds a marginal workload from explicit attribute subsets.
    ///
    /// Subsets are deduplicated and their attribute lists sorted.  Panics on
    /// out-of-range attribute indices or an empty subset list.
    pub fn from_subsets(domain: Domain, subsets: Vec<Vec<usize>>, kind: MarginalKind) -> Self {
        assert!(
            !subsets.is_empty(),
            "marginal workload needs at least one subset"
        );
        let k = domain.num_attributes();
        let mut cleaned: Vec<Vec<usize>> = subsets
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                assert!(s.iter().all(|&a| a < k), "attribute index out of range");
                s
            })
            .collect();
        cleaned.sort();
        cleaned.dedup();
        MarginalWorkload {
            domain,
            subsets: cleaned,
            kind,
            normalized: false,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// All marginals on subsets of size exactly `k`.
    pub fn all_k_way(domain: Domain, k: usize, kind: MarginalKind) -> Self {
        let subsets = subsets_of_size(domain.num_attributes(), k);
        MarginalWorkload::from_subsets(domain, subsets, kind)
    }

    /// All marginals on subsets of size `0..=k` (low-order marginals).
    pub fn up_to_k_way(domain: Domain, k: usize, kind: MarginalKind) -> Self {
        let mut subsets = Vec::new();
        for size in 0..=k {
            subsets.extend(subsets_of_size(domain.num_attributes(), size));
        }
        MarginalWorkload::from_subsets(domain, subsets, kind)
    }

    /// All marginals of every order (the full data-cube workload).
    pub fn all_marginals(domain: Domain, kind: MarginalKind) -> Self {
        let k = domain.num_attributes();
        MarginalWorkload::up_to_k_way(domain, k, kind)
    }

    /// A random union of `count` distinct marginal cuboids (subsets sampled
    /// uniformly among the non-empty subsets), following the sampling used for
    /// the paper's "random marginal" workloads.
    pub fn random<R: Rng + ?Sized>(
        domain: Domain,
        count: usize,
        kind: MarginalKind,
        rng: &mut R,
    ) -> Self {
        let k = domain.num_attributes();
        let max_subsets = (1usize << k) - 1;
        let count = count.min(max_subsets);
        let mut chosen: Vec<Vec<usize>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while chosen.len() < count {
            let mask = rng.gen_range(1..=max_subsets);
            if seen.insert(mask) {
                let subset: Vec<usize> = (0..k).filter(|a| mask & (1 << a) != 0).collect();
                chosen.push(subset);
            }
        }
        MarginalWorkload::from_subsets(domain, chosen, kind)
    }

    /// Scales every query to unit L2 norm (for relative-error optimization).
    pub fn into_normalized(mut self) -> Self {
        self.normalized = true;
        // The gram changed: a key derived before this call is stale.
        self.fingerprint = FingerprintMemo::default();
        self
    }

    /// The underlying domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The attribute subsets, sorted and deduplicated.
    pub fn subsets(&self) -> &[Vec<usize>] {
        &self.subsets
    }

    /// Point or range marginals.
    pub fn kind(&self) -> MarginalKind {
        self.kind
    }

    /// Whether queries are scaled to unit norm.
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    fn in_subset(subset: &[usize], a: usize) -> bool {
        subset.binary_search(&a).is_ok()
    }

    /// Number of queries contributed by one subset.
    fn subset_query_count(&self, subset: &[usize]) -> usize {
        self.domain
            .sizes()
            .iter()
            .enumerate()
            .map(|(a, &d)| {
                if Self::in_subset(subset, a) {
                    match self.kind {
                        MarginalKind::Point => d,
                        MarginalKind::Range => all_range_1d_count(d),
                    }
                } else {
                    1
                }
            })
            .product()
    }

    /// Per-attribute gram block for one subset.
    fn subset_gram(&self, subset: &[usize]) -> Matrix {
        let factors: Vec<Matrix> = self
            .domain
            .sizes()
            .iter()
            .enumerate()
            .map(|(a, &d)| {
                if Self::in_subset(subset, a) {
                    match self.kind {
                        MarginalKind::Point => Matrix::identity(d),
                        MarginalKind::Range => all_range_1d_gram(d, self.normalized),
                    }
                } else if self.normalized {
                    // 1ᵀ scaled to unit norm contributes J_d / d.
                    Matrix::filled(d, d, 1.0 / d as f64)
                } else {
                    Matrix::filled(d, d, 1.0)
                }
            })
            .collect();
        ops::kron_all(&factors)
    }

    /// Per-attribute factor matrices for evaluation (unnormalized).
    fn subset_factors(&self, subset: &[usize]) -> Vec<Matrix> {
        self.domain
            .sizes()
            .iter()
            .enumerate()
            .map(|(a, &d)| {
                if Self::in_subset(subset, a) {
                    match self.kind {
                        MarginalKind::Point => Matrix::identity(d),
                        MarginalKind::Range => all_range_1d_matrix(d),
                    }
                } else {
                    Matrix::filled(1, d, 1.0)
                }
            })
            .collect()
    }

    /// Squared norms of the queries of one subset, in evaluation order.
    fn subset_squared_norms(&self, subset: &[usize]) -> Vec<f64> {
        // Per-attribute list of per-row squared norms of the factor matrices.
        let per_dim: Vec<Vec<f64>> = self
            .domain
            .sizes()
            .iter()
            .enumerate()
            .map(|(a, &d)| {
                if Self::in_subset(subset, a) {
                    match self.kind {
                        MarginalKind::Point => vec![1.0; d],
                        MarginalKind::Range => {
                            let mut v = Vec::with_capacity(all_range_1d_count(d));
                            for lo in 0..d {
                                for hi in lo..d {
                                    v.push((hi - lo + 1) as f64);
                                }
                            }
                            v
                        }
                    }
                } else {
                    vec![d as f64]
                }
            })
            .collect();
        // Odometer over the per-dimension lists, first attribute slowest —
        // matching the row ordering of the Kronecker product.
        let total: usize = per_dim.iter().map(Vec::len).product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; per_dim.len()];
        for _ in 0..total {
            let mut prod = 1.0;
            for (a, list) in per_dim.iter().enumerate() {
                prod *= list[idx[a]];
            }
            out.push(prod);
            for a in (0..per_dim.len()).rev() {
                idx[a] += 1;
                if idx[a] < per_dim[a].len() {
                    break;
                }
                idx[a] = 0;
            }
        }
        out
    }
}

impl Workload for MarginalWorkload {
    fn dim(&self) -> usize {
        self.domain.n_cells()
    }

    fn query_count(&self) -> usize {
        self.subsets
            .iter()
            .map(|s| self.subset_query_count(s))
            .sum()
    }

    fn gram(&self) -> Matrix {
        let n = self.dim();
        let mut g = Matrix::zeros(n, n);
        for s in &self.subsets {
            g += &self.subset_gram(s);
        }
        g
    }

    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        self.fingerprint.get_or_derive(|| self.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim());
        let shape = self.domain.sizes().to_vec();
        let mut out = Vec::with_capacity(self.query_count());
        for s in &self.subsets {
            let factors = self.subset_factors(s);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let mut vals = kron_apply(&refs, &shape, x);
            if self.normalized {
                let norms = self.subset_squared_norms(s);
                for (v, n2) in vals.iter_mut().zip(norms.iter()) {
                    *v /= n2.sqrt();
                }
            }
            out.extend(vals);
        }
        out
    }

    fn description(&self) -> String {
        let kind = match self.kind {
            MarginalKind::Point => "marginals",
            MarginalKind::Range => "range marginals",
        };
        format!(
            "{} on {} over {} subsets{}",
            kind,
            self.domain,
            self.subsets.len(),
            if self.normalized { " (normalized)" } else { "" }
        )
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        if self.normalized {
            return vec![1.0; self.query_count()];
        }
        let mut out = Vec::with_capacity(self.query_count());
        for s in &self.subsets {
            out.extend(self.subset_squared_norms(s));
        }
        out
    }

    fn to_matrix(&self) -> Option<Matrix> {
        let total_entries = self.query_count() * self.dim();
        if total_entries > 16_000_000 {
            return None;
        }
        let mut blocks: Option<Matrix> = None;
        for s in &self.subsets {
            let factors = self.subset_factors(s);
            let mut block = ops::kron_all(&factors);
            if self.normalized {
                let norms = self.subset_squared_norms(s);
                for (r, n2) in norms.iter().enumerate() {
                    let scale = 1.0 / n2.sqrt();
                    for v in block.row_mut(r) {
                        *v *= scale;
                    }
                }
            }
            blocks = Some(match blocks {
                None => block,
                Some(acc) => acc.vstack(&block).expect("same cell count"),
            });
        }
        blocks
    }
}

/// All subsets of `{0, …, k-1}` with exactly `size` elements, in
/// lexicographic order.
pub fn subsets_of_size(k: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if size > k {
        return out;
    }
    let mut current: Vec<usize> = (0..size).collect();
    loop {
        out.push(current.clone());
        // Next combination.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] != i + k - size {
                current[i] += 1;
                for j in (i + 1)..size {
                    current[j] = current[j - 1] + 1;
                }
                break;
            }
            if i == 0 {
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::gram_consistent;
    use mm_linalg::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn subsets_of_size_enumeration() {
        assert_eq!(subsets_of_size(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets_of_size(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(
            subsets_of_size(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(subsets_of_size(3, 3), vec![vec![0, 1, 2]]);
        assert!(subsets_of_size(2, 3).is_empty());
    }

    #[test]
    fn two_way_marginal_counts() {
        let d = Domain::new(&[3, 4, 2]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        assert_eq!(w.subsets().len(), 3);
        // 3*4 + 3*2 + 4*2 = 12 + 6 + 8 = 26 queries.
        assert_eq!(w.query_count(), 26);
    }

    #[test]
    fn point_marginal_gram_consistent() {
        let d = Domain::new(&[3, 2, 2]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        assert!(gram_consistent(&w, 1e-9));
    }

    #[test]
    fn range_marginal_gram_consistent() {
        let d = Domain::new(&[3, 3]);
        let w = MarginalWorkload::all_k_way(d, 1, MarginalKind::Range);
        assert!(gram_consistent(&w, 1e-9));
    }

    #[test]
    fn normalized_gram_consistent() {
        let d = Domain::new(&[3, 2]);
        for kind in [MarginalKind::Point, MarginalKind::Range] {
            let w = MarginalWorkload::all_k_way(d.clone(), 1, kind).into_normalized();
            assert!(gram_consistent(&w, 1e-9), "{kind:?}");
            assert!(w.query_squared_norms().iter().all(|&v| v == 1.0));
        }
    }

    #[test]
    fn evaluate_matches_matrix() {
        let d = Domain::new(&[2, 3, 2]);
        let w = MarginalWorkload::up_to_k_way(d, 2, MarginalKind::Point);
        let x: Vec<f64> = (0..12).map(|i| (i as f64) * 0.7 + 1.0).collect();
        let fast = w.evaluate(&x);
        let m = w.to_matrix().unwrap();
        let slow = m.matvec(&x).unwrap();
        assert_eq!(fast.len(), w.query_count());
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(*f, *s, 1e-10));
        }
    }

    #[test]
    fn normalized_evaluate_matches_matrix() {
        let d = Domain::new(&[2, 4]);
        let w = MarginalWorkload::all_k_way(d, 1, MarginalKind::Range).into_normalized();
        let x: Vec<f64> = (0..8).map(|i| (i % 3) as f64 + 0.5).collect();
        let fast = w.evaluate(&x);
        let m = w.to_matrix().unwrap();
        let slow = m.matvec(&x).unwrap();
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(*f, *s, 1e-10));
        }
    }

    #[test]
    fn zero_way_marginal_is_total() {
        let d = Domain::new(&[2, 2]);
        let w = MarginalWorkload::all_k_way(d, 0, MarginalKind::Point);
        assert_eq!(w.query_count(), 1);
        assert_eq!(w.evaluate(&[1.0, 2.0, 3.0, 4.0]), vec![10.0]);
    }

    #[test]
    fn full_way_point_marginal_is_identity() {
        let d = Domain::new(&[2, 3]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let g = w.gram();
        for i in 0..6 {
            for j in 0..6 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(g[(i, j)], e, 1e-12));
            }
        }
    }

    #[test]
    fn all_marginals_subset_count() {
        let d = Domain::new(&[2, 2, 2]);
        let w = MarginalWorkload::all_marginals(d, MarginalKind::Point);
        assert_eq!(w.subsets().len(), 8); // 2^3 subsets including empty
    }

    #[test]
    fn random_marginals_are_distinct() {
        let d = Domain::new(&[2, 3, 2, 2]);
        let mut rng = StdRng::seed_from_u64(5);
        let w = MarginalWorkload::random(d, 6, MarginalKind::Point, &mut rng);
        assert_eq!(w.subsets().len(), 6);
        let mut sorted = w.subsets().to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn duplicate_subsets_removed() {
        let d = Domain::new(&[2, 2]);
        let w = MarginalWorkload::from_subsets(
            d,
            vec![vec![0], vec![0], vec![1, 0]],
            MarginalKind::Point,
        );
        assert_eq!(w.subsets(), &[vec![0], vec![0, 1]]);
    }

    #[test]
    fn marginal_evaluate_sums_out_other_attributes() {
        let d = Domain::new(&[2, 3]);
        let w = MarginalWorkload::from_subsets(d, vec![vec![0]], MarginalKind::Point);
        // x arranged row-major (attribute 0 slowest): rows are attr0 values.
        let x = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        assert_eq!(w.evaluate(&x), vec![6.0, 60.0]);
    }

    #[test]
    fn memoised_key_is_the_gram_fingerprint() {
        use crate::fingerprint::try_gram_fingerprint;
        let d = Domain::new(&[4, 3, 2]);
        for kind in [MarginalKind::Point, MarginalKind::Range] {
            let w = MarginalWorkload::all_k_way(d.clone(), 2, kind);
            let raw = try_gram_fingerprint(&w.gram()).unwrap();
            let (first, gram) = w.try_fingerprint().unwrap();
            assert_eq!(first, raw, "{kind:?}");
            assert!(gram.is_some(), "the first call builds the gram");
            let (again, none) = w.try_fingerprint().unwrap();
            assert_eq!(again, raw);
            assert!(none.is_none(), "a repeated call builds no gram");
            // The key was derived before normalising: the normalised
            // workload has another gram, so it must not reuse that key.
            let normalized = w.into_normalized();
            let expected = try_gram_fingerprint(&normalized.gram()).unwrap();
            assert_ne!(expected, raw);
            let (key, gram) = normalized.try_fingerprint().unwrap();
            assert_eq!(key, expected, "{kind:?}: normalised key");
            assert!(gram.is_some());
            assert_eq!(normalized.try_fingerprint().unwrap().0, expected);
        }
    }

    #[test]
    #[should_panic(expected = "attribute index out of range")]
    fn out_of_range_attribute_panics() {
        MarginalWorkload::from_subsets(Domain::new(&[2, 2]), vec![vec![5]], MarginalKind::Point);
    }
}
