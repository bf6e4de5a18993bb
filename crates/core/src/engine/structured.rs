//! Matrix-free structured serving: selection and answering through
//! [`mm_linalg::LinearOperator`] applies, for domains far
//! beyond what the dense path can materialise.
//!
//! The classic engine path carries an explicit strategy matrix, its n×n
//! gram, and a Cholesky factor — three O(n²) allocations plus O(n³)
//! factorisation work, which caps it around n ≈ 8192.  Structured workloads
//! (interval/prefix queries) and structured strategies (Haar wavelets,
//! hierarchies of interval counts) never need any of that:
//!
//! * **Selection** maps the workload's [`WorkloadDescriptor`] to a
//!   [`StructuredStrategy`] — a [`RunRowsOperator`](mm_strategies::RunRowsOperator)
//!   holding O(n log n) run-length-encoded coefficients — in O(n log n)
//!   time.  No eigendecomposition, no weighting program: the tree/wavelet
//!   families are the paper's own fallback strategies for ranges, and their
//!   selection is a pure function of (n, family), cacheable by the
//!   structured fingerprint.
//! * **Answering** draws noisy strategy observations `y = A·x + noise`
//!   through `apply`, recovers the exact least-squares estimate
//!   `x̂ = (AᵀA)⁻¹Aᵀy` with [`StructuredStrategy::least_squares`] — an
//!   inverse Haar transform or Hay et al.'s two passes over the hierarchy,
//!   both O(n) — and evaluates the workload on the estimate: one prefix-sum
//!   pass, then O(1) per interval.  No iteration and no tolerance: every
//!   strategy a [`StructuredSelector`] can return is one of those two
//!   families.  Peak memory is O(n + m); at n = 65 536 a request for 1 024
//!   intervals takes about 3 ms where the dense path cannot even allocate
//!   its gram.
//!
//! Determinism: every reduction in the path (operator applies, the two
//! inference passes, the prefix sums) is a fixed sequential loop, so
//! answers are bit-identical across thread counts and across runs with the
//! same seed — the same contract as the dense path, checked by
//! `tests/determinism.rs`.
//!
//! Selections persist through the engine's unified
//! [`StrategyStore`](super::StrategyStore) as structured
//! [`SelectionPlan`] entries carrying only the
//! [`StrategyDescriptor`] (a few bytes, not an n×n factor); a warm restart
//! rebuilds the operator from the descriptor and answers bit-identically to
//! the run that wrote it.  Structured plans are looked up through the same
//! path as every other plan kind (single-flight cache, store probe,
//! persist), so concurrent first requests for one workload share one
//! selection.

use super::plan::{SelectionPlan, StructuredPlan};
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use mm_strategies::{
    haar_strategy, hierarchical_strategy_structured, StrategyDescriptor, StructuredStrategy,
};
use mm_workload::{structured_fingerprint, Fingerprint, StructuredWorkload, WorkloadDescriptor};
use rand::Rng;
use std::sync::Arc;

/// Maps a structured workload's descriptor to a structured strategy.
///
/// The structured analogue of
/// [`StrategySelector`](crate::engine::StrategySelector), but over
/// descriptors instead of gram matrices: selection never sees an n×n
/// object, so it stays O(n log n) in time and O(n) in memory at any domain
/// size.  Implementations must be deterministic — the result is cached by
/// the descriptor's fingerprint and persisted across processes, so two
/// selections of one descriptor must agree exactly.
pub trait StructuredSelector: std::fmt::Debug + Send + Sync {
    /// Selector name for reports and errors.
    fn name(&self) -> String;

    /// Selects a strategy for the described workload.
    fn select(&self, descriptor: &WorkloadDescriptor) -> crate::Result<StructuredStrategy>;
}

/// The default structured selector: the Haar wavelet strategy on
/// power-of-two domains (Xiao et al., the paper's design set for ranges),
/// a k-ary hierarchy of interval counts (Hay et al.) otherwise.
///
/// Both families answer every interval query as a combination of O(log n)
/// strategy rows, which is what makes them the right matrix-free stand-ins
/// for the dense selector's optimised designs on range workloads.
#[derive(Debug, Clone, Copy)]
pub struct TreeStructuredSelector {
    branching: usize,
}

impl TreeStructuredSelector {
    /// A selector whose non-power-of-two fallback hierarchy uses the given
    /// branching factor (clamped to at least 2).
    pub fn new(branching: usize) -> Self {
        TreeStructuredSelector {
            branching: branching.max(2),
        }
    }

    /// The hierarchy branching factor used on non-power-of-two domains.
    pub fn branching(&self) -> usize {
        self.branching
    }
}

impl Default for TreeStructuredSelector {
    fn default() -> Self {
        TreeStructuredSelector::new(2)
    }
}

impl StructuredSelector for TreeStructuredSelector {
    fn name(&self) -> String {
        format!("tree-structured (b={})", self.branching)
    }

    fn select(&self, descriptor: &WorkloadDescriptor) -> crate::Result<StructuredStrategy> {
        let n = descriptor.dim();
        if n == 0 {
            return Err(MechanismError::InvalidArgument(
                "structured workload covers no cells".into(),
            ));
        }
        if n.is_power_of_two() {
            Ok(haar_strategy(n))
        } else {
            Ok(hierarchical_strategy_structured(n, self.branching))
        }
    }
}

/// A structured selector that always instantiates one fixed
/// [`StrategyDescriptor`], rejecting workloads of any other dimension —
/// the structured analogue of
/// [`FixedStrategySelector`](crate::engine::FixedStrategySelector), used by
/// benchmarks to pin both paths to the same strategy family.
#[derive(Debug, Clone, Copy)]
pub struct FixedStructuredSelector {
    descriptor: StrategyDescriptor,
}

impl FixedStructuredSelector {
    /// A selector pinned to the given descriptor.
    pub fn new(descriptor: StrategyDescriptor) -> Self {
        FixedStructuredSelector { descriptor }
    }
}

impl StructuredSelector for FixedStructuredSelector {
    fn name(&self) -> String {
        format!("fixed-structured ({:?})", self.descriptor)
    }

    fn select(&self, descriptor: &WorkloadDescriptor) -> crate::Result<StructuredStrategy> {
        if descriptor.dim() != self.descriptor.dim() {
            return Err(MechanismError::InvalidArgument(format!(
                "workload covers {} cells but the fixed structured strategy covers {}",
                descriptor.dim(),
                self.descriptor.dim()
            )));
        }
        Ok(self.descriptor.instantiate())
    }
}

/// Everything produced by one structured answer call.
///
/// The structured counterpart of [`EngineAnswer`](crate::engine::EngineAnswer);
/// `expected_rms_error` is an `Option` because the matrix-free path only
/// computes it where a closed form exists (the Haar strategy against
/// interval workloads) — the dense trace term would need the very n×n gram
/// inverse this path exists to avoid.
#[derive(Debug, Clone)]
pub struct StructuredAnswer {
    /// Noisy (but mutually consistent) answers to every workload query, in
    /// the workload's evaluation order.
    pub answers: Vec<f64>,
    /// The noisy estimate of the data vector the answers derive from.
    pub estimate: Vec<f64>,
    /// The structured strategy used (shared with the engine's cache).
    pub strategy: Arc<StructuredStrategy>,
    /// The analytically predicted RMS workload error, where a closed form
    /// is available (Haar strategy + interval workload), else `None`.
    pub expected_rms_error: Option<f64>,
    /// The structured fingerprint used as the cache key.
    pub fingerprint: Fingerprint,
    /// Whether the strategy came from the cache or store (no selection run).
    pub cache_hit: bool,
}

/// Closed-form Prop. 4 trace term `trace(WᵀW (HᵀH)⁻¹)` for the unnormalised
/// Haar strategy `H` on a power-of-two domain of size `n` against a set of
/// inclusive intervals, in O(m log n) time and O(1) memory.
///
/// The Haar rows are mutually orthogonal and complete, so
/// `(HᵀH)⁻¹ = Σ_r h_r h_rᵀ / ‖h_r‖⁴` and the trace term decomposes per
/// query as `Σ_r ⟨w_q, h_r⟩² / ‖h_r‖⁴`.  For an interval indicator only the
/// all-ones row and, per level, the (at most two) blocks containing an
/// interval endpoint have a nonzero inner product — blocks strictly inside
/// the interval cancel (+half against −half) and blocks outside never
/// overlap — giving the O(log n) per-query walk below.
pub(crate) fn haar_interval_trace(n: usize, intervals: &[(usize, usize)]) -> f64 {
    let nf = n as f64;
    let mut trace = 0.0;
    for &(lo, hi) in intervals {
        // Row 0 (all ones): inner product = interval length, ‖row‖² = n.
        let len = (hi - lo + 1) as f64;
        trace += (len * len) / (nf * nf);
        let mut block = n;
        while block >= 2 {
            let half = block / 2;
            let b_lo = lo / block;
            let b_hi = hi / block;
            for b in [b_lo, b_hi] {
                let start = b * block;
                // Overlap of [lo, hi] with the half-open cell range [s, e).
                let overlap = |s: usize, e: usize| -> f64 {
                    let a = s.max(lo);
                    let b2 = e.min(hi + 1);
                    if b2 > a {
                        (b2 - a) as f64
                    } else {
                        0.0
                    }
                };
                let inner = overlap(start, start + half) - overlap(start + half, start + block);
                if inner != 0.0 {
                    trace += (inner * inner) / ((block * block) as f64);
                }
                if b_hi == b_lo {
                    break; // one endpoint block; don't count it twice
                }
            }
            block = half;
        }
    }
    trace
}

impl super::Engine {
    /// The configured structured selector.
    pub fn structured_selector(&self) -> &Arc<dyn StructuredSelector> {
        &self.structured_selector
    }

    /// Selects (or fetches from cache/store) the structured strategy for a
    /// workload descriptor, returning it with its fingerprint and whether
    /// it was served without running the selector.  The lookup is
    /// single-flight: concurrent first calls for one descriptor share one
    /// selection.
    pub fn select_structured(
        &self,
        descriptor: &WorkloadDescriptor,
    ) -> crate::Result<(Arc<StructuredStrategy>, Fingerprint, bool)> {
        let (plan, fp, hit) = self.structured_plan(descriptor)?;
        Ok((plan.strategy().clone(), fp, hit))
    }

    /// [`Engine::select_structured`](super::Engine::select_structured)'s
    /// lookup, returning the whole plan so answers reuse its trace term.
    pub(super) fn structured_plan(
        &self,
        descriptor: &WorkloadDescriptor,
    ) -> crate::Result<(Arc<StructuredPlan>, Fingerprint, bool)> {
        let fp = structured_fingerprint(descriptor);
        let (plan, hit) = self.lookup(&self.structured_front, fp, None, &|| {
            let strategy = self.structured_selector.select(descriptor)?;
            if strategy.dim() != descriptor.dim() {
                return Err(MechanismError::InvalidArgument(format!(
                    "structured selector `{}` returned a strategy over {} cells for a \
                     workload over {}",
                    self.structured_selector.name(),
                    strategy.dim(),
                    descriptor.dim()
                )));
            }
            Ok(SelectionPlan::Structured(Arc::new(StructuredPlan::new(
                strategy,
            ))))
        })?;
        match &*plan {
            SelectionPlan::Structured(plan) => Ok((plan.clone(), fp, hit)),
            _ => Err(MechanismError::InvalidArgument(format!(
                "a {} plan cannot be answered through the structured path",
                plan.kind()
            ))),
        }
    }

    /// Answers a structured workload on the data vector `x` at the engine's
    /// privacy parameters, entirely matrix-free: noisy observations through
    /// the strategy operator's `apply`, the strategy's exact O(n)
    /// least-squares estimate, answers through the workload's `evaluate`.
    /// Peak memory is O(n + m); no n×n object is ever formed.
    pub fn answer_structured<W: StructuredWorkload + ?Sized, R: Rng>(
        &self,
        workload: &W,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<StructuredAnswer> {
        self.answer_matrix_free(workload, self.privacy, x, rng, None)
    }

    /// The closed-form predicted RMS workload error, where one exists:
    /// currently the Haar strategy against interval workloads, through the
    /// plan's cached trace term (see [`StructuredPlan::trace_term`]).
    /// `None` means "not computed", never "zero".
    pub(super) fn structured_expected_rms_error(
        &self,
        descriptor: &WorkloadDescriptor,
        plan: &StructuredPlan,
        privacy: &PrivacyParams,
        sens: f64,
    ) -> crate::Result<Option<f64>> {
        let Some(trace) = plan.trace_term(descriptor) else {
            return Ok(None);
        };
        let m = descriptor.query_count() as f64;
        let tse = self.backend.error_constant(privacy)? * sens * sens * trace;
        Ok(Some((tse / m).sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::PrivacyParams;
    use mm_linalg::{ops, LinearOperator};
    use mm_opt::{cg_normal_equations, CgOptions};
    use mm_workload::RangeQueryWorkload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn intervals(n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for k in 0..n {
            out.push((0, k)); // prefixes
        }
        out.push((n / 4, 3 * n / 4)); // one interior interval
        out
    }

    /// Dense reference for the closed-form trace: trace(WᵀW (HᵀH)⁻¹)
    /// computed by explicit inversion through Cholesky solves.
    fn dense_haar_trace(n: usize, ivs: &[(usize, usize)]) -> f64 {
        let h = mm_strategies::wavelet::haar_matrix(n);
        let gram = ops::gram(&h);
        let chol = mm_linalg::decomp::Cholesky::new(&gram).unwrap();
        let mut trace = 0.0;
        for &(lo, hi) in ivs {
            let mut w = vec![0.0; n];
            for wi in &mut w[lo..=hi] {
                *wi = 1.0;
            }
            let sol = chol.solve_vec(&w).unwrap();
            trace += ops::dot(&w, &sol);
        }
        trace
    }

    #[test]
    fn closed_form_haar_trace_matches_dense_inverse() {
        for n in [4usize, 8, 16, 64] {
            let ivs = intervals(n);
            let fast = haar_interval_trace(n, &ivs);
            let dense = dense_haar_trace(n, &ivs);
            assert!(
                (fast - dense).abs() / dense < 1e-9,
                "n={n}: closed form {fast} vs dense {dense}"
            );
        }
    }

    #[test]
    fn tree_selector_picks_haar_on_powers_of_two() {
        let sel = TreeStructuredSelector::default();
        let d = RangeQueryWorkload::prefixes(16).descriptor();
        let s = sel.select(&d).unwrap();
        assert!(matches!(s.descriptor(), StrategyDescriptor::Haar { n: 16 }));
        let d9 = RangeQueryWorkload::prefixes(9).descriptor();
        let s9 = sel.select(&d9).unwrap();
        assert!(matches!(
            s9.descriptor(),
            StrategyDescriptor::Hierarchical { n: 9, branching: 2 }
        ));
    }

    #[test]
    fn fixed_selector_enforces_dimension() {
        let sel = FixedStructuredSelector::new(StrategyDescriptor::Haar { n: 8 });
        let ok = sel.select(&RangeQueryWorkload::prefixes(8).descriptor());
        assert!(ok.is_ok());
        let err = sel.select(&RangeQueryWorkload::prefixes(16).descriptor());
        assert!(matches!(err, Err(MechanismError::InvalidArgument(_))));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mm-opstore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn structured_answer_round_trip_with_caching() {
        let engine = Engine::new(PrivacyParams::paper_default());
        let w = RangeQueryWorkload::prefixes(32);
        let x: Vec<f64> = (0..32).map(|i| 100.0 + i as f64).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let a = engine.answer_structured(&w, &x, &mut rng).unwrap();
        let b = engine.answer_structured(&w, &x, &mut rng).unwrap();
        assert!(!a.cache_hit && b.cache_hit);
        assert!(Arc::ptr_eq(&a.strategy, &b.strategy));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.answers.len(), 32);
        assert_eq!(a.estimate.len(), 32);
        let stats = engine.stats();
        assert_eq!(stats.structured_selections, 1);
        assert_eq!(stats.structured_cache_hits, 1);
        assert_eq!(stats.structured_cache_misses, 1);
        // The answers track the truth at the predicted error scale.
        let truth = mm_workload::Workload::evaluate(&w, &x);
        let predicted = a.expected_rms_error.expect("Haar+intervals closed form");
        let rms = (a
            .answers
            .iter()
            .zip(truth.iter())
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>()
            / truth.len() as f64)
            .sqrt();
        assert!(rms < 20.0 * predicted, "rms {rms} vs predicted {predicted}");
    }

    #[test]
    fn structured_expected_error_matches_empirical() {
        // Prop. 4 regression for the closed-form Haar trace: the empirical
        // RMS over many trials must match the prediction.
        let engine = Engine::new(PrivacyParams::paper_default());
        let w = RangeQueryWorkload::prefixes(16);
        let x: Vec<f64> = (0..16).map(|i| 50.0 + (i % 5) as f64).collect();
        let truth = mm_workload::Workload::evaluate(&w, &x);
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 300;
        let mut sq = 0.0;
        let mut predicted = 0.0;
        for _ in 0..trials {
            let ans = engine.answer_structured(&w, &x, &mut rng).unwrap();
            predicted = ans.expected_rms_error.unwrap();
            for (a, t) in ans.answers.iter().zip(truth.iter()) {
                sq += (a - t) * (a - t);
            }
        }
        let empirical = (sq / (trials as f64 * truth.len() as f64)).sqrt();
        assert!(
            (empirical - predicted).abs() / predicted < 0.12,
            "empirical {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn structured_answers_are_consistent() {
        // Prefix answers must be monotone-consistent: they all derive from
        // one estimate, so answer(0..=k) - answer(0..=k-1) = estimate[k].
        let engine = Engine::new(PrivacyParams::paper_default());
        let w = RangeQueryWorkload::prefixes(8);
        let x = vec![5.0; 8];
        let mut rng = StdRng::seed_from_u64(3);
        let ans = engine.answer_structured(&w, &x, &mut rng).unwrap();
        for k in 1..8 {
            let diff = ans.answers[k] - ans.answers[k - 1];
            assert!(
                (diff - ans.estimate[k]).abs() < 1e-6,
                "consistency violated at {k}"
            );
        }
    }

    #[test]
    fn structured_rejects_bad_inputs() {
        let engine = Engine::new(PrivacyParams::paper_default());
        let w = RangeQueryWorkload::prefixes(8);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            engine.answer_structured(&w, &[1.0; 7], &mut rng),
            Err(MechanismError::InvalidArgument(_))
        ));
    }

    #[test]
    fn structured_store_round_trip_through_engine() {
        let dir = tmp_dir("engine-store");
        let w = RangeQueryWorkload::prefixes(16);
        let x = vec![2.0; 16];
        let (fp, first_estimate) = {
            let engine = Engine::builder().strategy_store(&dir).build().unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            let a = engine.answer_structured(&w, &x, &mut rng).unwrap();
            assert_eq!(engine.stats().structured_store_writes, 1);
            (a.fingerprint, a.estimate)
        };
        // A fresh engine over the same directory warms from the store and
        // answers bit-identically without ever selecting.
        let engine = Engine::builder().strategy_store(&dir).build().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let a = engine.answer_structured(&w, &x, &mut rng).unwrap();
        assert_eq!(a.fingerprint, fp);
        assert!(a.cache_hit, "warmed entry served from cache");
        assert_eq!(engine.stats().structured_selections, 0);
        for (p, q) in first_estimate.iter().zip(a.estimate.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "warm restart bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structured_selection_reaches_the_selector_fault_seam() {
        use crate::faults::{Fault, FaultSchedule, FaultSite};
        // The first structured selection panics like a buggy selector; the
        // flight is poisoned, nothing is cached, and the retry selects.
        let engine = Engine::builder()
            .fault_injector(FaultSchedule::new().inject_at(FaultSite::Selector, 0, Fault::Panic))
            .build()
            .unwrap();
        let d = RangeQueryWorkload::prefixes(16).descriptor();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.select_structured(&d)
        }));
        assert!(crashed.is_err(), "injected selector panic");
        let (_, _, hit) = engine.select_structured(&d).unwrap();
        assert!(!hit, "the poisoned flight cached nothing");
        let stats = engine.stats();
        assert_eq!(stats.structured_cache_misses, 2);
        assert_eq!(stats.structured_selections, 1);
        assert_eq!(stats.selections, 0, "dense counters stay untouched");
    }

    #[test]
    fn laplace_backend_uses_l1_sensitivity_on_the_structured_path() {
        let engine = Engine::builder()
            .privacy(PrivacyParams::pure(0.5))
            .build()
            .unwrap();
        let w = RangeQueryWorkload::prefixes(16);
        let (strategy, _, _) = engine.select_structured(&w.descriptor()).unwrap();
        let sens = engine
            .backend()
            .sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
        assert_eq!(sens.to_bits(), strategy.l1_sensitivity().to_bits());
        let mut rng = StdRng::seed_from_u64(17);
        let x = vec![1.0; 16];
        let ans = engine.answer_structured(&w, &x, &mut rng).unwrap();
        assert!(ans.expected_rms_error.unwrap() > 0.0);
    }

    #[test]
    fn structured_matches_explicit_operator_adapter_bitwise() {
        // The structured CG path fed by the RunRowsOperator must produce
        // bit-identical answers to the same path fed by the materialised
        // dense operator — the acceptance-criteria cross-validation at
        // small n, here exercised through the public engine pieces.
        let n = 64;
        let w = RangeQueryWorkload::prefixes(n);
        let engine = Engine::new(PrivacyParams::paper_default());
        let (strategy, _, _) = engine.select_structured(&w.descriptor()).unwrap();
        let op = strategy.operator().clone();
        let dense = mm_linalg::ExplicitOperator::new(op.materialize().unwrap());
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 + 1.0).collect();
        // Same noisy observations on both sides (same seed, same scale).
        let sens = engine
            .backend()
            .sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
        let scale = engine.backend().noise_scale(engine.privacy(), sens);
        let mut rng = StdRng::seed_from_u64(23);
        let noise = engine.backend().sample(&mut rng, scale, op.dims().0);
        let mut y_s = op.apply(&x);
        let mut y_d = dense.apply(&x);
        for ((a, b), nz) in y_s.iter_mut().zip(y_d.iter_mut()).zip(noise.iter()) {
            *a += *nz;
            *b += *nz;
        }
        let opts = CgOptions::default();
        let est_s =
            cg_normal_equations(|v| op.apply(v), |w2| op.apply_transpose(w2), &y_s, &opts).unwrap();
        let est_d = cg_normal_equations(
            |v| dense.apply(v),
            |w2| dense.apply_transpose(w2),
            &y_d,
            &opts,
        )
        .unwrap();
        for (a, b) in est_s.iter().zip(est_d.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "structured vs dense CG bits");
        }
    }

    #[test]
    fn large_domain_answers_without_densifying() {
        // n = 8192 is already past the dense-materialisation comfort zone;
        // the structured path must answer it with no n×n allocation (the
        // operator refuses to materialise above its cap, so reaching an
        // answer proves the path never asked for the dense form).
        let n = 8192;
        let w = RangeQueryWorkload::prefixes(n);
        let engine = Engine::new(PrivacyParams::paper_default());
        let x = vec![1.0; n];
        let mut rng = StdRng::seed_from_u64(31);
        let ans = engine.answer_structured(&w, &x, &mut rng).unwrap();
        assert_eq!(ans.answers.len(), n);
        assert!(ans.strategy.operator().materialize().is_none() || n <= 4096);
        assert!(ans.expected_rms_error.unwrap().is_finite());
    }

    #[test]
    fn haar_trace_handles_single_cells_and_full_domain() {
        for n in [2usize, 4, 32] {
            let ivs: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            let fast = haar_interval_trace(n, &ivs);
            let dense = dense_haar_trace(n, &ivs);
            assert!((fast - dense).abs() / dense < 1e-9, "cells n={n}");
            let full = [(0, n - 1)];
            let fast = haar_interval_trace(n, &full);
            let dense = dense_haar_trace(n, &full);
            assert!((fast - dense).abs() / dense < 1e-9, "full n={n}");
        }
    }
}
