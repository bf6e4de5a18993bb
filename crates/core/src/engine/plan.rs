//! The unified strategy artifact: one [`SelectionPlan`] per workload
//! fingerprint, whatever the selection pipeline that produced it.
//!
//! The engine historically carried two parallel strategy representations —
//! dense [`CachedSelection`]s (matrix + Cholesky factor + Prop. 4 trace term)
//! and matrix-free [`StructuredStrategy`] descriptors — each with its own
//! cache, persistence and serving plumbing.  The paper's adaptive-mechanism
//! framing treats every one of these as the same object: *a strategy plus the
//! metadata needed to answer and account for it*.  [`SelectionPlan`] is that
//! object.  The cache stores plans, the store persists plans, and the answer
//! paths dispatch on the plan kind, so adding a pipeline (the Low-Rank
//! Mechanism was the third) no longer adds a parallel stack.
//!
//! # Plan kinds
//!
//! * [`SelectionPlan::Dense`] — the classic pipeline: an explicit strategy
//!   matrix with its factor and trace term, selected in O(n³).
//! * [`SelectionPlan::Structured`] — a matrix-free operator strategy rebuilt
//!   from a few-byte descriptor in O(n log n), with its trace term (see
//!   [`StructuredPlan`]).
//! * [`SelectionPlan::LowRank`] — the Low-Rank Mechanism (arXiv:1208.0094 /
//!   1212.2309): the workload gram is truncated to its top-`r` eigen-subspace
//!   `L̃` (`r × n`), eigen-design selection runs *inside* the subspace in
//!   O(nr² + r³), and answers recombine through the basis.  The plan carries
//!   the basis, the subspace selection (an ordinary [`CachedSelection`] over
//!   the `r`-dimensional design) and the truncation bookkeeping needed to
//!   predict the rank/error trade-off.

use super::cache::CachedSelection;
use super::structured::haar_interval_trace;
use mm_linalg::Matrix;
use mm_strategies::{StrategyDescriptor, StructuredStrategy};
use mm_workload::WorkloadDescriptor;
use std::sync::{Arc, OnceLock};

/// Discriminant of a [`SelectionPlan`], for stats and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Dense pipeline (explicit matrix, factor, trace term).
    Dense,
    /// Matrix-free structured pipeline (operator + descriptor).
    Structured,
    /// Low-Rank Mechanism (subspace selection recombined through a basis).
    LowRank,
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanKind::Dense => "dense",
            PlanKind::Structured => "structured",
            PlanKind::LowRank => "low-rank",
        })
    }
}

/// The Low-Rank Mechanism's plan: select in the top-`r` eigen-subspace of
/// the workload gram, answer by recombining through the basis.
///
/// With `G = WᵀW ≈ L̃ᵀ diag(λ) L̃` (Ritz pairs from
/// [`TruncatedEigen`](mm_linalg::decomp::TruncatedEigen)), the mechanism
/// observes `y = A_sub·(L̃x) + noise` for a strategy `A_sub` eigen-designed in
/// the subspace, recovers `ẑ` by least squares, and answers `W·(L̃ᵀẑ)`.  The
/// embedded [`CachedSelection`] holds `A_sub` with its sensitivities
/// **overridden to those of the end-to-end map `A_sub·L̃`** — the privacy
/// guarantee is calibrated to the columns of the matrix actually applied to
/// the data, not to the subspace design alone.
///
/// The Cholesky factor of `A_subᵀA_sub` and the Prop. 4 trace term against
/// the subspace gram `L̃ G L̃ᵀ` are materialised eagerly at construction, so
/// persisting the plan never has to run cubic work (and cannot fail late).
#[derive(Debug)]
pub struct LowRankPlan {
    /// Orthonormal subspace basis `L̃`, one Ritz vector per row (`r' × n`
    /// after dropping numerically zero Ritz values).
    basis: Matrix,
    /// The subspace selection: strategy `A_sub` (with end-to-end
    /// sensitivities), factor and trace term.
    selection: CachedSelection,
    /// The workload gram projected into the subspace, `L̃ G L̃ᵀ` (`r' × r'`)
    /// — the gram the trace term is taken against.
    subspace_gram: Matrix,
    /// The rank requested through the builder knob (the retained rank
    /// `basis.rows()` can be smaller when the spectrum is deficient).
    rank: usize,
    /// `trace(G)`: the workload's total spectral mass.
    total_gram_trace: f64,
    /// Spectral mass captured by the retained subspace,
    /// `trace(L̃ G L̃ᵀ)`.
    captured_mass: f64,
}

impl LowRankPlan {
    /// Assembles a plan from parts the low-rank selector (or the store's
    /// decoder) already derived.  `selection` must carry its factor and
    /// trace term against `subspace_gram` pre-seeded.
    pub(crate) fn from_parts(
        basis: Matrix,
        selection: CachedSelection,
        subspace_gram: Matrix,
        rank: usize,
        total_gram_trace: f64,
        captured_mass: f64,
    ) -> Self {
        LowRankPlan {
            basis,
            selection,
            subspace_gram,
            rank,
            total_gram_trace,
            captured_mass,
        }
    }

    /// The subspace basis `L̃` (`r' × n`, rows orthonormal).
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// The subspace selection (strategy, factor, trace term).
    pub fn selection(&self) -> &CachedSelection {
        &self.selection
    }

    /// The projected workload gram `L̃ G L̃ᵀ`.
    pub fn subspace_gram(&self) -> &Matrix {
        &self.subspace_gram
    }

    /// The rank requested through `Engine::builder().low_rank(...)`.
    pub fn requested_rank(&self) -> usize {
        self.rank
    }

    /// The retained rank `r'` (rows of the basis; at most the requested
    /// rank, smaller when the workload spectrum is deficient).
    pub fn retained_rank(&self) -> usize {
        self.basis.rows()
    }

    /// Number of cells the plan covers (columns of the basis).
    pub fn dim(&self) -> usize {
        self.basis.cols()
    }

    /// `trace(WᵀW)`: the workload's total spectral mass.
    pub fn total_gram_trace(&self) -> f64 {
        self.total_gram_trace
    }

    /// Spectral mass captured by the retained subspace.
    pub fn captured_mass(&self) -> f64 {
        self.captured_mass
    }

    /// Spectral mass the truncation dropped (clamped at 0: Ritz values are
    /// approximations, so the difference can be a hair negative).
    pub fn dropped_mass(&self) -> f64 {
        (self.total_gram_trace - self.captured_mass).max(0.0)
    }

    /// Predicted RMS workload error *including the truncation bias*, the
    /// quantity behind the rank/error trade-off:
    ///
    /// ```text
    /// sqrt( (error_constant · sens² · trace(G_sub (A_subᵀA_sub)⁻¹)
    ///        + dropped_mass · data_scale²) / m )
    /// ```
    ///
    /// The first term is the Prop. 4 noise error of the subspace mechanism;
    /// the second charges every dropped eigendirection as if the data had a
    /// component of magnitude `data_scale` along it — a proxy (the true bias
    /// depends on the data), but one that is exact at full rank (dropped
    /// mass 0) and non-increasing in the rank on any fixed workload, which
    /// is what makes the knob monotone.
    pub fn predicted_rms_error(
        &self,
        query_count: usize,
        error_constant: f64,
        sensitivity: f64,
        data_scale: f64,
    ) -> crate::Result<f64> {
        if query_count == 0 {
            return Err(crate::MechanismError::InvalidArgument(
                "workload has no queries".into(),
            ));
        }
        let noise_tse = error_constant
            * sensitivity
            * sensitivity
            * self.selection.trace_term(&self.subspace_gram)?;
        let bias_tse = self.dropped_mass() * data_scale * data_scale;
        Ok(((noise_tse + bias_tse) / query_count as f64).sqrt())
    }
}

/// A matrix-free plan: the structured strategy plus its Prop. 4 trace term
/// against the workload it was selected for.
///
/// The term is computed on the first answer and reused afterwards, like
/// [`CachedSelection::trace_term`]: the plan is keyed by the structured
/// fingerprint, which hashes every queried interval, so the term is a
/// function of the plan.  It is not persisted — the store entry stays the
/// strategy descriptor — and a loaded plan recomputes the same bits.
#[derive(Debug)]
pub struct StructuredPlan {
    strategy: Arc<StructuredStrategy>,
    trace: OnceLock<Option<f64>>,
}

impl StructuredPlan {
    /// Wraps a selected strategy (the trace term is computed on first use).
    pub fn new(strategy: StructuredStrategy) -> Self {
        StructuredPlan {
            strategy: Arc::new(strategy),
            trace: OnceLock::new(),
        }
    }

    /// The selected strategy.
    pub fn strategy(&self) -> &Arc<StructuredStrategy> {
        &self.strategy
    }

    /// The trace term `trace(WᵀW (AᵀA)⁻¹)` of the described workload, where a
    /// closed form exists: the Haar strategy against intervals over its own
    /// domain, in O(m log n).  `None` means "no closed form", never "zero".
    /// Computed on the first call and reused, so callers must pass the
    /// descriptor the plan was selected for.
    pub fn trace_term(&self, descriptor: &WorkloadDescriptor) -> Option<f64> {
        *self.trace.get_or_init(|| {
            let StrategyDescriptor::Haar { n } = self.strategy.descriptor() else {
                return None;
            };
            let WorkloadDescriptor::Intervals { n: wn, intervals } = descriptor;
            (*wn == n).then(|| haar_interval_trace(n, intervals))
        })
    }
}

/// One selected strategy artifact, whatever pipeline produced it — the
/// single currency of the engine's cache, store and answer paths (see the
/// module docs).
#[derive(Debug, Clone)]
pub enum SelectionPlan {
    /// A dense selection (explicit matrix, factor, trace term).
    Dense(Arc<CachedSelection>),
    /// A matrix-free structured strategy with its trace term.
    Structured(Arc<StructuredPlan>),
    /// A Low-Rank Mechanism plan.
    LowRank(Arc<LowRankPlan>),
}

impl SelectionPlan {
    /// The plan's kind.
    pub fn kind(&self) -> PlanKind {
        match self {
            SelectionPlan::Dense(_) => PlanKind::Dense,
            SelectionPlan::Structured(_) => PlanKind::Structured,
            SelectionPlan::LowRank(_) => PlanKind::LowRank,
        }
    }

    /// Number of cells the plan covers.
    pub fn dim(&self) -> usize {
        match self {
            SelectionPlan::Dense(entry) => entry.strategy().dim(),
            SelectionPlan::Structured(plan) => plan.strategy.dim(),
            SelectionPlan::LowRank(plan) => plan.dim(),
        }
    }

    /// The dense selection, when this is a dense plan.
    pub fn as_dense(&self) -> Option<&Arc<CachedSelection>> {
        match self {
            SelectionPlan::Dense(entry) => Some(entry),
            _ => None,
        }
    }

    /// The structured strategy, when this is a structured plan.
    pub fn as_structured(&self) -> Option<&Arc<StructuredStrategy>> {
        match self {
            SelectionPlan::Structured(plan) => Some(plan.strategy()),
            _ => None,
        }
    }

    /// The low-rank plan, when this is one.
    pub fn as_low_rank(&self) -> Option<&Arc<LowRankPlan>> {
        match self {
            SelectionPlan::LowRank(plan) => Some(plan),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_strategies::haar_strategy;
    use mm_strategies::identity::identity_strategy;

    #[test]
    fn kinds_and_accessors_dispatch() {
        let dense = SelectionPlan::Dense(Arc::new(CachedSelection::new(Arc::new(
            identity_strategy(4),
        ))));
        assert_eq!(dense.kind(), PlanKind::Dense);
        assert_eq!(dense.dim(), 4);
        assert!(dense.as_dense().is_some());
        assert!(dense.as_structured().is_none() && dense.as_low_rank().is_none());

        let structured = SelectionPlan::Structured(Arc::new(StructuredPlan::new(haar_strategy(8))));
        assert_eq!(structured.kind(), PlanKind::Structured);
        assert_eq!(structured.dim(), 8);
        assert!(structured.as_structured().is_some());
        assert!(structured.as_dense().is_none());

        assert_eq!(PlanKind::LowRank.to_string(), "low-rank");
        assert_eq!(PlanKind::Dense.to_string(), "dense");
        assert_eq!(PlanKind::Structured.to_string(), "structured");
    }
}
