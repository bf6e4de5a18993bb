//! Pluggable strategy selection.
//!
//! A [`StrategySelector`] turns a workload (presented as a
//! [`SelectionContext`]) into a [`Strategy`].  The paper's Eigen-Design
//! algorithm is one implementation; the Fig. 5 alternatives (Program 1 over
//! the wavelet, Fourier or identity design sets, or over the workload's own
//! rows) and the Sec. 3.5 pure-DP L1 weighting are others.  Because the
//! [`Engine`](crate::engine::Engine) holds its selector as a trait object,
//! reproducing the Fig. 5 comparison is a one-line selector swap.
//!
//! Selection is data independent (Sec. 1): selectors see only the workload's
//! gram matrix (and, for [`DesignBasis::WorkloadRows`], its explicit query
//! matrix) — never the data vector — so selected strategies can be cached and
//! reused across databases.

use crate::design_set::{weighted_design_strategy, DesignWeightingOptions};
use crate::eigen_design::{eigen_design, EigenDesignOptions};
use crate::pure_dp::{l1_weighted_design_strategy, PureDpOptions};
use crate::MechanismError;
use mm_linalg::Matrix;
use mm_strategies::fourier::attribute_basis;
use mm_strategies::wavelet::haar_matrix;
use mm_strategies::Strategy;
use mm_workload::Workload;

/// Everything a selector may inspect: the workload's gram matrix, plus the
/// explicit query matrix when the selector asked for it and the workload can
/// materialise one.
#[derive(Debug, Clone)]
pub struct SelectionContext {
    gram: Matrix,
    workload_rows: Option<Matrix>,
}

impl SelectionContext {
    /// Context from a bare gram matrix (no explicit workload rows available).
    pub fn from_gram(gram: Matrix) -> Self {
        SelectionContext {
            gram,
            workload_rows: None,
        }
    }

    /// Context from a precomputed gram matrix plus optional workload rows.
    pub fn from_gram_and_rows(gram: Matrix, workload_rows: Option<Matrix>) -> Self {
        SelectionContext {
            gram,
            workload_rows,
        }
    }

    /// Context from a workload; materialises the explicit query matrix only
    /// when `want_rows` is set (it can be large).
    pub fn from_workload<W: Workload + ?Sized>(workload: &W, want_rows: bool) -> Self {
        SelectionContext {
            gram: workload.gram(),
            workload_rows: if want_rows {
                workload.to_matrix()
            } else {
                None
            },
        }
    }

    /// The workload gram matrix `WᵀW`.
    pub fn gram(&self) -> &Matrix {
        &self.gram
    }

    /// The explicit workload matrix, when requested and available.
    pub fn workload_rows(&self) -> Option<&Matrix> {
        self.workload_rows.as_ref()
    }

    /// Number of cells the workload covers.
    pub fn dim(&self) -> usize {
        self.gram.rows()
    }
}

/// A strategy-selection algorithm.  Object safe; engines hold
/// `Arc<dyn StrategySelector>`.
pub trait StrategySelector: std::fmt::Debug + Send + Sync {
    /// Selector name for reports, errors and comparison tables.
    fn name(&self) -> String;

    /// Whether [`StrategySelector::select`] needs the explicit workload
    /// matrix in its context (only [`DesignBasis::WorkloadRows`] does).
    fn needs_workload_matrix(&self) -> bool {
        false
    }

    /// Selects a strategy for the workload described by `ctx`.
    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy>;
}

/// The paper's Eigen-Design algorithm (Program 2): eigenvectors of `WᵀW` as
/// the design set, eigenvalues as the costs.
#[derive(Debug, Clone, Default)]
pub struct EigenDesignSelector {
    /// Options forwarded to [`eigen_design`].
    pub options: EigenDesignOptions,
}

impl EigenDesignSelector {
    /// Selector with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selector with the cheaper "fast" solver settings.
    pub fn fast() -> Self {
        EigenDesignSelector {
            options: EigenDesignOptions::fast(),
        }
    }
}

impl StrategySelector for EigenDesignSelector {
    fn name(&self) -> String {
        "eigen-design".into()
    }

    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy> {
        Ok(eigen_design(ctx.gram(), &self.options)?.strategy)
    }
}

/// A fixed design set for Program 1 (the Fig. 5 alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignBasis {
    /// Single-cell queries (the identity matrix): weighting recovers per-cell
    /// noise tuned to the workload's column masses.
    Identity,
    /// The Haar wavelet matrix (requires a power-of-two domain).
    Haar,
    /// The orthonormal DCT-II ("generalised Fourier") basis.
    Fourier,
    /// The workload's own rows (requires an explicit, full-row-rank workload
    /// matrix).
    WorkloadRows,
}

impl DesignBasis {
    fn label(&self) -> &'static str {
        match self {
            DesignBasis::Identity => "identity",
            DesignBasis::Haar => "wavelet",
            DesignBasis::Fourier => "fourier",
            DesignBasis::WorkloadRows => "workload-rows",
        }
    }

    /// Materialises the design matrix for an `n`-cell domain.
    fn matrix(&self, ctx: &SelectionContext) -> crate::Result<Matrix> {
        let n = ctx.dim();
        match self {
            DesignBasis::Identity => Ok(Matrix::identity(n)),
            DesignBasis::Haar => {
                if !n.is_power_of_two() {
                    return Err(MechanismError::InvalidArgument(format!(
                        "the Haar design set requires a power-of-two domain, got {n} cells"
                    )));
                }
                Ok(haar_matrix(n))
            }
            DesignBasis::Fourier => Ok(attribute_basis(n)),
            DesignBasis::WorkloadRows => ctx.workload_rows().cloned().ok_or_else(|| {
                MechanismError::StrategyNotMaterialized(
                    "workload-rows design set needs an explicit workload matrix".into(),
                )
            }),
        }
    }
}

/// Program 1 over a fixed design set under the (ε,δ) L2 objective.
#[derive(Debug, Clone)]
pub struct DesignSetSelector {
    /// Which design set to weight.
    pub basis: DesignBasis,
    /// Options for the weighting program.
    pub options: DesignWeightingOptions,
}

impl DesignSetSelector {
    /// Selector over the given basis with default weighting options.
    pub fn new(basis: DesignBasis) -> Self {
        DesignSetSelector {
            basis,
            options: DesignWeightingOptions::default(),
        }
    }

    /// The weighted Haar wavelet design set.
    pub fn wavelet() -> Self {
        Self::new(DesignBasis::Haar)
    }

    /// The weighted generalised-Fourier design set.
    pub fn fourier() -> Self {
        Self::new(DesignBasis::Fourier)
    }

    /// The weighted identity design set.
    pub fn identity() -> Self {
        Self::new(DesignBasis::Identity)
    }

    /// The workload's own rows as the design set.
    pub fn workload_rows() -> Self {
        Self::new(DesignBasis::WorkloadRows)
    }
}

impl StrategySelector for DesignSetSelector {
    fn name(&self) -> String {
        format!("design-set ({})", self.basis.label())
    }

    fn needs_workload_matrix(&self) -> bool {
        self.basis == DesignBasis::WorkloadRows
    }

    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy> {
        let design = self.basis.matrix(ctx)?;
        let result = weighted_design_strategy(self.name(), ctx.gram(), &design, &self.options)?;
        Ok(result.strategy)
    }
}

/// Program 1 over an arbitrary caller-provided design matrix (e.g. a
/// Kronecker-product wavelet for a multi-attribute domain, or the retained
/// rows of a Fourier strategy).  The general form behind the Fig. 5
/// comparison when the built-in [`DesignBasis`] choices do not fit.
#[derive(Debug, Clone)]
pub struct MatrixDesignSelector {
    label: String,
    design: Matrix,
    /// Options for the weighting program.
    pub options: DesignWeightingOptions,
}

impl MatrixDesignSelector {
    /// Selector weighting the given design matrix (rows = design queries).
    pub fn new(label: impl Into<String>, design: Matrix) -> Self {
        MatrixDesignSelector {
            label: label.into(),
            design,
            options: DesignWeightingOptions::default(),
        }
    }
}

impl StrategySelector for MatrixDesignSelector {
    fn name(&self) -> String {
        format!("design-set ({})", self.label)
    }

    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy> {
        if self.design.cols() != ctx.dim() {
            return Err(MechanismError::InvalidArgument(format!(
                "design matrix covers {} cells but the workload covers {}",
                self.design.cols(),
                ctx.dim()
            )));
        }
        let result =
            weighted_design_strategy(self.name(), ctx.gram(), &self.design, &self.options)?;
        Ok(result.strategy)
    }
}

/// Sec. 3.5: L1 (pure ε-DP) weighting of a fixed design set, for use with the
/// Laplace backend.
#[derive(Debug, Clone)]
pub struct PureDpSelector {
    /// Which design set to weight.
    pub basis: DesignBasis,
    /// Options for the L1 weighting solver.
    pub options: PureDpOptions,
}

impl PureDpSelector {
    /// Selector over the given basis with default solver options.
    pub fn new(basis: DesignBasis) -> Self {
        PureDpSelector {
            basis,
            options: PureDpOptions::default(),
        }
    }

    /// The L1-weighted Haar wavelet design set (the paper's range-query
    /// recommendation under pure DP).
    pub fn wavelet() -> Self {
        Self::new(DesignBasis::Haar)
    }

    /// The L1-weighted generalised-Fourier design set.
    pub fn fourier() -> Self {
        Self::new(DesignBasis::Fourier)
    }
}

impl StrategySelector for PureDpSelector {
    fn name(&self) -> String {
        format!("pure-dp l1 ({})", self.basis.label())
    }

    fn needs_workload_matrix(&self) -> bool {
        self.basis == DesignBasis::WorkloadRows
    }

    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy> {
        let design = self.basis.matrix(ctx)?;
        let result = l1_weighted_design_strategy(self.name(), ctx.gram(), &design, &self.options)?;
        Ok(result.strategy)
    }
}

/// A selector that always returns a fixed, caller-provided strategy
/// (hierarchical, plain wavelet, identity, …).  It is the engine's one way
/// to answer with a caller's strategy — prior-work baselines, or one
/// selected on a normalised workload (Sec. 3.4) — through the same cache,
/// release step and ledgers as the adaptive selectors.
#[derive(Debug, Clone)]
pub struct FixedStrategySelector {
    strategy: Strategy,
}

impl FixedStrategySelector {
    /// Wraps a precomputed strategy.
    pub fn new(strategy: Strategy) -> Self {
        FixedStrategySelector { strategy }
    }
}

impl StrategySelector for FixedStrategySelector {
    fn name(&self) -> String {
        format!("fixed ({})", self.strategy.name())
    }

    fn select(&self, ctx: &SelectionContext) -> crate::Result<Strategy> {
        if self.strategy.dim() != ctx.dim() {
            return Err(MechanismError::InvalidArgument(format!(
                "fixed strategy covers {} cells but the workload covers {}",
                self.strategy.dim(),
                ctx.dim()
            )));
        }
        Ok(self.strategy.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::rms_workload_error;
    use crate::privacy::PrivacyParams;
    use mm_strategies::hierarchical::binary_hierarchical_1d;
    use mm_workload::prefix::PrefixWorkload;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, Workload};

    #[test]
    fn eigen_selector_matches_direct_call() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let ctx = SelectionContext::from_workload(&w, false);
        let sel = EigenDesignSelector::new();
        let s = sel.select(&ctx).unwrap();
        let direct = eigen_design(&w.gram(), &EigenDesignOptions::default())
            .unwrap()
            .strategy;
        let p = PrivacyParams::paper_default();
        let e1 = rms_workload_error(&w.gram(), w.query_count(), &s, &p).unwrap();
        let e2 = rms_workload_error(&w.gram(), w.query_count(), &direct, &p).unwrap();
        assert!((e1 - e2).abs() / e2 < 1e-9);
    }

    #[test]
    fn design_set_selectors_produce_usable_strategies() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let ctx = SelectionContext::from_workload(&w, false);
        let p = PrivacyParams::paper_default();
        for sel in [
            DesignSetSelector::wavelet(),
            DesignSetSelector::fourier(),
            DesignSetSelector::identity(),
        ] {
            let s = sel.select(&ctx).unwrap();
            let err = rms_workload_error(&w.gram(), w.query_count(), &s, &p).unwrap();
            assert!(err.is_finite() && err > 0.0, "{}: {err}", sel.name());
        }
    }

    #[test]
    fn workload_rows_selector_on_full_rank_workload() {
        // The prefix (CDF) workload is lower-triangular: full row rank, so its
        // own rows form a valid design set.
        let w = PrefixWorkload::new(8);
        let sel = DesignSetSelector::workload_rows();
        assert!(sel.needs_workload_matrix());
        let ctx = SelectionContext::from_workload(&w, sel.needs_workload_matrix());
        let s = sel.select(&ctx).unwrap();
        let p = PrivacyParams::paper_default();
        let err = rms_workload_error(&w.gram(), w.query_count(), &s, &p).unwrap();
        assert!(err.is_finite() && err > 0.0);
        // Without the workload matrix in the context, selection fails cleanly.
        let bare = SelectionContext::from_gram(w.gram());
        assert!(sel.select(&bare).is_err());
    }

    #[test]
    fn haar_basis_rejects_non_power_of_two() {
        let w = PrefixWorkload::new(12);
        let ctx = SelectionContext::from_workload(&w, false);
        assert!(DesignSetSelector::wavelet().select(&ctx).is_err());
        // Fourier handles any n.
        assert!(DesignSetSelector::fourier().select(&ctx).is_ok());
    }

    #[test]
    fn pure_dp_selector_normalises_l1_sensitivity() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let ctx = SelectionContext::from_workload(&w, false);
        let s = PureDpSelector::wavelet().select(&ctx).unwrap();
        assert!((s.l1_sensitivity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_selector_checks_dimensions() {
        let sel = FixedStrategySelector::new(binary_hierarchical_1d(8));
        let w8 = AllRangeWorkload::new(Domain::one_dim(8));
        let w16 = AllRangeWorkload::new(Domain::one_dim(16));
        assert!(sel
            .select(&SelectionContext::from_workload(&w8, false))
            .is_ok());
        assert!(sel
            .select(&SelectionContext::from_workload(&w16, false))
            .is_err());
    }
}
