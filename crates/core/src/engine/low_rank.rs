//! The Low-Rank Mechanism's selection pipeline (PAPERS.md arXiv:1208.0094 /
//! 1212.2309), built on the unified [`SelectionPlan`](super::SelectionPlan).
//!
//! Dense eigen-design selection diagonalises the full `n × n` workload gram
//! in O(n³).  For workloads whose gram has rank `r ≪ n` (marginals, small
//! families of range queries over huge domains), almost all of that work
//! computes eigenpairs carrying no workload mass.  The low-rank pipeline
//! instead:
//!
//! 1. extracts the top-`r` Ritz pairs `(λ, L̃)` of `G = WᵀW` with the
//!    truncated block subspace iteration
//!    ([`TruncatedEigen`](mm_linalg::decomp::TruncatedEigen), O(n²r)),
//! 2. runs eigen-design *inside* the subspace: the design set is the
//!    identity of the `r'`-dimensional coordinate space and the costs are
//!    the retained Ritz values — exactly Program 2, but on an `r' × r'`
//!    problem (O(nr² + r³) end to end instead of O(n³)),
//! 3. re-calibrates privacy to the end-to-end map: the mechanism observes
//!    `y = A_sub·(L̃x)`, so its sensitivity is the maximum column norm of
//!    `A_sub·L̃`, computed by streaming one basis column at a time (O(npr')),
//!    never materialising the `p × n` product,
//! 4. materialises the Cholesky factor of `A_subᵀA_sub` and the Prop. 4
//!    trace term against the projected gram `L̃ G L̃ᵀ` eagerly, so the plan
//!    can always be persisted and the answer path never re-pays the cubic
//!    (in `r'`) work.
//!
//! Requesting `rank ≥ n` is handled one level up: the engine falls back to
//! the dense selector, which keeps full-rank answers bit-identical to a
//! plain dense engine (the subspace iteration would converge to the same
//! eigensystem only approximately, not bitwise).

use super::cache::CachedSelection;
use super::plan::LowRankPlan;
use crate::design_set::{weighted_design_strategy_with_costs, DesignWeightingOptions};
use crate::eigen_design::EigenDesignOptions;
use crate::MechanismError;
use mm_linalg::decomp::TruncatedEigen;
use mm_linalg::{ops, Matrix};
use mm_strategies::Strategy;
use std::sync::Arc;

/// Runs the low-rank selection pipeline on a workload gram matrix.
///
/// `rank` is the requested subspace dimension (callers guarantee
/// `1 ≤ rank < n`); Ritz values at or below `opts.rank_tol · σ₁` are dropped,
/// so the retained rank can be smaller on rank-deficient workloads.
pub(crate) fn select_low_rank(
    gram: &Matrix,
    rank: usize,
    opts: &EigenDesignOptions,
) -> crate::Result<LowRankPlan> {
    let n = gram.rows();
    let trunc = TruncatedEigen::new(gram, rank)?;
    let (ritz_raw, basis_full) = trunc.into_parts();
    let ritz: Vec<f64> = ritz_raw
        .iter()
        .map(|&l| if l > 0.0 { l } else { 0.0 })
        .collect();
    let sigma1 = ritz.first().copied().unwrap_or(0.0);
    if sigma1 <= 0.0 {
        return Err(MechanismError::InvalidArgument(
            "workload gram matrix is zero".into(),
        ));
    }
    let retained: Vec<usize> = ritz
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > opts.rank_tol * sigma1)
        .map(|(i, _)| i)
        .collect();
    let retained_ritz: Vec<f64> = retained.iter().map(|&i| ritz[i]).collect();
    let basis = if retained.len() < basis_full.rows() {
        basis_full.select_rows(&retained)?
    } else {
        basis_full
    };
    let r = basis.rows();

    // Program 2 in the subspace: in the coordinates z = L̃x the projected
    // gram is (approximately) diag(ritz), so the design set is the identity
    // and the costs are the Ritz values — an r' x r' weighting problem.
    let design_opts = DesignWeightingOptions {
        solver: opts.solver.clone(),
        completion: opts.completion,
    };
    let designed = weighted_design_strategy_with_costs(
        format!("low-rank eigen-design (rank {r})"),
        &Matrix::identity(r),
        retained_ritz,
        &design_opts,
    )?;
    let a_sub = designed
        .strategy
        .matrix()
        .ok_or_else(|| {
            MechanismError::StrategyNotMaterialized(designed.strategy.name().to_string())
        })?
        .clone();

    // Privacy re-calibration: the mechanism applies A_sub·L̃ to the data, so
    // the sensitivities are the maximum column norms of that product.  One
    // basis column at a time keeps this O(n·p·r') in time and O(p) in space.
    let mut l2_eff = 0.0_f64;
    let mut l1_eff = 0.0_f64;
    for j in 0..n {
        let v = a_sub.matvec(&basis.col(j))?;
        let mut l1 = 0.0;
        let mut l2_sq = 0.0;
        for &x in &v {
            l1 += x.abs();
            l2_sq += x * x;
        }
        l2_eff = l2_eff.max(l2_sq.sqrt());
        l1_eff = l1_eff.max(l1);
    }

    // The exact projected workload gram L̃ G L̃ᵀ (not diag(ritz): the Ritz
    // values are approximations, the projection is exact), the gram the
    // Prop. 4 trace term is taken against.
    let bg = basis.matmul(gram)?;
    let mut subspace_gram = ops::matmul_a_bt(&bg, &basis)?;
    subspace_gram.symmetrize_mut();

    let strategy = Strategy::from_parts(
        designed.strategy.name().to_string(),
        Some(a_sub),
        designed.strategy.gram().clone(),
        l2_eff,
        l1_eff,
        designed.strategy.rows(),
    );

    let selection = CachedSelection::new(Arc::new(strategy));
    // Materialise the factor and trace term now: the answer path and the
    // store both need them, and failing here (singular subspace design)
    // surfaces as a selection error instead of a late store/answer error.
    selection.factor()?;
    selection.trace_term(&subspace_gram)?;

    let total_gram_trace = gram.trace();
    // The exact captured spectral mass of the chosen subspace is
    // trace(L̃ G L̃ᵀ), not the sum of the (approximate) Ritz values: when the
    // subspace spans the workload's full column space the two differ by the
    // iteration's convergence residual, and the trace form makes the dropped
    // mass exactly zero up to rounding.
    let captured_mass = subspace_gram.trace();
    Ok(LowRankPlan::from_parts(
        basis,
        selection,
        subspace_gram,
        rank,
        total_gram_trace,
        captured_mass,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyParams;
    use mm_linalg::approx_eq;
    use mm_workload::marginal::{MarginalKind, MarginalWorkload};
    use mm_workload::prefix::PrefixWorkload;
    use mm_workload::{Domain, Workload};

    #[test]
    fn rank_deficient_workload_retains_only_the_true_rank() {
        // 1-way marginals over [4,4]: gram rank 7 < 16 cells.
        let w = MarginalWorkload::all_k_way(Domain::new(&[4, 4]), 1, MarginalKind::Point);
        let g = w.gram();
        let plan = select_low_rank(&g, 12, &EigenDesignOptions::default()).unwrap();
        assert_eq!(plan.requested_rank(), 12);
        assert_eq!(plan.retained_rank(), 7);
        assert_eq!(plan.dim(), 16);
        // The full spectrum is captured: dropped mass is numerically zero.
        assert!(
            plan.dropped_mass() < 1e-8 * plan.total_gram_trace(),
            "dropped {} of {}",
            plan.dropped_mass(),
            plan.total_gram_trace()
        );
    }

    #[test]
    fn truncation_drops_spectral_mass_monotonically() {
        let w = PrefixWorkload::new(24);
        let g = w.gram();
        let mut last = f64::INFINITY;
        for r in [2, 4, 8, 16] {
            let plan = select_low_rank(&g, r, &EigenDesignOptions::default()).unwrap();
            assert!(
                plan.dropped_mass() <= last + 1e-9,
                "rank {r} dropped {} > previous {last}",
                plan.dropped_mass()
            );
            last = plan.dropped_mass();
        }
    }

    #[test]
    fn effective_sensitivity_matches_materialised_product() {
        let w = PrefixWorkload::new(12);
        let g = w.gram();
        let plan = select_low_rank(&g, 4, &EigenDesignOptions::default()).unwrap();
        let a_sub = plan.selection().strategy().matrix().unwrap().clone();
        let full = a_sub.matmul(plan.basis()).unwrap();
        assert!(approx_eq(
            plan.selection().strategy().l2_sensitivity(),
            full.max_col_norm_l2(),
            1e-12
        ));
        assert!(approx_eq(
            plan.selection().strategy().l1_sensitivity(),
            full.max_col_norm_l1(),
            1e-12
        ));
    }

    #[test]
    fn predicted_error_is_exact_noise_error_at_zero_dropped_mass() {
        let w = MarginalWorkload::all_k_way(Domain::new(&[4, 4]), 1, MarginalKind::Point);
        let g = w.gram();
        // Requested 12 > true rank 7: the oversampled iteration resolves the
        // degenerate spectrum fully, so the dropped mass is ~0 (the sibling
        // test pins that) and the bias term must be invisible at any scale.
        let plan = select_low_rank(&g, 12, &EigenDesignOptions::default()).unwrap();
        let p = PrivacyParams::paper_default();
        let ec = p.gaussian_error_constant();
        let sens = plan.selection().strategy().l2_sensitivity();
        let m = w.query_count();
        let with_bias = plan.predicted_rms_error(m, ec, sens, 1_000.0).unwrap();
        let noise_only = plan.predicted_rms_error(m, ec, sens, 0.0).unwrap();
        // dropped mass ~ 0, so the data scale must not matter.
        assert!(
            approx_eq(with_bias, noise_only, 1e-6 * noise_only.max(1.0)),
            "with_bias {with_bias} vs noise_only {noise_only}, dropped {} of {}",
            plan.dropped_mass(),
            plan.total_gram_trace()
        );
        assert!(plan.predicted_rms_error(0, ec, sens, 0.0).is_err());
    }

    #[test]
    fn zero_gram_rejected() {
        let g = Matrix::zeros(6, 6);
        assert!(select_low_rank(&g, 3, &EigenDesignOptions::default()).is_err());
    }
}
