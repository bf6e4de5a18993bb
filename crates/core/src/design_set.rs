//! Optimal query weighting over an arbitrary design set (Program 1).
//!
//! Given a fixed set of *design queries* `Q` (one row per design query) and a
//! workload `W`, Theorem 1 reduces the best weighted strategy
//! `A = diag(λ) Q` to the convex weighting problem solved by `mm-opt`, with
//! per-design-query costs `cᵢ = ‖column i of W Q⁺‖₂²`.  This module computes
//! those costs from the workload's gram matrix (never materialising `W`),
//! invokes the certified dual-ascent solver ([`mm_opt::solve_weighting`]),
//! and assembles the resulting strategy, including the
//! column-completion step of Program 2 (steps 4–5) which pads low-norm columns
//! with extra single-cell queries at no sensitivity cost.
//!
//! The Eigen-Design algorithm is the special case where `Q` holds the
//! eigenvectors of `WᵀW`; Fig. 5 of the paper compares it against using the
//! wavelet or Fourier matrices as the design set, which this module supports
//! directly.

use crate::MechanismError;
use mm_linalg::decomp::Cholesky;
use mm_linalg::{ops, Matrix};
use mm_opt::{solve_weighting, WeightingOptions, WeightingProblem};
use mm_strategies::strategy::EXPLICIT_ENTRY_LIMIT;
use mm_strategies::Strategy;

/// Options for design-set weighting.
#[derive(Debug, Clone)]
pub struct DesignWeightingOptions {
    /// Options for the weighting solver: the relative duality gap at which
    /// it stops (default 1e-4).
    pub solver: WeightingOptions,
    /// Whether to apply the column-completion step (Program 2, steps 4–5).
    pub completion: bool,
}

impl Default for DesignWeightingOptions {
    fn default() -> Self {
        DesignWeightingOptions {
            solver: WeightingOptions::default(),
            completion: true,
        }
    }
}

/// Result of weighting a design set for a workload.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The assembled strategy (weighted design queries plus completion rows).
    pub strategy: Strategy,
    /// The squared weights `u` returned by the solver (one per design query).
    pub weights_squared: Vec<f64>,
    /// The solver objective `Σ cᵢ/uᵢ`, i.e. `trace(WᵀW (A'ᵀA')⁻¹)` for the
    /// pre-completion strategy with unit sensitivity.
    pub objective: f64,
    /// The solver's weak-duality lower bound on the optimal objective.
    pub dual_bound: f64,
    /// The certified relative gap `(objective − dual_bound) / objective`.
    pub gap: f64,
    /// The per-design-query costs `cᵢ`.
    pub costs: Vec<f64>,
}

/// Computes the Theorem-1 costs `cᵢ = ‖column i of W Q⁺‖₂²` from the
/// workload's gram matrix: `cᵢ = (Q⁺ᵀ (WᵀW) Q⁺)ᵢᵢ`.
///
/// `design` must have full row rank (design queries must be linearly
/// independent), which holds for all design sets used in the paper
/// (eigenvectors, wavelet, Fourier bases).
pub fn design_costs(workload_gram: &Matrix, design: &Matrix) -> crate::Result<Vec<f64>> {
    if design.cols() != workload_gram.rows() {
        return Err(MechanismError::InvalidArgument(format!(
            "design queries cover {} cells but the workload covers {}",
            design.cols(),
            workload_gram.rows()
        )));
    }
    // S = Q Qᵀ (k×k), R = Q G Qᵀ (k×k), M = S⁻¹ R S⁻¹, costs = diag(M).
    let s = ops::outer_gram(design);
    let qg = ops::matmul(design, workload_gram)?;
    let r = ops::matmul_a_bt(&qg, design)?;
    let s_inv = Cholesky::new(&s)
        .map_err(|_| {
            MechanismError::InvalidArgument(
                "design queries must be linearly independent (Q Qᵀ is singular)".into(),
            )
        })?
        .inverse();
    let m = ops::matmul(&ops::matmul(&s_inv, &r)?, &s_inv)?;
    Ok(m.diag())
}

/// Builds the strategy `A = [diag(√u) Q ; D']` for the given squared weights,
/// where `D'` is the Program-2 completion that pads every column up to the
/// maximum column norm.  Returns the strategy together with its exact gram
/// matrix and sensitivity.
pub fn build_weighted_strategy(
    name: impl Into<String>,
    design: &Matrix,
    weights_squared: &[f64],
    completion: bool,
) -> crate::Result<Strategy> {
    if design.rows() != weights_squared.len() {
        return Err(MechanismError::InvalidArgument(format!(
            "{} design queries but {} weights",
            design.rows(),
            weights_squared.len()
        )));
    }
    let n = design.cols();
    // Gram of the weighted design rows.
    let mut gram = ops::congruence_diag(design, weights_squared)?;
    let mut col_sq: Vec<f64> = gram.diag();
    let max_sq = col_sq.iter().fold(0.0_f64, |m, &v| m.max(v));
    if max_sq <= 0.0 {
        return Err(MechanismError::InvalidArgument(
            "all design-query weights are zero".into(),
        ));
    }
    // Completion rows: one single-cell query per column whose norm is below
    // the maximum, with coefficient sqrt(max - col).
    let mut completion_coeffs = vec![0.0; n];
    if completion {
        for (j, c) in completion_coeffs.iter_mut().enumerate() {
            let deficit = max_sq - col_sq[j];
            if deficit > 1e-12 * max_sq {
                *c = deficit.sqrt();
                gram[(j, j)] += deficit;
                col_sq[j] = max_sq;
            }
        }
    }
    let sensitivity = max_sq.sqrt();

    // Explicit matrix: active weighted design rows plus nonzero completion rows.
    let active_rows: Vec<usize> = weights_squared
        .iter()
        .enumerate()
        .filter(|(_, &u)| u > 0.0)
        .map(|(i, _)| i)
        .collect();
    let extra_rows = completion_coeffs.iter().filter(|&&c| c > 0.0).count();
    let total_rows = active_rows.len() + extra_rows;
    let matrix = if total_rows.saturating_mul(n) <= EXPLICIT_ENTRY_LIMIT {
        let mut m = Matrix::zeros(total_rows, n);
        for (r, &i) in active_rows.iter().enumerate() {
            let w = weights_squared[i].sqrt();
            let src = design.row(i);
            let dst = m.row_mut(r);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = w * s;
            }
        }
        let mut r = active_rows.len();
        for (j, &c) in completion_coeffs.iter().enumerate() {
            if c > 0.0 {
                m[(r, j)] = c;
                r += 1;
            }
        }
        Some(m)
    } else {
        None
    };
    // L1 sensitivity: maximum column L1 norm of the assembled strategy.
    let l1 = match &matrix {
        Some(m) => m.max_col_norm_l1(),
        None => {
            // Compute from the weighted design rows without materialising.
            let mut col_l1 = completion_coeffs.clone();
            for &i in &active_rows {
                let w = weights_squared[i].sqrt();
                for (j, &v) in design.row(i).iter().enumerate() {
                    col_l1[j] += (w * v).abs();
                }
            }
            col_l1.into_iter().fold(0.0_f64, f64::max)
        }
    };
    Ok(Strategy::from_parts(
        name,
        matrix,
        gram,
        sensitivity,
        l1,
        total_rows,
    ))
}

/// Runs Program 1 for the workload (given by its gram matrix) over an
/// arbitrary design set, returning the assembled strategy.
pub fn weighted_design_strategy(
    name: impl Into<String>,
    workload_gram: &Matrix,
    design: &Matrix,
    opts: &DesignWeightingOptions,
) -> crate::Result<DesignResult> {
    let costs = design_costs(workload_gram, design)?;
    weighted_design_strategy_with_costs(name, design, costs, opts)
}

/// Variant of [`weighted_design_strategy`] for callers that already know the
/// costs (the Eigen-Design algorithm passes the workload eigenvalues).
pub fn weighted_design_strategy_with_costs(
    name: impl Into<String>,
    design: &Matrix,
    costs: Vec<f64>,
    opts: &DesignWeightingOptions,
) -> crate::Result<DesignResult> {
    let problem = WeightingProblem::from_design_queries(design, costs.clone())?;
    let solution = solve_weighting(&problem, &opts.solver)?;
    let strategy = build_weighted_strategy(name, design, &solution.u, opts.completion)?;
    Ok(DesignResult {
        strategy,
        weights_squared: solution.u,
        objective: solution.objective,
        dual_bound: solution.dual_bound,
        gap: solution.gap,
        costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::rms_workload_error;
    use crate::privacy::PrivacyParams;
    use mm_linalg::approx_eq;
    use mm_strategies::wavelet::{haar_matrix, wavelet_1d};
    use mm_workload::example::fig1_workload;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, IdentityWorkload, Workload};

    #[test]
    fn design_costs_identity_design() {
        // With Q = I, costs are the diagonal of the workload gram.
        let w = fig1_workload();
        let g = w.gram();
        let costs = design_costs(&g, &Matrix::identity(8)).unwrap();
        for (c, d) in costs.iter().zip(g.diag().iter()) {
            assert!(approx_eq(*c, *d, 1e-9));
        }
    }

    #[test]
    fn design_costs_orthonormal_rows_are_rayleigh_quotients() {
        // For orthonormal design rows Q, cost_i = q_i G q_iᵀ.
        let w = IdentityWorkload::new(4);
        let q = Matrix::from_rows(&[vec![0.5, 0.5, 0.5, 0.5], vec![0.5, 0.5, -0.5, -0.5]]).unwrap();
        let costs = design_costs(&w.gram(), &q).unwrap();
        assert!(approx_eq(costs[0], 1.0, 1e-9));
        assert!(approx_eq(costs[1], 1.0, 1e-9));
    }

    #[test]
    fn weighting_wavelet_design_improves_on_plain_wavelet() {
        // Weighting the wavelet rows for the all-range workload can only help
        // (the unweighted wavelet is in the feasible set).
        let domain = Domain::new(&[16]);
        let w = AllRangeWorkload::new(domain);
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let plain = rms_workload_error(&g, w.query_count(), &wavelet_1d(16), &p).unwrap();
        let weighted = weighted_design_strategy(
            "weighted wavelet",
            &g,
            &haar_matrix(16),
            &DesignWeightingOptions::default(),
        )
        .unwrap();
        let err = rms_workload_error(&g, w.query_count(), &weighted.strategy, &p).unwrap();
        assert!(
            err <= plain * 1.001,
            "weighted wavelet {err} should not exceed plain wavelet {plain}"
        );
    }

    #[test]
    fn completion_never_increases_error() {
        let w = fig1_workload();
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let design = haar_matrix(8);
        let with =
            weighted_design_strategy("with", &g, &design, &DesignWeightingOptions::default())
                .unwrap();
        let without = weighted_design_strategy(
            "without",
            &g,
            &design,
            &DesignWeightingOptions {
                completion: false,
                ..Default::default()
            },
        )
        .unwrap();
        let e_with = rms_workload_error(&g, 8, &with.strategy, &p).unwrap();
        let e_without = rms_workload_error(&g, 8, &without.strategy, &p).unwrap();
        assert!(e_with <= e_without * 1.0001);
        // Completion keeps the sensitivity unchanged.
        assert!(approx_eq(
            with.strategy.l2_sensitivity(),
            without.strategy.l2_sensitivity(),
            1e-9
        ));
    }

    #[test]
    fn strategy_sensitivity_is_normalised() {
        let w = fig1_workload();
        let res = weighted_design_strategy(
            "w",
            &w.gram(),
            &haar_matrix(8),
            &DesignWeightingOptions::default(),
        )
        .unwrap();
        assert!(approx_eq(res.strategy.l2_sensitivity(), 1.0, 1e-6));
        // Explicit matrix agrees with the stored gram and sensitivity.
        let m = res.strategy.matrix().unwrap();
        assert!(approx_eq(m.max_col_norm_l2(), 1.0, 1e-6));
        let g = ops::gram(m);
        for i in 0..8 {
            for j in 0..8 {
                assert!(approx_eq(g[(i, j)], res.strategy.gram()[(i, j)], 1e-8));
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = Matrix::identity(4);
        assert!(design_costs(&g, &Matrix::identity(5)).is_err());
        assert!(build_weighted_strategy("x", &Matrix::identity(4), &[1.0; 3], true).is_err());
        assert!(build_weighted_strategy("x", &Matrix::identity(4), &[0.0; 4], true).is_err());
    }
}
