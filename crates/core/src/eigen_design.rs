//! The Eigen-Design algorithm (Program 2).
//!
//! 1. Diagonalise the workload gram matrix `WᵀW = Qᵀ D Q`.
//! 2. Use the eigenvectors (rows of `Q`) as the design queries and the
//!    eigenvalues as the costs of the optimal query weighting program
//!    (Program 1), dropping zero eigenvalues — they carry no workload mass.
//! 3. Assemble the strategy `A' = diag(λ) Q` from the optimal weights
//!    `λᵢ = √uᵢ` and pad low-norm columns with single-cell queries
//!    (the completion step, which cannot increase sensitivity).
//!
//! The output is representation independent (Props. 5–6): permuting the cell
//! conditions or replacing `W` by `PW` for orthogonal `P` leaves `WᵀW` — and
//! hence the selected strategy's error — unchanged.

use crate::design_set::{weighted_design_strategy_with_costs, DesignWeightingOptions};
use mm_linalg::decomp::SymmetricEigen;
use mm_linalg::Matrix;
use mm_opt::WeightingOptions;
use mm_strategies::Strategy;

/// Options for the Eigen-Design algorithm.
#[derive(Debug, Clone)]
pub struct EigenDesignOptions {
    /// Options for the weighting solver (Program 1): the certified relative
    /// duality gap at which it stops (default 1e-4).
    pub solver: WeightingOptions,
    /// Whether to apply the column-completion step (Program 2, steps 4–5).
    pub completion: bool,
    /// Eigenvalues below `rank_tol · σ₁` are treated as zero and their
    /// eigenvectors are excluded from the design set.
    pub rank_tol: f64,
}

impl Default for EigenDesignOptions {
    fn default() -> Self {
        EigenDesignOptions {
            solver: WeightingOptions::default(),
            completion: true,
            rank_tol: 1e-10,
        }
    }
}

impl EigenDesignOptions {
    /// A looser solver certificate (gap 1e-3), for callers that trade a
    /// little accuracy for speed.
    pub fn fast() -> Self {
        EigenDesignOptions {
            solver: WeightingOptions::fast(),
            ..Default::default()
        }
    }
}

/// Output of the Eigen-Design algorithm.
#[derive(Debug, Clone)]
pub struct EigenDesignResult {
    /// The selected strategy.
    pub strategy: Strategy,
    /// Eigenvalues of the workload gram matrix (descending, including zeros).
    pub eigenvalues: Vec<f64>,
    /// The squared weights assigned to the retained eigen-queries.
    pub weights_squared: Vec<f64>,
    /// The solver objective `Σ σᵢ/uᵢ` = `trace(WᵀW (A'ᵀA')⁻¹)` before completion.
    pub objective: f64,
    /// The solver's weak-duality lower bound on the optimal objective; it
    /// starts at the singular value bound of Theorem 2.
    pub dual_bound: f64,
    /// The certified relative gap `(objective − dual_bound) / objective`.
    pub gap: f64,
    /// Number of retained (nonzero-eigenvalue) eigen-queries.
    pub rank: usize,
}

/// Eigendecomposition of a workload gram matrix restricted to its nonzero
/// eigenvalues: returns `(eigenvalues_all, retained_eigenvalues, Q_retained)`
/// with `Q_retained` holding the retained eigenvectors as rows.
pub fn workload_eigensystem(
    workload_gram: &Matrix,
    rank_tol: f64,
) -> crate::Result<(Vec<f64>, Vec<f64>, Matrix)> {
    let eig = SymmetricEigen::new(workload_gram)?;
    let eigenvalues: Vec<f64> = eig
        .eigenvalues()
        .iter()
        .map(|&l| if l > 0.0 { l } else { 0.0 })
        .collect();
    let sigma1 = eigenvalues.first().copied().unwrap_or(0.0);
    if sigma1 <= 0.0 {
        return Err(crate::MechanismError::InvalidArgument(
            "workload gram matrix is zero".into(),
        ));
    }
    let retained: Vec<usize> = eigenvalues
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > rank_tol * sigma1)
        .map(|(i, _)| i)
        .collect();
    let n = workload_gram.rows();
    let mut q = Matrix::zeros(retained.len(), n);
    for (r, &idx) in retained.iter().enumerate() {
        for c in 0..n {
            q[(r, c)] = eig.eigenvectors()[(c, idx)];
        }
    }
    let retained_values: Vec<f64> = retained.iter().map(|&i| eigenvalues[i]).collect();
    Ok((eigenvalues, retained_values, q))
}

/// Runs the Eigen-Design algorithm on a workload gram matrix.
pub fn eigen_design(
    workload_gram: &Matrix,
    opts: &EigenDesignOptions,
) -> crate::Result<EigenDesignResult> {
    let (eigenvalues, retained, q) = workload_eigensystem(workload_gram, opts.rank_tol)?;
    let design_opts = DesignWeightingOptions {
        solver: opts.solver.clone(),
        completion: opts.completion,
    };
    let rank = retained.len();
    let result = weighted_design_strategy_with_costs(
        format!("eigen-design (rank {rank})"),
        &q,
        retained,
        &design_opts,
    )?;
    Ok(EigenDesignResult {
        strategy: result.strategy,
        eigenvalues,
        weights_squared: result.weights_squared,
        objective: result.objective,
        dual_bound: result.dual_bound,
        gap: result.gap,
        rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{rms_error_bound, workload_eigenvalues};
    use crate::error::rms_workload_error;
    use crate::privacy::PrivacyParams;
    use mm_linalg::approx_eq;
    use mm_strategies::hierarchical::binary_hierarchical_1d;
    use mm_strategies::identity::identity_strategy;
    use mm_strategies::wavelet::wavelet_1d;
    use mm_workload::example::fig1_workload;
    use mm_workload::marginal::{MarginalKind, MarginalWorkload};
    use mm_workload::prefix::PrefixWorkload;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::transform::{seeded_permutation, PermutedWorkload};
    use mm_workload::{Domain, IdentityWorkload, Workload};

    fn paper_privacy() -> PrivacyParams {
        PrivacyParams::paper_default()
    }

    fn eigen_error<W: Workload>(w: &W) -> (f64, f64) {
        let g = w.gram();
        let p = paper_privacy();
        let res = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let err = rms_workload_error(&g, w.query_count(), &res.strategy, &p).unwrap();
        let bound = rms_error_bound(&workload_eigenvalues(&g).unwrap(), w.query_count(), &p);
        (err, bound)
    }

    #[test]
    fn identity_workload_is_solved_optimally() {
        let w = IdentityWorkload::new(16);
        let (err, bound) = eigen_error(&w);
        assert!(err <= bound * 1.01, "err {err} vs bound {bound}");
    }

    #[test]
    fn fig1_example_matches_paper_example4() {
        // Example 4: the adaptive strategy error (29.79) is ~1.02x the lower
        // bound (29.18) and clearly below wavelet (34.62) and identity (45.36).
        let w = fig1_workload();
        let g = w.gram();
        let p = paper_privacy();
        let res = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let adaptive = rms_workload_error(&g, 8, &res.strategy, &p).unwrap();
        let wavelet = rms_workload_error(&g, 8, &wavelet_1d(8), &p).unwrap();
        let identity = rms_workload_error(&g, 8, &identity_strategy(8), &p).unwrap();
        let bound = rms_error_bound(&workload_eigenvalues(&g).unwrap(), 8, &p);
        assert!(
            adaptive < wavelet,
            "adaptive {adaptive} < wavelet {wavelet}"
        );
        assert!(wavelet < identity);
        assert!(adaptive >= bound * 0.999);
        // The paper observes a ratio of 29.79/29.18 ≈ 1.021 to the bound.
        assert!(
            adaptive / bound < 1.05,
            "adaptive/bound = {} should be close to the paper's 1.02",
            adaptive / bound
        );
    }

    #[test]
    fn range_workload_beats_wavelet_and_hierarchical() {
        let domain = Domain::new(&[32]);
        let w = AllRangeWorkload::new(domain);
        let g = w.gram();
        let p = paper_privacy();
        let res = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let eigen = rms_workload_error(&g, w.query_count(), &res.strategy, &p).unwrap();
        let wavelet = rms_workload_error(&g, w.query_count(), &wavelet_1d(32), &p).unwrap();
        let hier =
            rms_workload_error(&g, w.query_count(), &binary_hierarchical_1d(32), &p).unwrap();
        assert!(
            eigen <= wavelet * 1.001,
            "eigen {eigen} vs wavelet {wavelet}"
        );
        assert!(
            eigen <= hier * 1.001,
            "eigen {eigen} vs hierarchical {hier}"
        );
        // Theorem-3 sanity: within 1.3x of the lower bound, as observed in the paper.
        let bound = rms_error_bound(&workload_eigenvalues(&g).unwrap(), w.query_count(), &p);
        assert!(
            eigen / bound <= 1.3,
            "approximation ratio {}",
            eigen / bound
        );
    }

    #[test]
    fn marginal_workload_reaches_the_bound() {
        // The paper reports that for marginal workloads the eigen-design error
        // matches the lower bound.
        let d = Domain::new(&[4, 4, 2]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let (err, bound) = eigen_error(&w);
        assert!(err / bound <= 1.05, "ratio {}", err / bound);
    }

    #[test]
    fn permutation_invariance() {
        // Prop. 5: the eigen-design error is identical for semantically
        // equivalent (cell-permuted) workloads.
        let base = AllRangeWorkload::new(Domain::new(&[16]));
        let g = base.gram();
        let p = paper_privacy();
        let res = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let err = rms_workload_error(&g, base.query_count(), &res.strategy, &p).unwrap();

        let perm = seeded_permutation(16, 99);
        let permuted = PermutedWorkload::new(AllRangeWorkload::new(Domain::new(&[16])), perm);
        let gp = permuted.gram();
        let resp = eigen_design(&gp, &EigenDesignOptions::default()).unwrap();
        let errp = rms_workload_error(&gp, permuted.query_count(), &resp.strategy, &p).unwrap();
        assert!(
            (err - errp).abs() / err < 5e-3,
            "permuted {errp} vs original {err}"
        );
    }

    #[test]
    fn rank_deficient_workload_handled() {
        // 1-way marginals over [4,4]: rank 7 < 16 cells.
        let d = Domain::new(&[4, 4]);
        let w = MarginalWorkload::all_k_way(d, 1, MarginalKind::Point);
        let g = w.gram();
        let res = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        assert!(res.rank < 16);
        let p = paper_privacy();
        let err = rms_workload_error(&g, w.query_count(), &res.strategy, &p).unwrap();
        assert!(err.is_finite() && err > 0.0);
    }

    #[test]
    fn objective_matches_trace_identity() {
        // For the pre-completion strategy the solver objective equals
        // Σ σᵢ/uᵢ; check it is consistent with the reported weights.
        let w = PrefixWorkload::new(12);
        let g = w.gram();
        let res = eigen_design(
            &g,
            &EigenDesignOptions {
                completion: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, retained, _) = workload_eigensystem(&g, 1e-10).unwrap();
        let manual: f64 = retained
            .iter()
            .zip(res.weights_squared.iter())
            .filter(|(_, &u)| u > 0.0)
            .map(|(&s, &u)| s / u)
            .sum();
        assert!(approx_eq(manual, res.objective, 1e-6));
    }

    #[test]
    fn fast_options_stay_close_to_default() {
        let w = AllRangeWorkload::new(Domain::new(&[16]));
        let g = w.gram();
        let p = paper_privacy();
        let slow = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let fast = eigen_design(&g, &EigenDesignOptions::fast()).unwrap();
        let e_slow = rms_workload_error(&g, w.query_count(), &slow.strategy, &p).unwrap();
        let e_fast = rms_workload_error(&g, w.query_count(), &fast.strategy, &p).unwrap();
        assert!(e_fast <= e_slow * 1.10, "fast {e_fast} vs default {e_slow}");
    }

    #[test]
    fn zero_gram_rejected() {
        let g = Matrix::zeros(4, 4);
        assert!(eigen_design(&g, &EigenDesignOptions::default()).is_err());
    }
}
