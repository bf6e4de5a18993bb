//! Principal-vector optimization (Sec. 4.2).
//!
//! Only the `k` eigen-queries with the largest eigenvalues receive individual
//! weights; all remaining eigen-queries with nonzero eigenvalue share a single
//! common weight.  The weighting problem then has `k + 1` variables, reducing
//! the solve to `O(n k³)` while — experimentally — 10% of the eigenvectors is
//! enough to stay close to the full Eigen-Design error (Fig. 4).

use crate::design_set::build_weighted_strategy;
use crate::eigen_design::workload_eigensystem;
use mm_linalg::Matrix;
use mm_opt::{solve_weighting, WeightingOptions, WeightingProblem};
use mm_strategies::Strategy;

/// Options for the principal-vector optimization.
#[derive(Debug, Clone)]
pub struct PrincipalOptions {
    /// Number of leading eigen-queries that receive individual weights.
    pub principal_count: usize,
    /// Solver options: the certified relative duality gap at which the
    /// weighting solve stops (1e-3 by default here,
    /// [`WeightingOptions::fast`]).
    pub solver: WeightingOptions,
    /// Whether to apply the column-completion step.
    pub completion: bool,
    /// Relative eigenvalue cutoff.
    pub rank_tol: f64,
}

impl PrincipalOptions {
    /// Default options with the given number of principal vectors.
    pub fn with_principal_count(principal_count: usize) -> Self {
        PrincipalOptions {
            principal_count,
            solver: WeightingOptions::fast(),
            completion: true,
            rank_tol: 1e-10,
        }
    }
}

/// Result of the principal-vector strategy selection.
#[derive(Debug, Clone)]
pub struct PrincipalResult {
    /// The selected strategy.
    pub strategy: Strategy,
    /// Final squared weights per retained eigen-query.
    pub weights_squared: Vec<f64>,
    /// The common squared weight shared by the non-principal eigen-queries.
    pub common_weight_squared: f64,
    /// Number of principal vectors actually used.
    pub principal_count: usize,
}

/// Runs strategy selection with the principal-vector optimization.
pub fn principal_vectors(
    workload_gram: &Matrix,
    opts: &PrincipalOptions,
) -> crate::Result<PrincipalResult> {
    if opts.principal_count == 0 {
        return Err(crate::MechanismError::InvalidArgument(
            "principal_count must be positive".into(),
        ));
    }
    let (_, sigma, q) = workload_eigensystem(workload_gram, opts.rank_tol)?;
    let k = sigma.len();
    let n = workload_gram.rows();
    let p = opts.principal_count.min(k);

    if p == k {
        // Degenerates to the full algorithm.
        let problem = WeightingProblem::from_design_queries(&q, sigma.clone())?;
        let sol = solve_weighting(&problem, &opts.solver)?;
        let strategy = build_weighted_strategy(
            format!("principal-vectors (all {k})"),
            &q,
            &sol.u,
            opts.completion,
        )?;
        return Ok(PrincipalResult {
            strategy,
            weights_squared: sol.u,
            common_weight_squared: 0.0,
            principal_count: p,
        });
    }

    // Reduced problem: p individual variables + 1 shared variable.
    // Costs: σ_1..σ_p and Σ_{i>p} σ_i.
    let mut costs: Vec<f64> = sigma[..p].to_vec();
    costs.push(sigma[p..].iter().sum());
    // Constraints per cell: Σ_{i<=p} u_i Q_ij² + u_common Σ_{i>p} Q_ij² <= 1.
    let constraint = Matrix::from_fn(n, p + 1, |cell, var| {
        if var < p {
            let v = q[(var, cell)];
            v * v
        } else {
            (p..k).map(|i| q[(i, cell)] * q[(i, cell)]).sum()
        }
    });
    let problem = WeightingProblem::new(costs, constraint)?;
    let sol = solve_weighting(&problem, &opts.solver)?;
    let common = sol.u[p];
    let mut weights = vec![0.0; k];
    weights[..p].copy_from_slice(&sol.u[..p]);
    for w in weights.iter_mut().take(k).skip(p) {
        *w = common;
    }
    let strategy = build_weighted_strategy(
        format!("principal-vectors ({p} of {k})"),
        &q,
        &weights,
        opts.completion,
    )?;
    Ok(PrincipalResult {
        strategy,
        weights_squared: weights,
        common_weight_squared: common,
        principal_count: p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen_design::{eigen_design, EigenDesignOptions};
    use crate::error::rms_workload_error;
    use crate::privacy::PrivacyParams;
    use mm_workload::marginal::{MarginalKind, MarginalWorkload};
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, Workload};

    #[test]
    fn principal_vectors_close_to_full_on_ranges() {
        let w = AllRangeWorkload::new(Domain::new(&[32]));
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let full = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let full_err = rms_workload_error(&g, w.query_count(), &full.strategy, &p).unwrap();
        for count in [4usize, 8, 16] {
            let pr = principal_vectors(&g, &PrincipalOptions::with_principal_count(count)).unwrap();
            let err = rms_workload_error(&g, w.query_count(), &pr.strategy, &p).unwrap();
            assert!(
                err <= full_err * 1.25,
                "{count} principal vectors: {err} vs full {full_err}"
            );
        }
    }

    #[test]
    fn all_vectors_matches_full_algorithm() {
        let w = AllRangeWorkload::new(Domain::new(&[16]));
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let mut opts = PrincipalOptions::with_principal_count(16);
        opts.solver = mm_opt::WeightingOptions::default();
        let pr = principal_vectors(&g, &opts).unwrap();
        let full = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let e1 = rms_workload_error(&g, w.query_count(), &pr.strategy, &p).unwrap();
        let e2 = rms_workload_error(&g, w.query_count(), &full.strategy, &p).unwrap();
        assert!((e1 - e2).abs() / e2 < 0.02);
        assert_eq!(pr.principal_count, 16);
        assert_eq!(pr.common_weight_squared, 0.0);
    }

    #[test]
    fn works_on_marginal_workloads() {
        // The paper notes principal vectors work particularly well on marginals.
        let d = Domain::new(&[4, 4, 4]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let full = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let full_err = rms_workload_error(&g, w.query_count(), &full.strategy, &p).unwrap();
        let pr = principal_vectors(&g, &PrincipalOptions::with_principal_count(6)).unwrap();
        let err = rms_workload_error(&g, w.query_count(), &pr.strategy, &p).unwrap();
        assert!(err <= full_err * 1.15, "{err} vs {full_err}");
    }

    #[test]
    fn zero_principal_count_rejected() {
        let g = Matrix::identity(4);
        assert!(principal_vectors(&g, &PrincipalOptions::with_principal_count(0)).is_err());
    }
}
