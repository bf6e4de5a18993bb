//! Eigen-query separation (Sec. 4.2).
//!
//! Instead of optimizing all `n` eigen-query weights jointly, the eigen-queries
//! are partitioned into groups of a chosen size by descending eigenvalue.
//! Program 1 is solved within each group independently, and a second, much
//! smaller weighting problem then assigns one scale factor per group.  With
//! group size `≈ n^{1/3}` the total complexity drops to `O(n³)` while the
//! error stays within a few percent of the full Eigen-Design strategy
//! (Fig. 4 of the paper).

use crate::design_set::build_weighted_strategy;
use crate::eigen_design::workload_eigensystem;
use mm_linalg::Matrix;
use mm_opt::{solve_weighting, WeightingOptions, WeightingProblem};
use mm_strategies::Strategy;

/// Options for eigen-query separation.
#[derive(Debug, Clone)]
pub struct SeparationOptions {
    /// Number of eigen-queries per group.
    pub group_size: usize,
    /// Solver options for the per-group and combining problems: the
    /// certified relative duality gap at which each solve stops (1e-3 by
    /// default here, [`WeightingOptions::fast`]).
    pub solver: WeightingOptions,
    /// Whether to apply the column-completion step to the final strategy.
    pub completion: bool,
    /// Relative eigenvalue cutoff, as in the full Eigen-Design algorithm.
    pub rank_tol: f64,
}

impl SeparationOptions {
    /// Default options with the given group size.
    pub fn with_group_size(group_size: usize) -> Self {
        SeparationOptions {
            group_size,
            solver: WeightingOptions::fast(),
            completion: true,
            rank_tol: 1e-10,
        }
    }

    /// The asymptotically optimal group size `⌈n^{1/3}⌉` for an `n`-cell workload.
    pub fn recommended_group_size(n: usize) -> usize {
        (n as f64).cbrt().ceil().max(1.0) as usize
    }
}

/// Result of the eigen-query separation strategy selection.
#[derive(Debug, Clone)]
pub struct SeparationResult {
    /// The selected strategy.
    pub strategy: Strategy,
    /// Final squared weights per retained eigen-query.
    pub weights_squared: Vec<f64>,
    /// Number of groups used.
    pub groups: usize,
}

/// Runs strategy selection with eigen-query separation on a workload gram matrix.
pub fn eigen_separation(
    workload_gram: &Matrix,
    opts: &SeparationOptions,
) -> crate::Result<SeparationResult> {
    if opts.group_size == 0 {
        return Err(crate::MechanismError::InvalidArgument(
            "group size must be positive".into(),
        ));
    }
    let (_, sigma, q) = workload_eigensystem(workload_gram, opts.rank_tol)?;
    let k = sigma.len();
    let n = workload_gram.rows();
    let group_size = opts.group_size.min(k);
    let num_groups = k.div_ceil(group_size);

    // Stage 1: optimal weights within each group (eigen-queries are ordered by
    // descending eigenvalue, so groups are contiguous index ranges).
    let mut within = vec![0.0; k];
    let mut group_cost = vec![0.0; num_groups]; // C_g = Σ σ_i / u_i^(g)
    let mut group_profiles: Vec<Vec<f64>> = Vec::with_capacity(num_groups); // per-cell squared norms
    for (g, cost_slot) in group_cost.iter_mut().enumerate() {
        let lo = g * group_size;
        let hi = ((g + 1) * group_size).min(k);
        let rows: Vec<usize> = (lo..hi).collect();
        let q_group = q.select_rows(&rows)?;
        let costs: Vec<f64> = sigma[lo..hi].to_vec();
        let problem = WeightingProblem::from_design_queries(&q_group, costs.clone())?;
        let sol = solve_weighting(&problem, &opts.solver)?;
        let mut cost_g = 0.0;
        for (idx, &u) in sol.u.iter().enumerate() {
            within[lo + idx] = u;
            if u > 0.0 {
                cost_g += costs[idx] / u;
            }
        }
        *cost_slot = cost_g;
        // Per-cell squared column norm contributed by this group at unit scale.
        let mut profile = vec![0.0; n];
        for (idx, &u) in sol.u.iter().enumerate() {
            if u == 0.0 {
                continue;
            }
            let row = q_group.row(idx);
            for (j, &v) in row.iter().enumerate() {
                profile[j] += u * v * v;
            }
        }
        group_profiles.push(profile);
    }

    // Stage 2: one scale factor per group.  This is again a weighting problem:
    // minimise Σ_g C_g / γ_g subject to Σ_g γ_g · profile_g[cell] ≤ 1.
    let constraint = Matrix::from_fn(n, num_groups, |cell, g| group_profiles[g][cell]);
    let combine = WeightingProblem::new(group_cost, constraint)?;
    let gamma = solve_weighting(&combine, &opts.solver)?;

    // Final weights.
    let mut weights = vec![0.0; k];
    for g in 0..num_groups {
        let lo = g * group_size;
        let hi = ((g + 1) * group_size).min(k);
        for i in lo..hi {
            weights[i] = within[i] * gamma.u[g];
        }
    }
    let strategy = build_weighted_strategy(
        format!("eigen-separation (group size {group_size})"),
        &q,
        &weights,
        opts.completion,
    )?;
    Ok(SeparationResult {
        strategy,
        weights_squared: weights,
        groups: num_groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen_design::{eigen_design, EigenDesignOptions};
    use crate::error::rms_workload_error;
    use crate::privacy::PrivacyParams;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, Workload};

    #[test]
    fn separation_close_to_full_eigen_design() {
        let w = AllRangeWorkload::new(Domain::new(&[32]));
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let full = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let full_err = rms_workload_error(&g, w.query_count(), &full.strategy, &p).unwrap();
        for group_size in [4usize, 8, 16] {
            let sep =
                eigen_separation(&g, &SeparationOptions::with_group_size(group_size)).unwrap();
            let err = rms_workload_error(&g, w.query_count(), &sep.strategy, &p).unwrap();
            assert!(
                err <= full_err * 1.25,
                "group size {group_size}: separation error {err} vs full {full_err}"
            );
            assert!(
                err >= full_err * 0.999,
                "separation cannot beat the joint optimum"
            );
        }
    }

    #[test]
    fn single_group_equals_full_algorithm() {
        let w = AllRangeWorkload::new(Domain::new(&[16]));
        let g = w.gram();
        let p = PrivacyParams::paper_default();
        let mut opts = SeparationOptions::with_group_size(16);
        opts.solver = mm_opt::WeightingOptions::default();
        let sep = eigen_separation(&g, &opts).unwrap();
        let full = eigen_design(&g, &EigenDesignOptions::default()).unwrap();
        let e1 = rms_workload_error(&g, w.query_count(), &sep.strategy, &p).unwrap();
        let e2 = rms_workload_error(&g, w.query_count(), &full.strategy, &p).unwrap();
        assert!((e1 - e2).abs() / e2 < 0.02, "{e1} vs {e2}");
        assert_eq!(sep.groups, 1);
    }

    #[test]
    fn recommended_group_size() {
        assert_eq!(SeparationOptions::recommended_group_size(8192), 21);
        assert_eq!(SeparationOptions::recommended_group_size(1), 1);
    }

    #[test]
    fn zero_group_size_rejected() {
        let g = Matrix::identity(4);
        assert!(eigen_separation(&g, &SeparationOptions::with_group_size(0)).is_err());
    }
}
