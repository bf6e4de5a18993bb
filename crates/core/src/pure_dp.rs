//! Optimal query weighting under standard ε-differential privacy (Sec. 3.5).
//!
//! Under pure ε-differential privacy the noise is Laplace and the sensitivity
//! is measured in L1, so the strategy `A = diag(λ) Q` built from design
//! queries `Q` has error proportional to
//!
//! ```text
//!     F(λ) = ( max_j Σᵢ λᵢ |Q_{ij}| )² · Σᵢ cᵢ / λᵢ²
//! ```
//!
//! Substituting `λ = eᵗ` makes `log F` a sum of log-sum-exp terms of affine
//! functions of `t`, hence convex, and we minimise it by gradient descent
//! with the max over columns smoothed by an annealed p-norm.  As the paper
//! observes, there is no universally good design set under L1 — the
//! eigen-queries ignore the L1 geometry — but weighting an existing basis
//! (wavelet for ranges, Fourier for marginals) improves it by the factors
//! reported in Sec. 3.5.

use crate::design_set::design_costs;
use crate::MechanismError;
use mm_linalg::{ops, Matrix};
use mm_strategies::Strategy;

/// Options for the L1 weighting solver.
#[derive(Debug, Clone)]
pub struct PureDpOptions {
    /// Maximum gradient iterations per smoothing stage.
    pub max_iters: usize,
    /// Relative improvement tolerance.
    pub tol: f64,
    /// Smoothing exponents for the max over columns.
    pub p_schedule: Vec<f64>,
}

impl Default for PureDpOptions {
    fn default() -> Self {
        PureDpOptions {
            max_iters: 400,
            tol: 1e-10,
            p_schedule: vec![16.0, 128.0, 1024.0],
        }
    }
}

/// Result of the L1 design weighting.
#[derive(Debug, Clone)]
pub struct PureDpResult {
    /// The weighted strategy (L1 sensitivity normalised to 1).
    pub strategy: Strategy,
    /// The selected weights λ (one per design query).
    pub weights: Vec<f64>,
    /// The objective `F(λ)` = (L1 sensitivity)² · trace term.
    pub objective: f64,
}

fn objective_and_gradient(
    t: &[f64],
    costs: &[f64],
    abs_design: &Matrix,
    p: f64,
) -> (f64, Vec<f64>) {
    let k = t.len();
    let n = abs_design.cols();
    let lambda: Vec<f64> = t.iter().map(|&x| x.exp()).collect();
    // Term A: log Σ c_i e^{-2 t_i}.
    let mut max_a = f64::NEG_INFINITY;
    let a: Vec<f64> = (0..k)
        .map(|i| {
            let v = if costs[i] > 0.0 {
                costs[i].ln() - 2.0 * t[i]
            } else {
                f64::NEG_INFINITY
            };
            if v > max_a {
                max_a = v;
            }
            v
        })
        .collect();
    let sum_a: f64 = a.iter().map(|&v| (v - max_a).exp()).sum();
    let term_a = max_a + sum_a.ln();
    let mut grad = vec![0.0; k];
    for i in 0..k {
        if a[i].is_finite() {
            grad[i] = -2.0 * (a[i] - max_a).exp() / sum_a;
        }
    }
    // Term B: 2 · (1/p) log Σ_j s_j^p with s_j = Σ_i λ_i |Q_ij|.
    let mut s = vec![0.0; n];
    for (i, &li) in lambda.iter().enumerate().take(k) {
        if li == 0.0 {
            continue;
        }
        let row = abs_design.row(i);
        for (j, &v) in row.iter().enumerate() {
            s[j] += li * v;
        }
    }
    let max_ls = s
        .iter()
        .filter(|&&v| v > 0.0)
        .fold(f64::NEG_INFINITY, |m, &v| m.max(v.ln()));
    let mut denom = 0.0;
    let mut weights = vec![0.0; n];
    for j in 0..n {
        if s[j] > 0.0 {
            let w = (p * (s[j].ln() - max_ls)).exp();
            weights[j] = w;
            denom += w;
        }
    }
    let term_b = 2.0 * (max_ls + denom.ln() / p);
    for j in 0..n {
        let wj = weights[j] / denom;
        if wj == 0.0 {
            continue;
        }
        for i in 0..k {
            let v = abs_design[(i, j)];
            if v == 0.0 {
                continue;
            }
            grad[i] += 2.0 * wj * lambda[i] * v / s[j];
        }
    }
    (term_a + term_b, grad)
}

/// Weights a design set for a workload under L1 sensitivity, returning a
/// strategy whose L1 sensitivity is normalised to 1.
pub fn l1_weighted_design_strategy(
    name: impl Into<String>,
    workload_gram: &Matrix,
    design: &Matrix,
    opts: &PureDpOptions,
) -> crate::Result<PureDpResult> {
    let costs = design_costs(workload_gram, design)?;
    if costs.iter().all(|&c| c <= 0.0) {
        return Err(MechanismError::InvalidArgument(
            "workload carries no mass on the design set".into(),
        ));
    }
    let abs_design = design.map(f64::abs);
    let k = design.rows();
    // Initialise with λ_i ∝ c_i^{1/3} (balances the two terms for a single
    // shared constraint), which is a reasonable scale-free starting point.
    let mut t: Vec<f64> = costs
        .iter()
        .map(|&c| {
            if c > 0.0 {
                c.max(1e-12).ln() / 3.0
            } else {
                -20.0
            }
        })
        .collect();
    for &p in &opts.p_schedule {
        let (mut f_prev, mut grad) = objective_and_gradient(&t, &costs, &abs_design, p);
        let mut step = 0.5;
        for _ in 0..opts.max_iters {
            let gnorm_sq: f64 = grad.iter().map(|g| g * g).sum();
            if gnorm_sq.sqrt() < 1e-14 {
                break;
            }
            let mut accepted = false;
            let mut local = step;
            for _ in 0..50 {
                let cand: Vec<f64> = t
                    .iter()
                    .zip(grad.iter())
                    .map(|(&ti, &gi)| ti - local * gi)
                    .collect();
                let (fc, gc) = objective_and_gradient(&cand, &costs, &abs_design, p);
                if fc <= f_prev - 0.25 * local * gnorm_sq {
                    let improvement = (f_prev - fc).abs() / (1.0 + f_prev.abs());
                    t = cand;
                    f_prev = fc;
                    grad = gc;
                    accepted = true;
                    step = (local * 1.5).min(5.0);
                    if improvement < opts.tol {
                        step = local;
                    }
                    break;
                }
                local *= 0.5;
            }
            if !accepted {
                break;
            }
        }
        let _ = k;
    }
    // Normalise to unit L1 sensitivity and assemble the explicit strategy.
    let lambda: Vec<f64> = t.iter().map(|&x| x.exp()).collect();
    let scaled = ops::scale_rows(&lambda, design)?;
    let sens = scaled.max_col_norm_l1();
    if sens <= 0.0 {
        return Err(MechanismError::InvalidArgument(
            "weighted design collapsed to zero".into(),
        ));
    }
    let normalized = scaled.scaled(1.0 / sens);
    let weights: Vec<f64> = lambda.iter().map(|&l| l / sens).collect();
    let strategy = Strategy::from_matrix(name, normalized);
    // Objective = sens² · Σ c_i / λ_i² evaluated at the normalised weights.
    let trace: f64 = costs
        .iter()
        .zip(weights.iter())
        .filter(|(_, &l)| l > 0.0)
        .map(|(&c, &l)| c / (l * l))
        .sum();
    Ok(PureDpResult {
        objective: strategy.l1_sensitivity() * strategy.l1_sensitivity() * trace,
        strategy,
        weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::rms_workload_error_l1;
    use crate::privacy::PrivacyParams;
    use mm_strategies::wavelet::{haar_matrix, wavelet_1d};
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, Workload};

    #[test]
    fn weighted_wavelet_improves_plain_wavelet_under_l1() {
        // Sec. 3.5: weighting the wavelet basis improves the all-range error
        // under epsilon-DP by a modest factor (paper reports ~1.1x).
        let w = AllRangeWorkload::new(Domain::new(&[32]));
        let g = w.gram();
        let p = PrivacyParams::pure(0.5);
        let plain = rms_workload_error_l1(&g, w.query_count(), &wavelet_1d(32), &p).unwrap();
        let weighted = l1_weighted_design_strategy(
            "l1 weighted wavelet",
            &g,
            &haar_matrix(32),
            &PureDpOptions::default(),
        )
        .unwrap();
        let err = rms_workload_error_l1(&g, w.query_count(), &weighted.strategy, &p).unwrap();
        assert!(
            err <= plain * 1.01,
            "weighted {err} should not exceed plain wavelet {plain}"
        );
        assert!(
            err >= plain * 0.5,
            "improvement should be modest, got {err} vs {plain}"
        );
    }

    #[test]
    fn l1_sensitivity_normalised() {
        let w = AllRangeWorkload::new(Domain::new(&[16]));
        let res = l1_weighted_design_strategy(
            "x",
            &w.gram(),
            &haar_matrix(16),
            &PureDpOptions::default(),
        )
        .unwrap();
        assert!((res.strategy.l1_sensitivity() - 1.0).abs() < 1e-9);
        assert!(res.objective.is_finite() && res.objective > 0.0);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let g = Matrix::zeros(4, 4);
        let design = Matrix::identity(4);
        assert!(l1_weighted_design_strategy("x", &g, &design, &PureDpOptions::default()).is_err());
    }
}
