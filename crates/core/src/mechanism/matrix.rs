//! The matrix mechanism (Prop. 3), generic over the noise backend.
//!
//! Given a full-rank strategy `A`, the mechanism (1) answers the strategy
//! queries with calibrated noise — Gaussian under (ε,δ)-privacy, Laplace under
//! pure ε-privacy, see [`NoiseBackend`] — (2) estimates the data vector by
//! least squares, `x̂ = A⁺ y`, and (3) answers every workload query from `x̂`.
//! The answers are consistent (they all derive from one estimate of the data
//! vector) and their error is governed by Prop. 4 (resp. its L1 analogue).

use crate::mechanism::backend::{GaussianBackend, NoiseBackend};
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use mm_linalg::decomp::Cholesky;
use mm_linalg::Matrix;
use mm_strategies::Strategy;
use mm_workload::Workload;
use rand::Rng;
use std::sync::Arc;

/// The matrix mechanism configured with a strategy, privacy parameters and a
/// noise backend.
#[derive(Debug, Clone)]
pub struct MatrixMechanism {
    strategy: Strategy,
    privacy: PrivacyParams,
    backend: Arc<dyn NoiseBackend>,
}

/// The result of one run of the matrix mechanism.
#[derive(Debug, Clone)]
pub struct MechanismRun {
    /// The noisy estimate `x̂` of the data vector.
    pub estimate: Vec<f64>,
    /// The noisy strategy-query answers the estimate was derived from.
    pub strategy_answers: Vec<f64>,
}

/// Least-squares estimate `x̂ = (AᵀA)⁻¹ Aᵀ y` through the strategy's
/// (pre-computed) gram matrix, with ridge fallback for rank-deficient
/// strategies.  Shared by the mechanism and the serving engine (which passes
/// a cached factor instead via [`least_squares_estimate_with_factor`]).
pub fn least_squares_estimate(strategy: &Strategy, aty: &[f64]) -> crate::Result<Vec<f64>> {
    least_squares_estimate_with_factor(&crate::error::strategy_factor(strategy)?, aty)
}

/// [`least_squares_estimate`] against a precomputed strategy-gram factor.
pub fn least_squares_estimate_with_factor(
    factor: &Cholesky,
    aty: &[f64],
) -> crate::Result<Vec<f64>> {
    Ok(factor.solve_vec(aty)?)
}

impl MatrixMechanism {
    /// Creates the mechanism with the Gaussian backend (the paper's default
    /// (ε,δ) instantiation; requires δ > 0).
    pub fn new(strategy: Strategy, privacy: PrivacyParams) -> crate::Result<Self> {
        Self::with_backend(strategy, privacy, Arc::new(GaussianBackend))
    }

    /// Creates the mechanism with an explicit noise backend.
    ///
    /// The strategy must carry an explicit matrix (strategies too large to
    /// materialise cannot be *run*, although their error can still be computed
    /// analytically), and the privacy parameters must be compatible with the
    /// backend (e.g. the Gaussian backend rejects δ = 0).
    pub fn with_backend(
        strategy: Strategy,
        privacy: PrivacyParams,
        backend: Arc<dyn NoiseBackend>,
    ) -> crate::Result<Self> {
        if strategy.matrix().is_none() {
            return Err(MechanismError::StrategyNotMaterialized(
                strategy.name().to_string(),
            ));
        }
        backend.validate(&privacy)?;
        Ok(MatrixMechanism {
            strategy,
            privacy,
            backend,
        })
    }

    /// The configured strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The privacy parameters.
    pub fn privacy(&self) -> &PrivacyParams {
        &self.privacy
    }

    /// The configured noise backend.
    pub fn backend(&self) -> &Arc<dyn NoiseBackend> {
        &self.backend
    }

    /// Runs the mechanism once: answers the strategy queries privately and
    /// derives the least-squares estimate `x̂` of the data vector.
    pub fn run<R: Rng>(&self, x: &[f64], rng: &mut R) -> crate::Result<MechanismRun> {
        let a = self
            .strategy
            .matrix()
            .expect("checked at construction time");
        if x.len() != a.cols() {
            return Err(MechanismError::InvalidArgument(format!(
                "data vector has {} cells but the strategy covers {}",
                x.len(),
                a.cols()
            )));
        }
        let scale = self
            .backend
            .noise_scale(&self.privacy, self.backend.sensitivity(&self.strategy));
        let mut y = a.matvec(x)?;
        // mm-lint: allow(charge-before-noise): one-shot mechanism run; its cost is fixed by the constructor's privacy params — the accounted path is the engine release step (engine::release), which admits the event on the ledger before it draws noise
        let noise = self.backend.sample(rng, scale, y.len());
        for (yi, ni) in y.iter_mut().zip(noise.iter()) {
            *yi += ni;
        }
        let aty = a.matvec_transposed(&y)?;
        let estimate = least_squares_estimate(&self.strategy, &aty)?;
        Ok(MechanismRun {
            estimate,
            strategy_answers: y,
        })
    }

    /// Runs the mechanism and answers every query of `workload` from the
    /// estimate, returning `(answers, run)`.
    pub fn answer_workload<R: Rng, W: Workload + ?Sized>(
        &self,
        workload: &W,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<(Vec<f64>, MechanismRun)> {
        if workload.dim() != self.strategy.dim() {
            return Err(MechanismError::InvalidArgument(format!(
                "workload covers {} cells but the strategy covers {}",
                workload.dim(),
                self.strategy.dim()
            )));
        }
        let run = self.run(x, rng)?;
        let answers = workload.evaluate(&run.estimate);
        Ok((answers, run))
    }

    /// Answers the workload of Prop. 3 directly from a query matrix `W`
    /// (`MA(W, x) = W x̂`), for callers holding an explicit matrix.
    pub fn answer_matrix<R: Rng>(
        &self,
        queries: &Matrix,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<Vec<f64>> {
        let run = self.run(x, rng)?;
        Ok(queries.matvec(&run.estimate)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::backend::LaplaceBackend;
    use mm_linalg::approx_eq;
    use mm_strategies::identity::identity_strategy;
    use mm_strategies::wavelet::wavelet_1d;
    use mm_workload::example::fig1_workload;
    use mm_workload::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_privacy() -> PrivacyParams {
        PrivacyParams::paper_default()
    }

    #[test]
    fn zero_noise_limit_recovers_exact_answers() {
        // With a huge epsilon the noise is negligible and the mechanism
        // reproduces the true workload answers.
        let w = fig1_workload();
        let x: Vec<f64> = (1..=8).map(|v| v as f64 * 10.0).collect();
        let strategy = wavelet_1d(8);
        let mech = MatrixMechanism::new(strategy, PrivacyParams::new(1e9, 1e-4)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (answers, _) = mech.answer_workload(&w, &x, &mut rng).unwrap();
        let truth = w.evaluate(&x);
        for (a, t) in answers.iter().zip(truth.iter()) {
            assert!(approx_eq(*a, *t, 1e-3), "{a} vs {t}");
        }
    }

    #[test]
    fn empirical_error_matches_analytic_prediction() {
        // Monte-Carlo RMS error over repeated runs should match Prop. 4.
        let w = fig1_workload();
        let x: Vec<f64> = vec![50.0, 10.0, 30.0, 20.0, 60.0, 25.0, 15.0, 40.0];
        let strategy = wavelet_1d(8);
        let privacy = paper_privacy();
        let predicted =
            crate::error::rms_workload_error(&w.gram(), w.query_count(), &strategy, &privacy)
                .unwrap();
        let mech = MatrixMechanism::new(strategy, privacy).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let truth = w.evaluate(&x);
        let trials = 300;
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let (answers, _) = mech.answer_workload(&w, &x, &mut rng).unwrap();
            for (a, t) in answers.iter().zip(truth.iter()) {
                total_sq += (a - t).powi(2);
            }
        }
        let empirical = (total_sq / (trials as f64 * w.query_count() as f64)).sqrt();
        assert!(
            (empirical - predicted).abs() / predicted < 0.1,
            "empirical {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn laplace_backend_empirical_error_matches_l1_prediction() {
        // The same unified path under the Laplace backend matches the Sec. 3.5
        // error expression (L1 sensitivity, constant 2/ε²).
        let w = fig1_workload();
        let x: Vec<f64> = vec![50.0, 10.0, 30.0, 20.0, 60.0, 25.0, 15.0, 40.0];
        let strategy = wavelet_1d(8);
        let privacy = PrivacyParams::pure(0.5);
        let predicted =
            crate::error::rms_workload_error_l1(&w.gram(), w.query_count(), &strategy, &privacy)
                .unwrap();
        let mech =
            MatrixMechanism::with_backend(strategy, privacy, Arc::new(LaplaceBackend)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let truth = w.evaluate(&x);
        let trials = 300;
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let (answers, _) = mech.answer_workload(&w, &x, &mut rng).unwrap();
            for (a, t) in answers.iter().zip(truth.iter()) {
                total_sq += (a - t).powi(2);
            }
        }
        let empirical = (total_sq / (trials as f64 * w.query_count() as f64)).sqrt();
        assert!(
            (empirical - predicted).abs() / predicted < 0.1,
            "empirical {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn answers_are_consistent() {
        // q3 = q1 - q2 holds exactly for the mechanism output because all
        // answers derive from a single estimate x̂.
        let w = fig1_workload();
        let x = vec![5.0; 8];
        let mech = MatrixMechanism::new(identity_strategy(8), paper_privacy()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (answers, _) = mech.answer_workload(&w, &x, &mut rng).unwrap();
        assert!(approx_eq(answers[2], answers[0] - answers[1], 1e-9));
    }

    #[test]
    fn construction_errors() {
        let s =
            mm_strategies::Strategy::from_parts("implicit", None, Matrix::identity(4), 1.0, 1.0, 4);
        assert!(MatrixMechanism::new(s, paper_privacy()).is_err());
        assert!(MatrixMechanism::new(identity_strategy(4), PrivacyParams::pure(1.0)).is_err());
        // The Laplace backend accepts pure-DP parameters.
        assert!(MatrixMechanism::with_backend(
            identity_strategy(4),
            PrivacyParams::pure(1.0),
            Arc::new(LaplaceBackend)
        )
        .is_ok());
        let mech = MatrixMechanism::new(identity_strategy(4), paper_privacy()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(mech.run(&[1.0; 3], &mut rng).is_err());
        assert!(mech
            .answer_workload(&fig1_workload(), &[1.0; 8], &mut rng)
            .is_err());
    }
}
