//! The Gaussian mechanism (Prop. 2).

use crate::mechanism::noise::gaussian_noise;
use crate::privacy::PrivacyParams;
use crate::sensitivity::l2_sensitivity;
use mm_linalg::Matrix;
use rand::Rng;

/// The Gaussian mechanism: answers a query matrix by adding independent
/// Gaussian noise calibrated to its L2 sensitivity.
#[derive(Debug, Clone)]
pub struct GaussianMechanism {
    privacy: PrivacyParams,
}

impl GaussianMechanism {
    /// Creates the mechanism for the given (ε,δ) parameters, rejecting
    /// δ = 0 with a typed error (the Gaussian mechanism only yields
    /// approximate DP).
    pub fn try_new(privacy: PrivacyParams) -> crate::Result<Self> {
        if !privacy.is_approximate() {
            return Err(crate::MechanismError::InvalidArgument(
                "the Gaussian mechanism requires delta > 0".into(),
            ));
        }
        Ok(GaussianMechanism { privacy })
    }

    /// Creates the mechanism for the given (ε,δ) parameters (δ must be > 0);
    /// panics otherwise.  See [`GaussianMechanism::try_new`] for the
    /// non-panicking form.
    pub fn new(privacy: PrivacyParams) -> Self {
        match GaussianMechanism::try_new(privacy) {
            Ok(mechanism) => mechanism,
            Err(e) => panic!("{e}"),
        }
    }

    /// The privacy parameters.
    pub fn privacy(&self) -> &PrivacyParams {
        &self.privacy
    }

    /// Answers `W x` with independent Gaussian noise scaled to `‖W‖₂`.
    pub fn answer<R: Rng + ?Sized>(
        &self,
        queries: &Matrix,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<Vec<f64>> {
        let true_answers = queries.matvec(x)?;
        let sigma = self.privacy.gaussian_sigma(l2_sensitivity(queries));
        // mm-lint: allow(charge-before-noise): one-shot mechanism whose entire cost is the constructor's (epsilon, delta); ledger-tracked callers go through the engine release step (engine::release)
        let noise = gaussian_noise(rng, sigma, true_answers.len());
        Ok(true_answers
            .into_iter()
            .zip(noise)
            .map(|(a, n)| a + n)
            .collect())
    }

    /// The per-query noise standard deviation used for a query matrix.
    pub fn sigma_for(&self, queries: &Matrix) -> f64 {
        self.privacy.gaussian_sigma(l2_sensitivity(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn answers_have_expected_noise_scale() {
        let queries = Matrix::identity(64);
        let x = vec![10.0; 64];
        let mech = GaussianMechanism::new(PrivacyParams::new(1.0, 1e-4));
        let mut rng = StdRng::seed_from_u64(7);
        let mut sq_err = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let noisy = mech.answer(&queries, &x, &mut rng).unwrap();
            for (noisy_v, true_v) in noisy.iter().zip(x.iter()) {
                sq_err += (noisy_v - true_v).powi(2);
            }
        }
        let mse = sq_err / (trials as f64 * 64.0);
        let sigma = mech.sigma_for(&queries);
        assert!(
            (mse - sigma * sigma).abs() / (sigma * sigma) < 0.1,
            "mse {mse} vs sigma^2 {}",
            sigma * sigma
        );
    }

    #[test]
    fn higher_sensitivity_means_more_noise() {
        let mech = GaussianMechanism::new(PrivacyParams::paper_default());
        let small = Matrix::identity(4);
        let large = Matrix::filled(4, 4, 1.0);
        assert!(mech.sigma_for(&large) > mech.sigma_for(&small));
    }

    #[test]
    #[should_panic(expected = "delta > 0")]
    fn pure_dp_rejected() {
        GaussianMechanism::new(PrivacyParams::pure(1.0));
    }
}
