//! The Laplace mechanism (for standard ε-differential privacy).

use crate::mechanism::noise::laplace_noise;
use crate::privacy::PrivacyParams;
use crate::sensitivity::l1_sensitivity;
use mm_linalg::Matrix;
use rand::Rng;

/// The Laplace mechanism: answers a query matrix by adding independent
/// Laplace noise calibrated to its L1 sensitivity.
#[derive(Debug, Clone)]
pub struct LaplaceMechanism {
    privacy: PrivacyParams,
}

impl LaplaceMechanism {
    /// Creates the mechanism for the given ε (δ is ignored by the Laplace
    /// mechanism, which satisfies pure ε-differential privacy).
    pub fn new(privacy: PrivacyParams) -> Self {
        LaplaceMechanism { privacy }
    }

    /// The privacy parameters.
    pub fn privacy(&self) -> &PrivacyParams {
        &self.privacy
    }

    /// Answers `W x` with independent Laplace noise scaled to `‖W‖₁ / ε`.
    pub fn answer<R: Rng + ?Sized>(
        &self,
        queries: &Matrix,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<Vec<f64>> {
        let true_answers = queries.matvec(x)?;
        let b = self.privacy.laplace_scale(l1_sensitivity(queries));
        // mm-lint: allow(charge-before-noise): one-shot mechanism whose entire cost is the constructor's epsilon; ledger-tracked callers go through the engine release step (engine::release)
        let noise = laplace_noise(rng, b, true_answers.len());
        Ok(true_answers
            .into_iter()
            .zip(noise)
            .map(|(a, n)| a + n)
            .collect())
    }

    /// The Laplace scale used for a query matrix.
    pub fn scale_for(&self, queries: &Matrix) -> f64 {
        self.privacy.laplace_scale(l1_sensitivity(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_variance_matches_scale() {
        let queries = Matrix::identity(32);
        let x = vec![5.0; 32];
        let mech = LaplaceMechanism::new(PrivacyParams::pure(0.5));
        let mut rng = StdRng::seed_from_u64(11);
        let mut sq = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let noisy = mech.answer(&queries, &x, &mut rng).unwrap();
            for (noisy_v, true_v) in noisy.iter().zip(x.iter()) {
                sq += (noisy_v - true_v).powi(2);
            }
        }
        let mse = sq / (trials as f64 * 32.0);
        let b = mech.scale_for(&queries);
        assert!(
            (mse - 2.0 * b * b).abs() / (2.0 * b * b) < 0.1,
            "mse {mse} vs 2b^2 {}",
            2.0 * b * b
        );
    }

    #[test]
    fn scale_uses_l1_sensitivity() {
        let mech = LaplaceMechanism::new(PrivacyParams::pure(1.0));
        let two_ones = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(mech.scale_for(&two_ones), 2.0);
    }
}
