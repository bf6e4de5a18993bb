//! Noise backends: one answer path for the (ε,δ)-Gaussian and ε-Laplace
//! matrix mechanisms.
//!
//! The two instantiations of the matrix mechanism differ only in three
//! places — which sensitivity norm governs the strategy (L2 vs. L1, Prop. 1),
//! how the noise scale is calibrated (Prop. 2 vs. the Laplace mechanism), and
//! the per-unit-sensitivity noise variance entering the error formula
//! (`P(ε,δ) = 2 ln(2/δ)/ε²` vs. `2/ε²`, Prop. 4 / Sec. 3.5).  A
//! [`NoiseBackend`] packages those three choices, and the sampler, behind an
//! object-safe trait so that the serving [`Engine`](crate::engine::Engine)'s
//! one release step runs either mechanism, and callers can swap backends
//! with one builder call.  That release step is the only production caller
//! of [`NoiseBackend::sample`]: it checks the ledger before the draw and
//! charges it after inference.

use crate::accounting::MechanismEvent;
use crate::mechanism::noise::{gaussian_noise, laplace_noise};
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use mm_strategies::Strategy;
use rand::RngCore;
use std::sync::Arc;

/// A differential-privacy noise distribution plus its calibration rules.
///
/// Object safe: engines hold `Arc<dyn NoiseBackend>` and swap implementations
/// at build time.  Sampling takes `&mut dyn RngCore` so the trait stays object
/// safe; generic callers pass any sized [`rand::Rng`].
pub trait NoiseBackend: std::fmt::Debug + Send + Sync {
    /// Backend name for reports and errors (`"gaussian"`, `"laplace"`).
    fn name(&self) -> &'static str;

    /// Checks that the privacy parameters are usable with this backend.
    fn validate(&self, privacy: &PrivacyParams) -> crate::Result<()>;

    /// The sensitivity of a strategy under this backend's norm (Prop. 1).
    fn sensitivity(&self, strategy: &Strategy) -> f64;

    /// Picks this backend's sensitivity from precomputed (L2, L1) column
    /// norms — the matrix-free analogue of [`NoiseBackend::sensitivity`] for
    /// strategies that never materialise a [`Strategy`] (structured
    /// operators carry both norms instead).  The default is the L2 norm
    /// (the Gaussian calibration); the Laplace backend overrides it with L1.
    fn sensitivity_from_norms(&self, l2: f64, l1: f64) -> f64 {
        let _ = l1;
        l2
    }

    /// The noise scale for a query set of the given sensitivity (σ for the
    /// Gaussian mechanism, b for Laplace).
    fn noise_scale(&self, privacy: &PrivacyParams, sensitivity: f64) -> f64;

    /// Per-query noise variance at unit sensitivity: the constant multiplying
    /// `‖A‖² · trace(WᵀW (AᵀA)⁻¹)` in the total-squared-error formula.
    fn error_constant(&self, privacy: &PrivacyParams) -> crate::Result<f64>;

    /// Samples `len` independent noise values at the given scale.
    fn sample(&self, rng: &mut dyn RngCore, scale: f64, len: usize) -> Vec<f64>;

    /// The accounting event describing one release of this backend at the
    /// given privacy parameters on a query set of the given sensitivity
    /// (under this backend's norm) — what a budgeted
    /// [`Session`](crate::engine::Session) records on its ledger.
    ///
    /// The default returns a [*declared*](MechanismEvent::declared) event
    /// (just the requested (ε, δ), composed sequentially by every
    /// accountant) — the only sound answer for a backend the accountants
    /// know nothing about.  The Gaussian and Laplace backends override it
    /// with their actual noise scale and sensitivity so the RDP accountant
    /// can apply the per-mechanism curves.
    fn mechanism_event(&self, privacy: &PrivacyParams, sensitivity: f64) -> MechanismEvent {
        let _ = sensitivity;
        MechanismEvent::declared(*privacy)
    }
}

/// The (ε,δ) Gaussian backend (Prop. 2): L2 sensitivity, noise
/// `σ = Δ₂ √(2 ln(2/δ))/ε`, error constant `P(ε,δ)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianBackend;

impl NoiseBackend for GaussianBackend {
    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn validate(&self, privacy: &PrivacyParams) -> crate::Result<()> {
        if !privacy.is_approximate() {
            return Err(MechanismError::IncompatibleBackend(
                "the Gaussian backend requires delta > 0 (use the Laplace backend for pure \
                 epsilon-differential privacy)"
                    .into(),
            ));
        }
        Ok(())
    }

    fn sensitivity(&self, strategy: &Strategy) -> f64 {
        strategy.l2_sensitivity()
    }

    fn noise_scale(&self, privacy: &PrivacyParams, sensitivity: f64) -> f64 {
        privacy.gaussian_sigma(sensitivity)
    }

    fn error_constant(&self, privacy: &PrivacyParams) -> crate::Result<f64> {
        self.validate(privacy)?;
        Ok(privacy.gaussian_error_constant())
    }

    fn sample(&self, rng: &mut dyn RngCore, scale: f64, len: usize) -> Vec<f64> {
        gaussian_noise(rng, scale, len)
    }

    fn mechanism_event(&self, privacy: &PrivacyParams, sensitivity: f64) -> MechanismEvent {
        if sensitivity > 0.0 && sensitivity.is_finite() && privacy.is_approximate() {
            MechanismEvent::gaussian(*privacy, privacy.gaussian_sigma(sensitivity), sensitivity)
        } else {
            // Degenerate strategies (zero sensitivity) add no calibrated
            // noise; fall back to the declared guarantee.
            MechanismEvent::declared(*privacy)
        }
    }
}

/// The ε-Laplace backend: L1 sensitivity, noise scale `b = Δ₁/ε`, error
/// constant `2/ε²` (Sec. 3.5).  Valid for any δ (the Laplace mechanism
/// satisfies pure ε-differential privacy, which implies (ε,δ)-privacy).
#[derive(Debug, Clone, Copy, Default)]
pub struct LaplaceBackend;

impl NoiseBackend for LaplaceBackend {
    fn name(&self) -> &'static str {
        "laplace"
    }

    fn validate(&self, _privacy: &PrivacyParams) -> crate::Result<()> {
        Ok(())
    }

    fn sensitivity(&self, strategy: &Strategy) -> f64 {
        strategy.l1_sensitivity()
    }

    fn sensitivity_from_norms(&self, l2: f64, l1: f64) -> f64 {
        let _ = l2;
        l1
    }

    fn noise_scale(&self, privacy: &PrivacyParams, sensitivity: f64) -> f64 {
        privacy.laplace_scale(sensitivity)
    }

    fn error_constant(&self, privacy: &PrivacyParams) -> crate::Result<f64> {
        Ok(privacy.laplace_error_constant())
    }

    fn sample(&self, rng: &mut dyn RngCore, scale: f64, len: usize) -> Vec<f64> {
        laplace_noise(rng, scale, len)
    }

    fn mechanism_event(&self, privacy: &PrivacyParams, sensitivity: f64) -> MechanismEvent {
        if sensitivity > 0.0 && sensitivity.is_finite() {
            MechanismEvent::laplace(*privacy, privacy.laplace_scale(sensitivity), sensitivity)
        } else {
            MechanismEvent::declared(*privacy)
        }
    }
}

/// The natural backend for the given parameters: Gaussian when δ > 0,
/// Laplace for pure ε-differential privacy.
pub fn default_backend(privacy: &PrivacyParams) -> Arc<dyn NoiseBackend> {
    if privacy.is_approximate() {
        Arc::new(GaussianBackend)
    } else {
        Arc::new(LaplaceBackend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::approx_eq;
    use mm_strategies::wavelet::wavelet_1d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_rejects_pure_dp() {
        let b = GaussianBackend;
        assert!(b.validate(&PrivacyParams::pure(1.0)).is_err());
        assert!(b.validate(&PrivacyParams::paper_default()).is_ok());
        assert!(b.error_constant(&PrivacyParams::pure(1.0)).is_err());
    }

    #[test]
    fn laplace_accepts_any_privacy() {
        let b = LaplaceBackend;
        assert!(b.validate(&PrivacyParams::pure(1.0)).is_ok());
        assert!(b.validate(&PrivacyParams::paper_default()).is_ok());
    }

    #[test]
    fn sensitivities_use_the_right_norm() {
        let w = wavelet_1d(8);
        assert!(approx_eq(
            GaussianBackend.sensitivity(&w),
            w.l2_sensitivity(),
            1e-12
        ));
        assert!(approx_eq(
            LaplaceBackend.sensitivity(&w),
            w.l1_sensitivity(),
            1e-12
        ));
    }

    #[test]
    fn sensitivity_from_norms_picks_the_backend_norm() {
        let w = wavelet_1d(8);
        let (l2, l1) = (w.l2_sensitivity(), w.l1_sensitivity());
        // The norm-pair path must agree bit for bit with the Strategy path.
        assert_eq!(
            GaussianBackend.sensitivity_from_norms(l2, l1).to_bits(),
            GaussianBackend.sensitivity(&w).to_bits()
        );
        assert_eq!(
            LaplaceBackend.sensitivity_from_norms(l2, l1).to_bits(),
            LaplaceBackend.sensitivity(&w).to_bits()
        );
    }

    #[test]
    fn error_constants_match_privacy_module() {
        let p = PrivacyParams::paper_default();
        assert!(approx_eq(
            GaussianBackend.error_constant(&p).unwrap(),
            p.gaussian_error_constant(),
            1e-12
        ));
        assert!(approx_eq(
            LaplaceBackend.error_constant(&p).unwrap(),
            p.laplace_error_constant(),
            1e-12
        ));
    }

    #[test]
    fn sample_variances_match_scales() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 100_000;
        let g = GaussianBackend.sample(&mut rng, 2.0, n);
        let var_g: f64 = g.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var_g - 4.0).abs() / 4.0 < 0.05, "gaussian var {var_g}");
        let l = LaplaceBackend.sample(&mut rng, 2.0, n);
        let var_l: f64 = l.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var_l - 8.0).abs() / 8.0 < 0.05, "laplace var {var_l}");
    }

    #[test]
    fn default_backend_follows_delta() {
        assert_eq!(
            default_backend(&PrivacyParams::paper_default()).name(),
            "gaussian"
        );
        assert_eq!(default_backend(&PrivacyParams::pure(0.5)).name(), "laplace");
    }
}
