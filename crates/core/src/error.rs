//! Analytic workload error of the (ε,δ)-matrix mechanism (Prop. 4, Def. 5).
//!
//! For a workload `W` (m queries, gram matrix `G = WᵀW`) answered with
//! strategy `A` under (ε,δ)-differential privacy, the total squared error is
//!
//! ```text
//!     TSE = P(ε,δ) · ‖A‖₂² · trace(G (AᵀA)⁻¹)
//! ```
//!
//! and the workload (root-mean-square, Def. 5) error is `√(TSE / m)`.  The
//! expression depends on the workload only through `G` and on the data not at
//! all, so it is evaluated exactly, without sampling.
//!
//! Rank-deficient strategies are handled with a tiny ridge: when `AᵀA` is not
//! positive definite the trace is computed against `(AᵀA + λI)⁻¹` with
//! `λ = RIDGE_FACTOR · max diag(AᵀA)`; when the strategy cannot answer the
//! workload at all (the workload's row space is not contained in the
//! strategy's) the resulting error is enormous, which is the correct signal.

use crate::privacy::PrivacyParams;
use mm_linalg::decomp::Cholesky;
use mm_linalg::Matrix;
use mm_strategies::Strategy;

/// Relative ridge added to `AᵀA` when it is numerically singular.
pub const RIDGE_FACTOR: f64 = 1e-10;

/// Cholesky factorization of a strategy's gram matrix `AᵀA`, with a small
/// relative ridge added when the strategy is rank deficient.  This factor is
/// what both the error formula (trace term) and the mechanism's inference
/// step consume; the engine caches it alongside the selected strategy.
pub fn strategy_factor(strategy: &Strategy) -> crate::Result<Cholesky> {
    let a_gram = strategy.gram();
    match Cholesky::new(a_gram) {
        Ok(c) => Ok(c),
        Err(_) => {
            // Relative ridge: fold from 0.0 so the scale comes from the gram
            // itself (a fold seeded at 1.0 made λ absolute for strategies
            // with max diag ≪ 1, over-regularising small-magnitude
            // strategies).  The all-zero gram keeps an absolute floor.
            let diag_max = a_gram.diag().iter().fold(0.0_f64, |m, &d| m.max(d));
            let ridge = RIDGE_FACTOR * if diag_max > 0.0 { diag_max } else { 1.0 };
            Ok(Cholesky::new_with_shift(a_gram, ridge)?)
        }
    }
}

/// `trace(G (AᵀA)⁻¹)` for a workload gram matrix `G` and a strategy.
///
/// Uses a Cholesky factorization of the strategy gram, adding a small ridge
/// when the strategy is rank deficient.  `G` must be symmetric, as every
/// gram `WᵀW` is: only its lower triangle is read (see
/// [`Cholesky::trace_of_gram_times_inverse`]).
pub fn trace_term(workload_gram: &Matrix, strategy: &Strategy) -> crate::Result<f64> {
    if workload_gram.shape() != strategy.gram().shape() {
        return Err(crate::MechanismError::InvalidArgument(format!(
            "workload gram is {:?} but strategy gram is {:?}",
            workload_gram.shape(),
            strategy.gram().shape()
        )));
    }
    trace_term_with_factor(workload_gram, &strategy_factor(strategy)?)
}

/// [`trace_term`] against a precomputed strategy-gram factor (the engine's
/// cache-hit path: no re-factorization per answer).  `G` must be symmetric.
pub fn trace_term_with_factor(workload_gram: &Matrix, factor: &Cholesky) -> crate::Result<f64> {
    Ok(factor.trace_of_gram_times_inverse(workload_gram)?)
}

/// Total squared error `P(ε,δ) · ‖A‖₂² · trace(G (AᵀA)⁻¹)` (Prop. 4, summed
/// over the workload queries rather than averaged).  `G` must be symmetric,
/// as for [`trace_term`].
pub fn total_squared_error(
    workload_gram: &Matrix,
    strategy: &Strategy,
    privacy: &PrivacyParams,
) -> crate::Result<f64> {
    let t = trace_term(workload_gram, strategy)?;
    let sens = strategy.l2_sensitivity();
    Ok(privacy.gaussian_error_constant() * sens * sens * t)
}

/// Workload (root mean square) error per Def. 5: `√(TSE / m)`.
pub fn rms_workload_error(
    workload_gram: &Matrix,
    query_count: usize,
    strategy: &Strategy,
    privacy: &PrivacyParams,
) -> crate::Result<f64> {
    if query_count == 0 {
        return Err(crate::MechanismError::InvalidArgument(
            "workload has no queries".into(),
        ));
    }
    Ok((total_squared_error(workload_gram, strategy, privacy)? / query_count as f64).sqrt())
}

/// Error of a single linear query `w` under the strategy (Def. 5): the square
/// root of `P(ε,δ) ‖A‖₂² · w (AᵀA)⁻¹ wᵀ`.
pub fn query_error(
    query: &[f64],
    strategy: &Strategy,
    privacy: &PrivacyParams,
) -> crate::Result<f64> {
    let a_gram = strategy.gram();
    if query.len() != a_gram.rows() {
        return Err(crate::MechanismError::InvalidArgument(format!(
            "query has {} coefficients but the strategy covers {} cells",
            query.len(),
            a_gram.rows()
        )));
    }
    let chol = strategy_factor(strategy)?;
    let solved = chol.solve_vec(query)?;
    let quad: f64 = query.iter().zip(solved.iter()).map(|(a, b)| a * b).sum();
    let sens = strategy.l2_sensitivity();
    Ok((privacy.gaussian_error_constant() * sens * sens * quad).sqrt())
}

/// Backend-aware analogue of [`rms_workload_error`]: the predicted RMS
/// workload error under any [`NoiseBackend`](crate::mechanism::NoiseBackend)
/// (Gaussian → Prop. 4, Laplace → the Sec. 3.5 L1 expression), evaluated
/// through the one shared formula
/// `√( c(ε,δ) · ‖A‖² · trace(WᵀW (AᵀA)⁻¹) / m )`
/// with the backend supplying the error constant `c` and sensitivity norm.
pub fn predicted_rms_error(
    workload_gram: &Matrix,
    query_count: usize,
    strategy: &Strategy,
    privacy: &PrivacyParams,
    backend: &dyn crate::mechanism::NoiseBackend,
) -> crate::Result<f64> {
    if query_count == 0 {
        return Err(crate::MechanismError::InvalidArgument(
            "workload has no queries".into(),
        ));
    }
    let t = trace_term(workload_gram, strategy)?;
    let sens = backend.sensitivity(strategy);
    let tse = backend.error_constant(privacy)? * sens * sens * t;
    Ok((tse / query_count as f64).sqrt())
}

/// ε-differential-privacy analogue of [`rms_workload_error`]: Laplace noise
/// calibrated to the L1 sensitivity (used by the Sec. 3.5 experiments).
pub fn rms_workload_error_l1(
    workload_gram: &Matrix,
    query_count: usize,
    strategy: &Strategy,
    privacy: &PrivacyParams,
) -> crate::Result<f64> {
    if query_count == 0 {
        return Err(crate::MechanismError::InvalidArgument(
            "workload has no queries".into(),
        ));
    }
    let t = trace_term(workload_gram, strategy)?;
    let sens = strategy.l1_sensitivity();
    let tse = privacy.laplace_error_constant() * sens * sens * t;
    Ok((tse / query_count as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::approx_eq;
    use mm_strategies::identity::identity_strategy;
    use mm_strategies::wavelet::wavelet_1d;
    use mm_workload::example::fig1_workload;
    use mm_workload::{IdentityWorkload, TotalWorkload, Workload};

    fn paper_privacy() -> PrivacyParams {
        PrivacyParams::paper_default()
    }

    #[test]
    fn identity_workload_identity_strategy() {
        // trace(I * I) = n, sensitivity 1: TSE = P * n, RMS = sqrt(P).
        let w = IdentityWorkload::new(16);
        let s = identity_strategy(16);
        let p = paper_privacy();
        let tse = total_squared_error(&w.gram(), &s, &p).unwrap();
        assert!(approx_eq(tse, p.gaussian_error_constant() * 16.0, 1e-9));
        let rms = rms_workload_error(&w.gram(), w.query_count(), &s, &p).unwrap();
        assert!(approx_eq(rms, p.gaussian_error_constant().sqrt(), 1e-9));
    }

    #[test]
    fn total_workload_answered_by_total_strategy() {
        // Strategy = the single total query: sensitivity 1,
        // trace(J (1ᵀ1)⁺)… with ridge handling the rank deficiency the error
        // approaches sqrt(P).
        let n = 8;
        let w = TotalWorkload::new(n);
        let total_row = Matrix::filled(1, n, 1.0);
        let s = mm_strategies::Strategy::from_matrix("total", total_row);
        let p = paper_privacy();
        let rms = rms_workload_error(&w.gram(), 1, &s, &p).unwrap();
        assert!(approx_eq(rms, p.gaussian_error_constant().sqrt(), 1e-3));
    }

    #[test]
    fn fig1_identity_vs_wavelet_ordering() {
        // The paper's Example 4: wavelet beats identity on the Fig. 1 workload.
        let w = fig1_workload();
        let p = paper_privacy();
        let id = rms_workload_error(&w.gram(), w.query_count(), &identity_strategy(8), &p).unwrap();
        let wav = rms_workload_error(&w.gram(), w.query_count(), &wavelet_1d(8), &p).unwrap();
        assert!(wav < id, "wavelet {wav} should beat identity {id}");
        // Using the workload itself as the strategy is also supported; the
        // Fig. 1 workload is rank deficient (rank 4), so its error is computed
        // against the ridge-regularised pseudo-inverse and must stay finite.
        let as_strategy =
            mm_strategies::Strategy::from_matrix("workload as strategy", w.to_matrix().unwrap());
        let own = rms_workload_error(&w.gram(), w.query_count(), &as_strategy, &p).unwrap();
        assert!(own.is_finite() && own > 0.0);
    }

    #[test]
    fn example4_error_ratios_match_paper() {
        // Example 4 reports identity error 45.36 and wavelet error 34.62 on
        // the Fig. 1 workload.  The absolute scale depends on the error
        // normalisation, but the wavelet/identity ratio (34.62/45.36 ≈ 0.763)
        // is normalisation independent; check it within 1%.  (The example's
        // "workload as strategy" figure is not compared: the Fig. 1 workload
        // is rank deficient, and its treatment as a strategy depends on the
        // pseudo-inverse convention — see fig1_identity_vs_wavelet_ordering.)
        let w = fig1_workload();
        let p = paper_privacy();
        let id = rms_workload_error(&w.gram(), 8, &identity_strategy(8), &p).unwrap();
        let wav = rms_workload_error(&w.gram(), 8, &wavelet_1d(8), &p).unwrap();
        let ratio_wav = wav / id;
        assert!(
            (ratio_wav - 34.62 / 45.36).abs() < 0.01,
            "wavelet/identity = {ratio_wav}"
        );
    }

    #[test]
    fn ridge_is_relative_for_small_magnitude_strategies() {
        // Regression: the ridge fold used to start at 1.0, so a
        // rank-deficient strategy with max diag(AᵀA) ≪ 1 got an *absolute*
        // λ = 1e-10 that dwarfed the gram and over-regularised it.  The
        // workload RMS error is invariant under strategy scaling (sensitivity
        // scales by c, (AᵀA)⁻¹ by c⁻²), so the scaled-down rank-deficient
        // strategy must predict the same error as the unscaled one.
        let n = 8;
        let w = TotalWorkload::new(n);
        let total_row = Matrix::filled(1, n, 1.0);
        let s = mm_strategies::Strategy::from_matrix("total", total_row);
        let tiny = s.scaled(1e-6).with_name("total, scaled by 1e-6");
        let p = paper_privacy();
        let reference = rms_workload_error(&w.gram(), 1, &s, &p).unwrap();
        let scaled = rms_workload_error(&w.gram(), 1, &tiny, &p).unwrap();
        assert!(
            approx_eq(scaled, reference, 1e-6 * reference),
            "scaled {scaled} vs reference {reference}"
        );
        // The all-zero gram keeps an absolute floor instead of λ = 0.
        let zero = mm_strategies::Strategy::from_matrix("zero", Matrix::zeros(2, n));
        assert!(strategy_factor(&zero).is_ok());
    }

    #[test]
    fn query_error_matches_workload_error_for_single_query() {
        let n = 8;
        let w = TotalWorkload::new(n);
        let s = wavelet_1d(n);
        let p = paper_privacy();
        let q = vec![1.0; n];
        let qe = query_error(&q, &s, &p).unwrap();
        let we = rms_workload_error(&w.gram(), 1, &s, &p).unwrap();
        assert!(approx_eq(qe, we, 1e-9));
    }

    #[test]
    fn error_scales_with_epsilon() {
        let w = IdentityWorkload::new(4);
        let s = identity_strategy(4);
        let tight = PrivacyParams::new(0.1, 1e-4);
        let loose = PrivacyParams::new(1.0, 1e-4);
        let e_tight = rms_workload_error(&w.gram(), 4, &s, &tight).unwrap();
        let e_loose = rms_workload_error(&w.gram(), 4, &s, &loose).unwrap();
        assert!(approx_eq(e_tight / e_loose, 10.0, 1e-9));
    }

    #[test]
    fn l1_error_uses_l1_sensitivity() {
        let w = fig1_workload();
        let p = PrivacyParams::pure(0.5);
        let id = rms_workload_error_l1(&w.gram(), 8, &identity_strategy(8), &p).unwrap();
        let wav = rms_workload_error_l1(&w.gram(), 8, &wavelet_1d(8), &p).unwrap();
        assert!(id.is_finite() && wav.is_finite());
        // Under L1 the wavelet's sensitivity is log(n)+1 = 4, so its advantage
        // shrinks; both should at least be positive and comparable.
        assert!(wav > 0.0 && id > 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let w = IdentityWorkload::new(4);
        let s = identity_strategy(5);
        assert!(trace_term(&w.gram(), &s).is_err());
        assert!(query_error(&[1.0; 3], &s, &paper_privacy()).is_err());
        assert!(rms_workload_error(&w.gram(), 0, &identity_strategy(4), &paper_privacy()).is_err());
    }
}
