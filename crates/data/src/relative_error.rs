//! Monte-Carlo relative-error evaluation harness.
//!
//! Workload error (Prop. 4) is data independent, but *relative* error is not:
//! it depends on the magnitudes of the true answers.  The experiments of
//! Figs. 3(b)/3(d) therefore run the mechanism end to end on a data vector and
//! report the average relative error over all workload queries,
//!
//! ```text
//!     (1/m) Σ_i |ŵᵢ − wᵢ| / max(|wᵢ|, floor)
//! ```
//!
//! with a small floor (sanity bound) preventing division by zero on empty
//! queries, averaged over repeated noise draws.
//!
//! Every trial is one answer of the [`Engine`] the caller passes in, so the
//! harness measures exactly what the engine releases.  To measure a given
//! strategy (a prior-work baseline, or one selected on the normalised
//! workload, Sec. 3.4), pin it with a
//! [`FixedStrategySelector`](mm_core::engine::FixedStrategySelector) engine;
//! reusing that engine across a privacy sweep selects, factors and computes
//! the trace term once.

use crate::data_vector::DataVector;
use mm_core::{Engine, PrivacyParams};
use mm_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options for the relative-error harness.
#[derive(Debug, Clone)]
pub struct RelativeErrorOptions {
    /// Number of independent mechanism runs to average over.
    pub trials: usize,
    /// Relative-error floor: denominators are `max(|true answer|, floor)`.
    pub floor: f64,
    /// RNG seed (results are deterministic given the seed).
    pub seed: u64,
}

impl Default for RelativeErrorOptions {
    fn default() -> Self {
        RelativeErrorOptions {
            trials: 5,
            floor: 1.0,
            seed: 0,
        }
    }
}

/// Summary statistics of a relative-error evaluation.
#[derive(Debug, Clone)]
pub struct RelativeErrorReport {
    /// Mean relative error over queries and trials.
    pub mean: f64,
    /// Median (over queries) of the per-query mean relative error.
    pub median: f64,
    /// Number of trials.
    pub trials: usize,
    /// Number of workload queries.
    pub queries: usize,
}

/// Evaluates the average relative error of answering `workload` on `data`
/// with `engine` at `privacy`: `opts.trials` answers through
/// [`Engine::answer_with_privacy`], on one rng seeded with `opts.seed`.
///
/// The data vector is checked against the workload (and `privacy` against
/// the engine's backend) before any answer is evaluated.
pub fn average_relative_error<W: Workload + ?Sized>(
    engine: &Engine,
    workload: &W,
    data: &DataVector,
    privacy: PrivacyParams,
    opts: &RelativeErrorOptions,
) -> mm_core::Result<RelativeErrorReport> {
    if opts.trials == 0 {
        return Err(mm_core::MechanismError::InvalidArgument(
            "at least one trial is required".into(),
        ));
    }
    let x = data.counts();
    engine.admit(workload, &[x], &privacy, None)?;
    let truth = workload.evaluate(x);
    let m = truth.len();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut per_query = vec![0.0; m];
    for _ in 0..opts.trials {
        let answer = engine.answer_with_privacy(workload, privacy, x, &mut rng)?;
        for ((t, a), acc) in truth.iter().zip(&answer.answers).zip(&mut per_query) {
            *acc += (a - t).abs() / t.abs().max(opts.floor);
        }
    }
    for v in &mut per_query {
        *v /= opts.trials as f64;
    }
    let mean = per_query.iter().sum::<f64>() / m as f64;
    let mut sorted = per_query.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = if m % 2 == 1 {
        sorted[m / 2]
    } else {
        0.5 * (sorted[m / 2 - 1] + sorted[m / 2])
    };
    Ok(RelativeErrorReport {
        mean,
        median,
        trials: opts.trials,
        queries: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_histogram;
    use mm_core::engine::FixedStrategySelector;
    use mm_core::MechanismError;
    use mm_strategies::identity::identity_strategy;
    use mm_strategies::wavelet::wavelet_strategy;
    use mm_strategies::Strategy;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::Domain;

    fn small_dataset() -> DataVector {
        synthetic_histogram(&Domain::new(&[8, 8]), 100_000.0, 1.0, 3, 1)
    }

    fn fixed(strategy: Strategy) -> Engine {
        Engine::builder()
            .selector(FixedStrategySelector::new(strategy))
            .build()
            .unwrap()
    }

    #[test]
    fn relative_error_decreases_with_epsilon() {
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let engine = fixed(wavelet_strategy(data.domain()));
        let opts = RelativeErrorOptions::default();
        let loose =
            average_relative_error(&engine, &w, &data, PrivacyParams::new(2.0, 1e-4), &opts)
                .unwrap();
        let tight =
            average_relative_error(&engine, &w, &data, PrivacyParams::new(0.1, 1e-4), &opts)
                .unwrap();
        assert!(
            tight.mean > loose.mean,
            "tight {} loose {}",
            tight.mean,
            loose.mean
        );
        assert_eq!(loose.queries, w.query_count());
    }

    #[test]
    fn wavelet_beats_identity_on_ranges() {
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let p = PrivacyParams::new(0.5, 1e-4);
        let opts = RelativeErrorOptions {
            trials: 3,
            ..Default::default()
        };
        let wavelet = fixed(wavelet_strategy(data.domain()));
        let wav = average_relative_error(&wavelet, &w, &data, p, &opts).unwrap();
        let id =
            average_relative_error(&fixed(identity_strategy(64)), &w, &data, p, &opts).unwrap();
        assert!(
            wav.mean < id.mean,
            "wavelet {} vs identity {}",
            wav.mean,
            id.mean
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let p = PrivacyParams::new(0.5, 1e-4);
        let opts = RelativeErrorOptions {
            trials: 2,
            ..Default::default()
        };
        let engine = fixed(wavelet_strategy(data.domain()));
        let a = average_relative_error(&engine, &w, &data, p, &opts).unwrap();
        let b = average_relative_error(&engine, &w, &data, p, &opts).unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.median, b.median);
    }

    #[test]
    fn zero_trials_rejected() {
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let p = PrivacyParams::new(0.5, 1e-4);
        let opts = RelativeErrorOptions {
            trials: 0,
            ..Default::default()
        };
        let engine = fixed(identity_strategy(64));
        assert!(average_relative_error(&engine, &w, &data, p, &opts).is_err());
    }

    #[test]
    fn wrong_length_data_is_rejected_before_any_answer() {
        // The length is checked before the true answers are evaluated:
        // `Workload::evaluate` asserts on it and would panic.
        let data = synthetic_histogram(&Domain::one_dim(16), 1_000.0, 1.0, 3, 1);
        let w = AllRangeWorkload::new(Domain::one_dim(8));
        let engine = fixed(identity_strategy(8));
        let p = PrivacyParams::new(0.5, 1e-4);
        let err = average_relative_error(&engine, &w, &data, p, &RelativeErrorOptions::default())
            .unwrap_err();
        match err {
            MechanismError::InvalidArgument(msg) => assert_eq!(
                msg, "data vector has 16 cells but the workload covers 8",
                "{msg}"
            ),
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0, "nothing answered");
    }

    #[test]
    fn zero_noise_limit_recovers_exact_answers() {
        // At a huge ε the engine's noise is negligible, so the harness
        // measures only the least-squares round trip.
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let engine = fixed(wavelet_strategy(data.domain()));
        let opts = RelativeErrorOptions::default();
        let report =
            average_relative_error(&engine, &w, &data, PrivacyParams::new(1e9, 1e-4), &opts)
                .unwrap();
        assert!(report.mean < 1e-8, "mean relative error {}", report.mean);
        assert!(
            report.median < 1e-8,
            "median relative error {}",
            report.median
        );
    }

    #[test]
    fn a_privacy_sweep_shares_one_selection() {
        // Five ε values, two trials each, on one engine: one miss selects
        // (and factors) the strategy, the other nine answers hit the cache.
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let engine = fixed(wavelet_strategy(data.domain()));
        let opts = RelativeErrorOptions {
            trials: 2,
            ..Default::default()
        };
        for eps in [0.1, 0.25, 0.5, 1.0, 2.5] {
            average_relative_error(&engine, &w, &data, PrivacyParams::new(eps, 1e-4), &opts)
                .unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.selections, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 9);
    }

    #[test]
    fn trials_are_the_engines_answers() {
        // The harness draws no noise of its own: its per-query errors are
        // those of the engine's answers on an rng seeded with `opts.seed`.
        let data = small_dataset();
        let w = AllRangeWorkload::new(data.domain().clone());
        let engine = fixed(wavelet_strategy(data.domain()));
        let p = PrivacyParams::new(0.5, 1e-4);
        let opts = RelativeErrorOptions {
            trials: 3,
            floor: 1.0,
            seed: 17,
        };
        let report = average_relative_error(&engine, &w, &data, p, &opts).unwrap();

        let x = data.counts();
        let truth = w.evaluate(x);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut per_query = vec![0.0; truth.len()];
        for _ in 0..opts.trials {
            let answer = engine.answer_with_privacy(&w, p, x, &mut rng).unwrap();
            for ((t, a), acc) in truth.iter().zip(&answer.answers).zip(&mut per_query) {
                *acc += (a - t).abs() / t.abs().max(opts.floor);
            }
        }
        let mean = per_query
            .iter()
            .map(|v| v / opts.trials as f64)
            .sum::<f64>()
            / truth.len() as f64;
        assert_eq!(report.mean.to_bits(), mean.to_bits());
    }
}
