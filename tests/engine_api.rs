//! Integration tests for the `Engine`/`Session` API: pluggable selection,
//! strategy caching, noise backends and privacy-budget accounting, exercised
//! through the `adaptive-dp` facade exactly as an application would.

use adaptive_dp::core::engine::{
    DesignSetSelector, Engine, EngineAnswer, FixedStrategySelector, PrivacyBudget, PureDpSelector,
};
use adaptive_dp::core::error::{rms_workload_error, rms_workload_error_l1};
use adaptive_dp::core::OwnedSession;
use adaptive_dp::core::{GaussianBackend, LaplaceBackend, MechanismError, PrivacyParams};
use adaptive_dp::linalg::approx_eq;
use adaptive_dp::strategies::hierarchical::binary_hierarchical_1d;
use adaptive_dp::workload::fingerprint::workload_fingerprint;
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::{Domain, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn range_workload(n: usize) -> AllRangeWorkload {
    AllRangeWorkload::new(Domain::one_dim(n))
}

/// A cache hit returns the identical strategy object that a fresh selection
/// produced, and the fingerprint is deterministic across separately
/// constructed (but semantically equal) workloads.
#[test]
fn cache_hit_returns_identical_strategy() {
    let engine = Engine::new(PrivacyParams::paper_default());
    let w1 = range_workload(32);
    let w2 = range_workload(32); // separately constructed, same workload

    let (fresh, fp1, hit1) = engine.select(&w1).unwrap();
    assert!(!hit1);
    let (cached, fp2, hit2) = engine.select(&w2).unwrap();
    assert!(hit2, "semantically equal workload must hit the cache");
    assert_eq!(fp1, fp2);
    assert_eq!(fp1, workload_fingerprint(&w1));
    assert!(
        Arc::ptr_eq(&fresh, &cached),
        "cache returns the same Arc, not a re-selection"
    );
    assert_eq!(engine.stats().selections, 1);

    // The cached strategy answers with exactly the fresh strategy's error.
    let p = PrivacyParams::paper_default();
    let e1 = rms_workload_error(&w1.gram(), w1.query_count(), &fresh, &p).unwrap();
    let e2 = rms_workload_error(&w2.gram(), w2.query_count(), &cached, &p).unwrap();
    assert!(approx_eq(e1, e2, 1e-15));
}

/// Repeated answers on the same workload never re-run selection; answers on a
/// new workload do.
#[test]
fn answer_skips_selection_on_repeat() {
    let engine = Engine::new(PrivacyParams::paper_default());
    let w = range_workload(16);
    let x: Vec<f64> = (0..16).map(|i| 3.0 * i as f64 + 1.0).collect();
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..5 {
        let ans = engine.answer(&w, &x, &mut rng).unwrap();
        assert_eq!(ans.cache_hit, i > 0);
    }
    assert_eq!(engine.stats().selections, 1);
    assert_eq!(engine.stats().cache_hits, 4);

    let other = range_workload(8);
    engine.answer(&other, &[1.0; 8], &mut rng).unwrap();
    assert_eq!(engine.stats().selections, 2);
}

/// Session budget arithmetic under repeated answers, and `BudgetExhausted`
/// surfacing with the exact remaining budget.
#[test]
fn session_budget_accounting() {
    let p = PrivacyParams::new(0.5, 1e-4);
    let engine = Engine::builder().privacy(p).build().unwrap();
    let w = range_workload(16);
    let x: Vec<f64> = vec![10.0; 16];
    let mut rng = StdRng::seed_from_u64(3);

    // Budget for exactly three answers at (0.5, 1e-4).
    let mut session = engine.session(PrivacyBudget::new(1.5, 3e-4));
    for i in 1..=3 {
        let ans: EngineAnswer = session.answer(&w, &x, &mut rng).unwrap();
        assert_eq!(ans.answers.len(), w.query_count());
        assert!(approx_eq(
            session.ledger().spent().epsilon,
            0.5 * i as f64,
            1e-12
        ));
        assert!(approx_eq(
            session.ledger().spent().delta,
            1e-4 * i as f64,
            1e-15
        ));
    }
    assert!(approx_eq(session.remaining().epsilon, 0.0, 1e-9));

    // The fourth answer fails closed with the typed error...
    let err = session.answer(&w, &x, &mut rng).unwrap_err();
    match err {
        MechanismError::BudgetExhausted {
            requested_epsilon,
            remaining_epsilon,
            ..
        } => {
            assert!(approx_eq(requested_epsilon, 0.5, 1e-12));
            assert!(remaining_epsilon < 1e-6);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    // ...and spends nothing.
    assert_eq!(session.ledger().charges().len(), 3);

    // Per-call privacy override: a smaller charge still fits a fresh session.
    let mut small = engine.session(PrivacyBudget::new(0.2, 1e-4));
    assert!(small
        .answer_with_privacy(&w, PrivacyParams::new(0.2, 1e-5), &x, &mut rng)
        .is_ok());
    assert!(small
        .answer_with_privacy(&w, PrivacyParams::new(0.2, 1e-5), &x, &mut rng)
        .is_err());
}

/// Gaussian and Laplace backends both satisfy the Prop. 4 predicted-error
/// check (regression for the unified answer path): Monte-Carlo RMS error over
/// repeated runs matches the analytic prediction of each backend's formula.
#[test]
fn both_backends_match_predicted_error() {
    let w = range_workload(8);
    let x: Vec<f64> = vec![40.0, 10.0, 25.0, 5.0, 60.0, 15.0, 30.0, 20.0];
    let truth = w.evaluate(&x);
    let gram = w.gram();
    let m = w.query_count();

    // Fix the strategy (hierarchical) so the analytic reference is external
    // to the engine: Prop. 4 for Gaussian, the Sec. 3.5 L1 form for Laplace.
    let strategy = binary_hierarchical_1d(8);
    let gaussian_p = PrivacyParams::new(1.0, 1e-4);
    let laplace_p = PrivacyParams::pure(1.0);
    let reference_gaussian = rms_workload_error(&gram, m, &strategy, &gaussian_p).unwrap();
    let reference_laplace = rms_workload_error_l1(&gram, m, &strategy, &laplace_p).unwrap();

    let gaussian_engine = Engine::builder()
        .privacy(gaussian_p)
        .selector(FixedStrategySelector::new(strategy.clone()))
        .backend(GaussianBackend)
        .build()
        .unwrap();
    let laplace_engine = Engine::builder()
        .privacy(laplace_p)
        .selector(FixedStrategySelector::new(strategy))
        .backend(LaplaceBackend)
        .build()
        .unwrap();

    for (engine, reference, seed) in [
        (&gaussian_engine, reference_gaussian, 7u64),
        (&laplace_engine, reference_laplace, 8u64),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 250;
        let mut sq = 0.0;
        let mut predicted = 0.0;
        for _ in 0..trials {
            let ans = engine.answer(&w, &x, &mut rng).unwrap();
            predicted = ans.expected_rms_error;
            for (a, t) in ans.answers.iter().zip(truth.iter()) {
                sq += (a - t).powi(2);
            }
        }
        assert!(
            approx_eq(predicted, reference, 1e-9),
            "{}: engine prediction {predicted} vs analytic reference {reference}",
            engine.backend().name()
        );
        let empirical = (sq / (trials as f64 * truth.len() as f64)).sqrt();
        assert!(
            (empirical - predicted).abs() / predicted < 0.12,
            "{}: empirical {empirical} vs predicted {predicted}",
            engine.backend().name()
        );
    }
}

/// The engine supports at least three selector families through the same
/// `answer` call (acceptance criterion): Eigen-Design, a weighted design-set
/// basis, and the pure-DP L1 weighting.
#[test]
fn three_selector_families_answer_through_one_call() {
    let w = range_workload(16);
    let x: Vec<f64> = (0..16).map(|i| 5.0 + i as f64).collect();
    let engines = [
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .unwrap(), // eigen-design (default selector)
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .selector(DesignSetSelector::wavelet())
            .build()
            .unwrap(),
        Engine::builder()
            .privacy(PrivacyParams::pure(0.5))
            .selector(PureDpSelector::wavelet())
            .backend(LaplaceBackend)
            .build()
            .unwrap(),
    ];
    for engine in &engines {
        let mut rng = StdRng::seed_from_u64(9);
        let ans = engine.answer(&w, &x, &mut rng).unwrap();
        assert_eq!(ans.answers.len(), w.query_count());
        assert!(ans.expected_rms_error.is_finite() && ans.expected_rms_error > 0.0);
        // Second answer is served from cache in every configuration.
        assert!(engine.answer(&w, &x, &mut rng).unwrap().cache_hit);
    }
}

/// N threads hammering one `Arc<Engine>` over a mixed workload set: stats
/// stay coherent, single-flight runs the selector exactly once per distinct
/// fingerprint, and every thread receives byte-identical strategies.
#[test]
fn concurrent_serving_is_single_flight_with_coherent_stats() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    // Mixed working set: four distinct workloads (four distinct fingerprints)
    // that comfortably fit the cache, so no eviction can force re-selection.
    let sizes: &[usize] = &[8, 12, 16, 24];
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .cache_capacity(64)
            .build()
            .unwrap(),
    );

    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // All threads start at once so cold misses on the same
                // fingerprint really race (the single-flight case).
                barrier.wait();
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    for &n in sizes {
                        let w = range_workload(n);
                        let x: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
                        let ans = engine.answer(&w, &x, &mut rng).unwrap();
                        assert_eq!(ans.answers.len(), w.query_count());
                        seen.push((ans.fingerprint, ans.strategy));
                    }
                }
                seen
            })
        })
        .collect();
    let per_thread: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Single-flight: one selection per distinct fingerprint, regardless of
    // thread count; every other lookup was served from cache or a shared
    // in-flight selection.
    let stats = engine.stats();
    assert_eq!(
        stats.selections,
        sizes.len() as u64,
        "single-flight must select once per distinct workload fingerprint"
    );
    assert!(
        stats.selections <= stats.cache_misses,
        "selections {} > misses {}",
        stats.selections,
        stats.cache_misses
    );
    let total_calls = (THREADS * ROUNDS * sizes.len()) as u64;
    assert_eq!(stats.cache_hits + stats.cache_misses, total_calls);

    // Byte-identical strategies across threads: group by fingerprint and
    // compare the exact matrix bits against the first thread's strategy.
    let reference: std::collections::HashMap<_, _> = per_thread[0]
        .iter()
        .map(|(fp, s)| (*fp, Arc::clone(s)))
        .collect();
    for seen in &per_thread {
        for (fp, strategy) in seen {
            let reference = &reference[fp];
            assert!(
                Arc::ptr_eq(strategy, reference),
                "cache must hand every thread the same strategy object"
            );
            let a = strategy.matrix().unwrap().as_slice();
            let b = reference.matrix().unwrap().as_slice();
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "strategies must be byte-identical across threads"
            );
        }
    }
}

/// LRU keeps a hot workload resident under a churning cold stream that the
/// old FIFO policy (eviction in insertion order, blind to use) evicted it
/// from: with capacity 4 and >4 cold insertions, FIFO would have dropped the
/// hot entry, forcing a re-selection.
#[test]
fn lru_keeps_hot_workload_resident_under_cold_churn() {
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .cache_capacity(4)
        .cache_shards(1) // one shard ⇒ globally exact LRU order
        .build()
        .unwrap();
    let hot = range_workload(16);
    let (_, _, hit) = engine.select(&hot).unwrap();
    assert!(!hit);

    let cold_sizes: Vec<usize> = (2..=32).filter(|&n| n != 16).collect();
    assert!(
        cold_sizes.len() > 4 * 4,
        "stream must overflow capacity often"
    );
    for &n in &cold_sizes {
        // Serve the hot workload between cold ones: under LRU this refreshes
        // its recency, so the cold stream evicts other cold entries instead.
        assert!(
            engine.select(&hot).unwrap().2,
            "hot workload evicted after cold size {n}"
        );
        engine.select(&range_workload(n)).unwrap();
    }
    assert!(engine.select(&hot).unwrap().2);
    // The hot workload was selected exactly once in its lifetime.
    assert_eq!(
        engine.stats().selections,
        1 + cold_sizes.len() as u64,
        "hot workload must never be re-selected"
    );
}

/// Owned sessions move into threads, charge their own ledgers, and share the
/// engine's strategy cache through the `Arc`.
#[test]
fn owned_sessions_serve_concurrently_with_independent_budgets() {
    const THREADS: usize = 4;
    let p = PrivacyParams::new(0.5, 1e-4);
    let engine = Arc::new(Engine::builder().privacy(p).build().unwrap());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut session: OwnedSession = engine.owned_session(PrivacyBudget::new(1.0, 1e-3));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(50 + t as u64);
                let w = range_workload(16);
                let x = vec![7.0; 16];
                session.answer(&w, &x, &mut rng).unwrap();
                session.answer(&w, &x, &mut rng).unwrap();
                // Each session's budget is its own: two answers exhaust ε.
                assert!(matches!(
                    session.answer(&w, &x, &mut rng).unwrap_err(),
                    MechanismError::BudgetExhausted { .. }
                ));
                session.ledger().charges().len()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 2);
    }
    // One workload, many sessions and threads: selection still ran once.
    assert_eq!(engine.stats().selections, 1);
}

/// Batched answering serves many databases under one workload for one cache
/// lookup, and sessions charge the batch per vector.
#[test]
fn answer_batch_amortises_and_sessions_charge_per_vector() {
    let engine = Engine::new(PrivacyParams::paper_default());
    let w = range_workload(16);
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|k| (0..16).map(|i| (k + i) as f64).collect())
        .collect();
    let mut rng = StdRng::seed_from_u64(31);
    let answers = engine.answer_batch(&w, &xs, &mut rng).unwrap();
    assert_eq!(answers.len(), xs.len());
    assert_eq!(engine.stats().cache_hits + engine.stats().cache_misses, 1);
    assert_eq!(engine.stats().selections, 1);
    for ans in &answers {
        assert!(Arc::ptr_eq(&ans.strategy, &answers[0].strategy));
    }

    // Session batch: budget for 8 vectors at the engine's default ε = 0.5.
    let mut session = engine.session(PrivacyBudget::new(4.0, 1e-2));
    let batched = session.answer_batch(&w, &xs, &mut rng).unwrap();
    assert_eq!(batched.len(), 8);
    assert_eq!(session.ledger().charges().len(), 8);
    assert!(approx_eq(session.ledger().spent().epsilon, 4.0, 1e-9));
    // A second batch does not fit and spends nothing (all-or-nothing).
    assert!(session.answer_batch(&w, &xs, &mut rng).is_err());
    assert_eq!(session.ledger().charges().len(), 8);
}

/// The vectorised batch path is an implementation detail: answering a batch
/// through the facade is byte-identical to answering its vectors one by one
/// on the same seeded rng, and the empty batch is a charge-free no-op.
#[test]
fn batched_answers_equal_sequential_answers_through_facade() {
    let w = range_workload(16);
    let xs: Vec<Vec<f64>> = (0..5)
        .map(|k| (0..16).map(|i| ((k * 7 + i * 3) % 23) as f64).collect())
        .collect();
    let engine = Engine::new(PrivacyParams::paper_default());
    engine.select(&w).unwrap();

    let mut rng = StdRng::seed_from_u64(77);
    let batched = engine.answer_batch(&w, &xs, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    for (k, x) in xs.iter().enumerate() {
        let single = engine.answer(&w, x, &mut rng).unwrap();
        for (a, b) in single.answers.iter().zip(batched[k].answers.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "vector {k}");
        }
    }

    // Empty batch: succeeds, answers nothing, charges nothing.
    let mut session = engine.session(PrivacyBudget::new(1.0, 1e-3));
    let none: &[Vec<f64>] = &[];
    assert!(session.answer_batch(&w, none, &mut rng).unwrap().is_empty());
    assert_eq!(session.ledger().charges().len(), 0);
    // K = 1 batch charges exactly once.
    session.answer_batch(&w, &xs[..1], &mut rng).unwrap();
    assert_eq!(session.ledger().charges().len(), 1);
}

/// The `low_rank` builder knob: rank 0 fails at build time, the rank is
/// visible through the accessor, a truncating rank mixes the plan
/// fingerprint and yields a `LowRank` plan, sessions answer (and charge)
/// through it, and the per-kind stats counters split dense from low-rank.
#[test]
fn low_rank_knob_dispatches_and_counts_per_plan_kind() {
    use adaptive_dp::core::PlanKind;

    assert!(matches!(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .low_rank(0)
            .build(),
        Err(MechanismError::InvalidArgument(_))
    ));

    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .low_rank(8)
        .build()
        .unwrap();
    assert_eq!(engine.low_rank_rank(), Some(8));

    let w = range_workload(24);
    let x: Vec<f64> = (0..24).map(|i| 20.0 + i as f64).collect();
    let mut rng = StdRng::seed_from_u64(13);
    let ans = engine.answer(&w, &x, &mut rng).unwrap();
    assert_eq!(ans.answers.len(), w.query_count());
    let (plan, fp, hit) = engine.select_plan_for(&w).unwrap();
    assert!(hit, "plan cached by the answer call");
    assert_eq!(plan.kind(), PlanKind::LowRank);
    assert_ne!(
        fp,
        workload_fingerprint(&w),
        "a truncating rank must mix the plan fingerprint"
    );
    assert_eq!(engine.stats().low_rank_selections, 1);
    assert_eq!(engine.stats().dense_selections, 0);
    assert_eq!(engine.stats().selections, 1);

    // Sessions answer (and charge) through the same low-rank plan.
    let mut session = engine.session(PrivacyBudget::new(1.0, 1e-3));
    assert!(session.answer(&w, &x, &mut rng).is_ok());
    assert_eq!(session.ledger().charges().len(), 1);

    // A workload the rank covers entirely (r ≥ n) falls back to the dense
    // selector, and the per-kind counters keep the split.
    let small = range_workload(8);
    engine.answer(&small, &[5.0; 8], &mut rng).unwrap();
    assert_eq!(engine.stats().dense_selections, 1);
    assert_eq!(engine.stats().low_rank_selections, 1);
    assert_eq!(engine.stats().selections, 2);
}

/// `MechanismError` is non-exhaustive and the new variants format usefully.
/// (`BudgetExhausted` is itself non-exhaustive, so it can only be obtained
/// from a ledger, never constructed by downstream code.)
#[test]
fn error_variants_display() {
    use adaptive_dp::core::engine::BudgetLedger;
    let mut ledger = BudgetLedger::new(PrivacyBudget::new(0.1, 1e-4));
    let e = ledger
        .try_charge(&PrivacyParams::new(0.5, 1e-4))
        .unwrap_err();
    let msg = e.to_string();
    assert!(
        msg.contains("budget exhausted") && msg.contains("0.5"),
        "{msg}"
    );
    let e = Engine::builder()
        .privacy(PrivacyParams::pure(0.5))
        .backend(GaussianBackend)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("incompatible noise backend"));
}

/// An exhausted session rejects a cold workload in O(1), before any key
/// derivation or selection — through a session-private ledger and through
/// a principal's shared `UserLedger` alike, on the dense and the structured
/// path.
#[test]
fn exhausted_sessions_reject_cold_workloads_without_selecting() {
    use adaptive_dp::core::accounting::UserLedger;
    use adaptive_dp::workload::RangeQueryWorkload;

    let engine = Arc::new(Engine::new(PrivacyParams::paper_default()));
    let w = range_workload(64);
    let x = vec![1.0; 64];
    let intervals = RangeQueryWorkload::prefixes(64);
    let mut rng = StdRng::seed_from_u64(50);
    let spent = PrivacyBudget::new(0.0, 0.0);

    let mut session = engine.session(spent);
    let mut shared = engine.user_session(&UserLedger::new("erin", spent));
    for err in [
        session.answer(&w, &x, &mut rng).unwrap_err(),
        shared.answer(&w, &x, &mut rng).unwrap_err(),
    ] {
        assert!(
            matches!(err, MechanismError::BudgetExhausted { .. }),
            "{err}"
        );
    }
    for err in [
        session
            .answer_structured(&intervals, &x, &mut rng)
            .unwrap_err(),
        shared
            .answer_structured(&intervals, &x, &mut rng)
            .unwrap_err(),
    ] {
        assert!(
            matches!(err, MechanismError::BudgetExhausted { .. }),
            "{err}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.selections, 0);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.structured_selections, 0);
    assert_eq!(stats.structured_cache_misses, 0);
}
