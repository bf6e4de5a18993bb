//! Chaos acceptance suite: drives the deterministic fault injector
//! (`mm_core::faults`) through the full serving stack and checks the three
//! degradation invariants the robustness work guarantees:
//!
//! 1. **Accounting is exact under faults.**  A ledger is charged once per
//!    *successful* answer — never for a shed, expired, or poisoned request,
//!    and never twice — so `spent ε == successes × per-answer ε` holds
//!    under every fault schedule.
//! 2. **Successful answers are bit-identical to the fault-free run.**
//!    Store failures, torn writes, read errors and worker stalls change
//!    *where* a plan comes from, never *what* it is or which noise is
//!    drawn: selection is deterministic and noise is a pure function of
//!    the submitted seed.
//! 3. **Every request resolves.**  Faults produce typed errors
//!    (`PoisonedSelection`, `DeadlineExceeded`, breaker-degraded recompute)
//!    — nothing hangs, and the tier stays serviceable afterwards.
//!
//! The seeded sweep reads `MM_CHAOS_SEED` (decimal u64, default 42) so CI
//! can replay exact fault placements, and writes a JSON health/stats
//! snapshot, with the count of failed requests, to the path in
//! `MM_CHAOS_JSON` when set, before it checks any request.

use adaptive_dp::core::accounting::UserLedger;
use adaptive_dp::core::engine::{BreakerState, Engine, PrivacyBudget};
use adaptive_dp::core::{Fault, FaultSchedule, FaultSite, MechanismError, PrivacyParams};
use adaptive_dp::serve::{block_on, ServeEngine, ServeError};
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::Domain;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload(n: usize) -> AllRangeWorkload {
    AllRangeWorkload::new(Domain::one_dim(n))
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| 20.0 + 3.0 * i as f64).collect()
}

fn bits(answers: &[f64]) -> Vec<u64> {
    answers.iter().map(|v| v.to_bits()).collect()
}

/// The fault-free reference: a clean engine (no store, no faults) answering
/// the same workload with the same seed.  Everything a faulted run answers
/// successfully must match this bit-for-bit.
fn baseline_bits(n: usize, seed: u64) -> Vec<u64> {
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .build()
        .expect("baseline engine builds");
    let mut rng = StdRng::seed_from_u64(seed);
    let answer = engine
        .answer(&workload(n), &data(n), &mut rng)
        .expect("baseline answer");
    bits(&answer.answers)
}

fn big_ledger(name: &str) -> UserLedger {
    UserLedger::new(name, PrivacyBudget::new(1.0e6, 0.5))
}

fn assert_spent_exactly(ledger: &UserLedger, answers: u64, per_answer_epsilon: f64) {
    let spent = ledger.spent().epsilon;
    let expected = answers as f64 * per_answer_epsilon;
    assert!(
        (spent - expected).abs() < 1e-9,
        "ledger must be charged exactly once per successful answer: \
         spent ε = {spent}, expected {answers} × {per_answer_epsilon} = {expected}"
    );
}

fn mmplan_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "mmplan"))
                .count()
        })
        .unwrap_or(0)
}

/// Schedule: every store write fails.  The breaker trips after the
/// configured threshold of consecutive failed persists and the engine
/// degrades to memory-only caching — answers keep flowing, bit-identical,
/// exactly charged, with no further disk traffic attempted.
#[test]
fn persistent_write_failures_trip_the_breaker_and_degrade_to_memory_only() {
    let dir = scratch_dir("write-fail");
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .strategy_store(&dir)
            .fault_injector(FaultSchedule::new().inject_every(
                FaultSite::StoreWrite,
                1,
                Fault::Fail,
            ))
            .store_breaker(3, Duration::from_secs(600))
            .build()
            .expect("engine builds"),
    );
    let per_answer = engine.privacy().epsilon;
    let ledger = big_ledger("breaker-user");

    // Four distinct cold workloads: each of the first three answers' saves
    // retries (bounded) and fails, one failed persist each, which opens the
    // breaker; the fourth answer must not even attempt the store.
    for (i, n) in [8usize, 9, 10, 11].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let answer = engine
            .user_session(&ledger)
            .answer(&workload(n), &data(n), &mut rng)
            .unwrap_or_else(|e| panic!("answer {i} must survive store failure: {e}"));
        assert_eq!(
            bits(&answer.answers),
            baseline_bits(n, i as u64),
            "a store-degraded answer must be bit-identical to the fault-free run"
        );
    }

    let health = engine.store_health();
    assert_eq!(health.breaker, BreakerState::Open, "breaker must trip");
    assert!(health.consecutive_failures >= 3);
    let stats = engine.stats();
    assert_eq!(
        stats.store_save_failures, 9,
        "exactly three failed persists of three bounded attempts each; once \
         open, no further attempts are made"
    );
    assert_eq!(stats.store_writes, 0);
    assert_eq!(stats.selections, 4);
    assert_eq!(mmplan_count(&dir), 0, "no entry may land on disk");
    assert_spent_exactly(&ledger, 4, per_answer);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Schedule: the first store save fails on all its attempts.  That is one
/// failed persist, however many attempts it took: under the default
/// threshold the breaker stays closed, and the next cold workload's save
/// lands.
#[test]
fn one_failed_persist_counts_once_on_the_breaker_and_the_next_save_lands() {
    let dir = scratch_dir("one-failed-persist");
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .fault_injector(
            FaultSchedule::new()
                .inject_at(FaultSite::StoreWrite, 0, Fault::Fail)
                .inject_at(FaultSite::StoreWrite, 1, Fault::Fail)
                .inject_at(FaultSite::StoreWrite, 2, Fault::Fail),
        )
        .build()
        .expect("engine builds");

    let mut rng = StdRng::seed_from_u64(0);
    let answer = engine
        .answer(&workload(8), &data(8), &mut rng)
        .expect("the answer survives its failed persist");
    assert_eq!(bits(&answer.answers), baseline_bits(8, 0));
    let stats = engine.stats();
    assert_eq!(stats.store_save_failures, 3, "all three attempts failed");
    assert_eq!(stats.store_writes, 0);
    let health = engine.store_health();
    assert_eq!(health.breaker, BreakerState::Closed);
    assert_eq!(health.consecutive_failures, 1, "one failed persist");

    let mut rng = StdRng::seed_from_u64(1);
    let answer = engine
        .answer(&workload(9), &data(9), &mut rng)
        .expect("second answer");
    assert_eq!(bits(&answer.answers), baseline_bits(9, 1));
    let stats = engine.stats();
    assert_eq!(stats.store_writes, 1, "the next save lands");
    assert_eq!(stats.store_save_failures, 3);
    assert_eq!(engine.store_health().breaker, BreakerState::Closed);
    assert_eq!(engine.store_health().consecutive_failures, 0);
    assert_eq!(mmplan_count(&dir), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Schedule: the first store write is torn.  The half-entry lands on disk;
/// the next engine over the directory detects it at build-time warming,
/// counts and deletes it, recomputes bit-identically, and rewrites a valid
/// entry a third engine serves warm.
#[test]
fn torn_store_write_is_counted_dropped_and_recomputed_bit_identically() {
    let dir = scratch_dir("torn-write");
    let reference = baseline_bits(12, 5);

    let first = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .fault_injector(FaultSchedule::new().inject_at(FaultSite::StoreWrite, 0, Fault::Torn))
        .build()
        .expect("first engine builds");
    let mut rng = StdRng::seed_from_u64(5);
    let torn = first
        .answer(&workload(12), &data(12), &mut rng)
        .expect("the answer itself must survive the torn save");
    assert_eq!(bits(&torn.answers), reference);
    assert_eq!(first.stats().store_save_failures, 1);
    assert_eq!(first.stats().store_writes, 0);
    assert_eq!(mmplan_count(&dir), 1, "the torn half-entry is on disk");

    // Second engine: build-time warming hits the half-entry, drops it
    // (counted), and the answer path recomputes and rewrites cleanly.
    let second = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("second engine builds");
    let mut rng = StdRng::seed_from_u64(5);
    let recovered = second
        .answer(&workload(12), &data(12), &mut rng)
        .expect("recovery answer");
    assert_eq!(
        bits(&recovered.answers),
        reference,
        "recomputation after corruption must be bit-identical"
    );
    let stats = second.stats();
    assert_eq!(
        stats.store_corrupt_dropped, 1,
        "the torn entry must be counted, not silently vanish"
    );
    assert_eq!(stats.selections, 1, "recomputed, not misparsed");
    assert_eq!(stats.store_writes, 1, "a clean entry is rewritten");
    assert_eq!(second.store_health().corrupt_dropped, 1);

    // Third engine: the rewritten entry serves warm.
    let third = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("third engine builds");
    let mut rng = StdRng::seed_from_u64(5);
    let warm = third
        .answer(&workload(12), &data(12), &mut rng)
        .expect("warm answer");
    assert_eq!(bits(&warm.answers), reference);
    assert_eq!(third.stats().selections, 0, "served from the store");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Schedule: every store read fails.  A populated store becomes invisible —
/// the engine recomputes (bit-identically), never misjudges the healthy
/// entry as corrupt, and leaves it intact for the next (healthy) engine.
#[test]
fn store_read_faults_recompute_bit_identically_without_judging_entries() {
    let dir = scratch_dir("read-fail");
    let reference = baseline_bits(14, 9);

    // Populate the store cleanly.
    let writer = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("writer engine builds");
    let mut rng = StdRng::seed_from_u64(9);
    let written = writer
        .answer(&workload(14), &data(14), &mut rng)
        .expect("populating answer");
    assert_eq!(bits(&written.answers), reference);
    assert_eq!(writer.stats().store_writes, 1);

    // Reader whose every load is injected to fail: build-time warming sees
    // nothing, the answer path recomputes, and the entry is not judged.
    let reader = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .fault_injector(FaultSchedule::new().inject_every(FaultSite::StoreRead, 1, Fault::Fail))
        .build()
        .expect("reader engine builds");
    let mut rng = StdRng::seed_from_u64(9);
    let blind = reader
        .answer(&workload(14), &data(14), &mut rng)
        .expect("read-degraded answer");
    assert_eq!(
        bits(&blind.answers),
        reference,
        "recomputation under read faults must be bit-identical"
    );
    let stats = reader.stats();
    assert_eq!(stats.selections, 1, "recomputed, store invisible");
    assert_eq!(stats.store_hits, 0);
    assert_eq!(
        stats.store_corrupt_dropped, 0,
        "an unreadable entry is not a corrupt entry"
    );
    assert_eq!(mmplan_count(&dir), 1, "the healthy entry must survive");

    // A healthy engine still serves the untouched entry warm.
    let healthy = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("healthy engine builds");
    let mut rng = StdRng::seed_from_u64(9);
    let warm = healthy
        .answer(&workload(14), &data(14), &mut rng)
        .expect("warm answer");
    assert_eq!(bits(&warm.answers), reference);
    assert_eq!(healthy.stats().selections, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Schedule: the first selection panics.  Every waiter piled on the flight
/// observes the typed poison, the ledger is charged for none of them, and
/// the retry (fault consumed) answers bit-identically and charges once.
#[test]
fn selector_panic_poisons_typed_leaves_ledger_uncharged_and_recovers() {
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .fault_injector(FaultSchedule::new().inject_at(FaultSite::Selector, 0, Fault::Panic))
            .build()
            .expect("engine builds"),
    );
    let per_answer = engine.privacy().epsilon;
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let ledger = big_ledger("poison-user");
    let w = Arc::new(workload(10));

    // Four ledger-charged requests onto one cold fingerprint: the injected
    // panic poisons the one shared flight.
    let futures: Vec<_> = (0..4u64)
        .map(|s| serve.answer_for(&ledger, w.clone(), data(10), s))
        .collect();
    let results = block_on(adaptive_dp::serve::join_all(futures));
    for result in &results {
        match result {
            Err(ServeError::Mechanism(e)) => {
                assert!(
                    matches!(&**e, MechanismError::PoisonedSelection(_)),
                    "expected typed poison, got {e}"
                );
                assert!(e.is_transient(), "a poisoned selection is retryable");
            }
            other => panic!("every waiter must observe the poison, got {other:?}"),
        }
    }
    assert_spent_exactly(&ledger, 0, per_answer);
    assert_eq!(serve.stats().failed, 4);

    // The schedule only faults selector call 0: the retry selects fresh,
    // answers bit-identically, and charges exactly once.
    let retry = block_on(serve.answer_for(&ledger, w, data(10), 2))
        .expect("the poisoned fingerprint must be retryable");
    assert_eq!(bits(&retry.answers), baseline_bits(10, 2));
    assert_spent_exactly(&ledger, 1, per_answer);
    assert_eq!(serve.stats().completed, 1);
}

/// Schedule: the first worker dequeue stalls far past the request deadline.
/// The request resolves typed (no hang), charges nothing, and once the
/// stalled job drains (skipped as expired, not run stale) the tier answers
/// and charges normally.
#[test]
fn deadline_expiry_under_injected_stall_resolves_typed_and_charges_nothing() {
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .fault_injector(FaultSchedule::new().inject_at(
                FaultSite::Worker,
                0,
                Fault::LatencyMs(400),
            ))
            .build()
            .expect("engine builds"),
    );
    let per_answer = engine.privacy().epsilon;
    let serve = ServeEngine::builder(engine)
        .workers(1)
        .default_deadline(Duration::from_millis(40))
        .build();
    let ledger = big_ledger("deadline-user");
    let w = Arc::new(workload(8));

    match block_on(serve.answer_for(&ledger, w.clone(), data(8), 1)) {
        Err(ServeError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 40),
        other => panic!("expected typed deadline expiry, got {other:?}"),
    }
    assert_spent_exactly(&ledger, 0, per_answer);
    assert_eq!(serve.stats().deadline_expired, 1);

    // The stalled worker eventually dequeues the job and skips it: the
    // founder's deadline passed, so the stale selection never runs.
    let drained = std::time::Instant::now() + Duration::from_secs(5);
    while serve.stats().jobs_expired == 0 && std::time::Instant::now() < drained {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(serve.stats().jobs_expired, 1);

    // Tier stays serviceable under the same default deadline.
    let retry = block_on(serve.answer_for(&ledger, w, data(8), 2))
        .expect("post-expiry request must succeed");
    assert_eq!(bits(&retry.answers), baseline_bits(8, 2));
    assert_spent_exactly(&ledger, 1, per_answer);
}

/// The seeded sweep: pseudo-random store read/write faults and worker
/// stalls placed by `MM_CHAOS_SEED`, over a breaker that is allowed to
/// recover.  Every request must resolve successfully (store faults are
/// absorbed, never surfaced), bit-identical to fault-free, exactly charged
/// — and the run's health/stats snapshot is exported for the CI artifact.
#[test]
fn seeded_chaos_sweep_preserves_answers_accounting_and_liveness() {
    let seed = std::env::var("MM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);
    let dir = scratch_dir(&format!("sweep-{seed}"));
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .strategy_store(&dir)
            .fault_injector(
                FaultSchedule::seeded(seed)
                    .with_rate(FaultSite::StoreRead, 512, Fault::Fail)
                    .with_rate(FaultSite::StoreWrite, 512, Fault::Fail)
                    .with_rate(FaultSite::Worker, 256, Fault::LatencyMs(1)),
            )
            .store_breaker(3, Duration::from_millis(10))
            .build()
            .expect("engine builds"),
    );
    let per_answer = engine.privacy().epsilon;
    let serve = ServeEngine::builder(engine.clone()).workers(2).build();
    let ledger = big_ledger("sweep-user");

    const REQUESTS: usize = 6;
    let outcomes: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let n = 8 + i;
            let w = Arc::new(workload(n));
            block_on(serve.answer_for(&ledger, w, data(n), i as u64))
        })
        .collect();
    let stats = serve.stats();
    let health = serve.health();

    // Export the snapshot for the CI chaos artifact (hand-rolled JSON: the
    // workspace takes no serialization dependency) before any assertion, so
    // a failing seed keeps the snapshot that explains it.
    if let Ok(path) = std::env::var("MM_CHAOS_JSON") {
        let engine_stats = engine.stats();
        let store = health.store;
        let json = format!(
            concat!(
                "{{\n",
                "  \"seed\": {},\n",
                "  \"requests\": {},\n",
                "  \"failed_requests\": {},\n",
                "  \"serve\": {{\"submitted\": {}, \"completed\": {}, \"failed\": {}, ",
                "\"shed\": {}, \"rejected\": {}, \"deadline_expired\": {}, ",
                "\"jobs_expired\": {}, \"poisoned_flights\": {}}},\n",
                "  \"store\": {{\"breaker\": \"{}\", \"consecutive_failures\": {}, ",
                "\"corrupt_dropped\": {}, \"save_failures\": {}}},\n",
                "  \"engine\": {{\"selections\": {}, \"store_hits\": {}, ",
                "\"store_writes\": {}, \"store_save_failures\": {}, ",
                "\"store_corrupt_dropped\": {}}}\n",
                "}}\n"
            ),
            seed,
            REQUESTS,
            outcomes.iter().filter(|o| o.is_err()).count(),
            stats.submitted,
            stats.completed,
            stats.failed,
            stats.shed,
            stats.rejected,
            stats.deadline_expired,
            stats.jobs_expired,
            health.poisoned_flights,
            store.breaker,
            store.consecutive_failures,
            store.corrupt_dropped,
            store.save_failures,
            engine_stats.selections,
            engine_stats.store_hits,
            engine_stats.store_writes,
            engine_stats.store_save_failures,
            engine_stats.store_corrupt_dropped,
        );
        std::fs::write(&path, json).expect("write chaos snapshot");
    }

    for (i, outcome) in outcomes.into_iter().enumerate() {
        let n = 8 + i;
        let answer =
            outcome.unwrap_or_else(|e| panic!("request {i} must resolve under seed {seed}: {e}"));
        assert_eq!(
            bits(&answer.answers),
            baseline_bits(n, i as u64),
            "request {i} must be bit-identical to fault-free under seed {seed}"
        );
    }
    assert_spent_exactly(&ledger, REQUESTS as u64, per_answer);
    assert_eq!(stats.completed, REQUESTS as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(health.queue_depth, 0, "sweep fully drained");
    assert_eq!(health.pending_selections, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
