//! Workspace-level acceptance tests for the serving tier: persistent-store
//! corruption handling, typed poisoned-flight recovery under real thread
//! contention, and cross-session budget enforcement through one shared
//! `UserLedger`.

use adaptive_dp::core::accounting::UserLedger;
use adaptive_dp::core::engine::{
    Engine, PrivacyBudget, SelectionContext, StrategyCache, StrategySelector, StrategyStore,
    PLAN_STORE_VERSION,
};
use adaptive_dp::core::{MechanismError, PrivacyParams};
use adaptive_dp::serve::{block_on, ServeEngine, ServeError};
use adaptive_dp::strategies::Strategy;
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::Domain;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm-serving-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_engine(dir: &Path) -> Engine {
    Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(dir)
        .build()
        .expect("engine with store builds")
}

/// The single `.mmplan` entry file in a store directory.
fn entry_file(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mmplan"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one store entry");
    entries.pop().unwrap()
}

/// Populates a store with one persisted selection and returns the engine's
/// answer bits for later comparison.
fn populate(dir: &Path, workload: &AllRangeWorkload, data: &[f64]) -> Vec<u64> {
    let engine = store_engine(dir);
    let mut rng = StdRng::seed_from_u64(3);
    let answer = engine
        .answer(workload, data, &mut rng)
        .expect("cold answer");
    assert_eq!(engine.stats().store_writes, 1);
    answer.answers.iter().map(|v| v.to_bits()).collect()
}

/// Every corruption mode must degrade to a fresh selection — identical
/// answers, never garbage — and leave behind a rewritten, valid entry.
fn assert_recovers_from_corruption(tag: &str, corrupt: impl FnOnce(&Path)) {
    let dir = scratch_dir(tag);
    let workload = AllRangeWorkload::new(Domain::one_dim(48));
    let data: Vec<f64> = (0..48).map(|i| 20.0 + (i % 7) as f64).collect();
    let expected = populate(&dir, &workload, &data);

    corrupt(&entry_file(&dir));

    // The corrupted entry is detected (checksum / header / bounds), removed,
    // and the selector runs fresh: the answer is bit-identical to the
    // original, not wrong, and the store ends up valid again.
    let engine = store_engine(&dir);
    let mut rng = StdRng::seed_from_u64(3);
    let answer = engine
        .answer(&workload, &data, &mut rng)
        .expect("recovered answer");
    let bits: Vec<u64> = answer.answers.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expected, "corruption fallback changed the answers");
    assert_eq!(engine.stats().selections, 1, "the selector ran fresh");
    assert_eq!(
        engine.stats().store_writes,
        1,
        "a valid entry was rewritten"
    );

    // Proof the rewrite is valid: a third engine warms from it and answers
    // without selecting.
    let warmed = store_engine(&dir);
    let mut rng = StdRng::seed_from_u64(3);
    let answer = warmed
        .answer(&workload, &data, &mut rng)
        .expect("warm answer");
    let bits: Vec<u64> = answer.answers.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expected);
    assert_eq!(warmed.stats().selections, 0, "warm engine never selects");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-load order regression: when the store holds more entries than the
/// warm limit, the entries loaded must be the numerically smallest
/// fingerprints — a pure function of the store's contents, never of the
/// OS's directory enumeration order.  (The warm path used to sort by path,
/// which only coincided with fingerprint order because the filename scheme
/// zero-pads; this pins the contract directly.)
#[test]
fn store_warm_order_is_ascending_fingerprints_not_directory_order() {
    let dir = scratch_dir("warm-order");
    let engine = store_engine(&dir);
    let mut rng = StdRng::seed_from_u64(7);
    for n in [4usize, 8, 16, 32, 64, 128] {
        let workload = AllRangeWorkload::new(Domain::one_dim(n));
        let counts = vec![1.0; n];
        engine.answer(&workload, &counts, &mut rng).expect("answer");
    }

    // Every persisted fingerprint, read back from the store's filenames.
    let mut fps: Vec<u64> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mmplan"))
        .filter_map(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        })
        .collect();
    fps.sort_unstable();
    assert_eq!(fps.len(), 6, "one entry per distinct workload");

    let limit = 3;
    let store = StrategyStore::open(&dir).expect("open store");
    let cache = StrategyCache::new(64);
    assert_eq!(store.warm(&cache, limit), limit);
    for (rank, &raw) in fps.iter().enumerate() {
        assert_eq!(
            cache.get(adaptive_dp::workload::Fingerprint(raw)).is_some(),
            rank < limit,
            "fingerprint {raw:#018x} at ascending rank {rank} (limit {limit})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_recovers_from_truncated_entry() {
    assert_recovers_from_corruption("truncated", |path| {
        let bytes = std::fs::read(path).expect("read entry");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate entry");
    });
}

#[test]
fn store_recovers_from_bit_flipped_payload() {
    assert_recovers_from_corruption("bitflip", |path| {
        let mut bytes = std::fs::read(path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, bytes).expect("rewrite entry");
    });
}

#[test]
fn store_recovers_from_wrong_version_header() {
    assert_recovers_from_corruption("version", |path| {
        let mut bytes = std::fs::read(path).expect("read entry");
        // Bytes 8..12 hold the format version (little-endian u32, after the
        // 8-byte magic).
        let bumped = (PLAN_STORE_VERSION + 1).to_le_bytes();
        bytes[8..12].copy_from_slice(&bumped);
        std::fs::write(path, bytes).expect("rewrite entry");
    });
}

/// Panics on the first selection, then delegates to the default selector.
struct PanicOnceSelector {
    panicked: AtomicBool,
    inner: adaptive_dp::core::engine::EigenDesignSelector,
}

impl std::fmt::Debug for PanicOnceSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PanicOnceSelector").finish_non_exhaustive()
    }
}

impl StrategySelector for PanicOnceSelector {
    fn name(&self) -> String {
        "panic-once".into()
    }

    fn select(&self, ctx: &SelectionContext) -> adaptive_dp::core::Result<Strategy> {
        if !self.panicked.swap(true, Ordering::SeqCst) {
            // Pin the flight open long enough for every barrier-released
            // peer to join it as a waiter before the panic lands: the
            // poisoned-flight counter only moves when a *waiter* becomes
            // the retry leader, so an instant panic would race the waiters
            // to `begin` and flake under parallel-test CPU load.
            std::thread::sleep(std::time::Duration::from_millis(100));
            panic!("injected selector crash");
        }
        self.inner.select(ctx)
    }
}

/// The single-flight poisoning regression: a selection leader that panics
/// must not strand concurrent waiters — every surviving thread observes the
/// typed poison, retries, and answers.
#[test]
fn waiting_threads_recover_from_a_panicking_selection_leader() {
    const THREADS: usize = 6;
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .selector(PanicOnceSelector {
                panicked: AtomicBool::new(false),
                inner: Default::default(),
            })
            .build()
            .expect("engine builds"),
    );
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let engine = engine.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let workload = AllRangeWorkload::new(Domain::one_dim(32));
                let data: Vec<f64> = (0..32).map(|c| 10.0 + c as f64).collect();
                barrier.wait();
                let mut rng = StdRng::seed_from_u64(i as u64);
                engine.answer(&workload, &data, &mut rng).map(|_| ())
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut panicked = 0usize;
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => ok += 1,
            Ok(Err(e)) => panic!("no thread may see a mechanism error, got {e}"),
            Err(_) => panicked += 1,
        }
    }
    // Exactly the leader's thread dies of the injected panic; every waiter
    // recovers by re-running the (now healthy) selection.
    assert_eq!(panicked, 1, "only the panicking leader's thread may die");
    assert_eq!(ok, THREADS - 1, "every waiter must recover and answer");
    let stats = engine.stats();
    assert!(
        stats.poisoned_flights >= 1,
        "the engine must record the recovered poisoned flight, stats: {stats:?}"
    );
}

/// The cross-session accounting acceptance test: one principal, one ledger,
/// any number of sessions — the (ε, δ) budget admits the same total number
/// of answers whether one session spends it or two share it, and the
/// over-budget request fails with `BudgetExhausted`.
#[test]
fn sessions_sharing_a_ledger_jointly_exhaust_one_budget() {
    let workload = AllRangeWorkload::new(Domain::one_dim(24));
    let data: Vec<f64> = (0..24).map(|i| 5.0 + i as f64).collect();
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .expect("engine builds"),
    );
    let per_answer = engine.privacy();
    let budget = || PrivacyBudget::new(per_answer.epsilon * 4.5, (per_answer.delta * 4.5).min(0.5));

    // Baseline: a single session drains the budget alone.
    let solo = UserLedger::new("dana", budget());
    let mut session = engine.user_session(&solo);
    let mut rng = StdRng::seed_from_u64(1);
    let mut solo_answers = 0usize;
    loop {
        match session.answer(&workload, &data, &mut rng) {
            Ok(_) => solo_answers += 1,
            Err(MechanismError::BudgetExhausted { .. }) => break,
            Err(e) => panic!("unexpected error draining solo budget: {e}"),
        }
        assert!(solo_answers < 100, "budget never exhausted");
    }
    assert_eq!(solo_answers, 4, "the budget admits exactly four answers");

    // Two concurrent sessions of the same principal share one ledger: their
    // joint total equals the single-session count — sharing can never mint
    // extra budget.
    let shared = UserLedger::new("dana-2", budget());
    let mut a = engine.user_session(&shared);
    let mut b = engine.user_session(&shared);
    let mut joint_answers = 0usize;
    let mut rng = StdRng::seed_from_u64(2);
    for round in 0..4 {
        let session = if round % 2 == 0 { &mut a } else { &mut b };
        session
            .answer(&workload, &data, &mut rng)
            .expect("within budget");
        joint_answers += 1;
    }
    assert_eq!(joint_answers, solo_answers);
    // The budget is spent: *both* sessions now get the typed exhaustion.
    for session in [&mut a, &mut b] {
        match session.answer(&workload, &data, &mut rng) {
            Err(MechanismError::BudgetExhausted { .. }) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
    assert!(shared.remaining().epsilon < per_answer.epsilon);
}

/// The serve tier composes with everything above: a `ServeEngine` over a
/// store-backed engine answers through futures, and a second serve tier over
/// a fresh engine on the same directory starts warm.
#[test]
fn serve_tier_over_persistent_store_restarts_warm() {
    use adaptive_dp::serve::{block_on, ServeEngine};

    let dir = scratch_dir("serve-store");
    let workload = Arc::new(AllRangeWorkload::new(Domain::one_dim(40)));
    let data: Vec<f64> = (0..40).map(|i| 30.0 + i as f64).collect();

    let first = ServeEngine::builder(Arc::new(store_engine(&dir))).build();
    let cold = block_on(first.answer(workload.clone(), data.clone(), 11)).expect("cold serve");
    assert_eq!(first.engine().stats().selections, 1);
    assert_eq!(first.engine().stats().store_writes, 1);
    drop(first);

    let second = ServeEngine::builder(Arc::new(store_engine(&dir))).build();
    let warm = block_on(second.answer(workload, data, 11)).expect("warm serve");
    assert_eq!(
        second.engine().stats().selections,
        0,
        "the restarted tier serves from the persisted selection"
    );
    for (a, b) in cold.answers.iter().zip(&warm.answers) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve tier round-trips `SelectionPlan::LowRank` through the unified
/// store: a low-rank engine's futures key on the mixed plan fingerprint,
/// the plan persists as a `.mmplan` entry, and a restarted serve tier over
/// the same directory answers warm and bit-identically without selecting.
#[test]
fn serve_tier_round_trips_low_rank_plans_through_the_store() {
    use adaptive_dp::core::engine::PlanKind;
    use adaptive_dp::serve::{block_on, ServeEngine};

    let dir = scratch_dir("serve-lowrank");
    let low_rank_engine = |dir: &Path| {
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .strategy_store(dir)
            .low_rank(16)
            .build()
            .expect("low-rank engine with store builds")
    };
    let workload = Arc::new(AllRangeWorkload::new(Domain::one_dim(40)));
    let data: Vec<f64> = (0..40).map(|i| 30.0 + i as f64).collect();

    let first = ServeEngine::builder(Arc::new(low_rank_engine(&dir))).build();
    let cold = block_on(first.answer(workload.clone(), data.clone(), 21)).expect("cold serve");
    assert_eq!(first.engine().stats().low_rank_selections, 1);
    assert_eq!(first.engine().stats().store_writes, 1);
    let (plan, _, _) = first.engine().select_plan_for(&*workload).expect("plan");
    assert_eq!(plan.kind(), PlanKind::LowRank);
    drop(first);

    let second = ServeEngine::builder(Arc::new(low_rank_engine(&dir))).build();
    let warm = block_on(second.answer(workload.clone(), data, 21)).expect("warm serve");
    assert_eq!(
        second.engine().stats().selections,
        0,
        "the restarted tier serves the persisted low-rank plan"
    );
    let (plan, _, _) = second
        .engine()
        .select_plan_for(&*workload)
        .expect("warm plan");
    assert_eq!(plan.kind(), PlanKind::LowRank);
    for (a, b) in cold.answers.iter().zip(&warm.answers) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Blocks every selection on a shared gate after signalling entry,
/// optionally panicking on the first gated call — the driver for the
/// stampede tests, which need a worker observably *held* mid-selection.
struct GatedStampedeSelector {
    release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    started: Arc<(std::sync::Mutex<usize>, std::sync::Condvar)>,
    panic_first: bool,
    panicked: AtomicBool,
    inner: adaptive_dp::core::engine::EigenDesignSelector,
}

impl std::fmt::Debug for GatedStampedeSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatedStampedeSelector")
            .finish_non_exhaustive()
    }
}

impl StrategySelector for GatedStampedeSelector {
    fn name(&self) -> String {
        "gated-stampede".into()
    }

    fn select(&self, ctx: &SelectionContext) -> adaptive_dp::core::Result<Strategy> {
        {
            let (count, cv) = &*self.started;
            *count.lock().unwrap() += 1;
            cv.notify_all();
        }
        {
            let (open, cv) = &*self.release;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
        if self.panic_first && !self.panicked.swap(true, Ordering::SeqCst) {
            panic!("injected stampede crash");
        }
        self.inner.select(ctx)
    }
}

/// A cold-start stampede of distinct workloads against one worker and a
/// bounded queue: with the worker observably held, admission is exact —
/// queue-capacity jobs queue, every further request sheds typed — and the
/// shed counter plus the health snapshot agree with the arithmetic.
#[test]
fn cold_start_stampede_sheds_exactly_the_queue_overflow() {
    use adaptive_dp::serve::{block_on, ServeEngine, ServeError};

    const STAMPEDE: usize = 7;
    const QUEUE: usize = 2;
    let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let started = Arc::new((std::sync::Mutex::new(0usize), std::sync::Condvar::new()));
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .selector(GatedStampedeSelector {
                release: release.clone(),
                started: started.clone(),
                panic_first: false,
                panicked: AtomicBool::new(false),
                inner: Default::default(),
            })
            .build()
            .expect("engine builds"),
    );
    let serve = Arc::new(
        ServeEngine::builder(engine.clone())
            .workers(1)
            .queue_capacity(QUEUE)
            .build(),
    );

    // Occupy the only worker and wait until its selection has *started*, so
    // the queue arithmetic below is deterministic: nothing can drain.
    let holder = {
        let serve = serve.clone();
        std::thread::spawn(move || {
            let w = Arc::new(AllRangeWorkload::new(Domain::one_dim(8)));
            let x: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
            block_on(serve.answer(w, x, 0)).map(|_| ())
        })
    };
    {
        let (count, cv) = &*started;
        let mut count = count.lock().unwrap();
        while *count == 0 {
            count = cv.wait(count).unwrap();
        }
    }

    // Stampede: seven more *distinct* cold workloads.  Exactly QUEUE of
    // them can be admitted (the worker is held); the rest shed typed.
    let stampeders: Vec<_> = (0..STAMPEDE)
        .map(|i| {
            let serve = serve.clone();
            std::thread::spawn(move || {
                let n = 9 + i;
                let w = Arc::new(AllRangeWorkload::new(Domain::one_dim(n)));
                let x: Vec<f64> = (0..n).map(|c| 1.0 + c as f64).collect();
                block_on(serve.answer(w, x, i as u64)).map(|_| ())
            })
        })
        .collect();

    // Every stampeder either parks (admitted) or resolves Overloaded; the
    // exact split is visible in the stats and the health snapshot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while serve.stats().shed < (STAMPEDE - QUEUE) as u64 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let health = serve.health();
    assert_eq!(health.queue_depth, QUEUE, "held worker: queue exactly full");
    assert_eq!(
        health.pending_selections,
        QUEUE + 1,
        "the held flight plus every queued flight is pending"
    );
    assert_eq!(health.shed, (STAMPEDE - QUEUE) as u64);

    // Open the gate: the held request and both admitted stampeders resolve.
    {
        let (open, cv) = &*release;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    assert!(holder.join().expect("holder thread").is_ok());
    let mut ok = 0usize;
    let mut shed = 0usize;
    for handle in stampeders {
        match handle.join().expect("stampeder thread") {
            Ok(()) => ok += 1,
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, QUEUE);
                shed += 1;
            }
            Err(other) => panic!("stampeders may only shed, got {other}"),
        }
    }
    assert_eq!(ok, QUEUE, "exactly the admitted stampeders complete");
    assert_eq!(shed, STAMPEDE - QUEUE);
    let stats = serve.stats();
    assert_eq!(stats.completed, (QUEUE + 1) as u64);
    assert_eq!(stats.shed, (STAMPEDE - QUEUE) as u64);
    assert_eq!(stats.selection_jobs, (QUEUE + 1) as u64);
    assert_eq!(engine.stats().selections, (QUEUE + 1) as u64);
    let health = serve.health();
    assert_eq!(health.queue_depth, 0, "stampede fully drained");
    assert_eq!(health.pending_selections, 0);
}

/// A stampede onto *one* cold workload whose selection leader panics: every
/// piled-on waiter observes the typed poison (no hangs, no partial
/// answers), the failure is counted, and the next request recovers the
/// flight — with the engine recording the poisoned-flight retry.
#[test]
fn poisoned_flight_stampede_fails_typed_and_recovers() {
    use adaptive_dp::serve::{block_on, ServeEngine, ServeError};
    use std::future::Future;
    use std::pin::Pin;

    const WAITERS: usize = 6;
    let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let started = Arc::new((std::sync::Mutex::new(0usize), std::sync::Condvar::new()));
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .selector(GatedStampedeSelector {
                release: release.clone(),
                started: started.clone(),
                panic_first: true,
                panicked: AtomicBool::new(false),
                inner: Default::default(),
            })
            .build()
            .expect("engine builds"),
    );
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let w = Arc::new(AllRangeWorkload::new(Domain::one_dim(20)));
    let x: Vec<f64> = (0..20).map(|i| 2.0 + i as f64).collect();

    // First poll of each future registers it on the one shared flight while
    // the leader is observably held inside the (about-to-panic) selector.
    let mut futures: Vec<_> = (0..WAITERS)
        .map(|s| serve.answer(w.clone(), x.clone(), s as u64))
        .collect();
    let waker = std::task::Waker::noop();
    let mut cx = std::task::Context::from_waker(waker);
    for fut in &mut futures {
        assert!(Pin::new(fut).poll(&mut cx).is_pending());
    }
    {
        let (count, cv) = &*started;
        let mut count = count.lock().unwrap();
        while *count == 0 {
            count = cv.wait(count).unwrap();
        }
    }
    assert_eq!(
        serve.stats().selection_jobs,
        1,
        "one flight for all waiters"
    );
    assert_eq!(serve.health().pending_selections, 1);

    // A direct engine caller joins the *engine-level* flight the serve job
    // leads: when the leader panics, this waiter recovers the poison as the
    // next leader, which is what `poisoned_flights` counts.  The gate keeps
    // the flight pinned in-flight, so the generous sleep below is only
    // about letting the thread reach its wait.
    let direct = {
        let engine = engine.clone();
        let x = x.clone();
        std::thread::spawn(move || {
            let w = AllRangeWorkload::new(Domain::one_dim(20));
            let mut rng = StdRng::seed_from_u64(7);
            engine.answer(&w, &x, &mut rng).map(|_| ())
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));

    // Open the gate: the selector panics, poisoning every waiter at once.
    {
        let (open, cv) = &*release;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    for fut in futures {
        match block_on(fut) {
            Err(ServeError::Mechanism(e)) => {
                assert!(
                    matches!(&*e, MechanismError::PoisonedSelection(_)),
                    "expected typed poison, got {e}"
                );
                assert!(e.to_string().contains("injected stampede crash"));
            }
            other => panic!("every stampeded waiter must observe the poison, got {other:?}"),
        }
    }
    let stats = serve.stats();
    assert_eq!(stats.failed, WAITERS as u64);
    assert_eq!(stats.completed, 0);

    // The direct waiter recovered the poison, became the retry leader, and
    // answered — the engine recorded the recovered flight, and the serve
    // tier's health snapshot surfaces it.
    assert!(direct.join().expect("direct waiter thread").is_ok());
    assert_eq!(
        engine.stats().poisoned_flights,
        1,
        "the retry leader must record the poisoned flight it recovered"
    );
    assert_eq!(serve.health().poisoned_flights, 1);

    // The poison is typed *and* transient: a served retry resolves (warm —
    // the direct waiter's recovery already published the plan).
    let retry = block_on(serve.answer(w, x, 99));
    assert!(
        retry.is_ok(),
        "poisoned flight must be retryable: {retry:?}"
    );
    assert_eq!(serve.stats().completed, 1);
}

/// `ServeEngine::answer_batch_for` charges a principal's shared ledger once
/// per vector, rejects a batch that does not fit at submit time without
/// touching the ledger, and answers bit-identically to a direct
/// `user_session(..).answer_batch(..)` at the same seed.
#[test]
fn served_batches_charge_a_shared_ledger_once_per_vector() {
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .expect("engine builds"),
    );
    let serve = ServeEngine::builder(engine.clone()).build();
    let workload = Arc::new(AllRangeWorkload::new(Domain::one_dim(16)));
    let xs: Vec<Vec<f64>> = (0..3)
        .map(|k| (0..16).map(|i| (k * 16 + i) as f64).collect())
        .collect();
    let per_answer = *engine.privacy();
    // Headroom for four answers: the first batch of three fits, a second
    // one does not.
    let budget = PrivacyBudget::new(per_answer.epsilon * 4.5, (per_answer.delta * 4.5).min(0.5));

    let ledger = UserLedger::new("frank", budget);
    let served = block_on(serve.answer_batch_for(&ledger, workload.clone(), xs.clone(), 7))
        .expect("the first batch fits");
    assert_eq!(served.len(), 3);
    assert_eq!(ledger.events().len(), 3, "one charge per vector");

    let before = serve.stats();
    let spent = ledger.spent();
    match block_on(serve.answer_batch_for(&ledger, workload.clone(), xs.clone(), 8)) {
        Err(ServeError::Mechanism(e)) => {
            assert!(matches!(&*e, MechanismError::BudgetExhausted { .. }), "{e}");
        }
        other => panic!("expected a budget rejection, got {other:?}"),
    }
    let after = serve.stats();
    assert_eq!(after.rejected, before.rejected + 1);
    assert_eq!(after.selection_jobs, before.selection_jobs);
    assert_eq!(
        ledger.events().len(),
        3,
        "the rejected batch charged nothing"
    );
    assert_eq!(ledger.spent(), spent);

    let direct_ledger = UserLedger::new("frank-direct", budget);
    let mut rng = StdRng::seed_from_u64(7);
    let direct = engine
        .user_session(&direct_ledger)
        .answer_batch(&*workload, &xs, &mut rng)
        .expect("direct batch");
    assert_eq!(direct_ledger.events().len(), 3);
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        for (a, b) in s.answers.iter().zip(&d.answers) {
            assert_eq!(a.to_bits(), b.to_bits(), "served answer bits");
        }
        for (a, b) in s.estimate.iter().zip(&d.estimate) {
            assert_eq!(a.to_bits(), b.to_bits(), "served estimate bits");
        }
    }
}

/// A gate that holds selections until it is opened, counting the ones it
/// has held.
#[derive(Default)]
struct Gate {
    /// (open, selections held so far)
    state: std::sync::Mutex<(bool, usize)>,
    cv: std::sync::Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cv.notify_all();
        while !state.0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_held(&self) {
        let mut state = self.state.lock().unwrap();
        while state.1 == 0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.cv.notify_all();
    }
}

/// Opens its gate when dropped, so a failing assertion cannot leave a
/// worker or a thread held while the serving tier's drop joins them.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Holds the selections of one dimension at a gate and lets every other
/// dimension through.
struct DimensionGatedSelector {
    dim: usize,
    gate: Arc<Gate>,
    inner: adaptive_dp::core::engine::EigenDesignSelector,
}

impl std::fmt::Debug for DimensionGatedSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DimensionGatedSelector")
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl StrategySelector for DimensionGatedSelector {
    fn name(&self) -> String {
        "dimension-gated".into()
    }

    fn select(&self, ctx: &SelectionContext) -> adaptive_dp::core::Result<Strategy> {
        if ctx.dim() == self.dim {
            self.gate.hold();
        }
        self.inner.select(ctx)
    }
}

fn gated_engine(dim: usize, gate: &Arc<Gate>) -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .selector(DimensionGatedSelector {
                dim,
                gate: gate.clone(),
                inner: Default::default(),
            })
            .build()
            .expect("engine builds"),
    )
}

fn all_range(n: usize) -> Arc<AllRangeWorkload> {
    Arc::new(AllRangeWorkload::new(Domain::one_dim(n)))
}

fn counts(n: usize) -> Vec<f64> {
    (0..n).map(|i| 4.0 + 2.0 * i as f64).collect()
}

fn answer_bits(answers: &[f64]) -> Vec<u64> {
    answers.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` on a thread of its own and returns its result, failing the test
/// rather than hanging it when `f` has not returned within ten seconds.
fn within_ten_seconds<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(value) => {
            handle.join().expect("the thread returned its value");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within 10 s"),
        // The sender is gone without a value: `f` panicked; re-raise it.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("f panicked"))
        }
    }
}

/// Polls a future once with a waker that does nothing.
fn poll_once<F: std::future::Future + Unpin>(future: &mut F) -> std::task::Poll<F::Output> {
    let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
    std::pin::Pin::new(future).poll(&mut cx)
}

/// Requests admitted before their tier is dropped but first polled after:
/// a warm one still answers, and a cold one resolves with a typed error
/// instead of enqueueing a job that no worker is left to run.
#[test]
fn a_cold_request_first_polled_after_its_tier_is_dropped_resolves_typed() {
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .expect("engine builds"),
    );
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let (warm_w, cold_w) = (all_range(10), all_range(12));
    let mut rng = StdRng::seed_from_u64(1);
    engine
        .answer(&*warm_w, &counts(10), &mut rng)
        .expect("warms the cache");
    let warm = serve.answer(warm_w, counts(10), 2);
    let cold = serve.answer(cold_w.clone(), counts(12), 3);
    drop(serve);

    within_ten_seconds("the warm request", move || block_on(warm))
        .expect("a warm request answers without the tier's workers");
    match within_ten_seconds("the cold request", move || block_on(cold)) {
        Err(ServeError::Mechanism(e)) => {
            assert!(
                matches!(&*e, MechanismError::PoisonedSelection(_)),
                "expected a typed poison, got {e}"
            );
            assert!(e.to_string().contains("shut down"), "{e}");
            assert!(e.is_transient());
        }
        other => panic!("expected the shut-down tier's typed error, got {other:?}"),
    }
    // Nothing is left in flight, and the engine still selects the workload.
    assert_eq!(engine.in_flight_selections(), 0);
    let mut rng = StdRng::seed_from_u64(3);
    engine
        .answer(&*cold_w, &counts(12), &mut rng)
        .expect("the engine outlives its tier");
    assert_eq!(engine.stats().selections, 2);
}

/// Dropping the tier while a job waits behind a held worker: the drop
/// drains the queue before the workers leave, so every pending request
/// (the held one, the queued one and one that joined it) resolves.
#[test]
fn dropping_the_tier_with_a_job_queued_behind_a_held_worker_resolves_every_request() {
    let gate = Arc::new(Gate::default());
    let engine = gated_engine(8, &gate);
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let _open = OpenOnDrop(gate.clone());
    let queued_w = all_range(9);
    let mut held = serve.answer(all_range(8), counts(8), 1);
    let mut queued = serve.answer(queued_w.clone(), counts(9), 2);
    let mut joined = serve.answer(queued_w, counts(9), 3);
    assert!(poll_once(&mut held).is_pending());
    gate.wait_held();
    assert!(poll_once(&mut queued).is_pending());
    assert!(poll_once(&mut joined).is_pending());
    let health = serve.health();
    assert_eq!(
        health.queue_depth, 1,
        "the queued job waits behind the held worker"
    );
    assert_eq!(health.pending_selections, 2);
    assert_eq!(serve.stats().selection_jobs, 2, "the joiner queued no job");

    let dropper = std::thread::spawn(move || drop(serve));
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!dropper.is_finished(), "the drop waits for the held worker");
    gate.open();
    dropper
        .join()
        .expect("the drop returns once the queue is drained");

    let results = within_ten_seconds("the pending requests", move || {
        block_on(adaptive_dp::serve::join_all(vec![held, queued, joined]))
    });
    for result in results {
        result.expect("every admitted request resolves with its answer");
    }
    assert_eq!(engine.stats().selections, 2);
    assert_eq!(engine.in_flight_selections(), 0);
}

/// A served request that meets a flight a synchronous caller leads waits on
/// that very flight: it enqueues no job and occupies no worker, and once
/// the caller publishes it resolves bit-identically to a direct answer at
/// its seed.
#[test]
fn a_served_request_waits_on_a_synchronous_leaders_flight_without_a_job() {
    let gate = Arc::new(Gate::default());
    let engine = gated_engine(16, &gate);
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let _open = OpenOnDrop(gate.clone());
    let w = all_range(16);
    let leader = {
        let (engine, w) = (engine.clone(), w.clone());
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(5);
            engine.answer(&*w, &counts(16), &mut rng).map(|_| ())
        })
    };
    gate.wait_held();

    let mut served = serve.answer(w.clone(), counts(16), 7);
    assert!(poll_once(&mut served).is_pending());
    assert_eq!(serve.stats().selection_jobs, 0, "no job for a led flight");
    let health = serve.health();
    assert_eq!(health.queue_depth, 0);
    assert_eq!(
        health.pending_selections, 1,
        "the synchronous leader's flight"
    );

    gate.open();
    leader
        .join()
        .expect("leader thread")
        .expect("leader answers");
    let served = within_ten_seconds("the served request", move || block_on(served))
        .expect("the served request answers");
    let mut rng = StdRng::seed_from_u64(7);
    let direct = engine
        .answer(&*w, &counts(16), &mut rng)
        .expect("direct answer");
    assert_eq!(answer_bits(&served.answers), answer_bits(&direct.answers));
    assert_eq!(engine.stats().selections, 1);
    let stats = serve.stats();
    assert_eq!(stats.selection_jobs, 0);
    assert_eq!(stats.completed, 1);
}

/// A synchronous caller that meets a flight a served request founded, whose
/// job waits behind a held worker, never waits behind the serve queue: it
/// selects the workload itself and returns while the worker is still held.
#[test]
fn a_synchronous_caller_never_waits_behind_the_serve_queue() {
    let gate = Arc::new(Gate::default());
    let engine = gated_engine(8, &gate);
    let serve = ServeEngine::builder(engine.clone()).workers(1).build();
    let _open = OpenOnDrop(gate.clone());
    let w = all_range(12);
    let mut held = serve.answer(all_range(8), counts(8), 1);
    let mut queued = serve.answer(w.clone(), counts(12), 2);
    assert!(poll_once(&mut held).is_pending());
    gate.wait_held();
    assert!(poll_once(&mut queued).is_pending());
    assert_eq!(serve.health().queue_depth, 1);
    assert_eq!(serve.stats().selection_jobs, 2);

    let direct = {
        let (engine, w) = (engine.clone(), w.clone());
        within_ten_seconds("a synchronous caller", move || {
            let mut rng = StdRng::seed_from_u64(3);
            engine.answer(&*w, &counts(12), &mut rng).map(|_| ())
        })
    };
    direct.expect("the synchronous caller answers");
    assert_eq!(
        engine.stats().selections,
        1,
        "the synchronous caller ran the one finished selection"
    );
    assert_eq!(serve.health().queue_depth, 1, "the worker is still held");

    gate.open();
    within_ten_seconds("the held request", move || block_on(held)).expect("held answers");
    within_ten_seconds("the queued request", move || block_on(queued)).expect("queued answers");
    assert_eq!(
        engine.stats().selections,
        2,
        "one selection per workload: the queued job found the plan selected"
    );
}
