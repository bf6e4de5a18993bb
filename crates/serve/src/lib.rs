//! # mm-serve
//!
//! The async serving tier over [`mm_core`]'s engine: hand-rolled,
//! executor-agnostic futures, bounded admission, and shared per-principal
//! budgets — the long-lived, warm, budget-governed query-answering layer the
//! matrix mechanism's data-independent selection makes possible.
//!
//! Four properties distinguish it from calling the engine directly:
//!
//! * **Non-blocking waits.** `Engine::answer` on a cold workload blocks an
//!   OS thread in the cache's single-flight wait.  [`ServeEngine::answer`]
//!   instead returns a [`Future`](std::future::Future) that *registers a
//!   waker* on that same flight ([`Engine::join_flight`]).  A miss with no
//!   flight in progress founds one and enqueues one selection job on the
//!   worker pool, which leads it unless a synchronous caller gets there
//!   first.  Every request kind (one dense vector, a batch, a structured
//!   workload) is one [`AnswerFuture`], generic over what it resolves to.
//!   It is a plain `std` future: drive it with any runtime, or with the
//!   bundled [`block_on`] / [`join_all`].
//! * **Bounded admission.** The selection queue is bounded; when it is full,
//!   new cold-workload requests fail fast with [`ServeError::Overloaded`]
//!   instead of queueing without limit.  Every request first passes the
//!   engine's admission gate ([`Engine::admit`]) at submit time: malformed
//!   input, and for requests charged to a [`UserLedger`] a spent shared
//!   budget, reject before any key is derived or work queued.
//! * **Typed failure.** A selection that returns an error or panics poisons
//!   only that flight: every served waiter resolves with the selector's
//!   error or a [`MechanismError::PoisonedSelection`] naming the panic, and
//!   the fingerprint can be retried fresh.
//! * **Graceful degradation.** Requests can carry **deadlines** (a builder
//!   default, or per-future): an expired request resolves with the typed
//!   [`ServeError::DeadlineExceeded`] — a watchdog thread wakes it even if
//!   the selection it waits on never finishes — and a queued selection job
//!   whose founder expired is skipped, never run stale.  Failures classify
//!   as transient or permanent ([`ServeError::is_transient`]), the engine
//!   below retries transient store faults with bounded backoff behind a
//!   circuit breaker, and [`ServeEngine::health`] exposes one degradation
//!   snapshot (queue depth, shed/expiry counters, poisoned flights, store
//!   breaker state) for operators and the chaos suite.
//!
//! Answers are produced by the engine's own paths, so everything the engine
//! guarantees (bit-identical batching, persistent-store round-trips, budget
//! fail-closed semantics) holds verbatim when served through this crate.
//!
//! # Example
//!
//! ```
//! use mm_core::engine::{Engine, PrivacyBudget};
//! use mm_core::accounting::UserLedger;
//! use mm_serve::{block_on, join_all, ServeEngine};
//! use mm_workload::range::AllRangeWorkload;
//! use mm_workload::Domain;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::builder().build().unwrap());
//! let serve = ServeEngine::builder(engine).workers(2).build();
//! let workload = Arc::new(AllRangeWorkload::new(Domain::one_dim(16)));
//! let x: Vec<f64> = (0..16).map(|i| 10.0 + i as f64).collect();
//!
//! // Two concurrent requests for one cold workload: one selection job runs,
//! // both futures resolve.
//! let a = serve.answer(workload.clone(), x.clone(), 1);
//! let b = serve.answer(workload.clone(), x.clone(), 2);
//! let answers = block_on(join_all(vec![a, b]));
//! assert!(answers.iter().all(|a| a.is_ok()));
//!
//! // Budget-governed serving: sessions share the principal's one ledger.
//! let ledger = UserLedger::new("alice", PrivacyBudget::new(1.0, 1e-3));
//! let answer = block_on(serve.answer_for(&ledger, workload, x, 3)).unwrap();
//! assert_eq!(answer.answers.len(), 16 * 17 / 2);
//! assert!(ledger.spent().epsilon > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod future;

pub use executor::{block_on, join_all, JoinAll};
pub use future::AnswerFuture;

use mm_core::accounting::UserLedger;
use mm_core::engine::{Engine, EngineAnswer, StoreHealth, StructuredAnswer};
use mm_core::{Fault, FaultSite, MechanismError};
use mm_workload::{StructuredWorkload, Workload};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::Waker;
use std::time::{Duration, Instant};

use future::AnswerCall;

/// Default number of selection worker threads.
pub const DEFAULT_WORKERS: usize = 2;

/// Default bound on queued selection jobs before load is shed.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Why the serving tier failed a request.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServeError {
    /// The selection queue was full: the request was shed at admission
    /// without doing any work.  Retry later, or grow the queue/worker pool.
    Overloaded {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The request's deadline passed before it resolved (builder default or
    /// per-future override).  No answer was produced and nothing was charged
    /// to a ledger; a selection the request founded may still complete and
    /// warm the cache for later requests.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The underlying mechanism failed (selector error, poisoned selection,
    /// exhausted budget, invalid argument, …).  Shared, because one failed
    /// selection can fail many waiting requests.
    Mechanism(Arc<MechanismError>),
}

impl ServeError {
    /// The mechanism error inside, if this is [`ServeError::Mechanism`].
    pub fn mechanism(&self) -> Option<&MechanismError> {
        match self {
            ServeError::Mechanism(e) => Some(e),
            _ => None,
        }
    }

    /// Whether retrying the same request could plausibly succeed without
    /// any caller-side change.
    ///
    /// [`ServeError::Overloaded`] and [`ServeError::DeadlineExceeded`] are
    /// load conditions — transient by nature (and the shed/expired request
    /// may even find the cache warmed by the flight it abandoned).
    /// [`ServeError::Mechanism`] delegates to
    /// [`MechanismError::is_transient`]: store I/O failures and poisoned
    /// selections are retryable, everything else is a deterministic
    /// function of the request.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. } => true,
            ServeError::Mechanism(e) => e.is_transient(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => write!(
                f,
                "serving tier overloaded: selection queue at capacity {capacity}"
            ),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "request deadline of {deadline_ms} ms exceeded")
            }
            ServeError::Mechanism(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Mechanism(e) => Some(&**e as &(dyn std::error::Error + 'static)),
            ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<MechanismError> for ServeError {
    fn from(e: MechanismError) -> Self {
        ServeError::Mechanism(Arc::new(e))
    }
}

/// Request counters of a [`ServeEngine`] (monotone since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Futures created by `answer`/`answer_batch`/`answer_structured` (and
    /// the `_for` variants).
    pub submitted: u64,
    /// Requests that resolved with answers.
    pub completed: u64,
    /// Requests that resolved with a mechanism error.
    pub failed: u64,
    /// Requests shed with [`ServeError::Overloaded`] (queue full).
    pub shed: u64,
    /// Requests rejected at submit time (malformed input, budget headroom,
    /// NaN gram).
    pub rejected: u64,
    /// Selection jobs enqueued on the worker pool: one per flight a request
    /// founds, however many requests join it.  A request that joins a
    /// flight a synchronous caller leads enqueues none.
    pub selection_jobs: u64,
    /// Requests submitted through the structured (matrix-free) path
    /// ([`ServeEngine::answer_structured`]); these never enqueue worker
    /// jobs, so they are excluded from `selection_jobs`.
    pub structured: u64,
    /// Requests that resolved with [`ServeError::DeadlineExceeded`]
    /// (counted here, not in `failed`).
    pub deadline_expired: u64,
    /// Queued selection jobs skipped by a worker because the founding
    /// request's deadline had already passed when the job was dequeued.
    pub jobs_expired: u64,
}

/// A point-in-time degradation snapshot of a [`ServeEngine`] — see
/// [`ServeEngine::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeHealth {
    /// Selection jobs currently queued (admitted, not yet dequeued).
    pub queue_depth: usize,
    /// The configured queue bound ([`ServeEngineBuilder::queue_capacity`]).
    pub queue_capacity: usize,
    /// The engine's selection flights in progress
    /// ([`Engine::in_flight_selections`]): led by a worker or a synchronous
    /// caller, or founded by a request whose job is still queued.
    pub pending_selections: usize,
    /// Requests shed with [`ServeError::Overloaded`] since construction.
    pub shed: u64,
    /// Requests rejected at submit (malformed input, budget headroom, NaN
    /// gram) since construction.
    pub rejected: u64,
    /// Requests that resolved [`ServeError::DeadlineExceeded`].
    pub deadline_expired: u64,
    /// Queued selection jobs skipped because their founder's deadline
    /// passed before they ran.
    pub jobs_expired: u64,
    /// Selection flights that were poisoned (selector error, panic or
    /// abandonment) and retried by a later leader, from the engine.
    pub poisoned_flights: u64,
    /// The persistent store's health: circuit-breaker state, consecutive
    /// save failures, corruption drops, total save failures.  All-default
    /// (closed breaker, zero counters) when no store is configured.
    pub store: StoreHealth,
}

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

pub(crate) struct Inner {
    pub(crate) engine: Arc<Engine>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    /// Set once, by [`ServeEngine`]'s drop, under the queue and timer locks.
    shutdown: AtomicBool,
    /// Deadline → waker registrations serviced by the watchdog thread, so a
    /// pending future whose deadline passes is woken (and resolves
    /// [`ServeError::DeadlineExceeded`]) even if the selection it waits on
    /// never completes.
    timers: Mutex<Vec<(Instant, Waker)>>,
    timer_cv: Condvar,
    /// Deadline applied to every future at submit unless overridden
    /// per-future; `None` means requests wait indefinitely.
    pub(crate) default_deadline: Option<Duration>,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) selection_jobs: AtomicU64,
    pub(crate) structured: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) jobs_expired: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("queue_capacity", &self.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Inner {
    /// Enqueues a selection job, or returns the request's typed failure:
    /// [`ServeError::Overloaded`] when the queue is full, and a
    /// [`MechanismError::PoisonedSelection`] once the tier has shut down.
    /// Both are decided under the queue lock, which the drop holds while it
    /// sets `shutdown` and a worker holds when it leaves, so no job can land
    /// after the last worker has left.
    ///
    /// Lock poisoning is recovered throughout this tier: the queue and
    /// timer lists hold plain data that is never left half-updated across a
    /// panic (jobs are pushed/popped whole), so the poison flag carries no
    /// information — and propagating it would panic every waiter.
    pub(crate) fn enqueue(&self, job: Job) -> Result<(), ServeError> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::from(MechanismError::PoisonedSelection(
                "serving tier shut down before the selection completed".into(),
            )));
        }
        if queue.len() >= self.queue_capacity {
            return Err(ServeError::Overloaded {
                capacity: self.queue_capacity,
            });
        }
        queue.push_back(job);
        self.selection_jobs.fetch_add(1, Ordering::Relaxed);
        self.queue_cv.notify_one();
        Ok(())
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        break None;
                    }
                    queue = self
                        .queue_cv
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => {
                    // The worker fault site honours latency only: a stalled
                    // worker (CPU contention, scheduling delay) is what
                    // deadline tests need to reproduce deterministically.
                    if let Some(Fault::LatencyMs(ms)) =
                        self.engine.fault_injector().inject(FaultSite::Worker)
                    {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    job()
                }
                None => return, // shutdown with a drained queue
            }
        }
    }

    /// Registers a waker to be woken at `at` by the watchdog thread
    /// (deduplicated per `(instant, task)` so repolls don't accumulate).
    pub(crate) fn register_timer(&self, at: Instant, waker: Waker) {
        {
            let mut timers = self.timers.lock().unwrap_or_else(PoisonError::into_inner);
            if timers.iter().any(|(t, w)| *t == at && w.will_wake(&waker)) {
                return;
            }
            timers.push((at, waker));
        }
        self.timer_cv.notify_all();
    }

    /// The watchdog loop: wakes every registered waker whose deadline has
    /// passed, sleeping until the earliest outstanding deadline otherwise.
    /// Woken futures observe their expiry on the next poll; the watchdog
    /// itself never resolves anything, so a racing completion always wins.
    fn timer_loop(&self) {
        loop {
            let due: Vec<Waker> = {
                let mut timers = self.timers.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        // Shutdown: wake everything so no future stays
                        // parked on a watchdog that no longer runs.
                        break timers.drain(..).map(|(_, w)| w).collect();
                    }
                    let now = Instant::now();
                    let mut expired = Vec::new();
                    let mut live = Vec::new();
                    for (at, waker) in timers.drain(..) {
                        if at <= now {
                            expired.push(waker);
                        } else {
                            live.push((at, waker));
                        }
                    }
                    *timers = live;
                    if !expired.is_empty() {
                        break expired;
                    }
                    match timers.iter().map(|(at, _)| *at).min() {
                        Some(next) => {
                            let wait = next.saturating_duration_since(now);
                            let (guard, _) = self
                                .timer_cv
                                .wait_timeout(timers, wait)
                                .unwrap_or_else(PoisonError::into_inner);
                            timers = guard;
                        }
                        None => {
                            timers = self
                                .timer_cv
                                .wait(timers)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
            };
            let stop = self.shutdown.load(Ordering::Acquire);
            for waker in due {
                waker.wake();
            }
            if stop {
                return;
            }
        }
    }
}

/// Builder for [`ServeEngine`].
#[derive(Debug)]
pub struct ServeEngineBuilder {
    engine: Arc<Engine>,
    workers: usize,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

impl ServeEngineBuilder {
    /// Number of selection worker threads (min 1; default
    /// [`DEFAULT_WORKERS`]).  Workers only run strategy selections — answer
    /// assembly happens on the polling task — so size this to the number of
    /// concurrent *cold* workloads you expect, not to request throughput.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bound on queued selection jobs before new cold-workload requests are
    /// shed with [`ServeError::Overloaded`] (min 1; default
    /// [`DEFAULT_QUEUE_CAPACITY`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Deadline applied to every request at submit time (overridable
    /// per-future with `.deadline(...)` on the returned future).  A request
    /// that has not resolved within the deadline fails with the typed
    /// [`ServeError::DeadlineExceeded`]; a queued selection job whose
    /// founding request expired is skipped rather than run stale.  Default:
    /// no deadline (requests wait indefinitely).
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Builds the serving engine and starts its worker threads (plus the
    /// deadline watchdog thread).
    pub fn build(self) -> ServeEngine {
        let inner = Arc::new(Inner {
            engine: self.engine,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: self.queue_capacity,
            shutdown: AtomicBool::new(false),
            timers: Mutex::new(Vec::new()),
            timer_cv: Condvar::new(),
            default_deadline: self.default_deadline,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            selection_jobs: AtomicU64::new(0),
            structured: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            jobs_expired: AtomicU64::new(0),
        });
        let workers = (0..self.workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("mm-serve-{i}"))
                    .spawn(move || inner.worker_loop())
                    // mm-lint: allow(serve-panic-freedom): spawn runs at construction, before any flight exists — failing fast at startup cannot poison a waiter
                    .expect("spawn serve worker")
            })
            .collect();
        let watchdog = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("mm-serve-timer".into())
                .spawn(move || inner.timer_loop())
                // mm-lint: allow(serve-panic-freedom): spawn runs at construction, before any flight exists — failing fast at startup cannot poison a waiter
                .expect("spawn serve watchdog")
        };
        ServeEngine {
            inner,
            workers,
            watchdog: Some(watchdog),
        }
    }
}

/// The async front-end over an [`Engine`]: see the crate docs.
///
/// Dropping the `ServeEngine` stops the worker pool: queued selection jobs
/// are drained first, so every already-admitted future still resolves.  A
/// cold request first polled after the drop resolves with a typed
/// [`MechanismError::PoisonedSelection`] instead of enqueueing.
#[derive(Debug)]
pub struct ServeEngine {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts building a serving tier over an engine.
    pub fn builder(engine: Arc<Engine>) -> ServeEngineBuilder {
        ServeEngineBuilder {
            engine,
            workers: DEFAULT_WORKERS,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            default_deadline: None,
        }
    }

    /// The engine answers are produced by.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Request counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            selection_jobs: self.inner.selection_jobs.load(Ordering::Relaxed),
            structured: self.inner.structured.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            jobs_expired: self.inner.jobs_expired.load(Ordering::Relaxed),
        }
    }

    /// One coherent degradation snapshot: current load (queue depth,
    /// in-flight selections), every shedding/expiry counter, the engine's
    /// poisoned-flight count, and the persistent store's health (circuit
    /// breaker state, consecutive failures, corruption drops).  This is what
    /// an operator (or the chaos suite's artifact) reads to tell *how* the
    /// tier is degraded, not just that requests are failing.
    pub fn health(&self) -> ServeHealth {
        let queue_depth = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        ServeHealth {
            queue_depth,
            queue_capacity: self.inner.queue_capacity,
            pending_selections: self.inner.engine.in_flight_selections(),
            shed: self.inner.shed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            jobs_expired: self.inner.jobs_expired.load(Ordering::Relaxed),
            poisoned_flights: self.inner.engine.stats().poisoned_flights,
            store: self.inner.engine.store_health(),
        }
    }

    /// Answers one workload on one data vector at the engine's privacy
    /// parameters; resolves to the engine's answer.  `seed` determines the
    /// noise draw: a served answer is bit-identical to a direct
    /// `engine.answer` with a `StdRng` seeded the same way.
    pub fn answer<W>(&self, workload: Arc<W>, x: Vec<f64>, seed: u64) -> AnswerFuture<W>
    where
        W: Workload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, vec![x], seed, None, true, dense_one)
    }

    /// [`ServeEngine::answer`] charged to a principal's shared
    /// [`UserLedger`]: the request is probed against the ledger's headroom
    /// at submit time and charged on release, so concurrent sessions of one
    /// principal can never jointly over-spend.
    pub fn answer_for<W>(
        &self,
        ledger: &UserLedger,
        workload: Arc<W>,
        x: Vec<f64>,
        seed: u64,
    ) -> AnswerFuture<W>
    where
        W: Workload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, vec![x], seed, Some(ledger), true, dense_one)
    }

    /// Answers one workload on many data vectors (one noise draw each, one
    /// cache/selection round for all — the engine's vectorised batch path).
    pub fn answer_batch<W>(
        &self,
        workload: Arc<W>,
        xs: Vec<Vec<f64>>,
        seed: u64,
    ) -> AnswerFuture<W, Vec<EngineAnswer>>
    where
        W: Workload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, xs, seed, None, true, dense_batch)
    }

    /// [`ServeEngine::answer_batch`] charged to a principal's shared
    /// [`UserLedger`] (one charge per data vector, all-or-nothing).
    pub fn answer_batch_for<W>(
        &self,
        ledger: &UserLedger,
        workload: Arc<W>,
        xs: Vec<Vec<f64>>,
        seed: u64,
    ) -> AnswerFuture<W, Vec<EngineAnswer>>
    where
        W: Workload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, xs, seed, Some(ledger), true, dense_batch)
    }

    /// Answers a structured workload through the engine's matrix-free path
    /// ([`mm_core::Engine::answer_structured`]): noisy observations through
    /// the strategy operator, exact O(n) least-squares reconstruction, O(n)
    /// peak memory — the path that serves n = 65 536 where the dense tier
    /// cannot even materialise its gram matrix.  The request carries no plan
    /// key and never enqueues a worker job (structured selection is
    /// O(n log n)); everything runs on the first poll, and the answer is
    /// bit-identical to a direct engine call with a `StdRng` seeded the same
    /// way.  Concurrent first requests for one structured workload share one
    /// selection: the engine's plan lookup is single-flight for every plan
    /// kind.
    pub fn answer_structured<W>(
        &self,
        workload: Arc<W>,
        x: Vec<f64>,
        seed: u64,
    ) -> AnswerFuture<W, StructuredAnswer>
    where
        W: StructuredWorkload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, vec![x], seed, None, false, structured_one)
    }

    /// [`ServeEngine::answer_structured`] charged to a principal's shared
    /// [`UserLedger`]: probed against the ledger's headroom at submit time,
    /// charged in full (actual sensitivity, backend noise scale) on release.
    pub fn answer_structured_for<W>(
        &self,
        ledger: &UserLedger,
        workload: Arc<W>,
        x: Vec<f64>,
        seed: u64,
    ) -> AnswerFuture<W, StructuredAnswer>
    where
        W: StructuredWorkload + Send + Sync + ?Sized + 'static,
    {
        self.submit(workload, vec![x], seed, Some(ledger), false, structured_one)
    }

    /// Admits one request and returns its future.  In order: count it
    /// (`submitted`, plus `structured` for a request without a plan key);
    /// run the engine's admission gate ([`Engine::admit`]), so malformed
    /// input (a data vector of the wrong length, a workload without
    /// queries) and a spent principal budget fail fast before a key is
    /// derived or any work is queued; then derive a `keyed` request's plan
    /// key, which rejects a NaN gram.  Either failure counts in
    /// [`ServeStats::rejected`] and resolves the future on its first poll.
    ///
    /// The budget probe uses unit sensitivity (the strategy is not selected
    /// yet); the release itself re-checks and charges the event with the
    /// actual sensitivity, so this is an admission filter, never the
    /// enforcement point.
    fn submit<W, T>(
        &self,
        workload: Arc<W>,
        xs: Vec<Vec<f64>>,
        seed: u64,
        ledger: Option<&UserLedger>,
        keyed: bool,
        answer: AnswerCall<W, T>,
    ) -> AnswerFuture<W, T>
    where
        W: Workload + Send + Sync + ?Sized + 'static,
    {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        if !keyed {
            self.inner.structured.fetch_add(1, Ordering::Relaxed);
        }
        let engine = &self.inner.engine;
        let accountant = ledger.map(UserLedger::accountant_handle);
        // The key names the engine flight the request waits on.  It is the
        // key the answer derives too, and a workload that memoises it
        // (all-range, marginal) builds no gram for it here or there on a
        // repeated request.  The base fingerprint is mixed through the
        // engine's plan keying so a low-rank engine's futures wait on (and
        // probe for) the same cache entry its answer path writes.
        let admitted = engine
            .admit(&*workload, &xs, engine.privacy(), accountant.as_deref())
            .and_then(|()| {
                if !keyed {
                    return Ok(None);
                }
                let (base, _) = workload.try_fingerprint()?;
                Ok(Some(engine.plan_fingerprint(base, workload.dim())))
            })
            .map_err(|e| {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                ServeError::from(e)
            });
        AnswerFuture::new(
            self.inner.clone(),
            workload,
            xs,
            seed,
            ledger.cloned(),
            admitted,
            answer,
        )
    }
}

/// The one data vector of a single-vector request.
fn one(xs: &[Vec<f64>]) -> mm_core::Result<&[f64]> {
    match xs {
        [x] => Ok(x),
        _ => Err(MechanismError::InvalidArgument(format!(
            "a single-vector request holds {} data vectors",
            xs.len()
        ))),
    }
}

/// A single dense vector: [`Engine::answer`], or [`Session::answer`] on the
/// ledger's session.
///
/// [`Session::answer`]: mm_core::engine::Session::answer
fn dense_one<W: Workload + ?Sized>(
    engine: &Arc<Engine>,
    workload: &W,
    xs: &[Vec<f64>],
    rng: &mut StdRng,
    ledger: Option<&UserLedger>,
) -> mm_core::Result<EngineAnswer> {
    let x = one(xs)?;
    match ledger {
        Some(ledger) => engine.user_session(ledger).answer(workload, x, rng),
        None => engine.answer(workload, x, rng),
    }
}

/// A batch: [`Engine::answer_batch`], or the ledger session's.
fn dense_batch<W: Workload + ?Sized>(
    engine: &Arc<Engine>,
    workload: &W,
    xs: &[Vec<f64>],
    rng: &mut StdRng,
    ledger: Option<&UserLedger>,
) -> mm_core::Result<Vec<EngineAnswer>> {
    match ledger {
        Some(ledger) => engine.user_session(ledger).answer_batch(workload, xs, rng),
        None => engine.answer_batch(workload, xs, rng),
    }
}

/// A structured request: [`Engine::answer_structured`], or the ledger
/// session's.
fn structured_one<W: StructuredWorkload + ?Sized>(
    engine: &Arc<Engine>,
    workload: &W,
    xs: &[Vec<f64>],
    rng: &mut StdRng,
    ledger: Option<&UserLedger>,
) -> mm_core::Result<StructuredAnswer> {
    let x = one(xs)?;
    match ledger {
        Some(ledger) => engine
            .user_session(ledger)
            .answer_structured(workload, x, rng),
        None => engine.answer_structured(workload, x, rng),
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Set under the queue and timer locks, so neither a worker nor the
        // watchdog can miss it between its check and its wait, and no job
        // is admitted after it (see `Inner::enqueue`).  Workers drain the
        // queue before they leave, so every flight a job would lead resolves.
        let inner = &self.inner;
        {
            let _queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let _timers = inner.timers.lock().unwrap_or_else(PoisonError::into_inner);
            inner.shutdown.store(true, Ordering::Release);
        }
        inner.queue_cv.notify_all();
        inner.timer_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{block_on, join_all};
    use mm_core::engine::{PrivacyBudget, SelectionContext, StrategySelector};
    use mm_strategies::Strategy;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::future::Future;
    use std::pin::Pin;

    fn workload(n: usize) -> Arc<AllRangeWorkload> {
        Arc::new(AllRangeWorkload::new(Domain::one_dim(n)))
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| 50.0 + (i as f64) * 3.0).collect()
    }

    #[test]
    fn served_answers_are_bit_identical_to_sync() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine.clone()).build();
        let w = workload(12);
        let xs = vec![data(12), data(12).iter().map(|v| v * 2.0).collect()];

        let served = block_on(serve.answer_batch(w.clone(), xs.clone(), 99)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let direct = engine.answer_batch(&*w, &xs, &mut rng).unwrap();

        assert_eq!(served.len(), direct.len());
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s.answers.len(), d.answers.len());
            for (a, b) in s.answers.iter().zip(&d.answers) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = serve.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.selection_jobs, 1);
    }

    #[test]
    fn concurrent_cold_requests_share_one_selection_job() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine.clone()).workers(4).build();
        let w = workload(16);
        let futures: Vec<_> = (0..8)
            .map(|seed| serve.answer(w.clone(), data(16), seed))
            .collect();
        let answers = block_on(join_all(futures));
        assert!(answers.iter().all(|a| a.is_ok()));

        let stats = serve.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        // Waker registration, not duplicate work: one cold fingerprint, one
        // selection job, one engine-level selection.
        assert_eq!(stats.selection_jobs, 1);
        assert_eq!(engine.stats().selections, 1);
    }

    /// Delegates to the default selector after waiting for a release signal
    /// (and counts calls), so tests can hold a selection in flight.
    struct GatedSelector {
        release: Arc<(Mutex<bool>, Condvar)>,
        started: Arc<(Mutex<usize>, Condvar)>,
        inner: mm_core::engine::EigenDesignSelector,
    }

    impl std::fmt::Debug for GatedSelector {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("GatedSelector").finish_non_exhaustive()
        }
    }

    impl StrategySelector for GatedSelector {
        fn name(&self) -> String {
            "gated".into()
        }

        fn select(&self, ctx: &SelectionContext) -> mm_core::Result<Strategy> {
            {
                let (count, cv) = &*self.started;
                *count.lock().unwrap() += 1;
                cv.notify_all();
            }
            let (open, cv) = &*self.release;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.select(ctx)
        }
    }

    #[test]
    fn full_queue_sheds_with_typed_overload_error() {
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new((Mutex::new(0usize), Condvar::new()));
        let engine = Arc::new(
            Engine::builder()
                .selector(GatedSelector {
                    release: release.clone(),
                    started: started.clone(),
                    inner: Default::default(),
                })
                .build()
                .unwrap(),
        );
        let serve = ServeEngine::builder(engine)
            .workers(1)
            .queue_capacity(1)
            .build();

        // Three *distinct* cold workloads: the first occupies the only
        // worker, the second fills the queue, the third must be shed.
        let mut f1 = serve.answer(workload(8), data(8), 1);
        let mut f2 = serve.answer(workload(9), data(9), 2);
        let mut f3 = serve.answer(workload(10), data(10), 3);

        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        assert!(Pin::new(&mut f1).poll(&mut cx).is_pending());
        {
            // Wait until the worker has *dequeued* f1's job (the selector
            // reported in), so the queue slot is observably free again.
            let (count, cv) = &*started;
            let mut count = count.lock().unwrap();
            while *count == 0 {
                count = cv.wait(count).unwrap();
            }
        }
        assert!(Pin::new(&mut f2).poll(&mut cx).is_pending());
        match Pin::new(&mut f3).poll(&mut cx) {
            std::task::Poll::Ready(Err(ServeError::Overloaded { capacity })) => {
                assert_eq!(capacity, 1);
            }
            other => panic!("expected typed overload shed, got {other:?}"),
        }
        assert_eq!(serve.stats().shed, 1);

        // Release the gate: both admitted requests still resolve.
        {
            let (open, cv) = &*release;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(block_on(f1).is_ok());
        assert!(block_on(f2).is_ok());
        assert_eq!(serve.stats().completed, 2);
    }

    #[test]
    fn exhausted_shared_budget_rejects_at_submit() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let per_answer = engine.privacy().epsilon;
        let serve = ServeEngine::builder(engine).build();
        let w = workload(8);
        // Headroom for exactly one answer.
        let ledger = UserLedger::new("carol", PrivacyBudget::new(per_answer * 1.5, 1e-2));

        let first = block_on(serve.answer_for(&ledger, w.clone(), data(8), 1));
        assert!(first.is_ok());
        let second = block_on(serve.answer_for(&ledger, w.clone(), data(8), 2));
        match second {
            Err(ServeError::Mechanism(e)) => {
                assert!(
                    matches!(&*e, MechanismError::BudgetExhausted { .. }),
                    "expected budget exhaustion, got {e}"
                );
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
        let stats = serve.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);
        // The warm selection means the rejection did zero selection work.
        assert_eq!(stats.selection_jobs, 1);
    }

    /// Panics on the first call, then delegates — the recovery path.
    struct PanicOnceSelector {
        panicked: std::sync::atomic::AtomicBool,
        inner: mm_core::engine::EigenDesignSelector,
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

        fn select(&self, ctx: &SelectionContext) -> mm_core::Result<Strategy> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected selector crash");
            }
            self.inner.select(ctx)
        }
    }

    #[test]
    fn panicking_selection_poisons_waiters_then_recovers() {
        let engine = Arc::new(
            Engine::builder()
                .selector(PanicOnceSelector {
                    panicked: std::sync::atomic::AtomicBool::new(false),
                    inner: Default::default(),
                })
                .build()
                .unwrap(),
        );
        let serve = ServeEngine::builder(engine.clone()).workers(1).build();
        let w = workload(8);

        let futures: Vec<_> = (0..4)
            .map(|s| serve.answer(w.clone(), data(8), s))
            .collect();
        let results = block_on(join_all(futures));
        // All four waiters observe the typed poison — nobody hangs.
        for result in &results {
            match result {
                Err(ServeError::Mechanism(e)) => {
                    assert!(matches!(&**e, MechanismError::PoisonedSelection(_)));
                    assert!(e.to_string().contains("injected selector crash"));
                }
                other => panic!("expected poisoned selection, got {other:?}"),
            }
        }
        assert_eq!(serve.stats().failed, 4);

        // The fingerprint is retryable: the next request selects fresh.
        let retry = block_on(serve.answer(w, data(8), 9));
        assert!(retry.is_ok());
        assert_eq!(serve.stats().completed, 1);
        assert_eq!(serve.stats().selection_jobs, 2);
    }

    #[test]
    fn served_structured_answers_are_bit_identical_to_sync() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine.clone()).build();
        let w = Arc::new(mm_workload::RangeQueryWorkload::prefixes(64));
        let x = data(64);

        let served = block_on(serve.answer_structured(w.clone(), x.clone(), 41)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let direct = engine.answer_structured(&*w, &x, &mut rng).unwrap();

        assert_eq!(served.answers.len(), direct.answers.len());
        for (a, b) in served.answers.iter().zip(&direct.answers) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = serve.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.structured, 1);
        // Structured selection runs inline — the worker pool never sees it.
        assert_eq!(stats.selection_jobs, 0);
    }

    #[test]
    fn structured_budget_is_probed_at_submit_and_charged_on_release() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let per_answer = engine.privacy().epsilon;
        let serve = ServeEngine::builder(engine).build();
        let w = Arc::new(mm_workload::RangeQueryWorkload::prefixes(16));
        let ledger = UserLedger::new("dave", PrivacyBudget::new(per_answer * 1.5, 1e-2));

        let first = block_on(serve.answer_structured_for(&ledger, w.clone(), data(16), 5));
        assert!(first.is_ok());
        assert!(ledger.spent().epsilon > 0.0);
        let second = block_on(serve.answer_structured_for(&ledger, w, data(16), 6));
        match second {
            Err(ServeError::Mechanism(e)) => {
                assert!(matches!(&*e, MechanismError::BudgetExhausted { .. }));
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
        let stats = serve.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.structured, 2);
    }

    #[test]
    fn nan_gram_is_rejected_before_queueing() {
        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine).build();
        let w = Arc::new(mm_workload::ExplicitWorkload::new(
            "nan",
            vec![mm_workload::LinearQuery::new(
                2,
                vec![(0, f64::NAN), (1, 1.0)],
            )],
        ));
        let result = block_on(serve.answer(w, vec![1.0, 2.0], 1));
        match result {
            Err(ServeError::Mechanism(e)) => {
                assert!(matches!(&*e, MechanismError::NanWorkloadGram { .. }));
            }
            other => panic!("expected NaN-gram rejection, got {other:?}"),
        }
        let stats = serve.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.selection_jobs, 0);
    }

    #[test]
    fn malformed_input_is_rejected_before_queueing() {
        fn assert_invalid<T: std::fmt::Debug>(result: Result<T, ServeError>) {
            match result {
                Err(ServeError::Mechanism(e)) => {
                    assert!(matches!(&*e, MechanismError::InvalidArgument(_)), "{e}");
                }
                other => panic!("expected invalid-argument rejection, got {other:?}"),
            }
        }

        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine.clone()).build();
        assert_invalid(block_on(serve.answer(workload(64), vec![1.0; 8], 1)));
        // A batch holding one short vector among full ones.
        assert_invalid(block_on(serve.answer_batch(
            workload(64),
            vec![data(64), vec![1.0; 8]],
            2,
        )));
        let prefixes = Arc::new(mm_workload::RangeQueryWorkload::prefixes(64));
        assert_invalid(block_on(serve.answer_structured(prefixes, vec![1.0; 8], 3)));
        let stats = serve.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.structured, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.selection_jobs, 0);
        assert_eq!(engine.stats().cache_misses, 0);
    }

    /// A zero deadline expires every request kind on its first poll, before
    /// it probes the cache, founds a job or touches its ledger.
    #[test]
    fn a_zero_deadline_expires_every_kind_on_its_first_poll() {
        fn assert_expired<W, T>(mut future: AnswerFuture<W, T>)
        where
            W: Workload + Send + Sync + ?Sized + 'static,
            T: std::fmt::Debug,
        {
            let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
            match Pin::new(&mut future).poll(&mut cx) {
                std::task::Poll::Ready(Err(ServeError::DeadlineExceeded { deadline_ms: 0 })) => {}
                other => panic!("expected deadline expiry on the first poll, got {other:?}"),
            }
        }

        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine.clone()).build();
        let ledger = UserLedger::new("erin", PrivacyBudget::new(10.0, 1e-2));
        let zero = Duration::ZERO;
        assert_expired(
            serve
                .answer_for(&ledger, workload(8), data(8), 1)
                .deadline(zero),
        );
        assert_expired(
            serve
                .answer_batch_for(&ledger, workload(8), vec![data(8), data(8)], 2)
                .deadline(zero),
        );
        let prefixes = Arc::new(mm_workload::RangeQueryWorkload::prefixes(16));
        assert_expired(
            serve
                .answer_structured_for(&ledger, prefixes, data(16), 3)
                .deadline(zero),
        );
        let stats = serve.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.deadline_expired, 3);
        assert_eq!(stats.completed + stats.failed + stats.rejected, 0);
        assert_eq!(stats.selection_jobs, 0);
        assert_eq!(engine.stats().cache_misses, 0);
        assert_eq!(ledger.spent().epsilon, 0.0);
        assert_eq!(ledger.spent().delta, 0.0);
    }

    /// Every `ServeError` variant: Display round-trips its key facts,
    /// `source()` chains exactly for `Mechanism`, and the transient /
    /// permanent classification matches the documented taxonomy.
    #[test]
    fn serve_error_display_source_and_transience_cover_every_variant() {
        use std::error::Error;

        let overloaded = ServeError::Overloaded { capacity: 7 };
        assert!(overloaded.to_string().contains("capacity 7"));
        assert!(overloaded.source().is_none());
        assert!(overloaded.mechanism().is_none());
        assert!(overloaded.is_transient());

        let expired = ServeError::DeadlineExceeded { deadline_ms: 250 };
        assert!(expired.to_string().contains("250 ms"));
        assert!(expired.source().is_none());
        assert!(expired.mechanism().is_none());
        assert!(expired.is_transient());

        let transient_inner = MechanismError::Store("disk gone".into());
        let transient = ServeError::from(transient_inner);
        assert!(transient.to_string().contains("disk gone"));
        assert!(transient
            .source()
            .is_some_and(|s| s.to_string().contains("disk gone")));
        assert!(transient.mechanism().is_some());
        assert!(transient.is_transient());

        let permanent = ServeError::from(MechanismError::InvalidArgument("bad dims".into()));
        assert!(permanent.to_string().contains("bad dims"));
        assert!(permanent
            .source()
            .is_some_and(|s| s.to_string().contains("bad dims")));
        assert!(!permanent.is_transient());
    }

    /// A worker stalled by injected latency pushes the request past its
    /// deadline: the watchdog wakes the parked future, which resolves with
    /// the typed error instead of hanging — and the tier stays serviceable.
    #[test]
    fn deadline_expires_under_injected_worker_latency() {
        use mm_core::{Fault, FaultSchedule, FaultSite};
        use std::time::Duration;

        let engine = Arc::new(
            Engine::builder()
                .fault_injector(FaultSchedule::new().inject_at(
                    FaultSite::Worker,
                    0,
                    Fault::LatencyMs(400),
                ))
                .build()
                .unwrap(),
        );
        let serve = ServeEngine::builder(engine)
            .workers(1)
            .default_deadline(Duration::from_millis(40))
            .build();
        let w = workload(8);

        let started = std::time::Instant::now();
        let result = block_on(serve.answer(w.clone(), data(8), 1));
        match result {
            Err(ServeError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 40),
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "the watchdog resolved the future before the stalled worker finished"
        );
        assert_eq!(serve.stats().deadline_expired, 1);

        // When the stalled worker finally dequeues the job, the founder's
        // deadline has long passed: the selection is skipped, not run stale.
        let drained = std::time::Instant::now() + Duration::from_secs(5);
        while serve.stats().jobs_expired == 0 && std::time::Instant::now() < drained {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(serve.stats().jobs_expired, 1);

        // Only the first dequeue was stalled; with the worker free again, a
        // fresh request (its own full deadline) founds a new flight and
        // succeeds.
        let retry = block_on(serve.answer(w, data(8), 2));
        assert!(retry.is_ok(), "tier stays serviceable: {retry:?}");
        let stats = serve.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.deadline_expired, 1);
    }

    /// A queued job whose founder's deadline passed before a worker got to
    /// it is skipped (`jobs_expired`), never run stale — and a later
    /// request for the same workload selects fresh.
    #[test]
    fn queued_jobs_expire_instead_of_running_stale() {
        use std::time::Duration;

        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new((Mutex::new(0usize), Condvar::new()));
        let engine = Arc::new(
            Engine::builder()
                .selector(GatedSelector {
                    release: release.clone(),
                    started: started.clone(),
                    inner: Default::default(),
                })
                .build()
                .unwrap(),
        );
        let serve = ServeEngine::builder(engine).workers(1).build();

        // f1 occupies the only worker (no deadline); f2's job sits queued
        // behind it with a deadline that will pass before it can run.
        let mut f1 = serve.answer(workload(8), data(8), 1);
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        assert!(Pin::new(&mut f1).poll(&mut cx).is_pending());
        {
            let (count, cv) = &*started;
            let mut count = count.lock().unwrap();
            while *count == 0 {
                count = cv.wait(count).unwrap();
            }
        }
        let mut f2 = serve
            .answer(workload(9), data(9), 2)
            .deadline(Duration::from_millis(20));
        assert!(Pin::new(&mut f2).poll(&mut cx).is_pending());
        std::thread::sleep(Duration::from_millis(40));

        // Release the gate: the worker finishes f1's selection, then
        // dequeues f2's job and skips it as expired.
        {
            let (open, cv) = &*release;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(block_on(f1).is_ok());
        match block_on(f2) {
            Err(ServeError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 20),
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        // The skip is observable once the worker has drained the queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while serve.stats().jobs_expired == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = serve.stats();
        assert_eq!(stats.jobs_expired, 1);
        assert_eq!(stats.deadline_expired, 1);

        // The expired fingerprint is retryable: a fresh (undeadlined)
        // request founds a new flight and resolves.
        let retry = block_on(serve.answer(workload(9), data(9), 3));
        assert!(retry.is_ok(), "expired job slot is retryable: {retry:?}");
    }

    /// `health()` composes the tier's own gauges with the engine's store
    /// health into one snapshot.
    #[test]
    fn health_snapshot_reflects_load_and_store_state() {
        use mm_core::engine::BreakerState;

        let engine = Arc::new(Engine::builder().build().unwrap());
        let serve = ServeEngine::builder(engine).queue_capacity(5).build();
        let h = serve.health();
        assert_eq!(h.queue_depth, 0);
        assert_eq!(h.queue_capacity, 5);
        assert_eq!(h.pending_selections, 0);
        assert_eq!(h.store.breaker, BreakerState::Closed);
        assert_eq!(h.store.corrupt_dropped, 0);
        assert_eq!(h.store.save_failures, 0);

        let w = workload(8);
        assert!(block_on(serve.answer(w, data(8), 1)).is_ok());
        let h = serve.health();
        assert_eq!(h.pending_selections, 0, "flight resolved");
        assert_eq!(h.poisoned_flights, 0);
    }
}
