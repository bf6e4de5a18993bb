//! The serving futures: one generic [`ServeFuture`] state machine over a
//! [`ServeRequest`], with [`BatchFuture`] / [`AnswerFuture`] /
//! [`StructuredFuture`] as its public faces, plus the shared in-flight
//! [`SelectionTask`] waiters register wakers on.
//!
//! The state machine is deliberately small.  A future is born `Active`
//! (or `Failed` when rejected at submit); each poll either
//!
//! 1. finds the request's [`SelectionPlan`](mm_core::engine::SelectionPlan)
//!    cached and answers immediately through the engine's own paths, or
//! 2. joins (or founds) the one in-flight [`SelectionTask`] for its
//!    fingerprint, registers its waker, and returns `Pending`.
//!
//! Completion of the selection job wakes every registered waiter; the next
//! poll of each lands in case 1.  Answer assembly thus always happens on
//! the polling task with its own seeded RNG — the worker pool only ever
//! runs selections, which is what makes served answers bit-identical to
//! direct engine calls.  Requests whose selection is too cheap to be worth
//! a worker round-trip (the structured path) return no fingerprint and run
//! entirely inline on the first poll.
//!
//! Every future may additionally carry a **deadline** (builder default or a
//! per-future override): an expired request resolves with the typed
//! [`ServeError::DeadlineExceeded`] instead of waiting further, a pending
//! one arms the serving tier's watchdog so the expiry fires even when the
//! selection it waits on never completes, and a queued selection job whose
//! founder's deadline passed is skipped by the worker ([`TaskFailure::Expired`])
//! rather than run stale — live waiters simply re-found the flight.

use crate::{Inner, ServeError};
use mm_core::accounting::UserLedger;
use mm_core::engine::{Engine, EngineAnswer, StructuredAnswer};
use mm_core::MechanismError;
use mm_workload::{Fingerprint, StructuredWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Why a selection flight resolved without a usable plan.
#[derive(Clone)]
pub(crate) enum TaskFailure {
    /// The selection itself failed (selector error, panic, shutdown);
    /// shared, because one failed selection fails every waiter.
    Mechanism(Arc<MechanismError>),
    /// The founding request's deadline passed before the job ran, so the
    /// worker skipped the (stale) selection.  Not an error for the *other*
    /// waiters: any still-live one re-founds the flight under its own
    /// deadline on the next poll.
    Expired,
}

/// One in-flight selection: waiters register wakers, the worker completes.
pub(crate) struct SelectionTask {
    state: Mutex<TaskState>,
}

enum TaskState {
    Pending(Vec<Waker>),
    Done(Result<(), TaskFailure>),
}

impl SelectionTask {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SelectionTask {
            state: Mutex::new(TaskState::Pending(Vec::new())),
        })
    }

    /// Returns the outcome if the selection finished, otherwise registers
    /// the waker (deduplicated via [`Waker::will_wake`]) and returns `None`.
    pub(crate) fn poll_done(&self, waker: &Waker) -> Option<Result<(), TaskFailure>> {
        // Poison recovery: the task state is always written whole (one
        // enum assignment), so a panic elsewhere leaves nothing torn — and
        // panicking here would take every waiter down with the poisoner.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match &mut *state {
            TaskState::Done(result) => Some(result.clone()),
            TaskState::Pending(wakers) => {
                if !wakers.iter().any(|w| w.will_wake(waker)) {
                    wakers.push(waker.clone());
                }
                None
            }
        }
    }

    /// Resolves the task and wakes every registered waiter.  Idempotent:
    /// only the first completion sticks (the shutdown path in
    /// `ServeEngine::drop` may race a finishing worker).
    pub(crate) fn complete(&self, result: Result<(), TaskFailure>) {
        let wakers = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            match &mut *state {
                TaskState::Done(_) => return,
                TaskState::Pending(wakers) => {
                    let wakers = std::mem::take(wakers);
                    *state = TaskState::Done(result);
                    wakers
                }
            }
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

/// The deferred selection work a founded worker job runs for a request.
pub(crate) type SelectionJob = Box<dyn FnOnce(&Engine) -> mm_core::Result<()> + Send + 'static>;

/// One admitted serving request: what the generic [`ServeFuture`] needs to
/// key, select, and answer it.  Implemented by the dense batch request and
/// the structured request; both front-ends collapse onto the one state
/// machine through this trait.
pub(crate) trait ServeRequest {
    /// What the future resolves to on success.
    type Output;

    /// The plan fingerprint to deduplicate cold selections on, or `None`
    /// when selection is cheap enough to run inline on the polling task
    /// (the structured path) — such requests never touch the worker pool.
    fn fingerprint(&self) -> Option<Fingerprint>;

    /// The selection work a founded worker job runs for this request
    /// (only called when [`ServeRequest::fingerprint`] is `Some`).
    fn selection(&self) -> SelectionJob;

    /// Produces the answer through the engine's own sync paths, so served
    /// semantics (batching, accounting, noise draws) are exactly the direct
    /// ones.
    fn answer(&mut self, inner: &Inner) -> Result<Self::Output, ServeError>;
}

enum FutState {
    /// Rejected at submit; resolves with the stored error on first poll.
    Failed(Option<ServeError>),
    /// Live: probing the cache, waiting on a selection, or ready to answer.
    Active,
    /// Resolved; polling again is a contract violation.
    Finished,
}

/// The one serving state machine: every front-end future wraps this.
pub(crate) struct ServeFuture<R: ServeRequest> {
    inner: Arc<Inner>,
    request: R,
    task: Option<Arc<SelectionTask>>,
    state: FutState,
    /// When set, the request fails with [`ServeError::DeadlineExceeded`]
    /// once `.0` passes; `.1` is the originally configured duration (for
    /// the error message).
    deadline: Option<(Instant, Duration)>,
}

impl<R: ServeRequest> ServeFuture<R> {
    pub(crate) fn new(inner: Arc<Inner>, request: R) -> Self {
        let deadline = inner.default_deadline.map(|d| (Instant::now() + d, d));
        ServeFuture {
            inner,
            request,
            task: None,
            state: FutState::Active,
            deadline,
        }
    }

    /// A future rejected at submit time (malformed input, NaN gram, no budget
    /// headroom).
    pub(crate) fn failed(inner: Arc<Inner>, request: R, error: ServeError) -> Self {
        ServeFuture {
            inner,
            request,
            task: None,
            state: FutState::Failed(Some(error)),
            deadline: None,
        }
    }

    /// Replaces the deadline: the clock starts now, not at submit.
    pub(crate) fn set_deadline(&mut self, after: Duration) {
        self.deadline = Some((Instant::now() + after, after));
    }

    /// Joins the in-flight selection for `fp`, or founds one by enqueueing
    /// a selection job.  Returns the shed error if the queue is full.
    fn join_or_found(&mut self, fp: Fingerprint) -> Result<(), ServeError> {
        let mut pending = self
            .inner
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(task) = pending.get(&fp.0) {
            self.task = Some(task.clone());
            return Ok(());
        }
        let task = SelectionTask::new();
        let select = self.request.selection();
        // The founder's deadline rides along with the job: a queued
        // selection nobody can still be served by (its founder gave up and
        // every re-join would have re-founded) is skipped, not run stale.
        let expires = self.deadline.map(|(at, _)| at);
        let job: crate::Job = {
            let inner = self.inner.clone();
            let task = task.clone();
            Box::new(move || {
                if expires.is_some_and(|at| Instant::now() >= at) {
                    inner
                        .pending
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&fp.0);
                    inner.jobs_expired.fetch_add(1, Ordering::Relaxed);
                    task.complete(Err(TaskFailure::Expired));
                    return;
                }
                // The engine's own single-flight guard handles concurrent
                // sync callers; catch_unwind converts a panicking selector
                // into a typed poison every waiter can observe.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    select(&inner.engine)
                }));
                inner
                    .pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&fp.0);
                let outcome = match outcome {
                    Ok(Ok(())) => Ok(()),
                    Ok(Err(e)) => Err(TaskFailure::Mechanism(Arc::new(e))),
                    Err(panic) => {
                        let msg = if let Some(s) = panic.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = panic.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "selection worker panicked".to_string()
                        };
                        Err(TaskFailure::Mechanism(Arc::new(
                            MechanismError::PoisonedSelection(msg),
                        )))
                    }
                };
                task.complete(outcome);
            })
        };
        // Enqueue while holding the pending lock: the worker cannot remove
        // the task from `pending` (it needs this lock) before we insert it,
        // so join/found/remove stay linearisable.  Lock order is always
        // pending → queue here and queue-alone then pending-alone in the
        // worker, so there is no cycle.
        if !self.inner.try_enqueue(job) {
            drop(pending);
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                capacity: self.inner.queue_capacity(),
            });
        }
        pending.insert(fp.0, task.clone());
        self.inner.selection_jobs.fetch_add(1, Ordering::Relaxed);
        self.task = Some(task);
        Ok(())
    }
}

impl<R: ServeRequest + Unpin> Future for ServeFuture<R> {
    type Output = Result<R::Output, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match std::mem::replace(&mut this.state, FutState::Finished) {
            FutState::Failed(Some(error)) => return Poll::Ready(Err(error)),
            FutState::Failed(None) | FutState::Finished => {
                // mm-lint: allow(serve-panic-freedom): polling a resolved future violates the Future contract — panicking in the caller's task (as std combinators do) beats silently hanging it, and no flight waiter is affected
                panic!("serve future polled after completion")
            }
            FutState::Active => this.state = FutState::Active,
        }
        // Deadline check before any new work: an expired request resolves
        // typed instead of joining (or founding) a flight it cannot use.
        if let Some((at, after)) = this.deadline {
            if Instant::now() >= at {
                this.task = None;
                this.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                this.state = FutState::Finished;
                return Poll::Ready(Err(ServeError::DeadlineExceeded {
                    deadline_ms: after.as_millis() as u64,
                }));
            }
        }
        if let Some(fp) = this.request.fingerprint() {
            // A completed selection job clears `task`, so losing a poll race
            // just re-runs the (cheap) cache probe.  The probe is plan-kind
            // agnostic: a cached low-rank plan is as warm as a dense one.
            loop {
                if this.task.is_none() && this.inner.engine.cached_plan(fp).is_none() {
                    if let Err(shed) = this.join_or_found(fp) {
                        this.state = FutState::Finished;
                        return Poll::Ready(Err(shed));
                    }
                }
                match &this.task {
                    None => break,
                    Some(task) => match task.poll_done(cx.waker()) {
                        None => {
                            // Waiting on the flight: also arm the watchdog,
                            // so an expired deadline wakes this task even if
                            // the selection never completes.
                            if let Some((at, _)) = this.deadline {
                                this.inner.register_timer(at, cx.waker().clone());
                            }
                            return Poll::Pending;
                        }
                        Some(Err(TaskFailure::Expired)) => {
                            // The *founder's* deadline killed the job; this
                            // waiter re-probes and re-founds under its own
                            // clock — unless that clock ran out meanwhile.
                            this.task = None;
                            if let Some((at, after)) = this.deadline {
                                if Instant::now() >= at {
                                    this.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                                    this.state = FutState::Finished;
                                    return Poll::Ready(Err(ServeError::DeadlineExceeded {
                                        deadline_ms: after.as_millis() as u64,
                                    }));
                                }
                            }
                        }
                        Some(Err(TaskFailure::Mechanism(error))) => {
                            this.task = None;
                            this.inner.failed.fetch_add(1, Ordering::Relaxed);
                            this.state = FutState::Finished;
                            return Poll::Ready(Err(ServeError::Mechanism(error)));
                        }
                        Some(Ok(())) => {
                            this.task = None;
                            break;
                        }
                    },
                }
            }
        }
        let result = this.request.answer(&this.inner);
        match &result {
            Ok(_) => this.inner.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => this.inner.failed.fetch_add(1, Ordering::Relaxed),
        };
        this.state = FutState::Finished;
        Poll::Ready(result)
    }
}

/// The dense (batch) request: keyed by the engine's plan fingerprint, cold
/// selections run on the worker pool.
pub(crate) struct BatchRequest<W: Workload + Send + Sync + ?Sized + 'static> {
    workload: Arc<W>,
    xs: Vec<Vec<f64>>,
    seed: u64,
    ledger: Option<UserLedger>,
    fp: Fingerprint,
}

impl<W: Workload + Send + Sync + ?Sized + 'static> ServeRequest for BatchRequest<W> {
    type Output = Vec<EngineAnswer>;

    fn fingerprint(&self) -> Option<Fingerprint> {
        Some(self.fp)
    }

    fn selection(&self) -> SelectionJob {
        let workload = self.workload.clone();
        // select_plan_for warms whichever plan kind the engine is
        // configured for (dense or low-rank) under the same fingerprint the
        // answer path will look up.
        Box::new(move |engine| engine.select_plan_for(&*workload).map(|_| ()))
    }

    /// The selection is warm (or this is the retry after a completed job):
    /// produce the answers through the engine's own batch path, so batching
    /// semantics, accounting, and noise draws are exactly the sync ones.
    fn answer(&mut self, inner: &Inner) -> Result<Vec<EngineAnswer>, ServeError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let xs = std::mem::take(&mut self.xs);
        let result = match &self.ledger {
            Some(ledger) => {
                let mut session = inner.engine.user_session(ledger);
                session.answer_batch(&*self.workload, &xs, &mut rng)
            }
            None => inner.engine.answer_batch(&*self.workload, &xs, &mut rng),
        };
        result.map_err(ServeError::from)
    }
}

/// The structured (matrix-free) request: selection is O(n log n), so the
/// whole request runs inline on the polling task — no fingerprint, no
/// worker job.
pub(crate) struct StructuredRequest<W: StructuredWorkload + Send + Sync + ?Sized + 'static> {
    workload: Arc<W>,
    x: Vec<f64>,
    seed: u64,
    ledger: Option<UserLedger>,
}

impl<W: StructuredWorkload + Send + Sync + ?Sized + 'static> ServeRequest for StructuredRequest<W> {
    type Output = StructuredAnswer;

    fn fingerprint(&self) -> Option<Fingerprint> {
        None
    }

    fn selection(&self) -> SelectionJob {
        // Never founded: fingerprint() is None, so the future answers inline.
        Box::new(|_| Ok(()))
    }

    fn answer(&mut self, inner: &Inner) -> Result<StructuredAnswer, ServeError> {
        // Same seeding discipline as the dense path: the noise draw is a
        // pure function of the submitted seed, so served answers replay.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let result = match &self.ledger {
            Some(ledger) => {
                let mut session = inner.engine.user_session(ledger);
                session.answer_structured(&*self.workload, &self.x, &mut rng)
            }
            None => inner
                .engine
                .answer_structured(&*self.workload, &self.x, &mut rng),
        };
        result.map_err(ServeError::from)
    }
}

/// Future of a batched request: resolves to one [`EngineAnswer`] per
/// submitted data vector, or a [`ServeError`].
///
/// Created by [`crate::ServeEngine::answer_batch`] /
/// [`crate::ServeEngine::answer_batch_for`].  `Unpin` by construction, so
/// it composes with [`crate::join_all`] without pinning ceremony.
pub struct BatchFuture<W: Workload + Send + Sync + ?Sized + 'static> {
    fut: ServeFuture<BatchRequest<W>>,
}

impl<W: Workload + Send + Sync + ?Sized + 'static> std::fmt::Debug for BatchFuture<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchFuture")
            .field("fp", &self.fut.request.fp)
            .field("batch", &self.fut.request.xs.len())
            .finish_non_exhaustive()
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static> BatchFuture<W> {
    pub(crate) fn new(
        inner: Arc<Inner>,
        workload: Arc<W>,
        xs: Vec<Vec<f64>>,
        seed: u64,
        ledger: Option<UserLedger>,
        fp: Fingerprint,
    ) -> Self {
        BatchFuture {
            fut: ServeFuture::new(
                inner,
                BatchRequest {
                    workload,
                    xs,
                    seed,
                    ledger,
                    fp,
                },
            ),
        }
    }

    /// A future rejected at submit time (malformed input, NaN gram, no budget
    /// headroom).
    pub(crate) fn failed(inner: Arc<Inner>, workload: Arc<W>, error: ServeError) -> Self {
        BatchFuture {
            fut: ServeFuture::failed(
                inner,
                BatchRequest {
                    workload,
                    xs: Vec::new(),
                    seed: 0,
                    ledger: None,
                    fp: Fingerprint(0),
                },
                error,
            ),
        }
    }

    /// Fails the request with [`ServeError::DeadlineExceeded`] unless it
    /// resolves within `after` of this call, overriding the serving tier's
    /// default deadline (see
    /// [`crate::ServeEngineBuilder::default_deadline`]).  Queued selection
    /// jobs whose founder's deadline has passed are skipped, not run stale.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.fut.set_deadline(after);
        self
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static> Future for BatchFuture<W> {
    type Output = Result<Vec<EngineAnswer>, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.get_mut().fut).poll(cx)
    }
}

/// Future of a structured (matrix-free) request: resolves to one
/// [`StructuredAnswer`] or a [`ServeError`].  Created by
/// [`crate::ServeEngine::answer_structured`] /
/// [`crate::ServeEngine::answer_structured_for`].
///
/// Unlike [`BatchFuture`], this future never touches the worker pool:
/// structured selection is O(n log n) (microseconds even at n = 65 536, no
/// eigendecomposition), so the whole request — cache probe, selection,
/// noisy observations, conjugate-gradient reconstruction — runs inline on
/// the first poll.  The engine's plan lookup is single-flight, so
/// concurrent first requests for one structured workload share one
/// selection (and one store write).  Answers are bit-identical to a direct
/// `engine.answer_structured` with a `StdRng` seeded the same way.
pub struct StructuredFuture<W: StructuredWorkload + Send + Sync + ?Sized + 'static> {
    fut: ServeFuture<StructuredRequest<W>>,
}

impl<W: StructuredWorkload + Send + Sync + ?Sized + 'static> std::fmt::Debug
    for StructuredFuture<W>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StructuredFuture")
            .field("n", &self.fut.request.x.len())
            .finish_non_exhaustive()
    }
}

impl<W: StructuredWorkload + Send + Sync + ?Sized + 'static> StructuredFuture<W> {
    pub(crate) fn new(
        inner: Arc<Inner>,
        workload: Arc<W>,
        x: Vec<f64>,
        seed: u64,
        ledger: Option<UserLedger>,
    ) -> Self {
        StructuredFuture {
            fut: ServeFuture::new(
                inner,
                StructuredRequest {
                    workload,
                    x,
                    seed,
                    ledger,
                },
            ),
        }
    }

    /// A future rejected at submit time (malformed input, no budget headroom).
    pub(crate) fn failed(inner: Arc<Inner>, workload: Arc<W>, error: ServeError) -> Self {
        StructuredFuture {
            fut: ServeFuture::failed(
                inner,
                StructuredRequest {
                    workload,
                    x: Vec::new(),
                    seed: 0,
                    ledger: None,
                },
                error,
            ),
        }
    }

    /// Fails the request with [`ServeError::DeadlineExceeded`] unless it
    /// resolves within `after` of this call (override of the builder
    /// default).  The structured path runs inline on the first poll, so the
    /// deadline only bites when that poll itself starts too late.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.fut.set_deadline(after);
        self
    }
}

impl<W: StructuredWorkload + Send + Sync + ?Sized + 'static> Future for StructuredFuture<W> {
    type Output = Result<StructuredAnswer, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.get_mut().fut).poll(cx)
    }
}

/// Future of a single-vector request: resolves to one [`EngineAnswer`] or a
/// [`ServeError`].  Created by [`crate::ServeEngine::answer`] /
/// [`crate::ServeEngine::answer_for`].
pub struct AnswerFuture<W: Workload + Send + Sync + ?Sized + 'static> {
    batch: BatchFuture<W>,
}

impl<W: Workload + Send + Sync + ?Sized + 'static> std::fmt::Debug for AnswerFuture<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerFuture")
            .field("batch", &self.batch)
            .finish()
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static> AnswerFuture<W> {
    pub(crate) fn new(batch: BatchFuture<W>) -> Self {
        AnswerFuture { batch }
    }

    /// Fails the request with [`ServeError::DeadlineExceeded`] unless it
    /// resolves within `after` of this call (override of the builder
    /// default; see [`BatchFuture::deadline`]).
    pub fn deadline(mut self, after: Duration) -> Self {
        self.batch = self.batch.deadline(after);
        self
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static> Future for AnswerFuture<W> {
    type Output = Result<EngineAnswer, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.get_mut().batch).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Ready(Ok(mut answers)) => Poll::Ready(match answers.pop() {
                Some(answer) => Ok(answer),
                // One submitted vector always yields one answer; if the
                // engine ever broke that, surface it as a typed error
                // rather than panicking the polling task.
                None => Err(ServeError::Mechanism(Arc::new(
                    MechanismError::InvalidArgument(
                        "engine returned no answer for a one-vector batch".into(),
                    ),
                ))),
            }),
        }
    }
}
