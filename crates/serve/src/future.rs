//! The serving future: one [`AnswerFuture`] state machine for every request
//! kind, plus the shared in-flight [`SelectionTask`] waiters register wakers
//! on.
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
//! direct engine calls.  A request kind is two values fixed at submit: the
//! plan key and the engine answer call.  A request whose selection is too
//! cheap to be worth a worker round-trip (the structured path) carries no
//! key and runs entirely inline on the first poll.
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
use mm_core::engine::{Engine, EngineAnswer};
use mm_core::MechanismError;
use mm_workload::{Fingerprint, Workload};
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

/// The engine answer call of one request kind, run on the polling task once
/// the plan is warm: the engine (for a ledger's session), the workload, the
/// data vectors, the rng seeded from the request, and the ledger to charge.
pub(crate) type AnswerCall<W, T> =
    fn(&Arc<Engine>, &W, &[Vec<f64>], &mut StdRng, Option<&UserLedger>) -> mm_core::Result<T>;

enum FutState {
    /// Rejected at submit; resolves with the stored error on first poll.
    Failed(Option<ServeError>),
    /// Live: probing the cache, waiting on a selection, or ready to answer.
    Active,
    /// Resolved; polling again is a contract violation.
    Finished,
}

/// Future of one served request: resolves to `T` or a [`ServeError`].
///
/// Created by [`crate::ServeEngine`]'s six `answer*` methods, which fix the
/// request kind at submit: a single dense vector resolves to one
/// [`EngineAnswer`] (the default `T`), a batch to `Vec<EngineAnswer>`, and a
/// structured request to a
/// [`StructuredAnswer`](mm_core::engine::StructuredAnswer).  A dense request
/// waits (without blocking) on the one selection flight for its plan key; a
/// structured one has no key and answers on its first poll.  `Unpin` by
/// construction, so it composes with [`crate::join_all`] without pinning
/// ceremony.
pub struct AnswerFuture<W: Workload + Send + Sync + ?Sized + 'static, T = EngineAnswer> {
    inner: Arc<Inner>,
    workload: Arc<W>,
    xs: Vec<Vec<f64>>,
    seed: u64,
    ledger: Option<UserLedger>,
    /// The plan fingerprint cold selections deduplicate on; `None` for a
    /// request whose selection runs inline on the polling task.
    key: Option<Fingerprint>,
    answer: AnswerCall<W, T>,
    task: Option<Arc<SelectionTask>>,
    state: FutState,
    /// When set, the request fails with [`ServeError::DeadlineExceeded`]
    /// once `.0` passes; `.1` is the originally configured duration (for
    /// the error message).
    deadline: Option<(Instant, Duration)>,
}

impl<W: Workload + Send + Sync + ?Sized + 'static, T> std::fmt::Debug for AnswerFuture<W, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerFuture")
            .field("key", &self.key)
            .field("vectors", &self.xs.len())
            .finish_non_exhaustive()
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static, T> AnswerFuture<W, T> {
    /// A request admitted with plan key `key`, or rejected at submit time
    /// (malformed input, NaN gram, no budget headroom) when `admitted` is
    /// an error: a rejected future resolves with it on its first poll and
    /// carries no deadline.
    pub(crate) fn new(
        inner: Arc<Inner>,
        workload: Arc<W>,
        xs: Vec<Vec<f64>>,
        seed: u64,
        ledger: Option<UserLedger>,
        admitted: Result<Option<Fingerprint>, ServeError>,
        answer: AnswerCall<W, T>,
    ) -> Self {
        let (key, state, deadline) = match admitted {
            Ok(key) => (
                key,
                FutState::Active,
                inner.default_deadline.map(|d| (Instant::now() + d, d)),
            ),
            Err(error) => (None, FutState::Failed(Some(error)), None),
        };
        AnswerFuture {
            inner,
            workload,
            xs,
            seed,
            ledger,
            key,
            answer,
            task: None,
            state,
            deadline,
        }
    }

    /// Fails the request with [`ServeError::DeadlineExceeded`] unless it
    /// resolves within `after` of this call, overriding the serving tier's
    /// default deadline (see
    /// [`crate::ServeEngineBuilder::default_deadline`]).  Queued selection
    /// jobs whose founder's deadline has passed are skipped, not run stale.
    /// A request without a plan key runs inline on its first poll, so its
    /// deadline only bites when that poll itself starts too late.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some((Instant::now() + after, after));
        self
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
        // The founder's deadline rides along with the job: a queued
        // selection nobody can still be served by (its founder gave up and
        // every re-join would have re-founded) is skipped, not run stale.
        let expires = self.deadline.map(|(at, _)| at);
        let job: crate::Job = {
            let inner = self.inner.clone();
            let task = task.clone();
            let workload = self.workload.clone();
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
                // select_plan_for warms whichever plan kind the engine is
                // configured for (dense or low-rank) under the same key the
                // answer path will look up.  The engine's own single-flight
                // guard handles concurrent sync callers; catch_unwind
                // converts a panicking selector into a typed poison every
                // waiter can observe.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inner.engine.select_plan_for(&*workload)
                }));
                inner
                    .pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&fp.0);
                let outcome = match outcome {
                    Ok(Ok(_)) => Ok(()),
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

impl<W: Workload + Send + Sync + ?Sized + 'static, T> Future for AnswerFuture<W, T> {
    type Output = Result<T, ServeError>;

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
        if let Some(fp) = this.key {
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
        // The plan is warm (or selects inline): answer through the engine's
        // own path, so batching, accounting and noise draws are exactly the
        // direct ones, with the noise a pure function of the submitted seed.
        let mut rng = StdRng::seed_from_u64(this.seed);
        let result = (this.answer)(
            &this.inner.engine,
            &*this.workload,
            &this.xs,
            &mut rng,
            this.ledger.as_ref(),
        )
        .map_err(ServeError::from);
        match &result {
            Ok(_) => this.inner.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => this.inner.failed.fetch_add(1, Ordering::Relaxed),
        };
        this.state = FutState::Finished;
        Poll::Ready(result)
    }
}
