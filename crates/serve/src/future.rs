//! The serving future: one [`AnswerFuture`] state machine for every request
//! kind, waiting on the engine's own selection [`Flight`].
//!
//! The state machine is deliberately small.  A future is born `Active`
//! (or `Failed` when rejected at submit); each poll either
//!
//! 1. finds the request's [`SelectionPlan`](mm_core::engine::SelectionPlan)
//!    cached and answers immediately through the engine's own paths, or
//! 2. joins the engine's in-flight selection for its plan key
//!    ([`Engine::join_flight`]), registers its waker on that [`Flight`], and
//!    returns `Pending`.  When no flight exists the request founds one and
//!    enqueues one selection job, which leads the flight through the
//!    engine's own lookup, unless a synchronous caller reaches it first and
//!    leads it.
//!
//! The flight wakes every registered waiter when it resolves; the next poll
//! of each lands in case 1.  Answer assembly thus always happens on the
//! polling task with its own seeded RNG — the worker pool only ever runs
//! selections, which is what makes served answers bit-identical to direct
//! engine calls.  A request kind is two values fixed at submit: the plan
//! key and the engine answer call.  A request whose selection is too cheap
//! to be worth a worker round-trip (the structured path) carries no key and
//! runs entirely inline on the first poll.
//!
//! A flight that fails resolves its waiters with its [`FlightPoison`]: the
//! request fails typed ([`FlightPoison::into_error`]: the selector's error,
//! or `PoisonedSelection` naming a panic), except on
//! [`FlightPoison::Unled`], a flight that no thread ever led, when it founds
//! a new flight.
//!
//! Every future may additionally carry a **deadline** (builder default or a
//! per-future override): an expired request resolves with the typed
//! [`ServeError::DeadlineExceeded`] instead of waiting further, a pending
//! one arms the serving tier's watchdog so the expiry fires even when the
//! selection it waits on never completes, and a queued selection job whose
//! founder's deadline passed is skipped by the worker rather than run
//! stale: it poisons its flight [`FlightPoison::Unled`] unless a thread
//! already leads it, and live waiters simply re-found the flight.

use crate::{Inner, Job, ServeError};
use mm_core::accounting::UserLedger;
use mm_core::engine::{Engine, EngineAnswer, Flight, FlightPoison, Join};
use mm_workload::{Fingerprint, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

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
    /// The engine flight this request waits on, once it has joined one.
    flight: Option<Arc<Flight>>,
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
            flight: None,
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

    /// The worker job that gets `flight`, which this request founded for
    /// `fp`, led: it runs the engine's own lookup
    /// ([`Engine::select_plan_for`]), which leads the flight unless a
    /// synchronous caller already does.  A job whose founder's deadline has
    /// passed runs nothing.  Either way the job ends by poisoning the flight
    /// if no thread led it, so no waiter is stranded: `Unled` after an
    /// expiry, or the lookup's own failure if it never reached the flight.
    fn selection_job(&self, fp: Fingerprint, flight: Arc<Flight>) -> Job {
        let inner = self.inner.clone();
        let workload = self.workload.clone();
        let expires = self.deadline.map(|(at, _)| at);
        Box::new(move || {
            let expired = expires.is_some_and(|at| Instant::now() >= at);
            let poison = if expired {
                FlightPoison::Unled
            } else {
                // The lookup has poisoned a flight it led before a panic
                // got here; catching it keeps the worker alive.
                match catch_unwind(AssertUnwindSafe(|| {
                    inner.engine.select_plan_for(&*workload)
                })) {
                    Ok(Ok(_)) => FlightPoison::Unled,
                    Ok(Err(e)) => FlightPoison::Error(e),
                    Err(_) => FlightPoison::Abandoned,
                }
            };
            inner.engine.abandon_flight(fp, &flight, poison);
            if expired {
                inner.jobs_expired.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Resolves the request with [`ServeError::DeadlineExceeded`] once its
    /// deadline has passed.
    fn expire(&mut self) -> Option<Poll<Result<T, ServeError>>> {
        let (at, after) = self.deadline?;
        if Instant::now() < at {
            return None;
        }
        self.flight = None;
        self.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
        Some(Poll::Ready(Err(ServeError::DeadlineExceeded {
            deadline_ms: after.as_millis() as u64,
        })))
    }
}

impl<W: Workload + Send + Sync + ?Sized + 'static, T> Future for AnswerFuture<W, T> {
    type Output = Result<T, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // The state stays `Finished` unless this poll returns `Pending`.
        match std::mem::replace(&mut this.state, FutState::Finished) {
            FutState::Failed(Some(error)) => return Poll::Ready(Err(error)),
            FutState::Failed(None) | FutState::Finished => {
                // mm-lint: allow(serve-panic-freedom): polling a resolved future violates the Future contract — panicking in the caller's task (as std combinators do) beats silently hanging it, and no flight waiter is affected
                panic!("serve future polled after completion")
            }
            FutState::Active => {}
        }
        // Deadline check before any new work: an expired request resolves
        // typed instead of joining (or founding) a flight it cannot use.
        if let Some(expired) = this.expire() {
            return expired;
        }
        if let Some(fp) = this.key {
            loop {
                let flight = match this.flight.take() {
                    Some(flight) => flight,
                    // The probe is plan-kind agnostic: a cached low-rank
                    // plan is as warm as a dense one.
                    None => match this.inner.engine.join_flight(fp) {
                        Join::Ready => break,
                        Join::Waiting(flight) => flight,
                        Join::Founded(flight) => {
                            let job = this.selection_job(fp, flight.clone());
                            if let Err(error) = this.inner.enqueue(job) {
                                // No job will lead the flight: poison it, so
                                // a request that joined it meanwhile founds
                                // its own.
                                this.inner
                                    .engine
                                    .abandon_flight(fp, &flight, FlightPoison::Unled);
                                let counter = match error {
                                    ServeError::Overloaded { .. } => &this.inner.shed,
                                    _ => &this.inner.failed,
                                };
                                counter.fetch_add(1, Ordering::Relaxed);
                                return Poll::Ready(Err(error));
                            }
                            flight
                        }
                    },
                };
                match flight.poll(cx.waker()) {
                    Poll::Pending => {
                        // Waiting on the flight: also arm the watchdog, so
                        // an expired deadline wakes this task even if the
                        // selection never completes.
                        if let Some((at, _)) = this.deadline {
                            this.inner.register_timer(at, cx.waker().clone());
                        }
                        this.flight = Some(flight);
                        this.state = FutState::Active;
                        return Poll::Pending;
                    }
                    Poll::Ready(Ok(_)) => break,
                    // Nobody led the flight (its founder was shed or
                    // expired): found a new one under this request's own
                    // clock, unless that ran out meanwhile.
                    Poll::Ready(Err(FlightPoison::Unled)) => {
                        if let Some(expired) = this.expire() {
                            return expired;
                        }
                    }
                    Poll::Ready(Err(poison)) => {
                        this.inner.failed.fetch_add(1, Ordering::Relaxed);
                        return Poll::Ready(Err(ServeError::from(poison.into_error())));
                    }
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
        Poll::Ready(result)
    }
}
