//! The plan lookup: one path from a fingerprint to a [`SelectionPlan`] for
//! every plan kind.
//!
//! Selection is data independent, so a plan selected once serves every
//! database.  Both answer fronts (see [`release`](super::release)) resolve
//! their plan through [`Engine::lookup`], which differs between them only in
//! the selection it runs on a miss and the counters it moves:
//!
//! ```text
//!   StrategyCache::begin(fp) ── hit / shared flight ──► plan
//!        │ miss: this caller leads the single flight (a new one, or one
//!        │ a served request founded and queued a job to lead)
//!        ├── store probe (breaker-gated) ── found ──► publish
//!        ├── FaultSite::Selector seam
//!        ├── select (the front's closure)
//!        ├── persist (bounded retry, one breaker outcome per persist)
//!        └── publish to the cache and every waiter
//! ```
//!
//! Concurrent misses on one fingerprint therefore run one selection and
//! write the write-once store entry once, whatever the plan kind, and
//! whether the misses come from threads or from the serve tier's requests.

use super::plan::{PlanKind, SelectionPlan};
use super::{Engine, FlightPoison, Lookup, SaveOutcome, STORE_SAVE_ATTEMPTS, STORE_SAVE_BACKOFF};
use crate::faults::{Fault, FaultSite};
use mm_linalg::Matrix;
use mm_workload::Fingerprint;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The lookup counters of one answer front.  [`EngineStats`](super::EngineStats)
/// reports the dense front's (dense and low-rank plans) as its unprefixed
/// counters and the structured front's as its `structured_*` counters.
#[derive(Debug, Default)]
pub(super) struct FrontStats {
    pub(super) hits: AtomicU64,
    pub(super) misses: AtomicU64,
    pub(super) store_hits: AtomicU64,
    pub(super) store_writes: AtomicU64,
}

impl Engine {
    /// Looks up the plan for `fp`, running `select` only when neither the
    /// cache, an in-flight selection nor the store can provide it, and
    /// returns the plan with whether selection was skipped.
    ///
    /// Selection is single-flight: concurrent misses on one fingerprint run
    /// `select` exactly once (on the *leader* thread), and every waiter
    /// receives the leader's plan, counted as a hit.  A selection error or
    /// panic poisons the flight with the error or the panic's message, and
    /// reaches the leader as its result or its unwind; waiting threads
    /// retry (one at a time) and errors are never cached.  A fresh plan is
    /// persisted before it is published, so a restart racing this process
    /// sees the entry as soon as waiters do; dense plans need
    /// `workload_gram` to derive their persisted trace term, called only
    /// after `select` ran.
    pub(super) fn lookup<'g>(
        &self,
        front: &FrontStats,
        fp: Fingerprint,
        workload_gram: Option<&dyn Fn() -> &'g Matrix>,
        select: &dyn Fn() -> crate::Result<SelectionPlan>,
    ) -> crate::Result<(Arc<SelectionPlan>, bool)> {
        let guard = match self.cache.begin(fp) {
            Lookup::Hit(plan) | Lookup::Shared(plan) => {
                front.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((plan, true));
            }
            Lookup::Miss(guard) => guard,
        };
        front.misses.fetch_add(1, Ordering::Relaxed);
        if guard.recovered_poison().is_some() {
            // This caller became leader via the waiter-retry path: a
            // previous leader's flight was poisoned.
            self.poisoned_flights.fetch_add(1, Ordering::Relaxed);
        }
        // Another run (or process) may have already paid for this
        // fingerprint.  An open breaker skips the probe and recomputes.
        if let Some(plan) = self.store_probe(fp) {
            front.store_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((guard.publish(plan), true));
        }
        // Fault-injection seam for the selection itself: a scheduled panic
        // crashes the leader exactly like a buggy selector would; scheduled
        // latency models a selection stall, which is what request deadlines
        // in the serve tier must survive.
        let selected = catch_unwind(AssertUnwindSafe(|| {
            match self.faults.inject(FaultSite::Selector) {
                Some(Fault::Panic) => panic!("injected selector fault (scheduled chaos)"),
                Some(Fault::LatencyMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                _ => {}
            }
            select()
        }));
        // A failure poisons the flight with why, so waiters learn it; the
        // selection counters move only on success.
        let plan = match selected {
            Ok(Ok(plan)) => Arc::new(plan),
            Ok(Err(e)) => {
                guard.fail(FlightPoison::Error(e.clone()));
                return Err(e);
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "selection panicked".to_string());
                guard.fail(FlightPoison::Panicked(message));
                resume_unwind(panic)
            }
        };
        let selections = match plan.kind() {
            PlanKind::Dense => &self.dense_selections,
            PlanKind::LowRank => &self.low_rank_selections,
            PlanKind::Structured => &self.structured_selections,
        };
        selections.fetch_add(1, Ordering::Relaxed);
        // Persistence is an optimisation, never a correctness dependency:
        // failures are retried with backoff, then absorbed.
        if self.persist_plan(fp, &plan, workload_gram.map(|gram| gram())) {
            front.store_writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok((guard.publish(plan), false))
    }

    /// Probes the persistent store for a plan, gated by the circuit
    /// breaker: an open breaker skips the probe entirely (memory-only
    /// degradation), so a broken disk cannot stall every cache miss.
    fn store_probe(&self, fp: Fingerprint) -> Option<Arc<SelectionPlan>> {
        let store = self.store.as_ref()?;
        if !self.breaker.allow() {
            return None;
        }
        store.load(fp)
    }

    /// Persists a plan with bounded retry and exponential backoff
    /// ([`STORE_SAVE_ATTEMPTS`] attempts, [`STORE_SAVE_BACKOFF`] doubling),
    /// recording one outcome per persist on the circuit breaker: a success,
    /// or one failure when its attempts failed without writing the entry
    /// (each failed attempt counts in `store_save_failures`).  Returns
    /// whether this call wrote the entry.  An open breaker skips the save
    /// (the selection stays memory-cached; a later cool-down probe can
    /// rewrite it — fingerprints are write-once, so nothing is lost).
    fn persist_plan(
        &self,
        fp: Fingerprint,
        plan: &SelectionPlan,
        workload_gram: Option<&Matrix>,
    ) -> bool {
        let Some(store) = self.store.as_ref() else {
            return false;
        };
        if !self.breaker.allow() {
            return false;
        }
        let mut backoff = STORE_SAVE_BACKOFF;
        for attempt in 1..=STORE_SAVE_ATTEMPTS {
            match store.try_save(fp, plan, workload_gram) {
                SaveOutcome::Written => {
                    self.breaker.record_success();
                    return true;
                }
                // Not a persistence failure: the entry already exists (or
                // the plan stays memory-only by design).  No health signal,
                // unless an earlier attempt failed: a torn write leaves the
                // entry a retry then finds, and that persist still failed.
                SaveOutcome::Skipped if attempt == 1 => return false,
                SaveOutcome::Skipped => break,
                SaveOutcome::Failed => {
                    self.store_save_failures.fetch_add(1, Ordering::Relaxed);
                    if attempt == STORE_SAVE_ATTEMPTS || !self.breaker.allow() {
                        break;
                    }
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
        self.breaker.record_failure();
        false
    }
}
