//! Circuit breaker for the persistent strategy store.
//!
//! A broken disk must cost latency once, not on every request.  The engine
//! records every persist on a [`StoreBreaker`], once: a persist is one save
//! with its bounded retries, and it fails only when every attempt has.
//! After `threshold` *consecutive* failed persists the breaker **opens** and
//! the engine degrades to memory-only caching — no store loads or saves are
//! attempted — for a cool-down period.  After the cool-down the breaker
//! goes **half-open**: store traffic is allowed again, and the next
//! persist is the probe whose outcome decides — a success closes the
//! breaker, a failure re-opens it for another full cool-down.
//!
//! ```text
//!            failure (consecutive == threshold)
//!   Closed ────────────────────────────────────► Open
//!     ▲                                            │ cool-down elapses
//!     │ success                                    ▼
//!     └─────────────────────────────────────── HalfOpen
//!                        failure: back to Open ◄───┘
//! ```
//!
//! Only *save* outcomes drive the state machine: a load returning `None`
//! conflates "entry absent" with "entry unreadable", so it carries no
//! health signal.  Loads are merely *gated* — an open breaker skips them,
//! because a store that cannot be written is usually a store that should
//! not be trusted to block the hot path on reads either.
//!
//! The breaker never affects answers: strategy selection recomputes what
//! the store would have provided, bit-identically (selection is
//! deterministic), so an open breaker costs selection time, never
//! correctness.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default consecutive-failure threshold before the breaker opens.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// Default cool-down an open breaker waits before probing again.
pub const DEFAULT_BREAKER_COOLDOWN: Duration = Duration::from_secs(30);

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Store healthy: all traffic allowed.
    Closed,
    /// Store degraded: traffic skipped until the cool-down elapses.
    Open,
    /// Cool-down elapsed: traffic allowed as a probe; the next recorded
    /// save outcome closes or re-opens the breaker.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        f.write_str(name)
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// The store circuit breaker (see the module docs for the state machine).
///
/// All methods take `&self` and are safe to call concurrently; the state is
/// one small mutex, touched only around store I/O (never on cache hits).
#[derive(Debug)]
pub struct StoreBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
}

impl StoreBreaker {
    /// A breaker opening after `threshold` consecutive failures (min 1) and
    /// cooling down for `cooldown` before each probe.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        StoreBreaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    /// The configured consecutive-failure threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The configured cool-down.
    pub fn cooldown(&self) -> Duration {
        self.cooldown
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // The inner state is always written whole under the lock; a panic
        // cannot leave it torn, so the poison flag carries no information.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether store traffic is currently allowed.  An open breaker whose
    /// cool-down has elapsed transitions to half-open and allows the probe.
    pub fn allow(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                // mm-lint: allow(determinism-hygiene): the breaker cool-down is wall-clock by design — it gates only whether the persistent store is probed, never a cache key, an answer, or a stored byte
                let elapsed = inner.opened_at.map(|at| at.elapsed());
                if elapsed.is_some_and(|e| e >= self.cooldown) {
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful persistence operation: closes the breaker and
    /// resets the consecutive-failure count.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
    }

    /// Records a failed persistence operation.  Reaching the threshold — or
    /// failing a half-open probe — opens the breaker and restarts the
    /// cool-down.
    pub fn record_failure(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let tripped =
            inner.consecutive_failures >= self.threshold || inner.state == BreakerState::HalfOpen;
        if tripped {
            inner.state = BreakerState::Open;
            // mm-lint: allow(determinism-hygiene): the breaker cool-down is wall-clock by design — it gates only whether the persistent store is probed, never a cache key, an answer, or a stored byte
            inner.opened_at = Some(Instant::now());
        }
    }

    /// The current state (an open breaker past its cool-down reports
    /// half-open, matching what the next [`StoreBreaker::allow`] would do).
    pub fn state(&self) -> BreakerState {
        let inner = self.lock();
        match inner.state {
            BreakerState::Open => {
                // mm-lint: allow(determinism-hygiene): the breaker cool-down is wall-clock by design — it gates only whether the persistent store is probed, never a cache key, an answer, or a stored byte
                let elapsed = inner.opened_at.map(|at| at.elapsed());
                if elapsed.is_some_and(|e| e >= self.cooldown) {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            s => s,
        }
    }

    /// Consecutive persistence failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.lock().consecutive_failures
    }
}

impl Default for StoreBreaker {
    fn default() -> Self {
        StoreBreaker::new(DEFAULT_BREAKER_THRESHOLD, DEFAULT_BREAKER_COOLDOWN)
    }
}

/// Health snapshot of the engine's persistence layer, exposed through
/// [`Engine::store_health`](super::Engine::store_health) and surfaced by the
/// serve tier's `ServeEngine::health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHealth {
    /// Current breaker state ([`BreakerState::Closed`] means healthy; an
    /// engine without a configured store is permanently closed and never
    /// records outcomes).
    pub breaker: BreakerState,
    /// Consecutive failed persists since the last success.
    pub consecutive_failures: u32,
    /// Corrupt store entries silently dropped (deleted and recomputed)
    /// since the store was opened.
    pub corrupt_dropped: u64,
    /// Store save attempts that failed since the engine was built (each
    /// attempt of a bounded-retry save counts, where `consecutive_failures`
    /// counts failed persists).
    pub save_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = StoreBreaker::new(3, Duration::from_secs(60));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open breaker blocks traffic");
        assert_eq!(b.consecutive_failures(), 3);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = StoreBreaker::new(2, Duration::from_secs(60));
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
        assert_eq!(b.consecutive_failures(), 1);
    }

    #[test]
    fn cooldown_elapse_half_opens_and_probe_outcome_decides() {
        let b = StoreBreaker::new(1, Duration::from_millis(0));
        b.record_failure();
        // Zero cool-down: immediately half-open.
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow());
        // A failed probe re-opens (without needing a full streak).
        b.record_failure();
        assert!(matches!(
            b.state(),
            BreakerState::Open | BreakerState::HalfOpen
        ));
        assert!(b.allow(), "zero cool-down re-allows the next probe");
        // A successful probe closes.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn threshold_has_a_floor_of_one() {
        let b = StoreBreaker::new(0, Duration::from_secs(60));
        assert_eq!(b.threshold(), 1);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }
}
