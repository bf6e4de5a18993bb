//! The engine's internal strategy cache: sharded, recency-aware, and
//! single-flight.
//!
//! Strategy selection is data independent, so a selected strategy is valid
//! for every database and every privacy level (the strategy scales out of the
//! error expression; only the noise calibration changes).  The cache maps a
//! workload [`Fingerprint`] (gram-matrix hash, or structured descriptor
//! hash) to the selected [`SelectionPlan`] — dense, structured and low-rank
//! plans share one cache — letting repeated `answer` calls on the same
//! workload skip selection, by far the dominant cost, entirely.
//!
//! # Concurrency
//!
//! The cache is built for contended multi-threaded serving:
//!
//! * **Sharding.** Entries are spread over N independently locked shards
//!   (fingerprints are avalanched 64-bit hashes, so the low bits pick a shard
//!   uniformly).  Lookups on different workloads never contend on one global
//!   lock; the per-shard critical sections are a hash-map probe plus a
//!   recency-stamp update.
//! * **Single-flight selection.** Every miss on one fingerprint meets one
//!   [`Flight`] (`Pending` with the wakers of async waiters, `Done` or
//!   `Poisoned`), and exactly one caller, the *leader* handed a
//!   [`SelectionGuard`], runs the O(n³) selector.  A thread
//!   ([`StrategyCache::begin`]) leads a new flight, or one that an async
//!   request founded and no thread leads yet, or blocks until the leader
//!   publishes.  An async request ([`StrategyCache::join`]) never blocks: it
//!   waits with a waker ([`Flight::poll`]), or founds a flight for a queued
//!   job to lead.  A failed flight hands every waiter one [`FlightPoison`];
//!   threads race to lead a retry, so errors are never cached.
//!
//! # Eviction
//!
//! Eviction is per-shard LRU: every `get` refreshes the entry's recency
//! stamp, and an insert into a full shard evicts the entry with the oldest
//! stamp.  A frequently served workload therefore stays resident under a
//! churning stream of cold workloads (the FIFO policy this replaces evicted
//! hot and cold entries alike).
//!
//! The configured capacity is a total across shards: the per-shard bounds
//! sum to exactly the total, so the cache never holds more entries than
//! configured, but with more than one shard the split is approximate in use
//! — a skewed fingerprint distribution can evict from a full shard while
//! another has room.  Size the capacity to the working set and the shard
//! count to the expected parallelism (both
//! [`EngineBuilder`](crate::engine::EngineBuilder) knobs).

use super::plan::SelectionPlan;
use crate::MechanismError;
use mm_linalg::decomp::Cholesky;
use mm_linalg::ops::RowSpans;
use mm_linalg::Matrix;
use mm_strategies::Strategy;
use mm_workload::Fingerprint;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::task::{Poll, Waker};

/// Default number of independently locked cache shards.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// A cached selection: the strategy plus three lazily computed, data- and
/// privacy-independent derived quantities:
///
/// * the Cholesky factor of the strategy gram, used by least-squares
///   inference, with `Lᵀ` mirrored into its upper triangle so both
///   triangular solves read rows;
/// * the Prop. 4 trace term `trace(WᵀW (AᵀA)⁻¹)` against the workload the
///   entry was selected for;
/// * the [`RowSpans`] of the strategy matrix, one nonzero extent per row,
///   which the answer's `A·X` and `AᵀY` are clipped to.
///
/// The factor and the trace term are O(n³); caching them makes a cache-hit
/// `answer` skip *all* repeated cubic work and pay only the O(n²) mechanism
/// run.  The spans are one O(pn) scan; caching them lets that run read only
/// nonzeros (half of a Program 2 strategy's rows hold a single entry).  A
/// store persists the factor and the trace term, not the spans: a loaded
/// entry scans its matrix again on its first answer.
#[derive(Debug)]
pub struct CachedSelection {
    strategy: Arc<Strategy>,
    factor: OnceLock<Arc<Cholesky>>,
    spans: OnceLock<Option<RowSpans>>,
    trace: OnceLock<f64>,
}

impl CachedSelection {
    /// Wraps a selected strategy (derived quantities are computed on first
    /// use).
    pub fn new(strategy: Arc<Strategy>) -> Self {
        CachedSelection {
            strategy,
            factor: OnceLock::new(),
            spans: OnceLock::new(),
            trace: OnceLock::new(),
        }
    }

    /// Rebuilds an entry whose derived quantities were computed in an earlier
    /// run (e.g. loaded from a persistent strategy store): the Cholesky
    /// factor and Prop. 4 trace term are pre-seeded rather than recomputed,
    /// keeping answers bit-identical to the run that produced them.
    pub fn with_parts(strategy: Arc<Strategy>, factor: Arc<Cholesky>, trace: f64) -> Self {
        let entry = CachedSelection::new(strategy);
        // Freshly constructed above: the OnceLock cells are necessarily
        // empty, so these sets cannot fail.
        let _ = entry.factor.set(factor);
        let _ = entry.trace.set(trace);
        entry
    }

    /// The selected strategy.
    pub fn strategy(&self) -> &Arc<Strategy> {
        &self.strategy
    }

    /// The Cholesky factor of the strategy gram (ridge-regularised when rank
    /// deficient), computed on first call and shared afterwards.
    pub fn factor(&self) -> crate::Result<Arc<Cholesky>> {
        if let Some(f) = self.factor.get() {
            return Ok(f.clone());
        }
        let computed = Arc::new(crate::error::strategy_factor(&self.strategy)?);
        Ok(self.factor.get_or_init(|| computed).clone())
    }

    /// The nonzero extent of each row of the strategy matrix, scanned on
    /// first call and shared afterwards; `None` when the strategy is not
    /// materialised.
    pub(crate) fn row_spans(&self) -> Option<&RowSpans> {
        self.spans
            .get_or_init(|| self.strategy.matrix().map(RowSpans::of))
            .as_ref()
    }

    /// The trace term `trace(WᵀW (AᵀA)⁻¹)` of the error formula, computed on
    /// first call and reused afterwards.
    ///
    /// The entry is keyed by the workload's gram fingerprint, so callers must
    /// pass the gram of *that* workload — the value is cached on the
    /// assumption that it never varies across calls, which holds for every
    /// engine path.
    pub fn trace_term(&self, workload_gram: &Matrix) -> crate::Result<f64> {
        self.trace_term_with(|| workload_gram)
    }

    /// [`CachedSelection::trace_term`] with the gram supplied lazily:
    /// `workload_gram` runs only while the term is still unset, so a cache
    /// hit whose term is known builds no gram.
    pub(crate) fn trace_term_with<'g>(
        &self,
        workload_gram: impl FnOnce() -> &'g Matrix,
    ) -> crate::Result<f64> {
        if let Some(t) = self.trace.get() {
            return Ok(*t);
        }
        let factor = self.factor()?;
        let t = crate::error::trace_term_with_factor(workload_gram(), &factor)?;
        Ok(*self.trace.get_or_init(|| t))
    }
}

/// Why a [`Flight`] resolved without an entry, for threads and async
/// waiters alike.
///
/// A thread that observed a poisoned flight races to become the next
/// leader, whose guard carries the poison
/// ([`SelectionGuard::recovered_poison`]).  An async waiter founds a new
/// flight on [`FlightPoison::Unled`] and fails with
/// [`FlightPoison::into_error`] on the others.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightPoison {
    /// The leader's selector returned this error.
    Error(MechanismError),
    /// The leader's selection panicked with this message.
    Panicked(String),
    /// The leader's guard was dropped without publishing or failing.
    Abandoned,
    /// No thread led the flight: the async request that founded it was shed,
    /// or expired before its selection job ran.
    Unled,
}

impl FlightPoison {
    /// The error of a waiter that does not retry: the selector's own, or a
    /// [`MechanismError::PoisonedSelection`] naming the panic or the poison.
    pub fn into_error(self) -> MechanismError {
        match self {
            FlightPoison::Error(e) => e,
            FlightPoison::Panicked(msg) => MechanismError::PoisonedSelection(msg),
            other => MechanismError::PoisonedSelection(other.to_string()),
        }
    }
}

impl std::fmt::Display for FlightPoison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightPoison::Error(e) => write!(f, "selection leader failed: {e}"),
            FlightPoison::Panicked(msg) => write!(f, "selection leader panicked: {msg}"),
            FlightPoison::Abandoned => {
                write!(f, "selection leader panicked or abandoned the flight")
            }
            FlightPoison::Unled => write!(
                f,
                "no thread led the selection: its founding request was shed or expired"
            ),
        }
    }
}

/// One in-flight selection (see the module docs): threads block on its
/// condvar, async requests register wakers with [`Flight::poll`], and both
/// wake once, when it resolves.
///
/// Lock poisoning is *recovered* throughout this module
/// (`unwrap_or_else(PoisonError::into_inner)`): flight state and shard maps
/// are only ever written whole, so a panicking leader leaves no torn data,
/// and the flight machinery itself turns that panic into a [`FlightPoison`]
/// for every waiter.  Panicking on the poison flag instead would take down
/// every thread that ever touches the same shard.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState {
    /// Unresolved; holds the wakers of the async requests waiting on it.
    Pending(Vec<Waker>),
    Done(Arc<SelectionPlan>),
    Poisoned(FlightPoison),
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending(Vec::new())),
            cv: Condvar::new(),
        })
    }

    fn state(&self) -> MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the flight resolves; `Err` carries why it failed.
    fn wait(&self) -> Result<Arc<SelectionPlan>, FlightPoison> {
        let mut state = self.state();
        loop {
            match &*state {
                FlightState::Pending(_) => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner)
                }
                FlightState::Done(entry) => return Ok(entry.clone()),
                FlightState::Poisoned(poison) => return Err(poison.clone()),
            }
        }
    }

    /// The flight's outcome once it has resolved; until then registers
    /// `waker` (once per task) to be woken when it does.
    pub fn poll(&self, waker: &Waker) -> Poll<Result<Arc<SelectionPlan>, FlightPoison>> {
        match &mut *self.state() {
            FlightState::Pending(wakers) => {
                if !wakers.iter().any(|w| w.will_wake(waker)) {
                    wakers.push(waker.clone());
                }
                Poll::Pending
            }
            FlightState::Done(entry) => Poll::Ready(Ok(entry.clone())),
            FlightState::Poisoned(poison) => Poll::Ready(Err(poison.clone())),
        }
    }

    /// Resolves a pending flight and wakes every waiter once, the wakers
    /// after the lock is released.
    fn resolve(&self, outcome: Result<Arc<SelectionPlan>, FlightPoison>) {
        let wakers = {
            let mut state = self.state();
            let FlightState::Pending(wakers) = &mut *state else {
                return;
            };
            let wakers = std::mem::take(wakers);
            *state = match outcome {
                Ok(entry) => FlightState::Done(entry),
                Err(poison) => FlightState::Poisoned(poison),
            };
            wakers
        };
        self.cv.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    selection: Arc<SelectionPlan>,
    /// Recency stamp: the shard tick at the entry's last `get` or insert.
    last_used: u64,
}

/// A flight in progress, and whether a thread leads it yet.
#[derive(Debug)]
struct InFlight {
    flight: Arc<Flight>,
    led: bool,
}

#[derive(Debug, Default)]
struct ShardInner {
    map: HashMap<Fingerprint, CacheEntry>,
    in_flight: HashMap<Fingerprint, InFlight>,
    tick: u64,
}

impl ShardInner {
    fn touch(&mut self, fp: Fingerprint) -> Option<Arc<SelectionPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&fp).map(|e| {
            e.last_used = tick;
            e.selection.clone()
        })
    }

    /// Inserts, evicting least-recently-used entries to stay within
    /// `capacity`, and returns the entry now cached for the fingerprint: an
    /// earlier insert wins a race between two concurrent selections, keeping
    /// results stable.
    fn insert(
        &mut self,
        fp: Fingerprint,
        selection: Arc<SelectionPlan>,
        capacity: usize,
    ) -> Arc<SelectionPlan> {
        if let Some(existing) = self.map.get(&fp) {
            return existing.selection.clone();
        }
        while self.map.len() >= capacity {
            // Shard capacities are small, so a linear scan is cheaper than an
            // intrusive list.  The scan imposes a *total* order — stamp, then
            // fingerprint — so the victim is a pure function of the entries,
            // not of HashMap iteration order.
            let victim = self
                .map
                // mm-lint: allow(determinism-hygiene): full scan under a total order (stamp, then fingerprint) — result independent of hash iteration order
                .iter()
                .min_by_key(|(fp, e)| (e.last_used, fp.0))
                .map(|(fp, _)| *fp);
            let Some(victim) = victim else {
                break;
            };
            self.map.remove(&victim);
        }
        self.tick += 1;
        self.map.insert(
            fp,
            CacheEntry {
                selection: selection.clone(),
                last_used: self.tick,
            },
        );
        selection
    }
}

#[derive(Debug, Default)]
struct Shard {
    /// Maximum entries this shard holds (shards share the total capacity;
    /// the first `capacity % shard_count` shards hold one extra entry).
    capacity: usize,
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Outcome of [`StrategyCache::join`].
#[derive(Debug)]
pub enum Join {
    /// Nothing to wait for: the entry is cached, or caching is disabled and
    /// the answer path selects inline.
    Ready,
    /// A selection is in flight: wait on it with [`Flight::poll`].
    Waiting(Arc<Flight>),
    /// This call founded the flight, which no thread leads yet: the caller
    /// must get one to lead it through [`StrategyCache::begin`], or poison
    /// it with [`StrategyCache::abandon`].
    Founded(Arc<Flight>),
}

/// Outcome of [`StrategyCache::begin`].
#[derive(Debug)]
pub enum Lookup<'c> {
    /// The fingerprint was resident; the entry's recency was refreshed.
    Hit(Arc<SelectionPlan>),
    /// Another thread was already selecting this fingerprint; the caller
    /// blocked and received the leader's entry without doing any work.
    Shared(Arc<SelectionPlan>),
    /// The caller is the selection leader: it must run the selector and
    /// [`SelectionGuard::publish`] the result (dropping the guard without
    /// publishing marks the flight failed and wakes any waiters).
    Miss(SelectionGuard<'c>),
}

/// Held by the single selection leader for a fingerprint; see [`Lookup`].
#[derive(Debug)]
pub struct SelectionGuard<'c> {
    cache: &'c StrategyCache,
    fp: Fingerprint,
    /// `None` when the cache is disabled (capacity 0): no flight to resolve,
    /// nothing to publish into.
    flight: Option<Arc<Flight>>,
    /// The poison of the flight this leader replaced, when the caller became
    /// leader only because an earlier leader failed.
    recovered_poison: Option<FlightPoison>,
}

impl SelectionGuard<'_> {
    /// Publishes a completed selection: inserts it into the cache and hands
    /// it to every waiter.  Returns the entry now cached for the fingerprint
    /// — if a concurrent `insert` won the race for this fingerprint, that
    /// earlier entry is what waiters receive and what is returned, keeping
    /// every caller on one strategy per fingerprint.
    pub fn publish(mut self, selection: Arc<SelectionPlan>) -> Arc<SelectionPlan> {
        let Some(flight) = self.flight.take() else {
            return selection; // caching disabled
        };
        let shard = self.cache.shard(self.fp);
        let winner = {
            let mut inner = shard.lock();
            let winner = inner.insert(self.fp, selection, shard.capacity);
            inner.in_flight.remove(&self.fp);
            winner
        };
        flight.resolve(Ok(winner.clone()));
        winner
    }

    /// Fails the flight with a typed reason so waiters learn *why* selection
    /// died (dropping the guard instead reports [`FlightPoison::Abandoned`]).
    /// Errors are never cached; waiting threads race to become the next
    /// leader.
    pub fn fail(mut self, poison: FlightPoison) {
        self.resolve_failed(poison);
    }

    /// The poison left by the failed leader this caller replaced, when the
    /// caller became leader via the waiter-retry path rather than on a plain
    /// miss.
    pub fn recovered_poison(&self) -> Option<&FlightPoison> {
        self.recovered_poison.as_ref()
    }

    fn resolve_failed(&mut self, poison: FlightPoison) {
        if let Some(flight) = self.flight.take() {
            self.cache.shard(self.fp).lock().in_flight.remove(&self.fp);
            flight.resolve(Err(poison));
        }
    }
}

impl Drop for SelectionGuard<'_> {
    fn drop(&mut self) {
        // Leader gave up without calling `fail` (selector panic, or an error
        // path that predates typed poisoning): poison the flight so waiters
        // wake and retry instead of deadlocking; errors are never cached.
        self.resolve_failed(FlightPoison::Abandoned);
    }
}

/// A bounded, sharded map from workload fingerprints to selected
/// [`SelectionPlan`]s with single-flight selection and per-shard LRU
/// eviction (see the module docs).
#[derive(Debug)]
pub struct StrategyCache {
    capacity: usize,
    shards: Box<[Shard]>,
    shard_mask: usize,
}

impl StrategyCache {
    /// Creates a cache holding up to `capacity` strategies total (0 disables
    /// caching) over [`DEFAULT_SHARD_COUNT`] shards with LRU eviction.
    pub fn new(capacity: usize) -> Self {
        StrategyCache::with_shards(capacity, DEFAULT_SHARD_COUNT)
    }

    /// Creates a cache with an explicit shard count (rounded up to a power
    /// of two, then halved until it does not exceed the capacity, so every
    /// shard holds at least one entry).  The capacity is split across
    /// shards with the remainder spread one-per-shard, so the shard
    /// capacities sum to exactly the configured total.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let mut count = shards.max(1).next_power_of_two();
        while count > 1 && count > capacity {
            count /= 2;
        }
        let (base, remainder) = (capacity / count, capacity % count);
        StrategyCache {
            capacity,
            shards: (0..count)
                .map(|i| Shard {
                    capacity: base + usize::from(i < remainder),
                    inner: Mutex::default(),
                })
                .collect(),
            shard_mask: count - 1,
        }
    }

    /// The configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, fp: Fingerprint) -> &Shard {
        // Fingerprints are avalanched, so the low bits are uniform.
        // mm-lint: allow(serve-panic-freedom): shard_mask = len - 1 with len a power of two, so the masked index is in bounds by construction
        &self.shards[(fp.0 as usize) & self.shard_mask]
    }

    /// Looks up a fingerprint for a thread.  On a miss the caller leads a
    /// new flight, or one that [`StrategyCache::join`] founded and no thread
    /// leads yet; otherwise it blocks while the leader selects.
    pub fn begin(&self, fp: Fingerprint) -> Lookup<'_> {
        if self.capacity == 0 {
            return Lookup::Miss(SelectionGuard {
                cache: self,
                fp,
                flight: None,
                recovered_poison: None,
            });
        }
        let shard = self.shard(fp);
        let mut recovered_poison = None;
        loop {
            let (flight, lead) = {
                let mut inner = shard.lock();
                if let Some(selection) = inner.touch(fp) {
                    return Lookup::Hit(selection);
                }
                match inner.in_flight.entry(fp) {
                    Entry::Occupied(mut slot) => {
                        let in_flight = slot.get_mut();
                        let unled = !std::mem::replace(&mut in_flight.led, true);
                        (in_flight.flight.clone(), unled)
                    }
                    Entry::Vacant(slot) => {
                        let flight = Flight::new();
                        slot.insert(InFlight {
                            flight: flight.clone(),
                            led: true,
                        });
                        (flight, true)
                    }
                }
            };
            if lead {
                return Lookup::Miss(SelectionGuard {
                    cache: self,
                    fp,
                    flight: Some(flight),
                    recovered_poison,
                });
            }
            // Another thread is selecting: wait off-lock.  A poisoned flight
            // loops back so this caller can (race to) become the new leader,
            // carrying the poison into its guard so the retry can report it.
            match flight.wait() {
                Ok(selection) => return Lookup::Shared(selection),
                Err(poison) => recovered_poison = Some(poison),
            }
        }
    }

    /// Looks up a fingerprint for an async request, without blocking: on a
    /// miss, joins the flight for it or founds one that no thread leads.
    pub fn join(&self, fp: Fingerprint) -> Join {
        if self.capacity == 0 {
            return Join::Ready;
        }
        let mut inner = self.shard(fp).lock();
        if inner.touch(fp).is_some() {
            return Join::Ready;
        }
        match inner.in_flight.entry(fp) {
            Entry::Occupied(slot) => Join::Waiting(slot.get().flight.clone()),
            Entry::Vacant(slot) => {
                let flight = Flight::new();
                slot.insert(InFlight {
                    flight: flight.clone(),
                    led: false,
                });
                Join::Founded(flight)
            }
        }
    }

    /// Poisons `flight`, founded for `fp` by [`StrategyCache::join`], and
    /// wakes its waiters, unless a thread leads it (the leader resolves it).
    pub fn abandon(&self, fp: Fingerprint, flight: &Arc<Flight>, poison: FlightPoison) {
        {
            let mut inner = self.shard(fp).lock();
            let unled = inner
                .in_flight
                .get(&fp)
                .is_some_and(|f| !f.led && Arc::ptr_eq(&f.flight, flight));
            if !unled {
                return;
            }
            inner.in_flight.remove(&fp);
        }
        flight.resolve(Err(poison));
    }

    /// Flights in progress across all shards, led or waiting for a leader.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().in_flight.len()).sum()
    }

    /// Looks up the selection cached for a fingerprint, refreshing its
    /// recency (no single-flight; see [`StrategyCache::begin`]).
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<SelectionPlan>> {
        if self.capacity == 0 {
            return None;
        }
        self.shard(fp).lock().touch(fp)
    }

    /// Inserts a selection, evicting the shard's least-recently-used entry
    /// when full.  Returns the selection now cached for the fingerprint (an
    /// earlier entry wins a race between two concurrent selections, keeping
    /// results stable).
    pub fn insert(&self, fp: Fingerprint, selection: Arc<SelectionPlan>) -> Arc<SelectionPlan> {
        if self.capacity == 0 {
            return selection;
        }
        let shard = self.shard(fp);
        shard.lock().insert(fp, selection, shard.capacity)
    }

    /// Number of cached strategies (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached strategy (in-flight selections are unaffected and
    /// will publish into the emptied cache).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_strategies::identity::identity_strategy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fp(v: u64) -> Fingerprint {
        Fingerprint(v)
    }

    fn dense_entry(n: usize) -> Arc<CachedSelection> {
        Arc::new(CachedSelection::new(Arc::new(identity_strategy(n))))
    }

    fn entry(n: usize) -> Arc<SelectionPlan> {
        Arc::new(SelectionPlan::Dense(dense_entry(n)))
    }

    /// A one-shard cache so eviction order is deterministic.
    fn single_shard(capacity: usize) -> StrategyCache {
        StrategyCache::with_shards(capacity, 1)
    }

    #[test]
    fn insert_get_roundtrip() {
        let cache = StrategyCache::new(4);
        assert!(cache.get(fp(1)).is_none());
        let s = entry(4);
        cache.insert(fp(1), s.clone());
        let got = cache.get(fp(1)).unwrap();
        assert!(Arc::ptr_eq(&got, &s));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_evicts_the_coldest() {
        let cache = single_shard(2);
        cache.insert(fp(1), entry(4));
        cache.insert(fp(2), entry(4));
        // Touch 1 so 2 is now the least recently used.
        assert!(cache.get(fp(1)).is_some());
        cache.insert(fp(3), entry(4));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(fp(1)).is_some(), "recently used entry survives");
        assert!(cache.get(fp(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(fp(3)).is_some());
    }

    #[test]
    fn hot_entry_survives_churning_cold_stream() {
        // The regression FIFO failed: a hot workload served between cold
        // insertions stays resident under LRU, while FIFO (insertion order)
        // would have evicted it once `capacity` cold entries passed through.
        let cache = single_shard(4);
        let hot = entry(4);
        cache.insert(fp(0), hot.clone());
        for cold in 1..=100u64 {
            assert!(
                cache.get(fp(0)).is_some(),
                "hot entry evicted after {cold} cold insertions"
            );
            cache.insert(fp(cold), entry(4));
        }
        assert!(Arc::ptr_eq(&cache.get(fp(0)).unwrap(), &hot));
    }

    #[test]
    fn first_insert_wins_races() {
        let cache = StrategyCache::new(2);
        let a = entry(4);
        let b = entry(4);
        let kept = cache.insert(fp(9), a.clone());
        assert!(Arc::ptr_eq(&kept, &a));
        let kept = cache.insert(fp(9), b);
        assert!(Arc::ptr_eq(&kept, &a), "earlier entry is kept");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = StrategyCache::new(0);
        cache.insert(fp(5), entry(4));
        assert!(cache.get(fp(5)).is_none());
        assert!(cache.is_empty());
        // begin() always hands out a leader guard; publish is a no-op.
        let Lookup::Miss(guard) = cache.begin(fp(5)) else {
            panic!("disabled cache must miss");
        };
        guard.publish(entry(4));
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties() {
        let cache = StrategyCache::new(4);
        cache.insert(fp(1), entry(4));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shard_split_covers_capacity() {
        let cache = StrategyCache::new(32);
        assert_eq!(cache.shard_count(), DEFAULT_SHARD_COUNT);
        // Every fingerprint is insertable regardless of which shard it maps
        // to (per-shard capacity is total/shards).
        for v in 0..32u64 {
            cache.insert(fp(v), entry(2));
        }
        assert!(cache.len() >= 32 / DEFAULT_SHARD_COUNT);
        // Shard counts round up to powers of two and never exceed capacity.
        assert_eq!(StrategyCache::with_shards(4, 64).shard_count(), 4);
        assert_eq!(StrategyCache::with_shards(8, 3).shard_count(), 4);
    }

    #[test]
    fn total_capacity_is_never_exceeded() {
        // Regression: a non-power-of-two capacity below the default shard
        // count used to keep 8 one-entry shards, holding up to 8 entries
        // while capacity() reported 5.
        for capacity in [1usize, 2, 3, 5, 7, 12, 33] {
            let cache = StrategyCache::new(capacity);
            assert!(cache.shard_count() <= capacity);
            // The per-shard bounds sum to exactly the configured total (the
            // remainder is spread one-per-shard, not floored away).
            let shard_total: usize = cache.shards.iter().map(|s| s.capacity).sum();
            assert_eq!(shard_total, capacity);
            for v in 0..200u64 {
                cache.insert(fp(v), entry(2));
                assert!(
                    cache.len() <= capacity,
                    "len {} > capacity {capacity} after {v} inserts",
                    cache.len()
                );
            }
        }
    }

    #[test]
    fn publish_defers_to_an_insert_that_won_the_race() {
        // A direct `insert` racing ahead of a leader's `publish` must win for
        // every observer: the flight's waiters, the leader's return value,
        // and later lookups all see the earlier entry.
        let cache = StrategyCache::new(4);
        let Lookup::Miss(guard) = cache.begin(fp(7)) else {
            panic!("empty cache must miss");
        };
        let raced = cache.insert(fp(7), entry(4));
        let published = guard.publish(entry(4));
        assert!(Arc::ptr_eq(&published, &raced), "earlier insert wins");
        match cache.begin(fp(7)) {
            Lookup::Hit(got) => assert!(Arc::ptr_eq(&got, &raced)),
            other => panic!("expected hit, got {other:?}"),
        };
    }

    #[test]
    fn begin_hit_and_miss_paths() {
        let cache = StrategyCache::new(4);
        let Lookup::Miss(guard) = cache.begin(fp(7)) else {
            panic!("empty cache must miss");
        };
        let published = guard.publish(entry(4));
        match cache.begin(fp(7)) {
            Lookup::Hit(got) => assert!(Arc::ptr_eq(&got, &published)),
            other => panic!("expected hit, got {other:?}"),
        };
    }

    #[test]
    fn dropped_guard_fails_the_flight_and_allows_retry() {
        let cache = StrategyCache::new(4);
        {
            let Lookup::Miss(_guard) = cache.begin(fp(3)) else {
                panic!("must miss");
            };
            // _guard dropped without publishing (selector error).
        }
        // The flight is gone; the next caller becomes a fresh leader rather
        // than deadlocking on the failed flight.
        let Lookup::Miss(guard) = cache.begin(fp(3)) else {
            panic!("failed flight must not leave a stale entry");
        };
        guard.publish(entry(4));
        assert!(matches!(cache.begin(fp(3)), Lookup::Hit(_)));
    }

    #[test]
    fn single_flight_runs_one_selection_across_threads() {
        let cache = Arc::new(StrategyCache::new(8));
        let selections = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let selections = selections.clone();
                std::thread::spawn(move || match cache.begin(fp(42)) {
                    Lookup::Hit(e) | Lookup::Shared(e) => e,
                    Lookup::Miss(guard) => {
                        selections.fetch_add(1, Ordering::SeqCst);
                        // Give the other threads time to pile onto the flight.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        guard.publish(entry(4))
                    }
                })
            })
            .collect();
        let entries: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(
            selections.load(Ordering::SeqCst),
            1,
            "exactly one leader selected"
        );
        for e in &entries[1..] {
            assert!(
                Arc::ptr_eq(e, &entries[0]),
                "all threads share the one published entry"
            );
        }
    }

    #[test]
    fn failed_flight_reports_typed_poison_to_waiters() {
        // A leader that fails with a reason hands that reason to the retry
        // leader via `recovered_poison`; an abandoned (dropped) guard reports
        // `Abandoned` instead.
        let cache = Arc::new(StrategyCache::new(4));
        let exploded = MechanismError::InvalidArgument("selector exploded".to_string());
        for (fail_with_reason, expected) in [
            (true, FlightPoison::Error(exploded)),
            (false, FlightPoison::Abandoned),
        ] {
            let Lookup::Miss(leader) = cache.begin(fp(11)) else {
                panic!("must miss");
            };
            assert!(leader.recovered_poison().is_none(), "plain miss: no poison");
            let waiter = {
                let cache = cache.clone();
                std::thread::spawn(move || match cache.begin(fp(11)) {
                    Lookup::Miss(retry) => {
                        let poison = retry.recovered_poison().cloned();
                        retry.publish(entry(4));
                        poison
                    }
                    other => panic!("waiter must become the new leader, got {other:?}"),
                })
            };
            // Give the waiter time to pile onto the flight, then fail it.
            std::thread::sleep(std::time::Duration::from_millis(30));
            if fail_with_reason {
                leader.fail(expected.clone());
            } else {
                drop(leader);
            }
            let recovered = waiter.join().unwrap();
            assert_eq!(recovered, Some(expected.clone()));
            assert!(expected.to_string().contains(match expected {
                FlightPoison::Error(_) => "failed: invalid argument: selector exploded",
                _ => "abandoned",
            }));
            // The retry leader published successfully and the entry is good.
            assert!(matches!(cache.begin(fp(11)), Lookup::Hit(_)));
            cache.clear();
        }
    }

    /// Counts its wakes.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl CountingWaker {
        fn wakes(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    /// An async request founds a flight and registers its waker; a thread
    /// then leads that flight instead of waiting on it, and its publish
    /// wakes the request exactly once.
    #[test]
    fn a_registered_waker_is_woken_once_when_the_flight_publishes() {
        let cache = StrategyCache::new(4);
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(counter.clone());
        let Join::Founded(flight) = cache.join(fp(5)) else {
            panic!("an empty cache founds a flight");
        };
        // Polling twice registers the one task once.
        assert!(flight.poll(&waker).is_pending());
        assert!(flight.poll(&waker).is_pending());
        match cache.join(fp(5)) {
            Join::Waiting(joined) => assert!(Arc::ptr_eq(&joined, &flight)),
            other => panic!("a second request joins the flight, got {other:?}"),
        }
        assert_eq!(cache.in_flight(), 1);
        let Lookup::Miss(guard) = cache.begin(fp(5)) else {
            panic!("a thread leads a flight that no thread leads yet");
        };
        // A led flight is not the founder's to abandon any more.
        cache.abandon(fp(5), &flight, FlightPoison::Unled);
        assert!(flight.poll(&waker).is_pending());
        assert_eq!(counter.wakes(), 0);

        let published = guard.publish(entry(4));
        assert_eq!(counter.wakes(), 1);
        match flight.poll(&waker) {
            Poll::Ready(Ok(got)) => assert!(Arc::ptr_eq(&got, &published)),
            other => panic!("a published flight is ready, got {other:?}"),
        }
        assert_eq!(counter.wakes(), 1, "a resolved flight registers no waker");
        assert_eq!(cache.in_flight(), 0);
        assert!(matches!(cache.join(fp(5)), Join::Ready));
    }

    /// Each way a flight can fail wakes a registered waker exactly once and
    /// hands it that poison; the fingerprint is free to found afresh.
    #[test]
    fn a_registered_waker_is_woken_once_on_each_poison_kind() {
        let poisons = [
            FlightPoison::Error(MechanismError::InvalidArgument("bad".into())),
            FlightPoison::Panicked("boom".into()),
            FlightPoison::Abandoned,
            FlightPoison::Unled,
        ];
        for expected in poisons {
            let cache = StrategyCache::new(4);
            let counter = Arc::new(CountingWaker::default());
            let waker = Waker::from(counter.clone());
            let Join::Founded(flight) = cache.join(fp(9)) else {
                panic!("an empty cache founds a flight");
            };
            assert!(flight.poll(&waker).is_pending());
            match &expected {
                // Nobody leads it: the founder abandons it.
                FlightPoison::Unled => cache.abandon(fp(9), &flight, FlightPoison::Unled),
                poison => {
                    let Lookup::Miss(guard) = cache.begin(fp(9)) else {
                        panic!("a thread leads a flight that no thread leads yet");
                    };
                    if *poison == FlightPoison::Abandoned {
                        drop(guard);
                    } else {
                        guard.fail(poison.clone());
                    }
                }
            }
            assert_eq!(counter.wakes(), 1, "{expected}: woken exactly once");
            match flight.poll(&waker) {
                Poll::Ready(Err(got)) => assert_eq!(got, expected),
                other => panic!("{expected}: a poisoned flight is ready, got {other:?}"),
            }
            assert_eq!(counter.wakes(), 1, "{expected}: no waker after resolving");
            assert_eq!(cache.in_flight(), 0);
            assert!(matches!(cache.join(fp(9)), Join::Founded(_)));
        }
        // What a waiter that does not retry resolves with.
        let bad = MechanismError::InvalidArgument("bad".into());
        assert_eq!(FlightPoison::Error(bad.clone()).into_error(), bad);
        assert_eq!(
            FlightPoison::Panicked("boom".into()).into_error(),
            MechanismError::PoisonedSelection("boom".into())
        );
    }

    #[test]
    fn with_parts_preseeds_derived_quantities() {
        let fresh = dense_entry(5);
        let factor = fresh.factor().unwrap();
        let gram = mm_linalg::Matrix::identity(5);
        let trace = fresh.trace_term(&gram).unwrap();
        let rebuilt = CachedSelection::with_parts(fresh.strategy().clone(), factor.clone(), trace);
        // Pre-seeded: the very same factor Arc comes back, no recompute.
        assert!(Arc::ptr_eq(&rebuilt.factor().unwrap(), &factor));
        assert_eq!(
            rebuilt.trace_term(&gram).unwrap().to_bits(),
            trace.to_bits()
        );
    }

    #[test]
    fn factor_is_computed_once_and_shared() {
        let e = dense_entry(6);
        let f1 = e.factor().unwrap();
        let f2 = e.factor().unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(f1.dim(), 6);
        // Solving through the cached factor matches the direct solve.
        let rhs = vec![1.0; 6];
        let x = f1.solve_vec(&rhs).unwrap();
        for (a, b) in x.iter().zip(rhs.iter()) {
            assert!((a - b).abs() < 1e-12, "identity gram solves to rhs");
        }
    }
}
