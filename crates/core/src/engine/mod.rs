//! The serving engine: pluggable strategy selection, noise backends, strategy
//! caching and budgeted sessions behind one `answer` call.
//!
//! This is the primary entry point of the crate.  An [`Engine`] is built once
//! and then serves any number of `answer` calls:
//!
//! ```text
//!     Engine::builder()                        Session<E: Borrow<Engine>>
//!       .privacy(ε, δ)                            │ charge (ε,δ) per answer
//!       .selector(…)      ──► Engine::answer ◄────┘   (BudgetLedger)
//!       .backend(…)             │
//!       .build()                ├── admit: shapes, privacy, O(1) budget probe
//!                               ├── plan fingerprint ──► StrategyCache
//!                               │     (sharded LRU of SelectionPlans;
//!                               │      hit: skip selection)
//!                               ├── selection (miss: single-flight) —
//!                               │     dense StrategySelector, or the
//!                               │     Low-Rank Mechanism (builder knob
//!                               │     `low_rank(r)`: eigen-design in the
//!                               │     top-r subspace, O(nr² + r³))
//!                               └── release: check ledger, y = Ax + noise
//!                                   (NoiseBackend), x̂ = A⁺y, charge once;
//!                                   answers = W x̂
//! ```
//!
//! Every selection pipeline — dense, structured (matrix-free) and low-rank —
//! produces one [`SelectionPlan`], the single currency of the cache, the
//! persistent [`StrategyStore`] and the answer paths (see [`plan`]), and
//! every plan kind answers through the same release step: dense and
//! low-rank plans through triangular solves on a cached factor, structured
//! plans through their strategy's exact O(n) least squares.
//!
//! The engine is a concurrent server: all methods take `&self`, the cache is
//! sharded and single-flight (N threads missing on one workload run one
//! selection), an [`OwnedSession`] (`Session<Arc<Engine>>`) moves across
//! threads/async tasks, and [`Engine::answer_batch`] serves many databases
//! under one workload for a single cache lookup.
//!
//! Strategy selection is data independent (Sec. 1 of the paper): a selected
//! strategy "can be computed once and reused across databases".  The engine
//! exploits this with an internal cache keyed by a hash of the workload's
//! gram matrix — the first `answer` on a workload pays for selection, every
//! subsequent `answer` (any database, any number of times) reuses the cached
//! strategy and pays only for the mechanism run, which is orders of magnitude
//! cheaper.
//!
//! # Example
//!
//! ```
//! use mm_core::engine::{Engine, PrivacyBudget};
//! use mm_core::PrivacyParams;
//! use mm_workload::range::AllRangeWorkload;
//! use mm_workload::{Domain, Workload};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let workload = AllRangeWorkload::new(Domain::one_dim(16));
//! let x: Vec<f64> = (0..16).map(|i| 100.0 + i as f64).collect();
//!
//! let engine = Engine::builder()
//!     .privacy(PrivacyParams::new(1.0, 1e-4))
//!     .build()
//!     .unwrap();
//! let mut rng = StdRng::seed_from_u64(0);
//!
//! // First answer selects (and caches) a strategy; the second is a cache hit.
//! let a = engine.answer(&workload, &x, &mut rng).unwrap();
//! let b = engine.answer(&workload, &x, &mut rng).unwrap();
//! assert!(!a.cache_hit && b.cache_hit);
//! assert_eq!(engine.stats().selections, 1);
//!
//! // Budgeted sessions compose sequentially and fail closed.
//! let mut session = engine.session(PrivacyBudget::new(2.0, 1e-3));
//! session.answer(&workload, &x, &mut rng).unwrap();
//! session.answer(&workload, &x, &mut rng).unwrap();
//! assert!(session.answer(&workload, &x, &mut rng).is_err()); // ε exhausted
//! ```

pub mod breaker;
pub mod cache;
mod lookup;
mod low_rank;
pub mod plan;
mod release;
pub mod selector;
pub mod session;
pub mod store;
pub mod structured;

pub use breaker::{
    BreakerState, StoreBreaker, StoreHealth, DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD,
};
pub use cache::{
    CachedSelection, FlightPoison, Lookup, SelectionGuard, StrategyCache, DEFAULT_SHARD_COUNT,
};
pub use plan::{LowRankPlan, PlanKind, SelectionPlan, StructuredPlan};
pub use selector::{
    DesignBasis, DesignSetSelector, EigenDesignSelector, FixedStrategySelector,
    MatrixDesignSelector, PureDpSelector, SelectionContext, StrategySelector,
};
pub use session::{BudgetLedger, OwnedSession, PrivacyBudget, Session};
pub use store::{SaveOutcome, StrategyStore, PLAN_STORE_EXTENSION, PLAN_STORE_VERSION};
pub use structured::{
    FixedStructuredSelector, StructuredAnswer, StructuredSelector, TreeStructuredSelector,
};

use crate::accounting::{Accountant, AccountantFactory, SequentialAccounting};
use crate::eigen_design::EigenDesignOptions;
use crate::error::predicted_rms_error;
use crate::faults::{FaultInjector, NoFaults};
use crate::mechanism::backend::{default_backend, NoiseBackend};
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use lookup::FrontStats;
use mm_linalg::Matrix;
use mm_strategies::Strategy;
use mm_workload::{Fingerprint, Workload};
use rand::Rng;
use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default number of distinct workloads the strategy cache holds.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Bounded retry for transient store-save failures: total attempts per
/// save (first try + retries), with exponential backoff between attempts
/// starting at [`STORE_SAVE_BACKOFF`].
pub const STORE_SAVE_ATTEMPTS: u32 = 3;

/// Initial backoff before the first store-save retry (doubles per retry).
pub const STORE_SAVE_BACKOFF: Duration = Duration::from_millis(1);

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    privacy: PrivacyParams,
    selector: Option<Arc<dyn StrategySelector>>,
    backend: Option<Arc<dyn NoiseBackend>>,
    accountant: Option<Arc<dyn AccountantFactory>>,
    cache_capacity: usize,
    cache_shards: usize,
    strategy_store: Option<PathBuf>,
    structured_selector: Option<Arc<dyn StructuredSelector>>,
    low_rank: Option<usize>,
    fault_injector: Option<Arc<dyn FaultInjector>>,
    store_breaker: Option<(u32, Duration)>,
}

impl EngineBuilder {
    /// Sets the per-answer privacy parameters (default: the paper's
    /// ε = 0.5, δ = 10⁻⁴).
    pub fn privacy(mut self, privacy: PrivacyParams) -> Self {
        self.privacy = privacy;
        self
    }

    /// Sets the strategy selector (default: [`EigenDesignSelector`]).
    pub fn selector(mut self, selector: impl StrategySelector + 'static) -> Self {
        self.selector = Some(Arc::new(selector));
        self
    }

    /// Sets an already-shared strategy selector.
    pub fn selector_arc(mut self, selector: Arc<dyn StrategySelector>) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Sets the noise backend (default: Gaussian when δ > 0, else Laplace).
    pub fn backend(mut self, backend: impl NoiseBackend + 'static) -> Self {
        self.backend = Some(Arc::new(backend));
        self
    }

    /// Sets an already-shared noise backend.
    pub fn backend_arc(mut self, backend: Arc<dyn NoiseBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the privacy-accounting policy sessions charge through (default:
    /// [`SequentialAccounting`], i.e. basic sequential composition).  Every
    /// [`Engine::session`] / [`Engine::owned_session`] stamps out a fresh
    /// accountant from this factory; see [`crate::accounting`] for the
    /// provided policies ([`SequentialAccounting`],
    /// [`crate::accounting::AdvancedCompositionAccounting`],
    /// [`crate::accounting::RdpAccounting`]).
    pub fn accountant(mut self, factory: impl AccountantFactory + 'static) -> Self {
        self.accountant = Some(Arc::new(factory));
        self
    }

    /// Sets an already-shared accounting policy.
    pub fn accountant_arc(mut self, factory: Arc<dyn AccountantFactory>) -> Self {
        self.accountant = Some(factory);
        self
    }

    /// Sets the strategy-cache capacity in distinct workloads (0 disables
    /// caching; default [`DEFAULT_CACHE_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the number of independently locked cache shards (rounded up to a
    /// power of two; default [`DEFAULT_SHARD_COUNT`]).  More shards reduce
    /// lock contention under parallel serving; one shard gives globally exact
    /// LRU order.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Persists selections to (and warms the cache from) a
    /// [`StrategyStore`] directory, created if missing.  On build, up to
    /// `cache_capacity` stored entries are loaded into the in-memory cache;
    /// at runtime every cache miss first probes the store, and every fresh
    /// selection is written back (write-once per fingerprint), so engine
    /// restarts — and independent processes sharing the directory — skip
    /// repeated selection work entirely.  See [`store`] for the file format
    /// and corruption semantics.
    pub fn strategy_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.strategy_store = Some(dir.into());
        self
    }

    /// Sets the structured (matrix-free) strategy selector used by
    /// [`Engine::answer_structured`] and friends (default:
    /// [`TreeStructuredSelector`] — Haar wavelets on power-of-two domains,
    /// binary hierarchies otherwise).
    pub fn structured_selector(mut self, selector: impl StructuredSelector + 'static) -> Self {
        self.structured_selector = Some(Arc::new(selector));
        self
    }

    /// Sets an already-shared structured selector.
    pub fn structured_selector_arc(mut self, selector: Arc<dyn StructuredSelector>) -> Self {
        self.structured_selector = Some(selector);
        self
    }

    /// Answers dense workloads through the Low-Rank Mechanism: strategy
    /// selection runs inside the top-`rank` eigen-subspace of the workload
    /// gram (extracted by truncated block subspace iteration) in
    /// O(nr² + r³) instead of the dense selector's O(n³), trading a small,
    /// predictable truncation bias (see [`LowRankPlan::predicted_rms_error`])
    /// for selection speed on workloads whose gram has low effective rank.
    ///
    /// A rank at or above a workload's dimension does not truncate; such
    /// workloads fall through to the dense selector, so full-rank answers
    /// are bit-identical to an engine without this knob.
    pub fn low_rank(mut self, rank: usize) -> Self {
        self.low_rank = Some(rank);
        self
    }

    /// Threads a [`FaultInjector`] (see [`crate::faults`]) through the
    /// engine: the strategy store's reads and writes and the selector path
    /// consult it, and the serve tier reads it back via
    /// [`Engine::fault_injector`] for its worker pool.  Default:
    /// [`NoFaults`].  This is the seam every chaos test drives; production
    /// engines leave it alone.
    pub fn fault_injector(mut self, injector: impl FaultInjector + 'static) -> Self {
        self.fault_injector = Some(Arc::new(injector));
        self
    }

    /// Sets an already-shared fault injector (e.g. a
    /// [`crate::faults::FaultSchedule`] a test also keeps a handle to).
    pub fn fault_injector_arc(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// Configures the store circuit breaker: after `threshold` consecutive
    /// persistence failures (min 1) the engine degrades to memory-only
    /// caching — no store loads or saves — for `cooldown`, then probes
    /// half-open (see [`breaker`]).  Default:
    /// [`DEFAULT_BREAKER_THRESHOLD`] failures,
    /// [`DEFAULT_BREAKER_COOLDOWN`] cool-down.  The breaker never affects
    /// answers: selection recomputes what the store would have provided,
    /// bit-identically.
    pub fn store_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.store_breaker = Some((threshold, cooldown));
        self
    }

    /// Builds the engine, validating that the backend is compatible with the
    /// privacy parameters (e.g. the Gaussian backend rejects δ = 0).
    pub fn build(self) -> crate::Result<Engine> {
        let backend = match self.backend {
            Some(b) => b,
            None => default_backend(&self.privacy),
        };
        backend.validate(&self.privacy)?;
        if self.low_rank == Some(0) {
            return Err(MechanismError::InvalidArgument(
                "low-rank rank must be at least 1".into(),
            ));
        }
        let cache = StrategyCache::with_shards(self.cache_capacity, self.cache_shards);
        let faults: Arc<dyn FaultInjector> =
            self.fault_injector.unwrap_or_else(|| Arc::new(NoFaults));
        let store = match self.strategy_store {
            Some(dir) => {
                let store = StrategyStore::open(dir)?.with_injector(faults.clone());
                // Warm restart: fill the cache from disk up to its capacity —
                // every plan kind (corrupt entries are skipped and cleared;
                // they will be recomputed and rewritten on first use).
                store.warm(&cache, cache.capacity());
                Some(store)
            }
            None => None,
        };
        let breaker = match self.store_breaker {
            Some((threshold, cooldown)) => StoreBreaker::new(threshold, cooldown),
            None => StoreBreaker::default(),
        };
        Ok(Engine {
            privacy: self.privacy,
            selector: self
                .selector
                .unwrap_or_else(|| Arc::new(EigenDesignSelector::default())),
            backend,
            accountant: self
                .accountant
                .unwrap_or_else(|| Arc::new(SequentialAccounting)),
            cache,
            store,
            structured_selector: self
                .structured_selector
                .unwrap_or_else(|| Arc::new(TreeStructuredSelector::default())),
            low_rank: self.low_rank,
            faults,
            breaker,
            dense_front: FrontStats::default(),
            structured_front: FrontStats::default(),
            dense_selections: AtomicU64::new(0),
            low_rank_selections: AtomicU64::new(0),
            structured_selections: AtomicU64::new(0),
            store_save_failures: AtomicU64::new(0),
            poisoned_flights: AtomicU64::new(0),
        })
    }
}

/// Cache and selection counters of an engine (monotone since construction).
///
/// Invariant under single-flight selection: `selections <= cache_misses`,
/// with equality as long as no selection fails — concurrent misses on one
/// fingerprint produce one *leader* (counted as a miss and, on success, a
/// selection) while the waiters that receive the leader's result count as
/// cache hits (they did no selection work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `answer`/`select` calls served from the strategy cache, including
    /// calls that waited on another thread's in-flight selection.
    pub cache_hits: u64,
    /// `answer`/`select` calls that led a selection (cold fingerprint, or
    /// caching disabled).
    pub cache_misses: u64,
    /// Times a (dense or low-rank) selection ran *successfully* — the sum of
    /// `dense_selections` and `low_rank_selections` (failed selections are
    /// not counted, and errors are never cached).
    pub selections: u64,
    /// Selections among `selections` that ran the dense selector.
    pub dense_selections: u64,
    /// Selections among `selections` that ran the Low-Rank Mechanism's
    /// subspace pipeline (builder knob [`EngineBuilder::low_rank`]).
    pub low_rank_selections: u64,
    /// Cache misses served by loading a persisted selection from the
    /// [`StrategyStore`] instead of running the selector (always 0 without a
    /// configured store; does not include entries warmed at build time).
    pub store_hits: u64,
    /// Fresh selections persisted to the [`StrategyStore`] (write-once:
    /// fingerprints another process persisted first are not re-counted).
    pub store_writes: u64,
    /// Store save attempts that failed (each attempt of a bounded-retry
    /// save counts; always 0 without a configured store).  These drive the
    /// store circuit breaker — see [`Engine::store_health`].
    pub store_save_failures: u64,
    /// Corrupt store entries silently dropped (deleted and recomputed):
    /// truncated files, checksum mismatches, wrong versions, mismatched
    /// fingerprints, malformed payloads.  Always 0 without a configured
    /// store.
    pub store_corrupt_dropped: u64,
    /// Times a caller became selection leader only because a previous
    /// leader's flight was poisoned (selector error, panic or abandonment) —
    /// the typed-poison retry path, for any plan kind.
    pub poisoned_flights: u64,
    /// Structured (matrix-free) calls served from the structured cache.
    pub structured_cache_hits: u64,
    /// Structured calls that missed the structured cache.
    pub structured_cache_misses: u64,
    /// Times the structured selector ran successfully.
    pub structured_selections: u64,
    /// Structured cache misses served by the persisted [`StrategyStore`]
    /// (always 0 without a configured store; excludes build-time warming).
    pub structured_store_hits: u64,
    /// Fresh structured selections persisted to the [`StrategyStore`]
    /// (write-once per fingerprint).
    pub structured_store_writes: u64,
}

/// Everything produced by one `answer` call.
#[derive(Debug, Clone)]
pub struct EngineAnswer {
    /// Noisy (but mutually consistent) answers to every workload query, in
    /// the workload's evaluation order.
    pub answers: Vec<f64>,
    /// The noisy estimate of the data vector the answers derive from.
    pub estimate: Vec<f64>,
    /// The strategy used (shared with the engine's cache).  Under a low-rank
    /// plan this is the subspace design `A_sub`, whose recorded sensitivities
    /// are those of the end-to-end map `A_sub·L̃` actually applied to the
    /// data (see [`LowRankPlan`]).
    pub strategy: Arc<Strategy>,
    /// The analytically predicted RMS workload error under the engine's
    /// backend (Prop. 4, resp. its L1 analogue).
    pub expected_rms_error: f64,
    /// The workload fingerprint used as the cache key.
    pub fingerprint: Fingerprint,
    /// Whether the strategy came from the cache (no selection work done).
    pub cache_hit: bool,
}

/// The serving engine: one strategy selector, one noise backend, one strategy
/// cache.  Sharable across threads behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Engine {
    privacy: PrivacyParams,
    selector: Arc<dyn StrategySelector>,
    backend: Arc<dyn NoiseBackend>,
    accountant: Arc<dyn AccountantFactory>,
    cache: StrategyCache,
    store: Option<StrategyStore>,
    structured_selector: Arc<dyn StructuredSelector>,
    /// Low-Rank Mechanism knob: when set, dense workloads of dimension
    /// greater than the rank select in the top-`rank` eigen-subspace.
    low_rank: Option<usize>,
    /// Fault-injection seam (default [`NoFaults`]): consulted by the store
    /// (reads/writes), the selector path, and — through
    /// [`Engine::fault_injector`] — the serve tier's workers.
    faults: Arc<dyn FaultInjector>,
    /// Store circuit breaker: gates all store traffic, driven by save
    /// outcomes (see [`breaker`]).
    breaker: StoreBreaker,
    /// Lookup counters of the dense front (dense and low-rank plans).
    dense_front: FrontStats,
    /// Lookup counters of the structured front.
    structured_front: FrontStats,
    /// Successful selections per plan kind.
    dense_selections: AtomicU64,
    low_rank_selections: AtomicU64,
    structured_selections: AtomicU64,
    store_save_failures: AtomicU64,
    poisoned_flights: AtomicU64,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            privacy: PrivacyParams::paper_default(),
            selector: None,
            backend: None,
            accountant: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_shards: DEFAULT_SHARD_COUNT,
            strategy_store: None,
            structured_selector: None,
            low_rank: None,
            fault_injector: None,
            store_breaker: None,
        }
    }

    /// An engine with all defaults for the given privacy parameters
    /// (Eigen-Design selection; Gaussian backend when δ > 0, else Laplace).
    pub fn new(privacy: PrivacyParams) -> Self {
        Engine::builder()
            .privacy(privacy)
            .build()
            .expect("default backend always matches the privacy parameters")
    }

    /// The per-answer privacy parameters.
    pub fn privacy(&self) -> &PrivacyParams {
        &self.privacy
    }

    /// The configured selector.
    pub fn selector(&self) -> &Arc<dyn StrategySelector> {
        &self.selector
    }

    /// The configured noise backend.
    pub fn backend(&self) -> &Arc<dyn NoiseBackend> {
        &self.backend
    }

    /// The configured accounting policy sessions charge through.
    pub fn accountant_factory(&self) -> &Arc<dyn AccountantFactory> {
        &self.accountant
    }

    /// Cache/selection counters.
    pub fn stats(&self) -> EngineStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (dense, structured) = (&self.dense_front, &self.structured_front);
        let dense_selections = load(&self.dense_selections);
        let low_rank_selections = load(&self.low_rank_selections);
        EngineStats {
            cache_hits: load(&dense.hits),
            cache_misses: load(&dense.misses),
            selections: dense_selections + low_rank_selections,
            dense_selections,
            low_rank_selections,
            store_hits: load(&dense.store_hits),
            store_writes: load(&dense.store_writes),
            store_save_failures: load(&self.store_save_failures),
            store_corrupt_dropped: self.store.as_ref().map_or(0, |s| s.corrupt_dropped()),
            poisoned_flights: load(&self.poisoned_flights),
            structured_cache_hits: load(&structured.hits),
            structured_cache_misses: load(&structured.misses),
            structured_selections: load(&self.structured_selections),
            structured_store_hits: load(&structured.store_hits),
            structured_store_writes: load(&structured.store_writes),
        }
    }

    /// The persistent strategy store, when one is configured.
    pub fn strategy_store(&self) -> Option<&StrategyStore> {
        self.store.as_ref()
    }

    /// The configured fault injector ([`NoFaults`] unless
    /// [`EngineBuilder::fault_injector`] set one).  The serve tier consults
    /// this for its worker-pool injection site.
    pub fn fault_injector(&self) -> &Arc<dyn FaultInjector> {
        &self.faults
    }

    /// Health snapshot of the persistence layer: breaker state, failure
    /// streak, corrupt entries dropped, failed save attempts.  An engine
    /// without a configured store reports a permanently closed breaker and
    /// zero counters.
    pub fn store_health(&self) -> StoreHealth {
        StoreHealth {
            breaker: self.breaker.state(),
            consecutive_failures: self.breaker.consecutive_failures(),
            corrupt_dropped: self.store.as_ref().map_or(0, |s| s.corrupt_dropped()),
            save_failures: self.store_save_failures.load(Ordering::Relaxed),
        }
    }

    /// A non-blocking cache probe by fingerprint for any plan kind,
    /// refreshing the entry's recency on a hit.  Unlike the `answer`/`select`
    /// paths this never joins or founds an in-flight selection, which makes
    /// it the right primitive for async front-ends that must not block an
    /// executor thread.
    pub fn cached_plan(&self, fp: Fingerprint) -> Option<Arc<SelectionPlan>> {
        self.cache.get(fp)
    }

    /// Like [`Engine::cached_plan`], narrowed to the dense selection: `None`
    /// when nothing is cached *or* when the cached plan is not dense.
    pub fn cached_selection(&self, fp: Fingerprint) -> Option<Arc<CachedSelection>> {
        self.cache.get(fp).and_then(|p| p.as_dense().cloned())
    }

    /// The cache/store key this engine uses for a workload with base (gram)
    /// fingerprint `base` and dimension `dim`.
    ///
    /// On a default engine this is `base` itself.  When the
    /// [`EngineBuilder::low_rank`] knob is set *and* actually truncates
    /// (`rank < dim`), the rank is mixed into the fingerprint so a low-rank
    /// plan never collides with the dense plan for the same workload — in
    /// the shared in-memory cache or a shared persistent store directory.
    pub fn plan_fingerprint(&self, base: Fingerprint, dim: usize) -> Fingerprint {
        match self.low_rank {
            Some(rank) if rank < dim => {
                // splitmix64-style avalanche of (base, rank): any rank change
                // flips about half the bits, so mixed keys spread over cache
                // shards exactly like base fingerprints do.
                let mut z = base.0 ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Fingerprint(z ^ (z >> 31))
            }
            _ => base,
        }
    }

    /// The configured Low-Rank Mechanism rank, when the builder knob is set.
    pub fn low_rank_rank(&self) -> Option<usize> {
        self.low_rank
    }

    /// Drops every cached strategy (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Opens a budgeted session borrowing this engine, accounting through
    /// the engine's configured policy (sequential composition unless
    /// [`EngineBuilder::accountant`] chose otherwise).
    pub fn session(&self, budget: PrivacyBudget) -> Session<&Engine> {
        Session::new(self, budget)
    }

    /// Opens a budgeted session charging through an explicit accountant,
    /// overriding the engine's configured policy for this one session.
    pub fn session_with_accountant(&self, accountant: Box<dyn Accountant>) -> Session<&Engine> {
        Session::with_accountant(self, accountant)
    }

    /// Opens a budgeted session that *owns* a handle to this engine, so it
    /// can move across threads or async tasks (see [`OwnedSession`]).
    pub fn owned_session(self: &Arc<Self>, budget: PrivacyBudget) -> OwnedSession {
        Session::new(self.clone(), budget)
    }

    /// Opens an owned session that charges a principal's **shared**
    /// [`UserLedger`](crate::accounting::UserLedger): every session opened
    /// this way — concurrently, sequentially, from any thread — spends the
    /// same composed budget, so one person's sessions can jointly answer
    /// exactly as many queries as a single session on that budget could.
    pub fn user_session(self: &Arc<Self>, ledger: &crate::accounting::UserLedger) -> OwnedSession {
        Session::with_accountant(self.clone(), ledger.accountant_handle())
    }

    /// Selects (or fetches from cache) the strategy for a workload, returning
    /// it with its fingerprint and whether it was a cache hit.  Under the
    /// [`EngineBuilder::low_rank`] knob the returned strategy is the subspace
    /// design `A_sub` (see [`LowRankPlan`]); use [`Engine::select_plan_for`]
    /// to get at the full plan.
    pub fn select<W: Workload + ?Sized>(
        &self,
        workload: &W,
    ) -> crate::Result<(Arc<Strategy>, Fingerprint, bool)> {
        let (plan, fp, hit) = self.select_plan_for(workload)?;
        let strategy =
            match &*plan {
                SelectionPlan::Dense(entry) => entry.strategy().clone(),
                SelectionPlan::LowRank(lr) => lr.selection().strategy().clone(),
                SelectionPlan::Structured(_) => return Err(MechanismError::InvalidArgument(
                    "a structured plan carries no dense strategy; use the structured answer paths"
                        .into(),
                )),
            };
        Ok((strategy, fp, hit))
    }

    /// Selects (or fetches from cache) the full [`SelectionPlan`] for a
    /// workload, returning it with its fingerprint and whether it was a
    /// cache hit.
    pub fn select_plan_for<W: Workload + ?Sized>(
        &self,
        workload: &W,
    ) -> crate::Result<(Arc<SelectionPlan>, Fingerprint, bool)> {
        let (base, gram) = workload_key(workload)?;
        let fp = self.plan_fingerprint(base, workload.dim());
        let (plan, hit) = self.select_plan(workload, &gram, fp)?;
        Ok((plan, fp, hit))
    }

    /// The dense front's plan lookup (see [`Engine::lookup`]): on a miss,
    /// the Low-Rank Mechanism when the [`EngineBuilder::low_rank`] knob
    /// truncates, the dense selector otherwise.  The gram comes from `gram`,
    /// built into it only when a miss needs it and the key did not already,
    /// and is cloned (into the selection context) only on a miss; the hot
    /// cache-hit path builds and copies nothing.
    fn select_plan<W: Workload + ?Sized>(
        &self,
        workload: &W,
        gram: &OnceCell<Matrix>,
        fp: Fingerprint,
    ) -> crate::Result<(Arc<SelectionPlan>, bool)> {
        let gram = || gram.get_or_init(|| workload.gram());
        self.lookup(&self.dense_front, fp, Some(&gram), &|| {
            let gram = gram();
            if let Some(rank) = self.low_rank.filter(|&r| r < gram.rows()) {
                // Eigen-design inside the top-`rank` subspace.  (A
                // non-truncating rank falls through to the dense selector
                // below, which keeps full-rank answers bit-identical to a
                // plain dense engine.)
                let plan = low_rank::select_low_rank(gram, rank, &EigenDesignOptions::default())?;
                return Ok(SelectionPlan::LowRank(Arc::new(plan)));
            }
            let ctx = if self.selector.needs_workload_matrix() {
                SelectionContext::from_gram_and_rows(gram.clone(), workload.to_matrix())
            } else {
                SelectionContext::from_gram(gram.clone())
            };
            let strategy = Arc::new(self.selector.select(&ctx)?);
            Ok(SelectionPlan::Dense(Arc::new(CachedSelection::new(
                strategy,
            ))))
        })
    }

    /// Predicted RMS workload error of answering `workload` with `strategy`
    /// under this engine's backend and the given privacy parameters.
    pub fn expected_rms_error<W: Workload + ?Sized>(
        &self,
        workload: &W,
        strategy: &Strategy,
        privacy: &PrivacyParams,
    ) -> crate::Result<f64> {
        predicted_rms_error(
            &workload.gram(),
            workload.query_count(),
            strategy,
            privacy,
            self.backend.as_ref(),
        )
    }

    /// Selects a strategy (cached) and answers the workload on the data
    /// vector `x` at the engine's privacy parameters.
    pub fn answer<W: Workload + ?Sized, R: Rng>(
        &self,
        workload: &W,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<EngineAnswer> {
        self.answer_with_privacy(workload, self.privacy, x, rng)
    }

    /// Like [`Engine::answer`] with explicit per-call privacy parameters.
    pub fn answer_with_privacy<W: Workload + ?Sized, R: Rng>(
        &self,
        workload: &W,
        privacy: PrivacyParams,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<EngineAnswer> {
        self.answer_dense(workload, privacy, &[x], rng, None)
            .map(single)
    }

    /// Answers the same workload on many data vectors (many databases) in
    /// one call at the engine's privacy parameters.
    ///
    /// The batch pays for the cache lookup, dimension checks, gram factor,
    /// trace term and noise calibration **once**, then answers all K vectors
    /// in a single vectorised pass: the data vectors become the columns of
    /// one matrix `X` and the whole batch runs as one blocked
    /// `L⁻ᵀ(L⁻¹(Aᵀ(A·X + N)))` sweep (mat-mat products and multi-RHS
    /// triangular solves) instead of K matvec/solve round-trips — the serving
    /// pattern for "one popular workload, millions of databases".  Each
    /// vector receives independent noise and each answer individually
    /// satisfies the engine's (ε, δ) guarantee on its own database; the
    /// results are byte-identical to K sequential [`Engine::answer`] calls on
    /// the same rng.
    pub fn answer_batch<W: Workload + ?Sized, X: AsRef<[f64]>, R: Rng>(
        &self,
        workload: &W,
        xs: &[X],
        rng: &mut R,
    ) -> crate::Result<Vec<EngineAnswer>> {
        let xs: Vec<&[f64]> = xs.iter().map(AsRef::as_ref).collect();
        self.answer_dense(workload, self.privacy, &xs, rng, None)
    }
}

/// A workload's base cache key ([`Workload::try_fingerprint`]) and a cell
/// holding its gram when the key had to build it: a memoised key on a
/// repeated instance builds none, and a first sight hands its gram on to
/// the selection.
pub(crate) fn workload_key<W: Workload + ?Sized>(
    workload: &W,
) -> crate::Result<(Fingerprint, OnceCell<Matrix>)> {
    let (base, gram) = workload.try_fingerprint()?;
    Ok((base, gram.map_or_else(OnceCell::new, OnceCell::from)))
}

/// The one answer of a one-vector batch.
pub(crate) fn single(mut answers: Vec<EngineAnswer>) -> EngineAnswer {
    answers.pop().expect("one answer per data vector")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::backend::{GaussianBackend, LaplaceBackend};
    use mm_linalg::approx_eq;
    use mm_workload::example::fig1_workload;
    use mm_workload::range::AllRangeWorkload;
    use mm_workload::{Domain, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_defaults_and_validation() {
        // Default backend follows delta.
        let e = Engine::new(PrivacyParams::paper_default());
        assert_eq!(e.backend().name(), "gaussian");
        let e = Engine::new(PrivacyParams::pure(0.5));
        assert_eq!(e.backend().name(), "laplace");
        // Explicit Gaussian with delta = 0 is rejected at build time.
        let err = Engine::builder()
            .privacy(PrivacyParams::pure(0.5))
            .backend(GaussianBackend)
            .build();
        assert!(matches!(err, Err(MechanismError::IncompatibleBackend(_))));
    }

    #[test]
    fn second_answer_is_a_cache_hit_with_identical_strategy() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let x: Vec<f64> = (0..16).map(|i| 10.0 + i as f64).collect();
        let engine = Engine::new(PrivacyParams::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        let a = engine.answer(&w, &x, &mut rng).unwrap();
        let b = engine.answer(&w, &x, &mut rng).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert!(
            Arc::ptr_eq(&a.strategy, &b.strategy),
            "same cached strategy object"
        );
        assert_eq!(a.fingerprint, b.fingerprint);
        let stats = engine.stats();
        assert_eq!(stats.selections, 1, "selection ran exactly once");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn different_workloads_get_different_cache_slots() {
        let w16 = AllRangeWorkload::new(Domain::one_dim(16));
        let w8 = AllRangeWorkload::new(Domain::one_dim(8));
        let engine = Engine::new(PrivacyParams::paper_default());
        let (s16, fp16, _) = engine.select(&w16).unwrap();
        let (s8, fp8, _) = engine.select(&w8).unwrap();
        assert_ne!(fp16, fp8);
        assert_eq!(s16.dim(), 16);
        assert_eq!(s8.dim(), 8);
        assert_eq!(engine.stats().selections, 2);
        // Both stay resident.
        assert!(engine.select(&w16).unwrap().2);
        assert!(engine.select(&w8).unwrap().2);
    }

    #[test]
    fn gaussian_and_laplace_answers_match_their_predictions() {
        // Prop. 4 regression for both backends through the unified path.
        let w = fig1_workload();
        let x = vec![50.0, 10.0, 30.0, 20.0, 60.0, 25.0, 15.0, 40.0];
        let truth = w.evaluate(&x);
        for (engine, seed) in [
            (
                Engine::builder()
                    .privacy(PrivacyParams::paper_default())
                    .backend(GaussianBackend)
                    .build()
                    .unwrap(),
                11u64,
            ),
            (
                Engine::builder()
                    .privacy(PrivacyParams::pure(0.5))
                    .backend(LaplaceBackend)
                    .build()
                    .unwrap(),
                13u64,
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 200;
            let mut sq = 0.0;
            let mut predicted = 0.0;
            for _ in 0..trials {
                let ans = engine.answer(&w, &x, &mut rng).unwrap();
                predicted = ans.expected_rms_error;
                for (a, t) in ans.answers.iter().zip(truth.iter()) {
                    sq += (a - t).powi(2);
                }
            }
            let empirical = (sq / (trials as f64 * truth.len() as f64)).sqrt();
            assert!(
                (empirical - predicted).abs() / predicted < 0.12,
                "{}: empirical {empirical} vs predicted {predicted}",
                engine.backend().name()
            );
        }
    }

    #[test]
    fn answers_are_consistent() {
        // q3 = q1 - q2 exactly: all answers derive from one estimate.
        let w = fig1_workload();
        let x = vec![5.0; 8];
        let engine = Engine::new(PrivacyParams::paper_default());
        let mut rng = StdRng::seed_from_u64(3);
        let ans = engine.answer(&w, &x, &mut rng).unwrap();
        assert!(approx_eq(
            ans.answers[2],
            ans.answers[0] - ans.answers[1],
            1e-9
        ));
        assert!(ans.expected_rms_error > 0.0);
    }

    #[test]
    fn selector_swap_changes_selection() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let p = PrivacyParams::paper_default();
        let eigen = Engine::builder().privacy(p).build().unwrap();
        let wavelet = Engine::builder()
            .privacy(p)
            .selector(DesignSetSelector::wavelet())
            .build()
            .unwrap();
        let (se, _, _) = eigen.select(&w).unwrap();
        let (sw, _, _) = wavelet.select(&w).unwrap();
        let ee = eigen.expected_rms_error(&w, &se, &p).unwrap();
        let ew = wavelet.expected_rms_error(&w, &sw, &p).unwrap();
        // Both valid; eigen-design is at least as good on range workloads.
        assert!(ee <= ew * 1.01, "eigen {ee} vs weighted wavelet {ew}");
    }

    #[test]
    fn dimension_mismatches_rejected() {
        // Malformed input is rejected before the key is derived: no cache
        // lookup, no selection, nothing persisted.
        let w = AllRangeWorkload::new(Domain::one_dim(64));
        let dir = std::env::temp_dir().join(format!("mm-engine-dims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder().strategy_store(&dir).build().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let err = engine.answer(&w, &[1.0; 8], &mut rng).unwrap_err();
        assert!(matches!(err, MechanismError::InvalidArgument(_)), "{err:?}");
        let stats = engine.stats();
        assert_eq!(stats.selections, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.store_writes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmaterialised_fixed_strategy_is_rejected_typed() {
        // A pinned strategy without an explicit matrix cannot observe the
        // data: the dense front fails typed before any noise is drawn.
        let implicit = Strategy::from_parts("implicit", None, Matrix::identity(4), 1.0, 1.0, 4);
        let engine = Engine::builder()
            .selector(FixedStrategySelector::new(implicit))
            .build()
            .unwrap();
        let w = mm_workload::IdentityWorkload::new(4);
        let mut rng = StdRng::seed_from_u64(9);
        let err = engine.answer(&w, &[1.0; 4], &mut rng).unwrap_err();
        assert!(
            matches!(err, MechanismError::StrategyNotMaterialized(ref name) if name == "implicit"),
            "{err:?}"
        );
    }

    #[test]
    fn zero_capacity_cache_still_answers() {
        let w = AllRangeWorkload::new(Domain::one_dim(8));
        let x = vec![1.0; 8];
        let engine = Engine::builder().cache_capacity(0).build().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let a = engine.answer(&w, &x, &mut rng).unwrap();
        let b = engine.answer(&w, &x, &mut rng).unwrap();
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(engine.stats().selections, 2);
    }

    /// A selector that always fails, for stats-accounting regressions.
    #[derive(Debug)]
    struct FailingSelector;

    impl StrategySelector for FailingSelector {
        fn name(&self) -> String {
            "failing".into()
        }

        fn select(&self, _ctx: &SelectionContext) -> crate::Result<mm_strategies::Strategy> {
            Err(MechanismError::InvalidArgument(
                "this selector always fails".into(),
            ))
        }
    }

    #[test]
    fn failed_selections_do_not_count_as_selections() {
        // Regression: the counter used to be incremented *before* the
        // selector could fail, permanently overcounting `selections`.
        let w = AllRangeWorkload::new(Domain::one_dim(8));
        let engine = Engine::builder().selector(FailingSelector).build().unwrap();
        for _ in 0..3 {
            assert!(engine.select(&w).is_err());
        }
        let stats = engine.stats();
        assert_eq!(stats.selections, 0, "failed selections must not count");
        assert_eq!(stats.cache_misses, 3, "each failed attempt is a miss");
        assert_eq!(stats.cache_hits, 0);
        assert!(stats.selections <= stats.cache_misses);
    }

    #[test]
    fn nan_workload_is_rejected_with_typed_error() {
        // Runs under both debug and release profiles: the NaN guard is a
        // real check, not a `debug_assert!`, so release builds can no longer
        // cache-key a NaN-poisoned gram.
        let mut m = mm_linalg::Matrix::zeros(2, 4);
        m[(0, 0)] = 1.0;
        m[(1, 2)] = f64::NAN;
        let w = mm_workload::ExplicitWorkload::from_matrix("nan workload", &m);
        let engine = Engine::new(PrivacyParams::paper_default());
        let mut rng = StdRng::seed_from_u64(8);
        let err = engine.answer(&w, &[1.0; 4], &mut rng).unwrap_err();
        assert!(
            matches!(err, MechanismError::NanWorkloadGram { .. }),
            "expected NanWorkloadGram, got {err:?}"
        );
        assert!(err.to_string().contains("NaN"));
        assert!(matches!(
            engine.select(&w).unwrap_err(),
            MechanismError::NanWorkloadGram { .. }
        ));
        // Nothing was cached or counted for the poisoned workload.
        assert_eq!(engine.stats().cache_misses, 0);
    }

    #[test]
    fn answer_batch_amortises_one_lookup_over_many_vectors() {
        let w = AllRangeWorkload::new(Domain::one_dim(16));
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..16).map(|i| (k * 16 + i) as f64).collect())
            .collect();
        let engine = Engine::new(PrivacyParams::paper_default());
        let mut rng = StdRng::seed_from_u64(10);
        let answers = engine.answer_batch(&w, &xs, &mut rng).unwrap();
        assert_eq!(answers.len(), 5);
        let stats = engine.stats();
        assert_eq!(stats.selections, 1, "one selection for the whole batch");
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            1,
            "one cache lookup for the whole batch"
        );
        for (ans, x) in answers.iter().zip(xs.iter()) {
            assert_eq!(ans.answers.len(), w.query_count());
            assert!(Arc::ptr_eq(&ans.strategy, &answers[0].strategy));
            assert_eq!(ans.fingerprint, answers[0].fingerprint);
            // Each vector got its own noise draw around its own truth.
            let truth = w.evaluate(x);
            let rms = (ans
                .answers
                .iter()
                .zip(truth.iter())
                .map(|(a, t)| (a - t).powi(2))
                .sum::<f64>()
                / truth.len() as f64)
                .sqrt();
            assert!(rms < 20.0 * ans.expected_rms_error, "answers track truth");
        }
        // A batched answer is distributionally identical to repeated single
        // answers: same strategy, factor and noise scale per vector.
        let single = engine.answer(&w, &xs[0], &mut rng).unwrap();
        assert!(approx_eq(
            single.expected_rms_error,
            answers[0].expected_rms_error,
            1e-12
        ));
    }

    #[test]
    fn answer_batch_is_byte_identical_to_sequential_answers() {
        // The vectorised batch path must not change a single bit relative to
        // per-vector serving: K sequential `answer` calls on a seeded rng and
        // one `answer_batch` on an identically seeded rng consume the same
        // noise stream and run column-wise bit-identical kernels.
        for (privacy, seed) in [
            (PrivacyParams::paper_default(), 40u64),
            (PrivacyParams::pure(0.7), 41u64),
        ] {
            let w = AllRangeWorkload::new(Domain::one_dim(24));
            let xs: Vec<Vec<f64>> = (0..7)
                .map(|k| (0..24).map(|i| ((k * 31 + i * 7) % 17) as f64).collect())
                .collect();
            let engine = Engine::builder().privacy(privacy).build().unwrap();
            // Warm the cache so both paths share one strategy and factor.
            engine.select(&w).unwrap();

            let mut rng_batch = StdRng::seed_from_u64(seed);
            let batched = engine.answer_batch(&w, &xs, &mut rng_batch).unwrap();

            let mut rng_seq = StdRng::seed_from_u64(seed);
            for (k, x) in xs.iter().enumerate() {
                let single = engine.answer(&w, x, &mut rng_seq).unwrap();
                assert_eq!(single.answers.len(), batched[k].answers.len());
                for (a, b) in single.answers.iter().zip(batched[k].answers.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "answer bits differ at k={k}");
                }
                for (a, b) in single.estimate.iter().zip(batched[k].estimate.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "estimate bits differ at k={k}");
                }
            }
        }
    }

    #[test]
    fn answer_batch_validates_every_vector_upfront() {
        let w = AllRangeWorkload::new(Domain::one_dim(8));
        let engine = Engine::new(PrivacyParams::paper_default());
        let mut rng = StdRng::seed_from_u64(11);
        let good = vec![1.0; 8];
        let bad = vec![1.0; 7];
        let err = engine
            .answer_batch(&w, &[good.as_slice(), bad.as_slice()], &mut rng)
            .unwrap_err();
        assert!(matches!(err, MechanismError::InvalidArgument(_)));
        // Empty batches are fine and do no per-vector work.
        let none: &[&[f64]] = &[];
        assert!(engine.answer_batch(&w, none, &mut rng).unwrap().is_empty());
    }
}
