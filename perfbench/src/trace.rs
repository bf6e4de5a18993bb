//! Benchmark-side tracing.  Every span is recorded from outside the
//! program: by wrappers around the public seams the engine already takes
//! (workloads, selectors, the noise backend, ledger accountants, the fault
//! injector), by the harness around its own calls, and by replays of public
//! functions on a request's inputs right after it.  Spans stay in memory
//! and are reduced when the run ends.

use mm_core::accounting::{Accountant, MechanismEvent};
use mm_core::engine::{PrivacyBudget, SelectionContext, StrategySelector, StructuredSelector};
use mm_core::{Fault, FaultInjector, FaultSite, NoiseBackend, PrivacyParams};
use mm_linalg::{LinearOperator, Matrix};
use mm_strategies::{Strategy, StructuredStrategy};
use mm_workload::{StructuredWorkload, Workload, WorkloadDescriptor};
use rand::RngCore;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "No request" / "no workload" tag.
pub const NONE: u32 = u32::MAX;

thread_local! {
    /// The request the harness is working on, on this thread.
    static CURRENT_REQ: Cell<u32> = const { Cell::new(NONE) };
    /// The workload whose gram this thread built last; on a serve worker
    /// that names the selection in progress.
    static CURRENT_WL: Cell<u32> = const { Cell::new(NONE) };
}

/// Tags spans recorded on this thread with a request, until cleared.
pub fn set_request(req: u32) {
    CURRENT_REQ.with(|c| c.set(req));
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `Workload::gram`.
    Gram,
    /// `Workload::evaluate` / `evaluate_matrix`.
    Evaluate,
    /// `StrategySelector::select`.
    Select,
    /// `StructuredSelector::select`.
    StructuredSelect,
    /// `NoiseBackend::sample`.
    Noise,
    /// `Accountant::check_many` inside a ledger.
    LedgerCheck,
    /// `Accountant::charge_many` inside a ledger.
    LedgerCharge,
    /// A store read consulting the fault injector (an instant).
    StoreRead,
    /// A serve worker picking up a job (an instant).
    WorkerJob,
    /// A serve-tier poll that assembled an answer.
    Poll,
    /// Replay: `try_gram_fingerprint`.
    ReplayFingerprint,
    /// Replay: `Engine::cached_plan`.
    ReplayLookup,
    /// Replay: `workload_eigensystem`.
    ReplayEigen,
    /// Replay: `weighted_design_strategy_with_costs`.
    ReplayWeighting,
    /// Replay: `CachedSelection::factor` on a fresh entry.
    ReplayFactor,
    /// Replay: `CachedSelection::trace_term` on a fresh entry.
    ReplayTrace,
    /// Replay: `StrategyStore::try_save` into a scratch store.
    ReplaySave,
    /// Replay: `A·X`.
    ReplayMatmul,
    /// Replay: `Aᵀ·Y`.
    ReplayMatmulT,
    /// Replay: both multi-RHS triangular solves.
    ReplayTrsm,
    /// Replay: `cg_normal_equations` on the cached operator.
    ReplayCg,
    /// Replay: one operator apply inside the CG replay.
    ReplayApply,
}

/// One recorded span (nanoseconds since the recorder's epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub stage: Stage,
    /// Start.
    pub start: u64,
    /// End (equal to `start` for instants).
    pub end: u64,
    /// Request tag of the recording thread ([`NONE`] off the request path).
    pub req: u32,
    /// Workload tag of the recording thread.
    pub wl: u32,
    /// A size attached to the span (noise values drawn, bytes written, …).
    pub amount: u64,
}

/// The span store shared by every wrapper of one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with this thread's tags.
    pub fn record(&self, stage: Stage, start: u64, end: u64, amount: u64) {
        let span = Span {
            stage,
            start,
            end,
            req: CURRENT_REQ.with(Cell::get),
            wl: CURRENT_WL.with(Cell::get),
            amount,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(stage, start, self.now(), 0);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// A workload whose gram and evaluation calls are spans.
pub struct TracedWorkload<W: ?Sized> {
    inner: Arc<W>,
    id: u32,
    rec: Arc<Recorder>,
}

impl<W: ?Sized> TracedWorkload<W> {
    /// Wraps `inner`, tagging its spans with workload id `id`.
    pub fn new(inner: Arc<W>, id: u32, rec: Arc<Recorder>) -> Self {
        TracedWorkload { inner, id, rec }
    }
}

impl<W: Workload + ?Sized> Workload for TracedWorkload<W> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn gram(&self) -> Matrix {
        CURRENT_WL.with(|c| c.set(self.id));
        self.rec.time(Stage::Gram, || self.inner.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.rec.time(Stage::Evaluate, || self.inner.evaluate(x))
    }

    fn evaluate_matrix(&self, x: &Matrix) -> Matrix {
        self.rec
            .time(Stage::Evaluate, || self.inner.evaluate_matrix(x))
    }

    fn description(&self) -> String {
        self.inner.description()
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.inner.query_squared_norms()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        self.inner.to_matrix()
    }
}

impl<W: StructuredWorkload + ?Sized> StructuredWorkload for TracedWorkload<W> {
    fn operator(&self) -> Arc<dyn LinearOperator> {
        self.inner.operator()
    }

    fn descriptor(&self) -> WorkloadDescriptor {
        self.inner.descriptor()
    }
}

/// A dense selector whose selections are spans.
#[derive(Debug)]
pub struct TracedSelector {
    inner: Arc<dyn StrategySelector>,
    rec: Arc<Recorder>,
}

impl TracedSelector {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StrategySelector>, rec: Arc<Recorder>) -> Self {
        TracedSelector { inner, rec }
    }
}

impl StrategySelector for TracedSelector {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn needs_workload_matrix(&self) -> bool {
        self.inner.needs_workload_matrix()
    }

    fn select(&self, ctx: &SelectionContext) -> mm_core::Result<Strategy> {
        self.rec.time(Stage::Select, || self.inner.select(ctx))
    }
}

/// A structured selector whose selections are spans.
#[derive(Debug)]
pub struct TracedStructuredSelector {
    inner: Arc<dyn StructuredSelector>,
    rec: Arc<Recorder>,
}

impl TracedStructuredSelector {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StructuredSelector>, rec: Arc<Recorder>) -> Self {
        TracedStructuredSelector { inner, rec }
    }
}

impl StructuredSelector for TracedStructuredSelector {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&self, descriptor: &WorkloadDescriptor) -> mm_core::Result<StructuredStrategy> {
        self.rec
            .time(Stage::StructuredSelect, || self.inner.select(descriptor))
    }
}

/// A noise backend whose draws are spans; it passes the caller's rng
/// through untouched, so the drawn bits are the untraced ones.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn NoiseBackend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn NoiseBackend>, rec: Arc<Recorder>) -> Self {
        TracedBackend { inner, rec }
    }
}

impl NoiseBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn validate(&self, privacy: &PrivacyParams) -> mm_core::Result<()> {
        self.inner.validate(privacy)
    }

    fn sensitivity(&self, strategy: &Strategy) -> f64 {
        self.inner.sensitivity(strategy)
    }

    fn sensitivity_from_norms(&self, l2: f64, l1: f64) -> f64 {
        self.inner.sensitivity_from_norms(l2, l1)
    }

    fn noise_scale(&self, privacy: &PrivacyParams, sensitivity: f64) -> f64 {
        self.inner.noise_scale(privacy, sensitivity)
    }

    fn error_constant(&self, privacy: &PrivacyParams) -> mm_core::Result<f64> {
        self.inner.error_constant(privacy)
    }

    fn sample(&self, rng: &mut dyn RngCore, scale: f64, len: usize) -> Vec<f64> {
        let start = self.rec.now();
        let out = self.inner.sample(rng, scale, len);
        self.rec
            .record(Stage::Noise, start, self.rec.now(), len as u64);
        out
    }

    fn mechanism_event(&self, privacy: &PrivacyParams, sensitivity: f64) -> MechanismEvent {
        self.inner.mechanism_event(privacy, sensitivity)
    }
}

/// A ledger accountant whose checks and charges are spans.
#[derive(Debug)]
pub struct TracedAccountant {
    inner: Box<dyn Accountant>,
    rec: Arc<Recorder>,
}

impl TracedAccountant {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Accountant>, rec: Arc<Recorder>) -> Self {
        TracedAccountant { inner, rec }
    }
}

impl Accountant for TracedAccountant {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn total(&self) -> PrivacyBudget {
        self.inner.total()
    }

    fn spent(&self) -> PrivacyBudget {
        self.inner.spent()
    }

    fn remaining(&self) -> PrivacyBudget {
        self.inner.remaining()
    }

    fn events(&self) -> Vec<MechanismEvent> {
        self.inner.events()
    }

    fn check_many(&self, event: &MechanismEvent, count: usize) -> mm_core::Result<()> {
        self.rec
            .time(Stage::LedgerCheck, || self.inner.check_many(event, count))
    }

    fn charge_many(&mut self, event: &MechanismEvent, count: usize) -> mm_core::Result<()> {
        let start = self.rec.now();
        let out = self.inner.charge_many(event, count);
        self.rec
            .record(Stage::LedgerCharge, start, self.rec.now(), count as u64);
        out
    }

    fn clone_box(&self) -> Box<dyn Accountant> {
        Box::new(TracedAccountant {
            inner: self.inner.clone_box(),
            rec: self.rec.clone(),
        })
    }
}

/// A fault injector that never injects: it timestamps every store read
/// and every worker job pick-up.
#[derive(Debug)]
pub struct ConsultClock {
    rec: Arc<Recorder>,
}

impl ConsultClock {
    /// A clock recording into `rec`.
    pub fn new(rec: Arc<Recorder>) -> Self {
        ConsultClock { rec }
    }
}

impl FaultInjector for ConsultClock {
    fn inject(&self, site: FaultSite) -> Option<Fault> {
        let stage = match site {
            FaultSite::StoreRead => Stage::StoreRead,
            FaultSite::Worker => Stage::WorkerJob,
            // Store writes are counted by `EngineStats`, and the selector
            // consult is covered by the traced selector.
            _ => return None,
        };
        let now = self.rec.now();
        self.rec.record(stage, now, now, 0);
        None
    }
}
