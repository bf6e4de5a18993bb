//! Running a plan: set-up, the timed pass, output checks, scoring and —
//! when traced — replays.  The engine and the serving tier receive only
//! the plan's inputs.

use crate::plan::{
    serve_hot_count, DenseWorkload, Kind, Plan, Request, StructuredArc, SERVE_DEADLINE_MS,
    SERVE_PRINCIPALS,
};
use crate::replay;
use crate::stats::digest;
use crate::trace::{
    self, ConsultClock, Recorder, TracedAccountant, TracedBackend, TracedSelector,
    TracedStructuredSelector, TracedWorkload, NONE,
};
use mm_core::accounting::{AccountantFactory, SequentialAccounting, UserLedger};
use mm_core::engine::{
    EigenDesignSelector, EngineStats, PrivacyBudget, StrategyStore, TreeStructuredSelector,
};
use mm_core::{Engine, GaussianBackend, NoiseBackend, PrivacyParams};
use mm_linalg::Matrix;
use mm_serve::{AnswerFuture, ServeEngine, ServeError, ServeStats};
use mm_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Threads every dense kernel runs on, in every workload.
pub const KERNEL_THREADS: usize = 1;
/// Selection workers of the `serve_open` tier.
pub const SERVE_WORKERS: usize = 1;
/// Allowed relative distance between the measured and the predicted mean
/// squared error over a run's answers.  A single answer's squared error
/// has a relative spread of about 0.5 on range workloads (its noise lies
/// in a few dominant directions); over the ≥ 100 answers of every run that
/// is about 0.05, so this is ~5σ.
pub const EXPECTED_TOLERANCE: f64 = 0.25;
/// `serve_open` answers re-derived through a direct engine call.
const DIRECT_SAMPLES: usize = 16;
/// Scratch space for strategy stores, under the working directory.
const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// Per-answer privacy: the paper's (ε, δ) = (0.5, 10⁻⁴).
pub fn privacy() -> PrivacyParams {
    PrivacyParams::paper_default()
}

/// A principal's total budget: ample for every request of a run.
fn principal_budget() -> PrivacyBudget {
    PrivacyBudget::new(1.0e6, 0.5)
}

/// A directory under [`SCRATCH_ROOT`], removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates a fresh, empty scratch directory.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once the last scratch directory is gone.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// A workload as the engine sees it and as the benchmark scores it.
enum Target {
    Dense {
        plain: DenseWorkload,
        served: DenseWorkload,
    },
    Structured {
        plain: StructuredArc,
        served: StructuredArc,
    },
}

/// What one set-up built.
pub struct Rig {
    engine: Arc<Engine>,
    serve: Option<ServeEngine>,
    targets: Vec<Target>,
    ledgers: Vec<UserLedger>,
    data: Vec<Vec<f64>>,
    rec: Option<Arc<Recorder>>,
    /// The engine's store (cold_select), then the replay store.
    _stores: Vec<Scratch>,
    replay_store: Option<StrategyStore>,
}

/// Builds the plan and everything the timed pass needs, and runs the
/// workload's warm-up requests.  Traced when `rec` is given.
pub fn setup(plan: &Plan, rec: Option<Arc<Recorder>>) -> Result<Rig, String> {
    let kind = plan.kind;
    let mut builder = Engine::builder().privacy(privacy());
    if let Some(rec) = &rec {
        builder = builder
            .selector(TracedSelector::new(
                Arc::new(EigenDesignSelector::default()),
                rec.clone(),
            ))
            .backend(TracedBackend::new(Arc::new(GaussianBackend), rec.clone()))
            .structured_selector(TracedStructuredSelector::new(
                Arc::new(TreeStructuredSelector::default()),
                rec.clone(),
            ))
            .fault_injector(ConsultClock::new(rec.clone()));
    }
    let mut stores = Vec::new();
    let mut replay_store = None;
    if kind == Kind::ColdSelect {
        let tag = if rec.is_some() { "traced" } else { "untraced" };
        let dir = Scratch::new(&format!("cold-store-{tag}"))?;
        builder = builder.strategy_store(dir.path());
        stores.push(dir);
        if rec.is_some() {
            let dir = Scratch::new("replay-store")?;
            replay_store =
                Some(StrategyStore::open(dir.path()).map_err(|e| format!("replay store: {e}"))?);
            stores.push(dir);
        }
    }
    let engine = Arc::new(builder.build().map_err(|e| format!("engine build: {e}"))?);
    let targets = plan
        .specs
        .iter()
        .enumerate()
        .map(|(id, spec)| match spec {
            crate::plan::Spec::Intervals(..) => {
                let plain = spec.structured();
                let served: StructuredArc = match &rec {
                    Some(rec) => {
                        Arc::new(TracedWorkload::new(plain.clone(), id as u32, rec.clone()))
                    }
                    None => plain.clone(),
                };
                Target::Structured { plain, served }
            }
            _ => {
                let plain = spec.dense();
                let served: DenseWorkload = match &rec {
                    Some(rec) => {
                        Arc::new(TracedWorkload::new(plain.clone(), id as u32, rec.clone()))
                    }
                    None => plain.clone(),
                };
                Target::Dense { plain, served }
            }
        })
        .collect();
    // Matrix-free data vectors are generated per request (65 536 cells
    // each); the dense ones up front.
    let data = if kind == Kind::StructuredLarge {
        Vec::new()
    } else {
        plan.requests.iter().map(|r| plan.data(r)).collect()
    };
    let ledgers = if kind == Kind::ServeOpen {
        (0..SERVE_PRINCIPALS)
            .map(|p| {
                let name = format!("principal-{p}");
                match &rec {
                    Some(rec) => UserLedger::with_accountant(
                        name,
                        Box::new(TracedAccountant::new(
                            SequentialAccounting.accountant(principal_budget()),
                            rec.clone(),
                        )),
                    ),
                    None => UserLedger::new(name, principal_budget()),
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut rig = Rig {
        engine,
        serve: None,
        targets,
        ledgers,
        data,
        rec,
        _stores: stores,
        replay_store,
    };
    for req in &plan.warmup {
        let x = plan.data(req);
        let released = rig
            .answer(req, &x)
            .map_err(|e| format!("warm-up request: {e}"))?;
        check_shape(&released.answers, rig.query_count(req.spec))?;
    }
    if kind == Kind::ServeOpen {
        rig.serve = Some(
            ServeEngine::builder(rig.engine.clone())
                .workers(SERVE_WORKERS)
                .default_deadline(Duration::from_millis(SERVE_DEADLINE_MS))
                .build(),
        );
    }
    Ok(rig)
}

/// What a released answer carries that the benchmark looks at.
struct Released {
    answers: Vec<f64>,
    /// The noisy estimate of the data vector (dense answers only); the
    /// answers are the workload evaluated on it.
    estimate: Vec<f64>,
    expected_rms: Option<f64>,
    fingerprint: u64,
}

impl Rig {
    fn query_count(&self, spec: usize) -> usize {
        match &self.targets[spec] {
            Target::Dense { plain, .. } => plain.query_count(),
            Target::Structured { plain, .. } => plain.query_count(),
        }
    }

    fn input(&self, plan: &Plan, i: usize) -> Vec<f64> {
        match self.data.get(i) {
            Some(x) => x.clone(),
            None => plan.data(&plan.requests[i]),
        }
    }

    /// One direct engine call on the request's inputs.
    fn answer(&self, req: &Request, x: &[f64]) -> mm_core::Result<Released> {
        let mut rng = StdRng::seed_from_u64(req.noise_seed);
        match &self.targets[req.spec] {
            Target::Dense { served, .. } => self
                .engine
                .answer(&**served, x, &mut rng)
                .map(Released::from),
            Target::Structured { served, .. } => self
                .engine
                .answer_structured(&**served, x, &mut rng)
                .map(|a| Released {
                    answers: a.answers,
                    estimate: Vec::new(),
                    expected_rms: a.expected_rms_error,
                    fingerprint: a.fingerprint.0,
                }),
        }
    }
}

impl From<mm_core::EngineAnswer> for Released {
    fn from(a: mm_core::EngineAnswer) -> Released {
        Released {
            answers: a.answers,
            estimate: a.estimate,
            expected_rms: Some(a.expected_rms_error),
            fingerprint: a.fingerprint.0,
        }
    }
}

fn check_shape(answers: &[f64], m: usize) -> Result<(), String> {
    if answers.len() != m {
        return Err(format!(
            "answer has {} values, workload has {m} queries",
            answers.len()
        ));
    }
    if let Some(i) = answers.iter().position(|v| !v.is_finite()) {
        return Err(format!("answer {i} is {}", answers[i]));
    }
    Ok(())
}

/// Error scoring of every released answer.
#[derive(Default)]
struct Scorer {
    /// The last dense workload scored and its gram `WᵀW`: an answer's
    /// squared error `‖W·x̂ − W·x‖²` is `dᵀ·WᵀW·d` with `d = x̂ − x`,
    /// `O(n²)` where evaluating `W·x` is `O(m·n)`.  One at a time, so
    /// scoring adds at most one gram to the process's memory; callers
    /// score a workload's answers together.
    gram: Option<(usize, Matrix)>,
    identity_mse: BTreeMap<usize, f64>,
    ratios: Vec<f64>,
    measured_sq: f64,
    expected_sq: f64,
    with_expectation: usize,
}

impl Scorer {
    /// Scores one released answer against the true answers.
    fn score(&mut self, rig: &Rig, spec: usize, x: &[f64], released: &Released) {
        let (sum_sq, norm, m) = match &rig.targets[spec] {
            Target::Dense { plain, .. } => {
                if self.gram.as_ref().map(|(s, _)| *s) != Some(spec) {
                    self.gram = Some((spec, plain.gram()));
                }
                let (_, gram) = self.gram.as_ref().expect("set above");
                let d: Vec<f64> = released
                    .estimate
                    .iter()
                    .zip(x)
                    .map(|(e, t)| e - t)
                    .collect();
                let gd = gram
                    .matvec(&d)
                    .expect("the estimate has the workload's dimension");
                let sum_sq = d.iter().zip(&gd).map(|(a, b)| a * b).sum::<f64>();
                (sum_sq, gram.trace(), plain.query_count())
            }
            Target::Structured { plain, .. } => {
                let truth = plain.evaluate(x);
                let sum_sq = released
                    .answers
                    .iter()
                    .zip(&truth)
                    .map(|(a, t)| (a - t) * (a - t))
                    .sum();
                // The gram is n × n here; its trace is the sum of the
                // queries' squared norms.
                let norm = plain.query_squared_norms().iter().sum();
                (sum_sq, norm, plain.query_count())
            }
        };
        let mse = sum_sq / m as f64;
        // The Identity strategy's expected squared error per query at the
        // same (ε, δ): P(ε, δ) · ‖W‖²_F / m (unit sensitivity).
        let identity = *self.identity_mse.entry(spec).or_insert_with(|| {
            let p = GaussianBackend
                .error_constant(&privacy())
                .expect("the paper's privacy parameters suit the Gaussian backend");
            p * norm / m as f64
        });
        self.ratios.push((mse / identity).sqrt());
        if let Some(e) = released.expected_rms {
            self.measured_sq += mse;
            self.expected_sq += e * e;
            self.with_expectation += 1;
        }
    }

    /// Mean ratio of measured RMS error to the Identity strategy's.
    fn ratio(&self) -> f64 {
        self.ratios.iter().sum::<f64>() / self.ratios.len().max(1) as f64
    }

    /// Checks the measured error against the engine's prediction.
    fn check(&self) -> Result<(), String> {
        if self.with_expectation == 0 {
            return Ok(());
        }
        let r = self.measured_sq / self.expected_sq;
        if (r - 1.0).abs() > EXPECTED_TOLERANCE {
            return Err(format!(
                "measured/predicted mean squared error {r:.3} over {} answers is outside 1 ± {EXPECTED_TOLERANCE}",
                self.with_expectation
            ));
        }
        Ok(())
    }
}

/// A request's span on the recorder clock (traced passes).
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Open-loop extras of a traced `serve_open` pass.
#[derive(Debug, Default, Clone)]
pub struct ServeTrace {
    /// Founding request's actual send time per selected tail workload, ns.
    pub founding_send: BTreeMap<u32, u64>,
    /// Workload of each request.
    pub request_wl: Vec<u32>,
    /// Requests whose first poll was pending.
    pub pending_first: usize,
    /// Largest sampled selection-queue depth.
    pub queue_depth_max: usize,
    /// Actual minus scheduled send, ms.
    pub lag_ms: Vec<f64>,
    /// Serve counters over the pass.
    pub stats: ServeStats,
}

/// Everything one pass measured.
pub struct Pass {
    /// Per request: latency in ms, `+∞` when it failed.
    pub latency_ms: Vec<f64>,
    /// Per request: answer digest (0 when it failed).
    pub digests: Vec<u64>,
    /// Requests that failed.
    pub failed: usize,
    /// Seconds of the timed phase: the sum of request intervals (closed
    /// loop) or first scheduled send to last resolution (open loop).
    pub busy_s: f64,
    /// Mean measured RMS error ÷ Identity's expected RMS error.
    pub rms_error_ratio: f64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Engine counters over the pass.
    pub engine_stats: (EngineStats, EngineStats),
    /// Request intervals on the recorder clock (traced).
    pub intervals: Vec<Interval>,
    /// Serving-tier extras (traced `serve_open`).
    pub serve: Option<ServeTrace>,
    /// Recorder clock at the start of the timed pass.
    pub started_ns: u64,
}

/// Runs the timed pass of a plan on a rig.
pub fn run(plan: &Plan, rig: &Rig) -> Pass {
    if plan.kind == Kind::ServeOpen {
        open_loop(plan, rig)
    } else {
        closed_loop(plan, rig)
    }
}

fn closed_loop(plan: &Plan, rig: &Rig) -> Pass {
    let before = rig.engine.stats();
    let started_ns = rig.rec.as_ref().map_or(0, |r| r.now());
    let mut scorer = Scorer::default();
    let n = plan.requests.len();
    let mut pass = Pass {
        latency_ms: Vec::with_capacity(n),
        digests: Vec::with_capacity(n),
        failed: 0,
        busy_s: 0.0,
        rms_error_ratio: 0.0,
        problems: Vec::new(),
        engine_stats: (before, before),
        intervals: Vec::new(),
        serve: None,
        started_ns,
    };
    let mut fingerprints = BTreeSet::new();
    let mut missed = 0;
    for (i, req) in plan.requests.iter().enumerate() {
        let x = rig.input(plan, i);
        let misses_before = rig.engine.stats().cache_misses;
        trace::set_request(i as u32);
        let rec_start = rig.rec.as_ref().map(|r| r.now());
        let t = Instant::now();
        let out = rig.answer(req, &x);
        let elapsed = t.elapsed();
        let rec_end = rig.rec.as_ref().map(|r| r.now());
        trace::set_request(NONE);
        if let (Some(start), Some(end)) = (rec_start, rec_end) {
            pass.intervals.push(Interval { start, end });
        }
        pass.busy_s += elapsed.as_secs_f64();
        let selected = rig.engine.stats().cache_misses > misses_before;
        missed += usize::from(selected);
        match out {
            Ok(released) => {
                if let Err(e) = check_shape(&released.answers, rig.query_count(req.spec)) {
                    pass.problems.push(format!("request {i}: {e}"));
                }
                fingerprints.insert(released.fingerprint);
                pass.latency_ms.push(elapsed.as_secs_f64() * 1e3);
                pass.digests.push(digest(&released.answers));
                scorer.score(rig, req.spec, &x, &released);
            }
            Err(e) => {
                pass.problems.push(format!("request {i} failed: {e}"));
                pass.failed += 1;
                pass.latency_ms.push(f64::INFINITY);
                pass.digests.push(0);
            }
        }
        if let Some(rec) = &rig.rec {
            let replayed = match &rig.targets[req.spec] {
                Target::Dense { plain, .. } => replay::dense(
                    rec,
                    &rig.engine,
                    &**plain,
                    &x,
                    selected,
                    rig.replay_store.as_ref(),
                ),
                Target::Structured { plain, .. } => {
                    replay::structured(rec, &rig.engine, &**plain, &x, req.noise_seed)
                }
            };
            if let Err(e) = replayed {
                pass.problems.push(format!("request {i}: {e}"));
            }
        }
    }
    let after = rig.engine.stats();
    pass.engine_stats = (before, after);
    match plan.kind {
        Kind::WarmDense => {
            let hits = after.cache_hits - before.cache_hits;
            if hits != n as u64 || missed != 0 {
                pass.problems.push(format!(
                    "warm_dense: {hits} cache hits and {missed} misses over {n} requests; every request must hit"
                ));
            }
        }
        Kind::ColdSelect => {
            let selections = after.selections - before.selections;
            if selections != fingerprints.len() as u64 {
                pass.problems.push(format!(
                    "cold_select: {selections} selections for {} distinct fingerprints",
                    fingerprints.len()
                ));
            }
        }
        _ => {}
    }
    if let Err(e) = scorer.check() {
        pass.problems.push(e);
    }
    pass.rms_error_ratio = scorer.ratio();
    pass
}

/// Wakes the generator thread and marks one future as ready to poll.
struct Flag {
    woken: AtomicBool,
    thread: std::thread::Thread,
}

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

struct InFlight {
    index: usize,
    future: AnswerFuture<dyn Workload + Send + Sync>,
    flag: Arc<Flag>,
    waker: Waker,
}

/// The open loop: one generator thread sends every request at its
/// scheduled time and polls the futures the tier wakes.  Latency runs from
/// the scheduled send, so a late generator counts against the tier.
fn open_loop(plan: &Plan, rig: &Rig) -> Pass {
    let serve = rig
        .serve
        .as_ref()
        .expect("serve_open set-up builds the tier");
    let before = rig.engine.stats();
    let serve_before = serve.stats();
    let rec = rig.rec.as_deref();
    let n = plan.requests.len();
    let hot = serve_hot_count();
    let mut latency = vec![f64::INFINITY; n];
    let mut digests = vec![0u64; n];
    let mut released: Vec<Option<Released>> = (0..n).map(|_| None).collect();
    let mut problems = Vec::new();
    let mut st = ServeTrace {
        request_wl: plan.requests.iter().map(|r| r.spec as u32).collect(),
        ..ServeTrace::default()
    };
    let mut intervals = vec![Interval { start: 0, end: 0 }; if rec.is_some() { n } else { 0 }];
    let mut seen = BTreeSet::new();
    let workloads: Vec<DenseWorkload> = rig
        .targets
        .iter()
        .map(|t| match t {
            Target::Dense { served, .. } => served.clone(),
            Target::Structured { .. } => unreachable!("serve_open is dense"),
        })
        .collect();
    let started_ns = rec.map_or(0, |r| r.now());
    let start = Instant::now();
    let mut finish = start;
    let mut next = 0;
    let mut pending: Vec<InFlight> = Vec::new();
    let mut resolve = |i: usize, out: Result<mm_core::EngineAnswer, ServeError>, at: Instant| {
        latency[i] = match out {
            Ok(a) => {
                digests[i] = digest(&a.answers);
                if let Err(e) = check_shape(&a.answers, rig.query_count(plan.requests[i].spec)) {
                    problems.push(format!("request {i}: {e}"));
                }
                // Scoring needs only the estimate; holding every answer
                // would dominate the process's memory.
                released[i] = Some(Released {
                    answers: Vec::new(),
                    ..Released::from(a)
                });
                let due = start + Duration::from_micros(plan.requests[i].send_at_us);
                at.saturating_duration_since(due).as_secs_f64() * 1e3
            }
            Err(e) => {
                problems.push(format!("request {i} failed: {e}"));
                f64::INFINITY
            }
        };
        finish = finish.max(at);
    };
    let poll = |f: &mut InFlight| {
        trace::set_request(f.index as u32);
        let t0 = rec.map(|r| r.now());
        let mut cx = Context::from_waker(&f.waker);
        let out = Pin::new(&mut f.future).poll(&mut cx);
        if let (Some(r), Some(t0), Poll::Ready(Ok(_))) = (rec, t0, &out) {
            r.record(crate::trace::Stage::Poll, t0, r.now(), 0);
        }
        trace::set_request(NONE);
        out
    };
    while next < n || !pending.is_empty() {
        let mut i = 0;
        while i < pending.len() {
            if pending[i].flag.woken.swap(false, Ordering::SeqCst) {
                if let Poll::Ready(out) = poll(&mut pending[i]) {
                    let done = pending.swap_remove(i);
                    let at = Instant::now();
                    if let Some(r) = rec {
                        intervals[done.index].end = r.now();
                    }
                    resolve(done.index, out, at);
                    continue;
                }
            }
            i += 1;
        }
        let now = start.elapsed();
        while next < n && Duration::from_micros(plan.requests[next].send_at_us) <= now {
            let req = &plan.requests[next];
            let lag = start.elapsed().as_secs_f64() * 1e3 - req.send_at_us as f64 / 1e3;
            if let Some(r) = rec {
                st.lag_ms.push(lag);
                st.queue_depth_max = st.queue_depth_max.max(serve.health().queue_depth);
                let t = r.now();
                intervals[next].start = t - (lag.max(0.0) * 1e6) as u64;
                if req.spec >= hot && seen.insert(req.spec) {
                    st.founding_send.insert(req.spec as u32, t);
                }
            }
            let flag = Arc::new(Flag {
                woken: AtomicBool::new(false),
                thread: std::thread::current(),
            });
            trace::set_request(next as u32);
            let future = serve.answer_for(
                &rig.ledgers[req.principal],
                workloads[req.spec].clone(),
                rig.data[next].clone(),
                req.noise_seed,
            );
            trace::set_request(NONE);
            let mut f = InFlight {
                index: next,
                future,
                waker: Waker::from(flag.clone()),
                flag,
            };
            match poll(&mut f) {
                Poll::Ready(out) => {
                    if let Some(r) = rec {
                        intervals[next].end = r.now();
                    }
                    resolve(next, out, Instant::now());
                }
                Poll::Pending => {
                    st.pending_first += 1;
                    pending.push(f);
                }
            }
            next += 1;
        }
        if pending.iter().any(|f| f.flag.woken.load(Ordering::SeqCst)) {
            continue;
        }
        let wait = if next < n {
            Duration::from_micros(plan.requests[next].send_at_us).saturating_sub(start.elapsed())
        } else {
            Duration::from_millis(5)
        };
        if !wait.is_zero() {
            std::thread::park_timeout(wait);
        }
    }
    let busy_s = finish.duration_since(start).as_secs_f64();
    let after = rig.engine.stats();
    let serve_after = serve.stats();
    st.stats = ServeStats {
        submitted: serve_after.submitted - serve_before.submitted,
        completed: serve_after.completed - serve_before.completed,
        failed: serve_after.failed - serve_before.failed,
        shed: serve_after.shed - serve_before.shed,
        rejected: serve_after.rejected - serve_before.rejected,
        selection_jobs: serve_after.selection_jobs - serve_before.selection_jobs,
        structured: serve_after.structured - serve_before.structured,
        deadline_expired: serve_after.deadline_expired - serve_before.deadline_expired,
        jobs_expired: serve_after.jobs_expired - serve_before.jobs_expired,
    };
    let failed = latency.iter().filter(|l| l.is_infinite()).count();

    // Checks and scoring, all after the timed phase.
    let mut scorer = Scorer::default();
    let mut by_workload: Vec<usize> = (0..n).collect();
    by_workload.sort_by_key(|&i| plan.requests[i].spec);
    for i in by_workload {
        if let Some(r) = released[i].take() {
            scorer.score(rig, plan.requests[i].spec, &rig.data[i], &r);
        }
    }
    // Served answers must be exactly what a direct engine call with the
    // same seed releases.
    let step = (n / DIRECT_SAMPLES).max(1);
    for i in (0..n).step_by(step).take(DIRECT_SAMPLES) {
        let req = &plan.requests[i];
        if latency[i].is_infinite() {
            continue;
        }
        match rig.answer(req, &rig.data[i]) {
            Ok(direct) if digest(&direct.answers) == digests[i] => {}
            Ok(_) => problems.push(format!(
                "request {i}: served answer differs from a direct engine call"
            )),
            Err(e) => problems.push(format!("request {i}: direct engine call failed: {e}")),
        }
    }
    // Every principal spent exactly its released answers × ε.
    let mut released_per = vec![0usize; SERVE_PRINCIPALS];
    for (i, req) in plan.requests.iter().enumerate() {
        if latency[i].is_finite() {
            released_per[req.principal] += 1;
        }
    }
    for (p, ledger) in rig.ledgers.iter().enumerate() {
        let spent = ledger.spent().epsilon;
        let want = released_per[p] as f64 * privacy().epsilon;
        if (spent - want).abs() > 1e-9 * want.max(1.0) {
            problems.push(format!(
                "principal {p}: spent ε = {spent}, released {} answers (ε = {want})",
                released_per[p]
            ));
        }
    }
    if let Err(e) = scorer.check() {
        problems.push(e);
    }
    if let Some(rec) = rec {
        // Replays after the timed phase, so they never delay a send.
        let mut selected = BTreeSet::new();
        for (i, req) in plan.requests.iter().enumerate() {
            let Target::Dense { plain, .. } = &rig.targets[req.spec] else {
                continue;
            };
            let first = req.spec >= hot && selected.insert(req.spec);
            if let Err(e) = replay::dense(rec, &rig.engine, &**plain, &rig.data[i], first, None) {
                problems.push(format!("request {i}: {e}"));
            }
        }
    }
    Pass {
        latency_ms: latency,
        digests,
        failed,
        busy_s,
        rms_error_ratio: scorer.ratio(),
        problems,
        engine_stats: (before, after),
        intervals,
        serve: Some(st),
        started_ns,
    }
}

/// Replays the selection stages of every dense warm-up request, which all
/// select (traced set-up only).
pub fn replay_warmup(plan: &Plan, rig: &Rig) -> Result<(), String> {
    let Some(rec) = &rig.rec else {
        return Ok(());
    };
    for req in &plan.warmup {
        if let Target::Dense { plain, .. } = &rig.targets[req.spec] {
            let x = plan.data(req);
            replay::dense(
                rec,
                &rig.engine,
                &**plain,
                &x,
                true,
                rig.replay_store.as_ref(),
            )?;
        }
    }
    Ok(())
}
