//! The serving-tier soak bench behind `BENCH_serving.json`: the persistent
//! strategy store and the async front-end of `mm-serve`.
//!
//! Two scenario families, each record summarising per-request latencies
//! ([`BenchRecord::from_latencies`]: the median as its total, the sample
//! count as param `samples`, a tail only with ten samples beyond it), with
//! params `n`, `clients`, `workers` and `samples`:
//!
//! * `cold_start` / `warm_start` — the persistent-store restart figure.
//!   Both time a fresh engine: building it over the store directory (which
//!   warms its cache from whatever the store holds) and its first
//!   `Engine::select`.  `cold_start` runs against an empty store (the
//!   selection actually runs, then spills); `warm_start` against the store
//!   the cold run populated (the selection is decoded and
//!   `Cholesky::from_factor`-rebuilt, never recomputed).  They call the
//!   engine directly, so `workers` is 0.  `warm_start`'s baseline is the
//!   `cold_start` median at the same `n`, and the gated number is their
//!   ratio at n = 1024: restarting with a store must be ≥ 5x faster than
//!   recomputing.
//!
//! * `soak_cold` / `soak_warm` — K concurrent async clients driving a
//!   `ServeEngine` through a Zipfian workload mix (a few hot fingerprints, a
//!   long-ish tail), every request a hand-rolled future, all clients
//!   multiplexed on one `join_all`.  `soak_cold` starts with an empty cache
//!   — misses pile onto in-flight selections; `soak_warm` replays a fresh
//!   plan against the warmed tier.
//!
//! `MM_BENCH_QUICK=1` is CI's short mode: fewer iterations and requests
//! (the restart scenarios still reach n = 1024 — the gate needs them).
//! `MM_BENCH_JSON` and `MM_BENCH_GATE` are those of every bench
//! ([`BenchEnv`]); the gate is [`serving_gates`].

use mm_bench::report::{serving_gates, BenchEnv, BenchRecord, BenchReport};
use mm_core::engine::Engine;
use mm_core::PrivacyParams;
use mm_serve::{block_on, join_all, AnswerFuture, ServeEngine};
use mm_workload::range::AllRangeWorkload;
use mm_workload::{Domain, Workload};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::future::Future;
use std::path::PathBuf;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

const SERVE_WORKERS: usize = 2;

struct Config {
    /// Domain sizes for the restart scenarios (always includes 1024: the
    /// gate is anchored there).
    start_ns: Vec<usize>,
    /// Fresh-process iterations per restart scenario.
    start_iters: usize,
    /// Concurrent soak clients.
    clients: usize,
    /// Requests per soak client.
    requests_per_client: usize,
}

impl Config {
    fn new(quick: bool) -> Self {
        Config {
            start_ns: if quick { vec![1024] } else { vec![512, 1024] },
            start_iters: if quick { 2 } else { 3 },
            clients: 8,
            requests_per_client: if quick { 8 } else { 64 },
        }
    }
}

/// A scratch store directory under the target-adjacent temp dir, removed on
/// drop so repeated runs start clean.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mm-serving-soak-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch store dir");
        ScratchDir(dir)
    }

    fn clear(&self) {
        for entry in std::fs::read_dir(&self.0)
            .expect("read scratch dir")
            .flatten()
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One fresh-process start: build an engine over the store directory
/// (warming the cache from whatever the store holds) and run the first
/// selection.  Returns the elapsed nanoseconds.
fn first_select_ns(store: &ScratchDir, workload: &AllRangeWorkload) -> f64 {
    let started = Instant::now();
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&store.0)
        .build()
        .expect("engine with store builds");
    engine.select(workload).expect("selection succeeds");
    started.elapsed().as_nanos() as f64
}

fn bench_restart(report: &mut BenchReport, cfg: &Config, n: usize) {
    let workload = AllRangeWorkload::new(Domain::one_dim(n));
    let store = ScratchDir::new(&format!("restart-{n}"));

    let mut cold = Vec::with_capacity(cfg.start_iters);
    for _ in 0..cfg.start_iters {
        store.clear();
        cold.push(first_select_ns(&store, &workload));
    }
    // The last cold iteration left the store populated: every warm
    // iteration is a genuine restart against it.
    let mut warm = Vec::with_capacity(cfg.start_iters * 3);
    for _ in 0..cfg.start_iters * 3 {
        warm.push(first_select_ns(&store, &workload));
    }
    let params = [("n", n), ("clients", 1), ("workers", 0)];
    let cold = BenchRecord::from_latencies("cold_start", &params, &cold);
    let warm =
        BenchRecord::from_latencies("warm_start", &params, &warm).with_baseline(cold.total_ns);
    report.records.extend([cold, warm]);
}

/// A soak client: answers its request plan sequentially, recording the
/// latency of each served answer.  Plain hand-rolled future — `join_all`
/// multiplexes all clients on the bench thread.
struct Client<'a> {
    serve: &'a ServeEngine,
    /// Remaining requests, popped from the back.
    plan: Vec<(Arc<AllRangeWorkload>, Vec<f64>, u64)>,
    current: Option<(AnswerFuture<AllRangeWorkload>, Instant)>,
    latencies: Vec<f64>,
}

impl Future for Client<'_> {
    type Output = Vec<f64>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<f64>> {
        let this = self.get_mut();
        loop {
            if this.current.is_none() {
                match this.plan.pop() {
                    Some((workload, x, seed)) => {
                        let fut = this.serve.answer(workload, x, seed);
                        this.current = Some((fut, Instant::now()));
                    }
                    None => return Poll::Ready(std::mem::take(&mut this.latencies)),
                }
            }
            let (fut, started) = this.current.as_mut().expect("request in flight");
            match Pin::new(fut).poll(cx) {
                Poll::Ready(result) => {
                    result.expect("served answer succeeds");
                    this.latencies.push(started.elapsed().as_nanos() as f64);
                    this.current = None;
                }
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}

/// The Zipfian workload mix: rank r is drawn with weight 1/(r+1), so a few
/// domains are hot and the rest form the tail of distinct fingerprints.
fn zipf_plan(
    workloads: &[Arc<AllRangeWorkload>],
    requests: usize,
    rng: &mut StdRng,
) -> Vec<(Arc<AllRangeWorkload>, Vec<f64>, u64)> {
    let weights: Vec<f64> = (0..workloads.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..requests)
        .map(|_| {
            let mut draw = rng.gen::<f64>() * total;
            let mut rank = 0;
            for (i, w) in weights.iter().enumerate() {
                if draw < *w {
                    rank = i;
                    break;
                }
                draw -= w;
                rank = i;
            }
            let workload = workloads[rank].clone();
            let n = workload.dim();
            let x: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
            (workload, x, rng.next_u64())
        })
        .collect()
}

fn run_soak(
    serve: &ServeEngine,
    workloads: &[Arc<AllRangeWorkload>],
    cfg: &Config,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clients: Vec<Client<'_>> = (0..cfg.clients)
        .map(|_| Client {
            serve,
            plan: zipf_plan(workloads, cfg.requests_per_client, &mut rng),
            current: None,
            latencies: Vec::with_capacity(cfg.requests_per_client),
        })
        .collect();
    block_on(join_all(clients)).into_iter().flatten().collect()
}

fn bench_soak(report: &mut BenchReport, cfg: &Config) {
    // Distinct domain sizes => distinct fingerprints; small enough that the
    // soak measures serving overhead and contention, not eigensolves.
    let workloads: Vec<Arc<AllRangeWorkload>> = (0..8)
        .map(|i| Arc::new(AllRangeWorkload::new(Domain::one_dim(48 + 4 * i))))
        .collect();
    let n = workloads[0].dim();
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .expect("soak engine builds"),
    );
    let serve = ServeEngine::builder(engine).workers(SERVE_WORKERS).build();

    let params = [
        ("n", n),
        ("clients", cfg.clients),
        ("workers", SERVE_WORKERS),
    ];
    let cold = run_soak(&serve, &workloads, cfg, 1);
    report
        .records
        .push(BenchRecord::from_latencies("soak_cold", &params, &cold));
    let warm = run_soak(&serve, &workloads, cfg, 2);
    report
        .records
        .push(BenchRecord::from_latencies("soak_warm", &params, &warm));
    let stats = serve.stats();
    println!(
        "soak: {} submitted, {} completed, {} selection jobs ({} distinct workloads)",
        stats.submitted,
        stats.completed,
        stats.selection_jobs,
        workloads.len()
    );
    assert_eq!(
        stats.selection_jobs,
        workloads.len() as u64,
        "every distinct fingerprint selects exactly once across the soak"
    );
}

fn main() {
    let env = BenchEnv::read();
    let cfg = Config::new(env.quick);
    let mut report = BenchReport::new("serving", env.quick);
    for &n in &cfg.start_ns {
        bench_restart(&mut report, &cfg, n);
    }
    bench_soak(&mut report, &cfg);
    env.emit(&report, serving_gates);
}
