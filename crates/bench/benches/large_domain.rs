//! Matrix-free structured answering at large domains — the perf-trajectory
//! bench behind `BENCH_large_domain.json`.
//!
//! The dense engine path tops out where its n×n gram and eigensolve stop
//! fitting the time/memory budget (n ≈ 2–4k).  The structured path selects a
//! tree strategy in O(n), observes through the run-length operator, and
//! inverts the observations exactly in O(n) — no materialised matrix
//! anywhere — so range workloads at n = 65 536 answer in milliseconds.  One
//! `structured` record per domain size (params `n` and `queries`), both
//! sides answering the same deterministic interval workload:
//!
//! * its total is selection via [`TreeStructuredSelector`] plus one
//!   end-to-end [`Engine::answer_structured`] (noise, the strategy's exact
//!   least squares, prefix-sum evaluation) on a warm engine, and
//!   `detail_ns` holds the two as `select` and `answer`;
//! * its baseline is the matrix mechanism without structure: the
//!   *materialised* strategy operator ([`ExplicitOperator`], which routes
//!   through the blocked `ops::matmul` kernels) observes, conjugate
//!   gradient over dense matvecs reconstructs, and the interval operator's
//!   `apply` evaluates, with densification as its setup.  Above the
//!   operator's materialisation cap the baseline cannot run and is `null` —
//!   that cliff is the point of the bench.
//!
//! The measured difference is therefore the whole answer: O(n log n)
//! observation, O(n) inference and O(n + m) evaluation against O(n²) dense
//! matvecs inside an iterative solve.
//!
//! `MM_BENCH_QUICK=1` is CI's short mode: fewer samples, fewer sizes (the
//! headline n = 65 536 still runs — it takes milliseconds).
//! `MM_BENCH_JSON` and `MM_BENCH_GATE` are those of every bench
//! ([`BenchEnv`]); the gate is [`large_domain_gates`].

use mm_bench::report::{large_domain_gates, BenchEnv, BenchRecord, BenchReport};
use mm_bench::runs::min_ns;
use mm_core::engine::{Engine, StructuredSelector, TreeStructuredSelector};
use mm_core::PrivacyParams;
use mm_linalg::{ExplicitOperator, LinearOperator};
use mm_opt::{cg_normal_equations, CgOptions};
use mm_workload::{RangeQueryWorkload, StructuredWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Config {
    quick: bool,
    ns: Vec<usize>,
}

impl Config {
    fn new(quick: bool) -> Self {
        Config {
            quick,
            ns: if quick {
                vec![1024, 4096, 65536]
            } else {
                vec![1024, 4096, 8192, 16384, 65536]
            },
        }
    }

    /// Fixed sample count per benchmark: the dense baseline runs for ~a
    /// second per answer at n = 4096, so everything takes the stable
    /// minimum of a few samples.
    fn samples(&self, n: usize) -> usize {
        match (self.quick, n >= 16384) {
            (true, _) => 2,
            (false, true) => 2,
            (false, false) => 3,
        }
    }
}

/// A deterministic spread of range queries over `[0, n)`: pseudo-random
/// placement via a fixed multiplicative hash (no RNG, so every run and
/// every thread count sees the same workload).
fn intervals(n: usize, m: usize) -> Vec<(usize, usize)> {
    (0..m)
        .map(|i| {
            let lo = (i.wrapping_mul(2_654_435_761)) % n;
            let width = 1 + (i.wrapping_mul(40_503)) % (n / 2).max(1);
            (lo, (lo + width - 1).min(n - 1))
        })
        .collect()
}

/// Deterministic synthetic histogram (same shape the examples use).
fn data(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 50.0 + ((i * 13) % 97) as f64 * 3.0)
        .collect()
}

fn bench_domain(report: &mut BenchReport, cfg: &Config, n: usize) {
    let m = n.min(1024);
    let workload = RangeQueryWorkload::from_intervals(n, intervals(n, m));
    let descriptor = workload.descriptor();
    let x = data(n);
    let group = format!("large_domain/n={n}");
    let samples = cfg.samples(n);

    // Structured: cold selection is stateless and O(n); answering runs on a
    // warm engine so the timing is the per-request serving cost.
    let selector = TreeStructuredSelector::default();
    let select = min_ns(&format!("{group}/structured/select"), samples, || {
        selector.select(&descriptor).unwrap()
    });
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .build()
        .expect("default engine builds");
    let (strategy, _, _) = engine
        .select_structured(&descriptor)
        .expect("structured selection succeeds");
    let mut rng = StdRng::seed_from_u64(0x4C44 ^ n as u64);
    let answer = min_ns(&format!("{group}/structured/answer"), samples, || {
        engine.answer_structured(&workload, &x, &mut rng).unwrap()
    });
    let record = BenchRecord::new("structured", &[("n", n), ("queries", m)], select + answer)
        .with_detail("select", select)
        .with_detail("answer", answer);

    // Dense baseline: materialise the same strategy operator, observe with
    // the same noise calibration, reconstruct by CG over dense matvecs and
    // evaluate through the interval operator.  Past the materialisation
    // cap it cannot run.
    let op = strategy.operator().clone();
    if op.materialize().is_none() {
        println!("{group}/dense: skipped (operator above the materialisation cap)");
        report.records.push(record);
        return;
    }
    let densify = min_ns(&format!("{group}/dense/materialize"), samples, || {
        op.materialize().unwrap()
    });
    let dense = ExplicitOperator::new(op.materialize().expect("within the cap"));
    let wop = workload.operator();
    let sens = engine
        .backend()
        .sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
    let scale = engine.backend().noise_scale(engine.privacy(), sens);
    let rows = op.dims().0;
    let opts = CgOptions::default();
    let mut rng = StdRng::seed_from_u64(0x4C44 ^ n as u64);
    let answer = min_ns(&format!("{group}/dense/answer"), samples, || {
        let mut y = dense.apply(&x);
        let noise = engine.backend().sample(&mut rng, scale, rows);
        for (v, nz) in y.iter_mut().zip(noise.iter()) {
            *v += *nz;
        }
        let estimate =
            cg_normal_equations(|v| dense.apply(v), |w| dense.apply_transpose(w), &y, &opts)
                .expect("dense CG converges");
        wop.apply(&estimate)
    });
    report.records.push(record.with_baseline(densify + answer));
}

fn main() {
    let env = BenchEnv::read();
    let cfg = Config::new(env.quick);
    let mut report = BenchReport::new("large_domain", cfg.quick);
    for &n in &cfg.ns {
        bench_domain(&mut report, &cfg, n);
    }
    env.emit(&report, large_domain_gates);
}
