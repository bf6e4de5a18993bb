//! Vectorised batch answering vs. the per-vector loop — the perf-trajectory
//! bench behind `BENCH_batch.json`.
//!
//! Three scenarios, each at K ∈ {1, 8, 64, 256} right-hand sides and
//! n ∈ {256, 1024} cells:
//!
//! * `matmul` — one blocked `A·X` against K independent `A·xₖ` matvecs;
//! * `solve_multi` — one multi-RHS `L⁻ᵀ(L⁻¹ X)` sweep against K scalar
//!   Cholesky solves;
//! * `engine_answer_batch` — `Engine::answer_batch` (one cache lookup, one
//!   factor, one blocked pass) against K `Engine::answer` calls.
//!
//! Each record has params `n` and `k`; its total is the batched time and
//! its baseline the per-vector loop answering the *same* batch, so
//! `baseline / total` is the end-to-end win of vectorising.  The run is
//! fixed-iteration (a fixed sample count per benchmark, no wall-clock
//! targeting), which keeps the CI gate's operation count deterministic.
//!
//! `MM_BENCH_QUICK=1` is CI's short mode: fewer samples, K ≤ 64.
//! `MM_BENCH_JSON` and `MM_BENCH_GATE` are those of every bench
//! ([`BenchEnv`]); the gate is [`batch_gates`].

use mm_bench::report::{batch_gates, BenchEnv, BenchRecord, BenchReport};
use mm_bench::runs::min_ns;
use mm_core::engine::{Engine, FixedStrategySelector};
use mm_core::PrivacyParams;
use mm_linalg::decomp::Cholesky;
use mm_linalg::{ops, Matrix};
use mm_strategies::fourier::attribute_basis;
use mm_strategies::Strategy;
use mm_workload::IdentityWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Config {
    quick: bool,
    ns: Vec<usize>,
    ks: Vec<usize>,
}

impl Config {
    fn new(quick: bool) -> Self {
        Config {
            quick,
            ns: vec![256, 1024],
            ks: if quick {
                vec![1, 8, 64]
            } else {
                vec![1, 8, 64, 256]
            },
        }
    }

    /// Fixed sample count per benchmark: enough to take a stable minimum,
    /// few enough that the CI job stays short at n = 1024.
    fn samples(&self, n: usize) -> usize {
        match (self.quick, n >= 1024) {
            (true, _) => 3,
            (false, true) => 5,
            (false, false) => 10,
        }
    }
}

/// A deterministic dense data matrix whose K columns are the batch's data
/// vectors (synthetic counts, same family as the repro binaries).
fn data_matrix(n: usize, k: usize) -> Matrix {
    Matrix::from_fn(n, k, |i, c| 50.0 + ((i * 13 + c * 31) % 97) as f64)
}

fn bench_matmul(report: &mut BenchReport, cfg: &Config, n: usize) {
    let a = attribute_basis(n);
    let samples = cfg.samples(n);
    for &k in &cfg.ks {
        let x = data_matrix(n, k);
        let cols: Vec<Vec<f64>> = (0..k).map(|c| x.col(c)).collect();
        let batched = min_ns(
            &format!("batch_matmul/n={n}/batched/K={k}"),
            samples,
            || ops::matmul(&a, &x).unwrap(),
        );
        let baseline = min_ns(
            &format!("batch_matmul/n={n}/per-vector/K={k}"),
            samples,
            || {
                for col in &cols {
                    black_box(a.matvec(col).unwrap());
                }
            },
        );
        report.records.push(
            BenchRecord::new("matmul", &[("n", n), ("k", k)], batched).with_baseline(baseline),
        );
    }
}

fn bench_solve_multi(report: &mut BenchReport, cfg: &Config, n: usize) {
    // A dense, well-conditioned SPD system: gram of a dense matrix plus a
    // strong diagonal, so the factor L has no zero entries to skip.
    let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 11) % 19) as f64 / 19.0 - 0.5);
    let mut g = ops::gram(&b);
    for i in 0..n {
        g[(i, i)] += n as f64 / 8.0;
    }
    let ch = Cholesky::new(&g).expect("regularised gram is SPD");
    let group = format!("batch_solve_multi/n={n}");
    let samples = cfg.samples(n);
    for &k in &cfg.ks {
        let x = data_matrix(n, k);
        let cols: Vec<Vec<f64>> = (0..k).map(|c| x.col(c)).collect();
        let batched = min_ns(&format!("{group}/batched/K={k}"), samples, || {
            let y = ch.solve_lower_multi(&x).unwrap();
            ch.solve_upper_multi(&y).unwrap()
        });
        let baseline = min_ns(&format!("{group}/per-vector/K={k}"), samples, || {
            for col in &cols {
                black_box(ch.solve_vec(col).unwrap());
            }
        });
        report.records.push(
            BenchRecord::new("solve_multi", &[("n", n), ("k", k)], batched).with_baseline(baseline),
        );
    }
}

fn bench_engine(report: &mut BenchReport, cfg: &Config, n: usize) {
    // A dense orthonormal strategy behind a fixed selector: selection is
    // free, so the timings isolate the answering pipeline the batch path
    // vectorises (cache lookup, A·X, noise, AᵀY, triangular solves).
    let strategy = Strategy::from_matrix("dct", attribute_basis(n));
    let workload = IdentityWorkload::new(n);
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .selector(FixedStrategySelector::new(strategy))
        .build()
        .expect("gaussian backend matches paper-default privacy");
    let mut warm_rng = StdRng::seed_from_u64(1);
    let warm = data_matrix(n, 1).col(0);
    engine
        .answer(&workload, &warm, &mut warm_rng)
        .expect("warm-up answer");
    let group = format!("batch_engine/n={n}");
    let samples = cfg.samples(n);
    for &k in &cfg.ks {
        let x = data_matrix(n, k);
        let cols: Vec<Vec<f64>> = (0..k).map(|c| x.col(c)).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let batched = min_ns(&format!("{group}/batched/K={k}"), samples, || {
            engine.answer_batch(&workload, &cols, &mut rng).unwrap()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let baseline = min_ns(&format!("{group}/per-vector/K={k}"), samples, || {
            for col in &cols {
                black_box(engine.answer(&workload, col, &mut rng).unwrap());
            }
        });
        report.records.push(
            BenchRecord::new("engine_answer_batch", &[("n", n), ("k", k)], batched)
                .with_baseline(baseline),
        );
    }
}

fn main() {
    let env = BenchEnv::read();
    let cfg = Config::new(env.quick);
    let mut report = BenchReport::new("batch", cfg.quick);
    for &n in &cfg.ns {
        bench_matmul(&mut report, &cfg, n);
        bench_solve_multi(&mut report, &cfg, n);
        bench_engine(&mut report, &cfg, n);
    }
    env.emit(&report, batch_gates);
}
