//! Cold strategy selection against reference baselines — the bench behind
//! `BENCH_selection.json`.
//!
//! It measures what a cache miss costs, what the blocked/threaded selection
//! kernels gain over the textbook scalar kernels kept as references, and
//! what a cache hit and the Low-Rank Mechanism save.  Every record has
//! param `n`; its total is the production path and its baseline the
//! reference named below.  Scenarios, each at n ∈ {256, 512, 1024} cells
//! (quick mode stops at 512):
//!
//! * `cholesky` — blocked right-looking [`Cholesky::new`] against the scalar
//!   reference [`Cholesky::new_scalar`] on a dense SPD gram;
//! * `eigen` — [`SymmetricEigen::new`] against
//!   [`SymmetricEigen::new_scalar`] on the all-range workload gram (the
//!   degenerate spectrum selection actually faces, which is much harder for
//!   the QL iteration than a random one);
//! * `selection_eigen_design` — the full cold miss path (Eigen-Design
//!   selection + strategy-gram factor + Prop. 4 trace term) on the
//!   production kernels against the same pipeline rebuilt on the scalar
//!   kernels, with the trace term taken one scalar solve per identity
//!   column;
//! * `selection_eigen_design_hit` / `selection_design_set_hit` /
//!   `selection_wavelet_hit` / `selection_workload_rows_hit` — a warm
//!   `Engine::select` against the cold miss for the eigen-design, weighted
//!   design-set (Fourier), Haar-wavelet and workload-rows selectors: the
//!   cache win on the same engine the serving path uses (workload-rows runs
//!   on the n-row prefix workload; the others on all-range);
//! * `selection_low_rank` (params `n`, `r`) — the Low-Rank Mechanism's cold
//!   miss (`Engine::builder().low_rank(r)`: truncated eigendecomposition +
//!   eigen-design in the r-dimensional subspace, O(nr² + r³)) against the
//!   full dense cold miss on the same engine machinery, at r ∈ {16, 64, 256}
//!   and n ∈ {1024, 4096} (quick mode runs n = 4096 at r ∈ {16, 64}, the
//!   gated pair).
//!
//! `MM_BENCH_QUICK=1` is CI's short mode: fewer samples, n ≤ 512 for the
//! kernel scenarios (the low-rank scenario still runs its gated n = 4096
//! pair — that comparison *is* the point of the low-rank path).
//! `MM_BENCH_JSON` and `MM_BENCH_GATE` are those of every bench
//! ([`BenchEnv`]); the gate is [`selection_gates`].

use mm_bench::report::{selection_gates, BenchEnv, BenchRecord, BenchReport};
use mm_bench::runs::{min_ns, timed};
use mm_core::design_set::{weighted_design_strategy_with_costs, DesignWeightingOptions};
use mm_core::engine::{DesignSetSelector, Engine};
use mm_core::{eigen_design, EigenDesignOptions, PrivacyParams};
use mm_linalg::decomp::{Cholesky, SymmetricEigen};
use mm_linalg::{ops, Matrix};
use mm_strategies::Strategy;
use mm_workload::prefix::PrefixWorkload;
use mm_workload::range::AllRangeWorkload;
use mm_workload::{Domain, Workload};

struct Config {
    quick: bool,
    ns: Vec<usize>,
    /// `(n, ranks)` pairs for the low-rank scenario.  Quick mode keeps only
    /// the gated n = 4096 pair at r ≤ 64; the full run adds n = 1024 and
    /// r = 256.
    low_rank: Vec<(usize, Vec<usize>)>,
}

impl Config {
    fn new(quick: bool) -> Self {
        Config {
            quick,
            ns: if quick {
                vec![256, 512]
            } else {
                vec![256, 512, 1024]
            },
            low_rank: if quick {
                vec![(4096, vec![16, 64])]
            } else {
                vec![(1024, vec![16, 64, 256]), (4096, vec![16, 64, 256])]
            },
        }
    }

    /// Fixed sample count per benchmark: the scalar baselines run for tens
    /// of seconds at n = 1024, so large n takes the stable minimum of fewer
    /// samples.
    fn samples(&self, n: usize) -> usize {
        match (self.quick, n >= 1024) {
            (true, _) => 2,
            (false, true) => 2,
            (false, false) => 3,
        }
    }
}

/// The dense, well-conditioned SPD system of the batch bench: gram of a dense
/// matrix plus a strong diagonal, so the factor has no zero entries to skip.
fn spd_gram(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 11) % 19) as f64 / 19.0 - 0.5);
    let mut g = ops::gram(&b);
    for i in 0..n {
        g[(i, i)] += n as f64 / 8.0;
    }
    g
}

/// The Eigen-Design selection pipeline rebuilt on the scalar reference
/// kernels: scalar eigendecomposition, the shared weighting program, a
/// scalar Cholesky of the strategy gram, and the trace term taken one scalar
/// solve per column of the identity.
fn scalar_miss_path(gram: &Matrix) -> f64 {
    let eig = SymmetricEigen::new_scalar(gram).expect("gram is symmetric");
    let vals: Vec<f64> = eig
        .eigenvalues()
        .iter()
        .map(|&l| if l > 0.0 { l } else { 0.0 })
        .collect();
    let sigma1 = vals.first().copied().unwrap_or(0.0);
    let retained: Vec<usize> = vals
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 1e-10 * sigma1)
        .map(|(i, _)| i)
        .collect();
    let n = gram.rows();
    let q = eig
        .eigenvector_rows()
        .select_rows(&retained)
        .expect("retained indices are rows");
    let costs: Vec<f64> = retained.iter().map(|&i| vals[i]).collect();
    let strategy = weighted_design_strategy_with_costs(
        "scalar",
        &q,
        costs,
        &DesignWeightingOptions::default(),
    )
    .expect("weighting the eigen design set succeeds")
    .strategy;
    let factor = Cholesky::new_scalar(strategy.gram()).expect("strategy gram is SPD");
    // The trace term, one scalar solve per column of the identity.
    let mut total = 0.0;
    let mut e = vec![0.0; n];
    for j in 0..n {
        e.iter_mut().for_each(|v| *v = 0.0);
        e[j] = 1.0;
        let col = factor.solve_vec(&e).expect("factor dimension matches");
        let mut acc = 0.0;
        for (i, &v) in col.iter().enumerate() {
            acc += gram[(j, i)] * v;
        }
        total += acc;
    }
    total
}

/// The same miss path on the production kernels.
fn blocked_miss_path(gram: &Matrix) -> f64 {
    let strategy: Strategy = eigen_design(gram, &EigenDesignOptions::default())
        .expect("eigen design succeeds")
        .strategy;
    let factor = Cholesky::new(strategy.gram()).expect("strategy gram is SPD");
    factor
        .trace_of_gram_times_inverse(gram)
        .expect("gram dimension matches")
}

fn bench_kernels(report: &mut BenchReport, cfg: &Config, n: usize) {
    let spd = spd_gram(n);
    let workload_gram = AllRangeWorkload::new(Domain::one_dim(n)).gram();
    let group = format!("selection_kernels/n={n}");
    let samples = cfg.samples(n);
    let blocked = min_ns(&format!("{group}/cholesky/blocked"), samples, || {
        Cholesky::new(&spd).unwrap()
    });
    let scalar = min_ns(&format!("{group}/cholesky/scalar"), samples, || {
        Cholesky::new_scalar(&spd).unwrap()
    });
    report
        .records
        .push(BenchRecord::new("cholesky", &[("n", n)], blocked).with_baseline(scalar));
    let fast = min_ns(&format!("{group}/eigen/blocked"), samples, || {
        SymmetricEigen::new(&workload_gram).unwrap()
    });
    let scalar = min_ns(&format!("{group}/eigen/scalar"), samples, || {
        SymmetricEigen::new_scalar(&workload_gram).unwrap()
    });
    report
        .records
        .push(BenchRecord::new("eigen", &[("n", n)], fast).with_baseline(scalar));
}

fn bench_miss_path(report: &mut BenchReport, cfg: &Config, n: usize) {
    let gram = AllRangeWorkload::new(Domain::one_dim(n)).gram();
    let group = format!("selection_miss/n={n}");
    let samples = cfg.samples(n);
    let optimized = min_ns(&format!("{group}/eigen_design/blocked"), samples, || {
        blocked_miss_path(&gram)
    });
    let baseline = min_ns(&format!("{group}/eigen_design/scalar"), samples, || {
        scalar_miss_path(&gram)
    });
    report.records.push(
        BenchRecord::new("selection_eigen_design", &[("n", n)], optimized).with_baseline(baseline),
    );
}

fn bench_miss_vs_hit(report: &mut BenchReport, cfg: &Config, n: usize) {
    let workload = AllRangeWorkload::new(Domain::one_dim(n));
    let group = format!("selection_cache/n={n}");
    let samples = cfg.samples(n);
    let engines = [
        (
            "selection_eigen_design_hit",
            Engine::builder()
                .privacy(PrivacyParams::paper_default())
                .build()
                .expect("default engine builds"),
        ),
        (
            "selection_design_set_hit",
            Engine::builder()
                .privacy(PrivacyParams::paper_default())
                .selector(DesignSetSelector::fourier())
                .build()
                .expect("fourier engine builds"),
        ),
        (
            "selection_wavelet_hit",
            Engine::builder()
                .privacy(PrivacyParams::paper_default())
                .selector(DesignSetSelector::wavelet())
                .build()
                .expect("wavelet engine builds"),
        ),
    ];
    for (scenario, engine) in engines {
        let label = engine.selector().name();
        let miss = min_ns(&format!("{group}/{label}/miss"), samples, || {
            engine.clear_cache();
            engine.select(&workload).unwrap()
        });
        engine.select(&workload).expect("warm the cache");
        let hit = min_ns(&format!("{group}/{label}/hit"), samples, || {
            engine.select(&workload).unwrap()
        });
        report
            .records
            .push(BenchRecord::new(scenario, &[("n", n)], hit).with_baseline(miss));
    }
    // The workload-rows design set needs the explicit query matrix, so it
    // runs on the n-row prefix workload instead of the O(n²)-row all-range
    // one (whose materialised matrix would dwarf the selection itself).
    let prefixes = PrefixWorkload::new(n);
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .selector(DesignSetSelector::workload_rows())
        .build()
        .expect("workload-rows engine builds");
    let label = engine.selector().name();
    let miss = min_ns(&format!("{group}/{label}/miss"), samples, || {
        engine.clear_cache();
        engine.select(&prefixes).unwrap()
    });
    engine.select(&prefixes).expect("warm the cache");
    let hit = min_ns(&format!("{group}/{label}/hit"), samples, || {
        engine.select(&prefixes).unwrap()
    });
    report.records.push(
        BenchRecord::new("selection_workload_rows_hit", &[("n", n)], hit).with_baseline(miss),
    );
}

/// The Low-Rank Mechanism's cold miss against the full dense cold miss, on
/// the same `Engine::select` machinery (gram + fingerprint + cache probe +
/// selector).  The dense baseline at n = 4096 is minutes of O(n³) work, so
/// it is measured with one timed call instead of the sampling loop — at
/// that scale a single sample is exact to within noise far smaller than the
/// orders-of-magnitude gap being recorded.
fn bench_low_rank(report: &mut BenchReport, cfg: &Config, n: usize, ranks: &[usize]) {
    let workload = AllRangeWorkload::new(Domain::one_dim(n));
    let group = format!("selection_low_rank/n={n}");
    let samples = if n >= 4096 { 1 } else { cfg.samples(n) };

    let dense_engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .build()
        .expect("dense engine builds");
    let dense_ns = if n >= 4096 {
        let (_, secs) = timed(|| dense_engine.select(&workload).expect("dense selection"));
        let name = format!("{group}/dense/miss");
        println!("{name:<48} min {:>12.4} ms  (1 sample)", secs * 1e3);
        secs * 1e9
    } else {
        min_ns(&format!("{group}/dense/miss"), samples, || {
            dense_engine.clear_cache();
            dense_engine.select(&workload).unwrap()
        })
    };

    for &r in ranks {
        let engine = Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .low_rank(r)
            .build()
            .expect("low-rank engine builds");
        let miss = min_ns(&format!("{group}/r={r}/miss"), samples, || {
            engine.clear_cache();
            engine.select(&workload).unwrap()
        });
        report.records.push(
            BenchRecord::new("selection_low_rank", &[("n", n), ("r", r)], miss)
                .with_baseline(dense_ns),
        );
    }
}

fn main() {
    let env = BenchEnv::read();
    let cfg = Config::new(env.quick);
    let mut report = BenchReport::new("selection", cfg.quick);
    for &n in &cfg.ns {
        bench_kernels(&mut report, &cfg, n);
        bench_miss_path(&mut report, &cfg, n);
        bench_miss_vs_hit(&mut report, &cfg, n);
    }
    for (n, ranks) in &cfg.low_rank {
        bench_low_rank(&mut report, &cfg, *n, ranks);
    }
    env.emit(&report, selection_gates);
}
