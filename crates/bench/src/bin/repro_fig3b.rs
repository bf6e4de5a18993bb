//! Reproduces Fig. 3(b): average relative error on range workloads over the
//! census-like and adult-like datasets, sweeping ε, for Hierarchical, Wavelet
//! and the Eigen-Design strategy (selected on the unit-norm scaled workload,
//! Sec. 3.4).  Also prints the Table 1 dataset summary.

use mm_bench::report::fmt;
use mm_bench::runs::{eigen_strategy_for, fixed_strategy_engine};
use mm_bench::{ExperimentTable, RunConfig};
use mm_core::{Engine, PrivacyParams};
use mm_data::relative_error::{average_relative_error, RelativeErrorOptions};
use mm_data::synthetic::{synthetic_histogram, SyntheticDataset};
use mm_data::DataVector;
use mm_strategies::hierarchical::binary_hierarchical;
use mm_strategies::wavelet::wavelet_strategy;
use mm_workload::range::{AllRangeWorkload, RandomRangeWorkload};
use mm_workload::{Domain, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn datasets(cfg: &RunConfig) -> Vec<SyntheticDataset> {
    if cfg.paper_scale {
        vec![
            mm_data::census_like(cfg.seed),
            mm_data::adult_like(cfg.seed),
        ]
    } else {
        // Quick scale: same shapes, smaller domains.
        vec![
            SyntheticDataset {
                name: "census-like (quick 8x8x8)".to_string(),
                data: synthetic_histogram(&Domain::new(&[8, 8, 8]), 1_500_000.0, 1.1, 4, cfg.seed),
            },
            SyntheticDataset {
                name: "adult-like (quick 4x8x4x2)".to_string(),
                data: synthetic_histogram(&Domain::new(&[4, 8, 4, 2]), 33_000.0, 1.0, 3, cfg.seed),
            },
        ]
    }
}

fn main() {
    let cfg = RunConfig::from_args();
    let epsilons = [0.1, 0.5, 1.0, 2.5];
    let sets = datasets(&cfg);

    let mut t1 = ExperimentTable::new("Table 1 — datasets", &["dataset", "dimension", "# tuples"]);
    for ds in &sets {
        t1.push_row(vec![
            ds.name.clone(),
            ds.data.domain().to_string(),
            format!("{}", ds.data.total() as u64),
        ]);
    }
    t1.emit(&cfg);

    let mut table = ExperimentTable::new(
        "Fig. 3(b) — average relative error on range workloads",
        &[
            "dataset",
            "workload",
            "epsilon",
            "Hierarchical",
            "Wavelet",
            "Eigen Design",
        ],
    );

    for ds in &sets {
        let domain = ds.data.domain().clone();
        // One engine per strategy; each serves its whole ε sweep (and both
        // workloads) from one cached selection per workload.
        let hierarchical = fixed_strategy_engine(binary_hierarchical(&domain));
        let wavelet = fixed_strategy_engine(wavelet_strategy(&domain));

        // All range: select the eigen strategy on the normalized workload.
        let all = AllRangeWorkload::new(domain.clone());
        let all_norm = AllRangeWorkload::normalized(domain.clone());
        let eigen_all = fixed_strategy_engine(eigen_strategy_for(&all_norm));
        sweep(
            &mut table,
            &cfg,
            ds,
            "all range",
            &all,
            &hierarchical,
            &wavelet,
            &eigen_all,
            &epsilons,
        );

        // Random range.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let count = if cfg.paper_scale { 2000 } else { 300 };
        let random = RandomRangeWorkload::sample(domain.clone(), count, &mut rng);
        let random_norm = RandomRangeWorkload::from_boxes(domain.clone(), random.boxes().to_vec())
            .into_normalized();
        let eigen_rand = fixed_strategy_engine(eigen_strategy_for(&random_norm));
        sweep(
            &mut table,
            &cfg,
            ds,
            "random range",
            &random,
            &hierarchical,
            &wavelet,
            &eigen_rand,
            &epsilons,
        );
    }
    table.emit(&cfg);
    println!(
        "Expected shape (paper): Eigen Design achieves the lowest relative error at every\n\
         epsilon, by roughly 1.3x-1.5x over the best of Wavelet/Hierarchical."
    );
}

#[allow(clippy::too_many_arguments)]
fn sweep<W: Workload>(
    table: &mut ExperimentTable,
    cfg: &RunConfig,
    ds: &SyntheticDataset,
    workload_name: &str,
    workload: &W,
    hierarchical: &Engine,
    wavelet: &Engine,
    eigen: &Engine,
    epsilons: &[f64],
) {
    let data: &DataVector = &ds.data;
    for &eps in epsilons {
        let privacy = PrivacyParams::new(eps, cfg.delta);
        let opts = RelativeErrorOptions {
            trials: cfg.trials,
            floor: 1.0,
            seed: cfg.seed,
        };
        let rel = |engine: &Engine| {
            average_relative_error(engine, workload, data, privacy, &opts)
                .map(|r| r.mean)
                .unwrap_or(f64::NAN)
        };
        table.push_row(vec![
            ds.name.clone(),
            workload_name.to_string(),
            format!("{eps}"),
            fmt(rel(hierarchical)),
            fmt(rel(wavelet)),
            fmt(rel(eigen)),
        ]);
    }
}
