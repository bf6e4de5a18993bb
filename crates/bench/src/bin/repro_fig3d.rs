//! Reproduces Fig. 3(d): average relative error on marginal workloads over the
//! census-like and adult-like datasets, sweeping ε, for Fourier, DataCube and
//! the Eigen-Design strategy (selected on the unit-norm scaled workload).

use mm_bench::report::fmt;
use mm_bench::runs::{eigen_strategy_for, fixed_strategy_engine};
use mm_bench::{ExperimentTable, RunConfig};
use mm_core::{Engine, PrivacyParams};
use mm_data::relative_error::{average_relative_error, RelativeErrorOptions};
use mm_data::synthetic::{synthetic_histogram, SyntheticDataset};
use mm_strategies::datacube::datacube_strategy;
use mm_strategies::fourier::fourier_strategy;
use mm_workload::marginal::{MarginalKind, MarginalWorkload};
use mm_workload::Domain;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn datasets(cfg: &RunConfig) -> Vec<SyntheticDataset> {
    if cfg.paper_scale {
        vec![
            mm_data::census_like(cfg.seed),
            mm_data::adult_like(cfg.seed),
        ]
    } else {
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
    let mut table = ExperimentTable::new(
        "Fig. 3(d) — average relative error on marginal workloads",
        &[
            "dataset",
            "workload",
            "epsilon",
            "Fourier",
            "DataCube",
            "Eigen Design",
        ],
    );

    for ds in datasets(&cfg) {
        let domain = ds.data.domain().clone();
        // 2-way marginals.
        let two_way = MarginalWorkload::all_k_way(domain.clone(), 2, MarginalKind::Point);
        let two_way_norm =
            MarginalWorkload::all_k_way(domain.clone(), 2, MarginalKind::Point).into_normalized();
        run(
            &mut table,
            &cfg,
            &ds,
            "2-way marginal",
            &two_way,
            &two_way_norm,
            &epsilons,
        );

        // Random marginals.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let count = (domain.num_attributes() * 2).min((1 << domain.num_attributes()) - 1);
        let random = MarginalWorkload::random(domain.clone(), count, MarginalKind::Point, &mut rng);
        let random_norm = MarginalWorkload::from_subsets(
            domain.clone(),
            random.subsets().to_vec(),
            MarginalKind::Point,
        )
        .into_normalized();
        run(
            &mut table,
            &cfg,
            &ds,
            "random marginal",
            &random,
            &random_norm,
            &epsilons,
        );
    }
    table.emit(&cfg);
    println!(
        "Expected shape (paper): Eigen Design achieves the lowest relative error,\n\
         by 1.1x-2.7x over the best of Fourier/DataCube."
    );
}

fn run(
    table: &mut ExperimentTable,
    cfg: &RunConfig,
    ds: &SyntheticDataset,
    name: &str,
    workload: &MarginalWorkload,
    normalized: &MarginalWorkload,
    epsilons: &[f64],
) {
    // One engine per strategy, reused across the ε sweep.
    let fourier = fixed_strategy_engine(fourier_strategy(workload));
    let datacube = fixed_strategy_engine(datacube_strategy(workload));
    let eigen = fixed_strategy_engine(eigen_strategy_for(normalized));
    for &eps in epsilons {
        let privacy = PrivacyParams::new(eps, cfg.delta);
        let opts = RelativeErrorOptions {
            trials: cfg.trials,
            floor: 1.0,
            seed: cfg.seed,
        };
        let rel = |engine: &Engine| {
            average_relative_error(engine, workload, &ds.data, privacy, &opts)
                .map(|r| r.mean)
                .unwrap_or(f64::NAN)
        };
        table.push_row(vec![
            ds.name.clone(),
            name.to_string(),
            format!("{eps}"),
            fmt(rel(&fourier)),
            fmt(rel(&datacube)),
            fmt(rel(&eigen)),
        ]);
    }
}
