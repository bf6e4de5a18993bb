//! Reproduces Fig. 5: the choice of design queries.  Program 1 is solved with
//! the Wavelet matrix, the (generalised) Fourier basis and the eigen-queries
//! as design sets, on 1D range and low-order marginal workloads, both in their
//! canonical form and with permuted cell conditions.
//!
//! Since the engine redesign this comparison is literally a selector swap:
//! each column is one `Engine` built with a different `StrategySelector`, and
//! every engine answers through the same `select`/`expected_rms_error` path.

use mm_bench::report::fmt;
use mm_bench::runs::figure3_domains;
use mm_bench::{ExperimentTable, RunConfig};
use mm_core::bounds::{rms_error_bound, workload_eigenvalues};
use mm_core::engine::{EigenDesignSelector, Engine, MatrixDesignSelector, StrategySelector};
use mm_core::PrivacyParams;
use mm_linalg::ops;
use mm_strategies::fourier::fourier_strategy;
use mm_strategies::wavelet::haar_matrix;
use mm_workload::marginal::{MarginalKind, MarginalWorkload};
use mm_workload::range::AllRangeWorkload;
use mm_workload::transform::{seeded_permutation, PermutedWorkload};
use mm_workload::{Domain, Workload};

fn main() {
    let cfg = RunConfig::from_args();
    let privacy = cfg.privacy();
    let n = cfg.cells;

    let mut table = ExperimentTable::new(
        format!("Fig. 5 — comparison of design query sets ({n} cells)"),
        &[
            "workload",
            "Wavelet design",
            "Fourier design",
            "Eigen design",
            "Lower Bound",
        ],
    );

    // 1D ranges, canonical and permuted.  One engine per design set; the
    // wavelet design is the 1D Haar matrix, the Fourier column does not apply.
    {
        let wavelet = MatrixDesignSelector::new("wavelet", haar_matrix(n));
        let w = AllRangeWorkload::new(Domain::one_dim(n));
        run_row(
            &mut table,
            &privacy,
            &format!("1D range on [{n}]"),
            &w,
            Some(wavelet.clone()),
            None,
        );

        let perm = seeded_permutation(n, cfg.seed);
        let wp = PermutedWorkload::new(AllRangeWorkload::new(Domain::one_dim(n)), perm);
        run_row(
            &mut table,
            &privacy,
            &format!("1D range on [{n}] (permuted)"),
            &wp,
            Some(wavelet),
            None,
        );
    }

    // Low-order marginals on the 2-attribute split, canonical and permuted.
    {
        let domain = figure3_domains(n)
            .into_iter()
            .find(|d| d.num_attributes() == 2)
            .unwrap_or_else(|| Domain::new(&[n / 2, 2]));
        let w = MarginalWorkload::up_to_k_way(domain.clone(), 2, MarginalKind::Point);
        let wavelet = MatrixDesignSelector::new(
            "wavelet (kron)",
            ops::kron(&haar_matrix(domain.size(0)), &haar_matrix(domain.size(1))),
        );
        let fourier = fourier_strategy(&w)
            .matrix()
            .cloned()
            .map(|m| MatrixDesignSelector::new("fourier", m));
        run_row(
            &mut table,
            &privacy,
            &format!("marginals (≤2-way) on {domain}"),
            &w,
            Some(wavelet.clone()),
            fourier.clone(),
        );
        let perm = seeded_permutation(domain.n_cells(), cfg.seed + 1);
        let wp = PermutedWorkload::new(
            MarginalWorkload::up_to_k_way(domain.clone(), 2, MarginalKind::Point),
            perm,
        );
        run_row(
            &mut table,
            &privacy,
            &format!("marginals (≤2-way) on {domain} (permuted)"),
            &wp,
            Some(wavelet),
            fourier,
        );
    }

    table.emit(&cfg);
    println!(
        "Expected shape (paper): all design sets perform comparably on the canonical\n\
         workloads, but wavelet/Fourier design sets degrade sharply (several times worse)\n\
         under permuted cell conditions while the eigen-queries are unaffected."
    );
}

/// Builds one engine per design-set selector, selects through each, and
/// reports the predicted RMS error per Prop. 4.
fn run_row<W: Workload>(
    table: &mut ExperimentTable,
    privacy: &PrivacyParams,
    name: &str,
    workload: &W,
    wavelet: Option<MatrixDesignSelector>,
    fourier: Option<MatrixDesignSelector>,
) {
    fn engine_for(privacy: &PrivacyParams, selector: impl StrategySelector + 'static) -> Engine {
        Engine::builder()
            .privacy(*privacy)
            .selector(selector)
            .build()
            .expect("gaussian parameters are valid for every selector")
    }
    let err_for = |selector: Option<MatrixDesignSelector>| -> String {
        match selector {
            Some(sel) => {
                let engine = engine_for(privacy, sel);
                match engine.select(workload) {
                    Ok((strategy, _, _)) => fmt(engine
                        .expected_rms_error(workload, &strategy, privacy)
                        .unwrap_or(f64::NAN)),
                    Err(_) => "-".to_string(),
                }
            }
            None => "-".to_string(),
        }
    };
    let wavelet_err = err_for(wavelet);
    let fourier_err = err_for(fourier);
    let eigen_engine = engine_for(privacy, EigenDesignSelector::new());
    let (eigen_strategy, _, _) = eigen_engine.select(workload).expect("eigen design");
    let eigen_err = eigen_engine
        .expected_rms_error(workload, &eigen_strategy, privacy)
        .expect("error evaluation");
    let gram = workload.gram();
    let bound = rms_error_bound(
        &workload_eigenvalues(&gram).unwrap(),
        workload.query_count(),
        privacy,
    );
    table.push_row(vec![
        name.to_string(),
        wavelet_err,
        fourier_err,
        fmt(eigen_err),
        fmt(bound),
    ]);
}
