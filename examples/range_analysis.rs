//! Range-query analysis over an ordered domain, including the relative-error
//! workflow of Sec. 3.4 (select the strategy on the unit-norm scaled workload,
//! answer the original queries).
//!
//! Run with: `cargo run --release --example range_analysis`

use adaptive_dp::core::engine::{Engine, FixedStrategySelector};
use adaptive_dp::core::PrivacyParams;
use adaptive_dp::data::relative_error::{average_relative_error, RelativeErrorOptions};
use adaptive_dp::data::synthetic::synthetic_histogram;
use adaptive_dp::strategies::hierarchical::binary_hierarchical;
use adaptive_dp::strategies::wavelet::wavelet_strategy;
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::{Domain, Workload};

fn main() {
    // Two-dimensional ordered domain: 32 age buckets x 16 income buckets.
    let domain = Domain::new(&[32, 16]);
    let data = synthetic_histogram(&domain, 400_000.0, 1.05, 3, 2024);
    println!(
        "histogram over {domain}: {} tuples across {} cells",
        data.total(),
        data.n_cells()
    );

    // Workload: every axis-aligned rectangular range count (~ 72k queries) —
    // never materialised as a matrix.
    let workload = AllRangeWorkload::new(domain.clone());
    println!("workload: {} queries", workload.query_count());

    let privacy = PrivacyParams::new(1.0, 1e-4);
    let engine = Engine::builder().privacy(privacy).build().unwrap();

    // Relative-error objective: select on the normalised workload.  The
    // engine caches the selection under the normalised workload's
    // fingerprint, so re-serving it later costs nothing.
    let normalized = AllRangeWorkload::normalized(domain.clone());
    let (eigen, _, _) = engine.select(&normalized).unwrap();
    let wavelet = wavelet_strategy(&domain);
    let hierarchical = binary_hierarchical(&domain);

    let opts = RelativeErrorOptions {
        trials: 3,
        floor: 1.0,
        seed: 9,
    };
    println!(
        "\naverage relative error over all {} range queries:",
        workload.query_count()
    );
    for (name, strategy) in [
        ("hierarchical", &hierarchical),
        ("wavelet", &wavelet),
        ("eigen design", eigen.as_ref()),
    ] {
        // Each strategy answers through an engine pinned to it.
        let fixed = Engine::builder()
            .privacy(privacy)
            .selector(FixedStrategySelector::new(strategy.clone()))
            .build()
            .unwrap();
        let rep = average_relative_error(&fixed, &workload, &data, privacy, &opts).unwrap();
        println!(
            "  {name:12} mean {:>9.5}   median {:>9.5}   ({} trials, {} queries)",
            rep.mean, rep.median, rep.trials, rep.queries
        );
    }
    println!(
        "\nThe adaptive strategy is selected once per workload; rerunning on a new\n\
         database reuses it from the engine's cache at no extra optimization cost."
    );
}
