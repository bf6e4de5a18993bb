//! Publishing low-order marginals of a census-like dataset.
//!
//! This mirrors the paper's marginal experiments (Fig. 3(c)/(d)): a data
//! analyst wants all 1-way and 2-way marginals of an age × occupation × income
//! histogram.  The example compares the adaptive strategy against the Fourier
//! and DataCube baselines, both analytically and on actual noisy data, and
//! publishes the marginals through a budgeted engine session.
//!
//! Run with: `cargo run --release --example census_marginals`

use adaptive_dp::core::bounds::{rms_error_bound, workload_eigenvalues};
use adaptive_dp::core::engine::{Engine, FixedStrategySelector, PrivacyBudget};
use adaptive_dp::core::error::rms_workload_error;
use adaptive_dp::core::PrivacyParams;
use adaptive_dp::data::relative_error::{average_relative_error, RelativeErrorOptions};
use adaptive_dp::data::synthetic::synthetic_histogram;
use adaptive_dp::strategies::datacube::datacube_strategy;
use adaptive_dp::strategies::fourier::fourier_strategy;
use adaptive_dp::workload::marginal::{MarginalKind, MarginalWorkload};
use adaptive_dp::workload::{Domain, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A reduced census-like domain keeps the example fast; swap in
    // `Domain::new(&[8, 16, 16])` for the paper's full 2048-cell domain.
    let domain = Domain::new(&[8, 8, 8]);
    let data = synthetic_histogram(&domain, 1_500_000.0, 1.1, 4, 42);
    println!(
        "census-like histogram over {domain}: {} tuples, {:.0}% empty cells",
        data.total(),
        100.0 * data.sparsity()
    );

    // Workload: all marginals of order <= 2 (sufficient statistics for many
    // contingency-table analyses).
    let workload = MarginalWorkload::up_to_k_way(domain.clone(), 2, MarginalKind::Point);
    println!("workload: {}", workload.description());

    let privacy = PrivacyParams::new(0.5, 1e-4);
    let engine = Engine::builder().privacy(privacy).build().unwrap();

    // Analytic comparison (data independent).
    let gram = workload.gram();
    let m = workload.query_count();
    let fourier = fourier_strategy(&workload);
    let datacube = datacube_strategy(&workload);
    let (selection, _, _) = engine.select(&workload).expect("strategy selection");
    let bound = rms_error_bound(&workload_eigenvalues(&gram).unwrap(), m, &privacy);
    println!("\nanalytic RMS workload error (Prop. 4):");
    for (name, strategy) in [
        ("fourier", &fourier),
        ("datacube", &datacube),
        ("eigen design", selection.as_ref()),
    ] {
        let err = rms_workload_error(&gram, m, strategy, &privacy).unwrap();
        println!(
            "  {name:12} {err:8.3}   ({:.3}x the lower bound)",
            err / bound
        );
    }

    // Relative error on the actual histogram (normalised workload drives the
    // strategy selection, per Sec. 3.4).  Each strategy answers through an
    // engine pinned to it.
    let normalized =
        MarginalWorkload::up_to_k_way(domain, 2, MarginalKind::Point).into_normalized();
    let (rel_strategy, _, _) = engine.select(&normalized).unwrap();
    let opts = RelativeErrorOptions {
        trials: 3,
        floor: 1.0,
        seed: 1,
    };
    println!("\naverage relative error on the census-like data (3 trials):");
    for (name, strategy) in [
        ("fourier", &fourier),
        ("datacube", &datacube),
        ("eigen design", rel_strategy.as_ref()),
    ] {
        let fixed = Engine::builder()
            .privacy(privacy)
            .selector(FixedStrategySelector::new(strategy.clone()))
            .build()
            .unwrap();
        let rep = average_relative_error(&fixed, &workload, &data, privacy, &opts).unwrap();
        println!(
            "  {name:12} mean {:>8.5}  median {:>8.5}",
            rep.mean, rep.median
        );
    }

    // Finally, actually publish the marginals once, through a budgeted
    // session (sequential composition is accounted per answer call).
    let mut rng = StdRng::seed_from_u64(3);
    let mut session = engine.session(PrivacyBudget::new(1.0, 1e-3));
    let run = session.answer(&workload, data.counts(), &mut rng).unwrap();
    let truth = workload.evaluate(data.counts());
    println!(
        "\npublished {} marginal counts; first five (true -> private):",
        run.answers.len()
    );
    for (t, a) in truth.iter().zip(run.answers.iter()).take(5) {
        println!("  {t:10.0} -> {a:10.1}");
    }
    let remaining = session.remaining();
    println!(
        "session budget remaining: ε = {:.2}, δ = {:.0e}",
        remaining.epsilon, remaining.delta
    );
}
