//! Matrix-free answering at n = 65 536 — far past where the dense engine
//! path can materialise a workload gram or run an eigensolve.
//!
//! The structured path keeps everything as operators: the workload is a list
//! of intervals, the Haar strategy a list of run-length rows, and the
//! estimate is the exact least-squares inverse, one O(n) inverse Haar
//! transform.  Peak memory stays O(n), and the whole request — selection,
//! noisy observation, reconstruction, evaluation of all 65 536 prefix
//! queries — takes tens of milliseconds.
//!
//! Run with: `cargo run --release --example large_domain`

use adaptive_dp::core::engine::Engine;
use adaptive_dp::core::PrivacyParams;
use adaptive_dp::workload::RangeQueryWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let n = 65_536;
    // Every prefix query over the domain, held as intervals — never a matrix.
    let workload = RangeQueryWorkload::prefixes(n);
    let engine = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .build()
        .expect("default engine builds");

    // Deterministic synthetic histogram.
    let x: Vec<f64> = (0..n)
        .map(|i| 50.0 + ((i * 13) % 97) as f64 * 3.0)
        .collect();

    let mut rng = StdRng::seed_from_u64(65_536);
    let start = Instant::now();
    let answer = engine
        .answer_structured(&workload, &x, &mut rng)
        .expect("structured answering succeeds");
    let elapsed = start.elapsed();

    // Ground truth in one prefix-sum pass; measured error against the
    // closed-form prediction from the strategy's trace term.
    let mut truth = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &v in &x {
        acc += v;
        truth.push(acc);
    }
    let total_sq: f64 = answer
        .answers
        .iter()
        .zip(truth.iter())
        .map(|(a, t)| (a - t) * (a - t))
        .sum();
    let rms = (total_sq / n as f64).sqrt();

    println!(
        "domain: {n} cells, workload: {} prefix queries",
        workload.intervals().len()
    );
    println!(
        "strategy: {} ({} rows, fingerprint {}, {})",
        answer.strategy.name(),
        answer.strategy.rows(),
        answer.fingerprint,
        if answer.cache_hit {
            "cache hit"
        } else {
            "cold selection"
        },
    );
    println!("answered in {elapsed:.2?}");
    println!("measured rms error:  {rms:.2}");
    if let Some(expected) = answer.expected_rms_error {
        println!("predicted rms error: {expected:.2} (closed-form trace)");
    }

    // A second request hits the in-memory selection cache: only the noise
    // draw, the inverse transform, and the interval evaluation remain.
    let start = Instant::now();
    let again = engine
        .answer_structured(&workload, &x, &mut rng)
        .expect("structured answering succeeds");
    println!(
        "re-answered in {:.2?} (cache hit: {})",
        start.elapsed(),
        again.cache_hit
    );
}
