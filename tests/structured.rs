//! Workspace-level cross-validation of the matrix-free structured path
//! against the dense semantics it replaces.
//!
//! The contract:
//!
//! * a structured operator (run-length strategy rows, interval workload
//!   rows) is *the same matrix* as its materialised form — `apply`,
//!   `apply_transpose` and `gram_diag` agree bit for bit, because both
//!   sides accumulate in the dense width-1 kernel's order — so the noisy
//!   observations are bit-identical whichever representation feeds them;
//! * the engine's estimate is the strategy's exact least-squares inverse,
//!   within 1e-11·max|x̂| of a dense Cholesky solve wherever the strategy
//!   materialises, and within a 1e-12 normal-equation residual at the
//!   benchmark's domain sizes, where nothing dense fits;
//! * workload answers are the interval sums of that estimate, within
//!   1e-10·‖x̂‖₁ of the materialised workload matrix times it;
//! * answers replay bit for bit across runs (here) and thread counts
//!   (`tests/determinism.rs`).

use adaptive_dp::core::engine::{Engine, PrivacyBudget, TreeStructuredSelector};
use adaptive_dp::core::PrivacyParams;
use adaptive_dp::linalg::decomp::Cholesky;
use adaptive_dp::linalg::{ops, ExplicitOperator, LinearOperator, Matrix};
use adaptive_dp::strategies::operator::{
    haar_strategy, hierarchical_strategy_structured, StructuredStrategy,
};
use adaptive_dp::workload::{RangeQueryWorkload, StructuredWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn assert_bits_eq(context: &str, got: &[f64], expect: &[f64]) {
    assert_eq!(got.len(), expect.len(), "{context}: length mismatch");
    for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "{context}: bit mismatch at index {i} ({g} vs {e})"
        );
    }
}

/// Deterministic probe vector with varied magnitudes and signs.
fn probe(len: usize, salt: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let k = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(salt);
            ((k % 2003) as f64 - 1001.0) / 7.0
        })
        .collect()
}

#[test]
fn structured_operators_match_their_dense_form_bitwise() {
    let cases: Vec<(&str, Arc<dyn LinearOperator>)> = vec![
        ("haar/16", haar_strategy(16).operator().clone()),
        ("haar/128", haar_strategy(128).operator().clone()),
        (
            "hierarchical/48x2",
            hierarchical_strategy_structured(48, 2).operator().clone(),
        ),
        (
            "hierarchical/100x4",
            hierarchical_strategy_structured(100, 4).operator().clone(),
        ),
        ("prefixes/64", RangeQueryWorkload::prefixes(64).operator()),
        (
            "intervals/32",
            RangeQueryWorkload::from_intervals(
                32,
                vec![(0, 31), (5, 20), (0, 0), (31, 31), (7, 7), (2, 29), (5, 20)],
            )
            .operator(),
        ),
    ];
    for (name, op) in cases {
        let dense = ExplicitOperator::new(
            op.materialize()
                .unwrap_or_else(|| panic!("{name}: small operators materialise")),
        );
        assert_eq!(op.dims(), dense.dims(), "{name}: dims");
        let (rows, n) = op.dims();
        for salt in [3u64, 77, 991] {
            let x = probe(n, salt);
            assert_bits_eq(&format!("{name}: apply"), &op.apply(&x), &dense.apply(&x));
            let y = probe(rows, salt ^ 0xABCD);
            assert_bits_eq(
                &format!("{name}: apply_transpose"),
                &op.apply_transpose(&y),
                &dense.apply_transpose(&y),
            );
        }
        assert_bits_eq(
            &format!("{name}: gram_diag"),
            &op.gram_diag()
                .unwrap_or_else(|| panic!("{name}: gram_diag")),
            &dense.gram_diag().expect("dense gram_diag"),
        );
    }
}

/// The dense direct least-squares solution: a Cholesky solve of
/// `AᵀA·x = Aᵀy` on the materialised strategy.
fn cholesky_least_squares(a: &Matrix, y: &[f64]) -> Vec<f64> {
    Cholesky::new(&ops::gram(a))
        .expect("the strategy has full column rank")
        .solve_vec(&a.matvec_transposed(y).expect("y has one value per row"))
        .expect("dimensions match")
}

/// The noisy observations `A·x + noise` the engine draws for `strategy`,
/// rebuilt through `op` (the strategy's operator or its materialised form)
/// from the same rng seed and the same noise calibration.
fn observations(
    engine: &Engine,
    strategy: &StructuredStrategy,
    op: &dyn LinearOperator,
    x: &[f64],
    seed: u64,
) -> Vec<f64> {
    let sens = engine
        .backend()
        .sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
    let scale = engine.backend().noise_scale(engine.privacy(), sens);
    let mut y = op.apply(x);
    let mut rng = StdRng::seed_from_u64(seed);
    // mm-lint: allow(charge-before-noise): cross-validation rebuilds the noise stream of the accounted engine call under test, on the same privacy parameters
    let noise = engine.backend().sample(&mut rng, scale, y.len());
    for (v, nz) in y.iter_mut().zip(noise.iter()) {
        *v += *nz;
    }
    y
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

#[test]
fn structured_engine_matches_the_dense_adapter_on_the_same_rng_stream() {
    // Haar prefixes at 64 and 512; hierarchies at 48 (b = 2, leaves at
    // uneven depths) and 100 (b = 4).  The dense adapter observes through
    // the materialised strategy on the engine's rng stream: its
    // observations must be the engine's bit for bit, the engine's estimate
    // the exact inverse of them, and the answers the workload on it.
    for (n, branching) in [(64usize, 2usize), (512, 2), (48, 2), (100, 4)] {
        let workload = RangeQueryWorkload::prefixes(n);
        let engine = Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .structured_selector(TreeStructuredSelector::new(branching))
            .build()
            .expect("engine builds");
        let x = probe(n, 2012);
        let seed = 0xD0 + n as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let structured = engine
            .answer_structured(&workload, &x, &mut rng)
            .expect("structured answer");
        let context = format!("n={n}, {}", structured.strategy.name());

        // The dense twin: same strategy (cached selection), same scale,
        // same seed, dense matvecs.
        let (strategy, _, hit) = engine
            .select_structured(&workload.descriptor())
            .expect("selection is cached");
        assert!(hit, "answering populated the structured cache");
        let a = strategy
            .operator()
            .materialize()
            .expect("n <= 512 materialises");
        let y = observations(
            &engine,
            &strategy,
            &ExplicitOperator::new(a.clone()),
            &x,
            seed,
        );
        assert_bits_eq(
            &format!("{context}: observations"),
            &y,
            &observations(&engine, &strategy, &**strategy.operator(), &x, seed),
        );
        assert_bits_eq(
            &format!("{context}: estimate"),
            &structured.estimate,
            &strategy.least_squares(&y),
        );

        let direct = cholesky_least_squares(&a, &y);
        let tol = 1e-11 * max_abs(&structured.estimate);
        for (i, (e, d)) in structured.estimate.iter().zip(&direct).enumerate() {
            assert!(
                (e - d).abs() <= tol,
                "{context}: cell {i}: estimate {e} vs Cholesky {d}"
            );
        }
        let w = workload.to_matrix().expect("small workloads materialise");
        let dense_answers = w.matvec(&structured.estimate).expect("dims match");
        let tol = 1e-10 * structured.estimate.iter().map(|v| v.abs()).sum::<f64>();
        for (q, (s, d)) in structured.answers.iter().zip(&dense_answers).enumerate() {
            assert!(
                (s - d).abs() <= tol,
                "{context}: query {q}: answer {s} vs W·x̂ {d}"
            );
        }
    }
}

#[test]
fn structured_estimates_solve_the_normal_equations_at_benchmark_sizes() {
    // At the benchmark's domains nothing dense fits, so exactness is
    // checked by the normal-equation residual ‖Aᵀ(A·x̂ − y)‖∞ of the
    // engine's estimate on its own observations, relative to ‖Aᵀy‖∞.  An
    // iterative solve at its usual 1e-10 tolerance misses this bound.
    for (n, branching) in [(65_536usize, 2usize), (49_152, 2), (50_000, 3)] {
        let workload = RangeQueryWorkload::prefixes(n);
        let engine = Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .structured_selector(TreeStructuredSelector::new(branching))
            .build()
            .expect("engine builds");
        let x = probe(n, 4049);
        let seed = 0x5EED ^ n as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let answer = engine
            .answer_structured(&workload, &x, &mut rng)
            .expect("structured answer");
        let strategy = &answer.strategy;
        let op = strategy.operator();
        let y = observations(&engine, strategy, &**op, &x, seed);
        let mut residual = op.apply(&answer.estimate);
        for (r, yi) in residual.iter_mut().zip(&y) {
            *r -= yi;
        }
        let normal = max_abs(&op.apply_transpose(&residual));
        let scale = max_abs(&op.apply_transpose(&y));
        assert!(
            normal <= 1e-12 * scale,
            "n={n}, {}: ‖Aᵀ(Ax̂ − y)‖∞ = {normal:e} against ‖Aᵀy‖∞ = {scale:e}",
            strategy.name()
        );
    }
}

#[test]
fn accounted_structured_answers_match_the_unaccounted_path_bitwise() {
    // Accounting wraps the pipeline without touching the rng stream: a
    // budgeted session must serve the very bits the bare engine does.
    let n = 256;
    let workload = RangeQueryWorkload::prefixes(n);
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .build()
            .expect("engine builds"),
    );
    let x = probe(n, 77);
    let mut rng = StdRng::seed_from_u64(99);
    let bare = engine
        .answer_structured(&workload, &x, &mut rng)
        .expect("bare answer");
    let mut session = engine.session(PrivacyBudget::new(10.0, 1e-2));
    let mut rng = StdRng::seed_from_u64(99);
    let accounted = session
        .answer_structured(&workload, &x, &mut rng)
        .expect("budgeted answer");
    assert_bits_eq("answers", &accounted.answers, &bare.answers);
    assert_bits_eq("estimate", &accounted.estimate, &bare.estimate);
    assert_eq!(accounted.fingerprint, bare.fingerprint);
}

#[test]
fn structured_selection_is_deterministic_across_engines_and_sizes() {
    // Selection is data-independent and stateless: two engines (and a bare
    // selector) must agree on descriptor, fingerprint, and sensitivities
    // for every size, power of two or not.
    for n in [17usize, 64, 100, 512, 4096] {
        let w = RangeQueryWorkload::prefixes(n);
        let a = Engine::new(PrivacyParams::paper_default());
        let b = Engine::new(PrivacyParams::paper_default());
        let (sa, fa, _) = a.select_structured(&w.descriptor()).expect("selects");
        let (sb, fb, _) = b.select_structured(&w.descriptor()).expect("selects");
        assert_eq!(fa, fb, "n={n}: fingerprints diverge");
        assert_eq!(sa.descriptor(), sb.descriptor(), "n={n}: descriptors");
        assert_eq!(
            sa.l2_sensitivity().to_bits(),
            sb.l2_sensitivity().to_bits(),
            "n={n}: L2 sensitivity"
        );
        assert_eq!(
            sa.l1_sensitivity().to_bits(),
            sb.l1_sensitivity().to_bits(),
            "n={n}: L1 sensitivity"
        );
    }
}

#[test]
fn concurrent_cold_structured_requests_share_one_selection() {
    // Eight threads released together onto one cold n = 65 536 workload, on
    // an engine with a strategy store: the lookup is single-flight, so the
    // selector runs once, the write-once entry is written once, no save
    // fails, and every caller answers on the leader's strategy.
    const THREADS: usize = 8;
    let n = 65_536;
    let dir = std::env::temp_dir().join(format!(
        "mm-structured-single-flight-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = Arc::new(RangeQueryWorkload::prefixes(n));
    let x = Arc::new(probe(n, 31));
    let engine = Arc::new(
        Engine::builder()
            .privacy(PrivacyParams::paper_default())
            .strategy_store(&dir)
            .build()
            .expect("engine builds"),
    );
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
            let (workload, x) = (Arc::clone(&workload), Arc::clone(&x));
            std::thread::spawn(move || {
                barrier.wait();
                let mut rng = StdRng::seed_from_u64(500 + t as u64);
                engine
                    .answer_structured(&*workload, &x, &mut rng)
                    .expect("concurrent answer")
            })
        })
        .collect();
    let answers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("thread"))
        .collect();

    let stats = engine.stats();
    assert_eq!(stats.structured_selections, 1, "one selection");
    assert_eq!(stats.structured_cache_misses, 1, "one leader");
    assert_eq!(stats.structured_cache_hits, THREADS as u64 - 1);
    assert_eq!(stats.structured_store_writes, 1, "one write-once entry");
    assert_eq!(stats.store_save_failures, 0, "no spurious save failure");
    for answer in &answers[1..] {
        assert!(
            Arc::ptr_eq(&answer.strategy, &answers[0].strategy),
            "every caller answers on the leader's strategy"
        );
    }

    let reference = Engine::new(PrivacyParams::paper_default());
    for (t, answer) in answers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(500 + t as u64);
        let expect = reference
            .answer_structured(&*workload, &x, &mut rng)
            .expect("sequential answer");
        assert_bits_eq(
            &format!("thread {t}: answers"),
            &answer.answers,
            &expect.answers,
        );
        assert_bits_eq(
            &format!("thread {t}: estimate"),
            &answer.estimate,
            &expect.estimate,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn structured_error_prediction_is_calibrated_at_workspace_level() {
    // The closed-form expected rms error (Haar trace) must be a statistical
    // fact about the served answers, not just a formula: over repeated
    // draws, the measured rms converges to the prediction.
    let n = 128;
    let workload = RangeQueryWorkload::prefixes(n);
    let engine = Engine::new(PrivacyParams::paper_default());
    let x = probe(n, 5);
    let truth: Vec<f64> = {
        let mut acc = 0.0;
        x.iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(4242);
    let mut predicted = 0.0;
    let mut total_sq = 0.0;
    let trials = 200;
    for _ in 0..trials {
        let ans = engine
            .answer_structured(&workload, &x, &mut rng)
            .expect("answers");
        predicted = ans.expected_rms_error.expect("Haar has a closed form");
        total_sq += ans
            .answers
            .iter()
            .zip(truth.iter())
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>();
    }
    let measured = (total_sq / (trials as f64 * n as f64)).sqrt();
    let ratio = measured / predicted;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "measured rms {measured} vs predicted {predicted} (ratio {ratio})"
    );
}
