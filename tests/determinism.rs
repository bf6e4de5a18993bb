//! The determinism contract of the parallel kernels (`mm_linalg::parallel`):
//! for a fixed input, the blocked/threaded Cholesky, symmetric eigensolver,
//! SYRK/TRSM kernels and the end-to-end `Engine::answer` pipeline must
//! produce **bit-identical** results for every thread count.  Work is
//! partitioned over fixed block boundaries with per-block sequential
//! accumulation, so `MM_LINALG_THREADS=1` and `=4` may differ only in
//! wall-clock time.
//!
//! The whole check lives in a single `#[test]` because the thread-count
//! override is process-global: integration-test binaries run their `#[test]`
//! fns on parallel threads, and nothing else in this binary may race it.

use adaptive_dp::core::{Engine, PrivacyParams};
use adaptive_dp::linalg::decomp::{Cholesky, SymmetricEigen};
use adaptive_dp::linalg::{ops, parallel, Matrix};
use adaptive_dp::workload::range::AllRangeWorkload;
use adaptive_dp::workload::{Domain, RangeQueryWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything one pass over the kernels produces, as raw bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct KernelBits {
    cholesky_factor: Vec<u64>,
    trace_term: u64,
    eigenvalues: Vec<u64>,
    eigenvectors: Vec<u64>,
    threaded_eigen: Option<(Vec<u64>, Vec<u64>)>,
    syrk: Vec<u64>,
    trsm: Vec<u64>,
    matmul: Vec<u64>,
    span_products: Vec<Vec<u64>>,
    width_one_solves: Vec<Vec<u64>>,
    engine_answers: Vec<u64>,
    engine_estimate: Vec<u64>,
    structured_answers: Vec<u64>,
    structured_estimate: Vec<u64>,
    tree_answers: Vec<u64>,
    tree_estimate: Vec<u64>,
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Sizes are chosen so every parallel path actually engages when more than
/// one thread is allowed: the matmul threshold (rows ≥ 96, work > 10⁶, met
/// at width 1 too by the span products), the SYRK/TRSM work floor (32 768)
/// and, in release builds, the eigensolver floor (2²⁰ entries).
fn run_kernels() -> KernelBits {
    // Blocked Cholesky + the multi-RHS trace term on a dense SPD gram.
    let n = 192;
    let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 11) % 19) as f64 / 19.0 - 0.5);
    let mut g = ops::gram(&b);
    for i in 0..n {
        g[(i, i)] += n as f64 / 8.0;
    }
    let factor = Cholesky::new(&g).expect("gram is SPD");
    let trace = factor
        .trace_of_gram_times_inverse(&g)
        .expect("dimensions match");

    // Symmetric eigendecomposition of a structured (degenerate-spectrum)
    // workload gram — the hard case for the QL sweeps.  n = 192 runs every
    // phase on the calling thread.  n = 1056 passes the eigensolver's 2²⁰
    // entry floor in tred2's matvec reductions and accumulation (i ≥ 1024)
    // and in QL's longer sweeps (≥ 993 rotations), so those phases split
    // across threads; it takes about a second a pass, so debug builds skip it.
    let eig_gram = AllRangeWorkload::new(Domain::one_dim(192)).gram();
    let eig = SymmetricEigen::new(&eig_gram).expect("gram is symmetric");
    let threaded_eigen = (!cfg!(debug_assertions)).then(|| {
        let gram = AllRangeWorkload::new(Domain::one_dim(1056)).gram();
        let eig = SymmetricEigen::new(&gram).expect("gram is symmetric");
        (
            bits_of(eig.eigenvalues()),
            bits_of(eig.eigenvector_rows().as_slice()),
        )
    });

    // Raw SYRK / TRSM / matmul kernels.
    let a = Matrix::from_fn(200, 64, |i, j| ((i * 5 + j * 13) % 23) as f64 - 11.0);
    let mut c = Matrix::from_fn(220, 220, |i, j| ((i * 3 + j * 7) % 31) as f64);
    ops::syrk_sub_lower(&mut c, &a, 20).expect("shapes match");
    let l = Matrix::from_fn(64, 64, |i, j| {
        if j < i {
            ((i * 7 + j * 5) % 9) as f64 / 4.0 - 1.0
        } else if j == i {
            2.0 + (i % 3) as f64
        } else {
            0.0
        }
    });
    let mut x = Matrix::from_fn(300, 64, |i, j| ((i * 13 + j * 3) % 11) as f64 - 5.0);
    ops::trsm_right_transpose_lower(&mut x, &l).expect("solvable");
    let m1 = Matrix::from_fn(128, 128, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
    let m2 = Matrix::from_fn(128, 128, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let prod = ops::matmul(&m1, &m2).expect("shapes match");

    // Span products at widths 1 and 8 on a strategy-shaped matrix: a dense
    // block, single-entry rows and empty rows, 1 031 rows (≡ 3 mod 4) of
    // 1 000 columns, so even `A·x` and `Aᵀy` do over 10⁶ multiply-adds and
    // split across threads, each thread's four-row groups starting where
    // its chunk does.
    let sa = Matrix::from_fn(1031, 1000, |i, j| match i {
        0..=499 => ((i * 7 + j * 3) % 23) as f64 / 11.0 - 1.0,
        _ if i % 9 == 0 => 0.0,
        _ if j == (i * 37) % 1000 => 1.0 + (i % 5) as f64,
        _ => 0.0,
    });
    let spans = ops::RowSpans::of(&sa);
    let span_products = [1usize, 8]
        .into_iter()
        .flat_map(|k| {
            let x = Matrix::from_fn(1000, k, |i, c| ((i * 11 + c * 5) % 29) as f64 - 14.0);
            let y = Matrix::from_fn(1031, k, |i, c| ((i * 3 + c * 13) % 31) as f64 / 7.0);
            [
                ops::matmul_spans(&sa, &spans, &x).expect("shapes match"),
                ops::matmul_transpose_left_spans(&sa, &spans, &y).expect("shapes match"),
            ]
        })
        .map(|m| bits_of(m.as_slice()))
        .collect();
    // Both width-1 triangular solves through the n = 192 factor.
    let rhs = Matrix::from_fn(n, 1, |i, _| ((i * 17) % 13) as f64 - 6.0);
    let forward = factor.solve_lower_multi(&rhs).expect("shapes match");
    let backward = factor.solve_upper_multi(&rhs).expect("shapes match");
    let width_one_solves = vec![bits_of(forward.as_slice()), bits_of(backward.as_slice())];

    // End to end: a cold engine answer (selection, factor, trace term,
    // mechanism run) with a fixed rng.
    let workload = AllRangeWorkload::new(Domain::one_dim(128));
    let data: Vec<f64> = (0..128).map(|i| 100.0 + (i % 17) as f64).collect();
    let engine = Engine::new(PrivacyParams::paper_default());
    let mut rng = StdRng::seed_from_u64(42);
    let answer = engine
        .answer(&workload, &data, &mut rng)
        .expect("engine answers");

    // The matrix-free structured path: interval workload, run-length Haar
    // strategy, exact least-squares reconstruction.  Large enough
    // (n = 4096) that any thread-count-dependent accumulation in the
    // operator applies, the inverse transform or the evaluation pass would
    // surface in the bits.
    let sw = RangeQueryWorkload::prefixes(4096);
    let sdata: Vec<f64> = (0..4096).map(|i| 60.0 + (i % 23) as f64).collect();
    let mut rng = StdRng::seed_from_u64(43);
    let structured = engine
        .answer_structured(&sw, &sdata, &mut rng)
        .expect("structured engine answers");

    // The same path on an uneven binary hierarchy (n = 3072 = 3·2¹⁰, so
    // leaves sit at two depths): the two-pass tree inference.
    let tw = RangeQueryWorkload::from_intervals(
        3072,
        (0..512)
            .map(|q| ((q * 37) % 1536, 1536 + (q * 53) % 1536))
            .collect(),
    );
    let tdata: Vec<f64> = (0..3072).map(|i| 30.0 + (i % 29) as f64).collect();
    let mut rng = StdRng::seed_from_u64(44);
    let tree = engine
        .answer_structured(&tw, &tdata, &mut rng)
        .expect("hierarchical engine answers");

    KernelBits {
        cholesky_factor: bits_of(factor.l().as_slice()),
        trace_term: trace.to_bits(),
        eigenvalues: bits_of(eig.eigenvalues()),
        eigenvectors: bits_of(eig.eigenvector_rows().as_slice()),
        threaded_eigen,
        syrk: bits_of(c.as_slice()),
        trsm: bits_of(x.as_slice()),
        matmul: bits_of(prod.as_slice()),
        span_products,
        width_one_solves,
        engine_answers: bits_of(&answer.answers),
        engine_estimate: bits_of(&answer.estimate),
        structured_answers: bits_of(&structured.answers),
        structured_estimate: bits_of(&structured.estimate),
        tree_answers: bits_of(&tree.answers),
        tree_estimate: bits_of(&tree.estimate),
    }
}

/// The persistent-store half of the determinism contract: a selection
/// spilled to disk and warm-loaded by a *fresh* engine must reproduce the
/// original bit-for-bit — strategy matrix, Cholesky factor, Prop. 4 trace
/// term and, with a fixed rng, the final answers.  (Thread counts may
/// change between the two engines; the kernel contract above makes that
/// irrelevant.)
#[test]
fn persisted_selections_round_trip_bit_identically() {
    use adaptive_dp::core::engine::PrivacyBudget;

    let dir = std::env::temp_dir().join(format!("mm-determinism-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = AllRangeWorkload::new(Domain::one_dim(96));
    let data: Vec<f64> = (0..96).map(|i| 40.0 + (i % 13) as f64).collect();

    let cold = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("engine with store builds");
    let mut rng = StdRng::seed_from_u64(7);
    let cold_answer = cold
        .answer(&workload, &data, &mut rng)
        .expect("cold answer");
    let (cold_strategy, fp, _) = cold.select(&workload).expect("cold selection");
    let cold_entry = cold
        .cached_selection(fp)
        .expect("selection is cached after answering");
    assert_eq!(cold.stats().selections, 1, "cold engine ran the selector");
    assert_eq!(
        cold.stats().store_writes,
        1,
        "selection spilled to the store"
    );

    // A brand-new engine over the same directory: warmed at build time,
    // never runs the selector.
    let warm = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .build()
        .expect("warm engine builds");
    let mut rng = StdRng::seed_from_u64(7);
    let warm_answer = warm
        .answer(&workload, &data, &mut rng)
        .expect("warm answer");
    let (warm_strategy, warm_fp, hit) = warm.select(&workload).expect("warm selection");
    assert_eq!(warm_fp, fp);
    assert!(hit, "warm engine serves the persisted selection from cache");
    assert_eq!(warm.stats().selections, 0, "warm engine never selects");

    // Strategy (gram, explicit matrix, sensitivities), factor and trace
    // term: bit-identical.
    assert_eq!(
        bits_of(cold_strategy.gram().as_slice()),
        bits_of(warm_strategy.gram().as_slice()),
        "strategy grams differ after the store round-trip"
    );
    assert_eq!(
        cold_strategy.matrix().map(|m| bits_of(m.as_slice())),
        warm_strategy.matrix().map(|m| bits_of(m.as_slice())),
        "strategy matrices differ after the store round-trip"
    );
    assert_eq!(
        cold_strategy.l2_sensitivity().to_bits(),
        warm_strategy.l2_sensitivity().to_bits()
    );
    assert_eq!(
        cold_strategy.l1_sensitivity().to_bits(),
        warm_strategy.l1_sensitivity().to_bits()
    );
    let warm_entry = warm.cached_selection(fp).expect("warm selection cached");
    assert_eq!(
        bits_of(cold_entry.factor().unwrap().l().as_slice()),
        bits_of(warm_entry.factor().unwrap().l().as_slice()),
        "Cholesky factors differ after the store round-trip"
    );
    let gram = workload.gram();
    assert_eq!(
        cold_entry.trace_term(&gram).unwrap().to_bits(),
        warm_entry.trace_term(&gram).unwrap().to_bits(),
        "trace terms differ after the store round-trip"
    );

    // And therefore the answers are too (same seed, same noise).
    assert_eq!(bits_of(&cold_answer.answers), bits_of(&warm_answer.answers));
    assert_eq!(
        bits_of(&cold_answer.estimate),
        bits_of(&warm_answer.estimate)
    );

    // Sanity: budgeted sessions see identical accounting on both engines.
    let mut s = warm.session(PrivacyBudget::new(1.0, 1e-3));
    let mut rng = StdRng::seed_from_u64(8);
    assert!(s.answer(&workload, &data, &mut rng).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The full-rank parity half of the Low-Rank Mechanism's contract: when the
/// requested rank covers the whole spectrum (r ≥ n) the engine delegates to
/// the dense selector under the *unmixed* fingerprint, so a low-rank engine
/// is the dense engine — same plan kind, same fingerprint, and bit-identical
/// answers on the same rng stream.
#[test]
fn full_rank_low_rank_engine_is_bit_identical_to_dense() {
    use adaptive_dp::core::PlanKind;

    let workload = AllRangeWorkload::new(Domain::one_dim(64));
    let data: Vec<f64> = (0..64).map(|i| 80.0 + (i % 11) as f64).collect();

    let dense = Engine::new(PrivacyParams::paper_default());
    let mut rng = StdRng::seed_from_u64(5);
    let dense_answer = dense
        .answer(&workload, &data, &mut rng)
        .expect("dense answer");

    let low_rank = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .low_rank(64)
        .build()
        .expect("full-rank low-rank engine builds");
    let mut rng = StdRng::seed_from_u64(5);
    let lr_answer = low_rank
        .answer(&workload, &data, &mut rng)
        .expect("full-rank answer");

    assert_eq!(
        bits_of(&dense_answer.answers),
        bits_of(&lr_answer.answers),
        "full-rank low-rank answers drifted from dense"
    );
    assert_eq!(
        bits_of(&dense_answer.estimate),
        bits_of(&lr_answer.estimate),
        "full-rank low-rank estimate drifted from dense"
    );

    let (_, dense_fp, _) = dense.select(&workload).expect("dense select");
    let (plan, lr_fp, _) = low_rank
        .select_plan_for(&workload)
        .expect("full-rank select");
    assert_eq!(lr_fp, dense_fp, "rank ≥ n must not mix the fingerprint");
    assert_eq!(plan.kind(), PlanKind::Dense, "rank ≥ n delegates to dense");
    assert_eq!(low_rank.stats().dense_selections, 1);
    assert_eq!(low_rank.stats().low_rank_selections, 0);
}

/// The low-rank persistence half: a `SelectionPlan::LowRank` spilled to the
/// unified `.mmplan` store and warm-loaded by a fresh engine reproduces the
/// original bit-for-bit — basis, subspace gram, captured mass and, with a
/// fixed rng, the final answers — without ever re-running the selector.
#[test]
fn persisted_low_rank_plans_round_trip_bit_identically() {
    use adaptive_dp::core::PlanKind;

    let dir = std::env::temp_dir().join(format!("mm-determinism-lowrank-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = AllRangeWorkload::new(Domain::one_dim(96));
    let data: Vec<f64> = (0..96).map(|i| 70.0 + (i % 19) as f64).collect();

    let cold = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .low_rank(24)
        .build()
        .expect("cold low-rank engine builds");
    let mut rng = StdRng::seed_from_u64(11);
    let cold_answer = cold
        .answer(&workload, &data, &mut rng)
        .expect("cold low-rank answer");
    let (cold_plan, fp, _) = cold.select_plan_for(&workload).expect("cold plan");
    assert_eq!(cold_plan.kind(), PlanKind::LowRank);
    assert_eq!(cold.stats().low_rank_selections, 1);
    assert_eq!(cold.stats().store_writes, 1, "plan spilled to the store");

    let warm = Engine::builder()
        .privacy(PrivacyParams::paper_default())
        .strategy_store(&dir)
        .low_rank(24)
        .build()
        .expect("warm low-rank engine builds");
    let mut rng = StdRng::seed_from_u64(11);
    let warm_answer = warm
        .answer(&workload, &data, &mut rng)
        .expect("warm low-rank answer");
    let (warm_plan, warm_fp, hit) = warm.select_plan_for(&workload).expect("warm plan");
    assert_eq!(warm_fp, fp, "store round-trip must preserve the mixed key");
    assert!(hit, "warm engine serves the persisted plan from cache");
    assert_eq!(warm.stats().selections, 0, "warm engine never selects");

    let cold_lr = cold_plan.as_low_rank().expect("cold plan is low-rank");
    let warm_lr = warm_plan.as_low_rank().expect("warm plan is low-rank");
    assert_eq!(
        bits_of(cold_lr.basis().as_slice()),
        bits_of(warm_lr.basis().as_slice()),
        "bases differ after the store round-trip"
    );
    assert_eq!(
        bits_of(cold_lr.subspace_gram().as_slice()),
        bits_of(warm_lr.subspace_gram().as_slice()),
        "subspace grams differ after the store round-trip"
    );
    assert_eq!(cold_lr.retained_rank(), warm_lr.retained_rank());
    assert_eq!(
        cold_lr.captured_mass().to_bits(),
        warm_lr.captured_mass().to_bits()
    );
    assert_eq!(bits_of(&cold_answer.answers), bits_of(&warm_answer.answers));
    assert_eq!(
        bits_of(&cold_answer.estimate),
        bits_of(&warm_answer.estimate)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kernels_and_engine_are_bit_identical_across_thread_counts() {
    let single = {
        parallel::set_max_threads(Some(1));
        run_kernels()
    };
    for threads in [2usize, 4] {
        parallel::set_max_threads(Some(threads));
        let multi = run_kernels();
        assert!(
            single == multi,
            "results differ between 1 and {threads} worker threads"
        );
    }
    parallel::set_max_threads(None);
    // The machine default (whatever it is) agrees with the forced counts.
    let default = run_kernels();
    assert!(single == default, "default thread count changes results");
}
