//! Property-style tests on the core data structures and invariants of the
//! mechanism.
//!
//! The offline build has no `proptest`, so each property is checked over a
//! deterministic family of seeded random cases (the case counts match the
//! `ProptestConfig` this file used previously).

use adaptive_dp::core::bounds::{rms_error_bound, svd_bound_value, workload_eigenvalues};
use adaptive_dp::core::design_set::{weighted_design_strategy, DesignWeightingOptions};
use adaptive_dp::core::eigen_design::workload_eigensystem;
use adaptive_dp::core::error::rms_workload_error;
use adaptive_dp::core::{eigen_design, EigenDesignOptions, PrivacyParams};
use adaptive_dp::linalg::decomp::{Cholesky, SymmetricEigen};
use adaptive_dp::linalg::{approx_eq, ops, Matrix};
use adaptive_dp::opt::{solve_weighting, WeightingOptions, WeightingProblem};
use adaptive_dp::strategies::fourier::attribute_basis;
use adaptive_dp::strategies::identity::identity_strategy;
use adaptive_dp::strategies::wavelet::haar_matrix;
use adaptive_dp::workload::example::fig1_workload;
use adaptive_dp::workload::marginal::{MarginalKind, MarginalWorkload};
use adaptive_dp::workload::prefix::PrefixWorkload;
use adaptive_dp::workload::query::LinearQuery;
use adaptive_dp::workload::range::{AllRangeWorkload, RandomRangeWorkload};
use adaptive_dp::workload::transform::{seeded_permutation, PermutedWorkload};
use adaptive_dp::workload::{Domain, ExplicitWorkload, IdentityWorkload, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

fn random_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// (AB)ᵀ = BᵀAᵀ for arbitrary square matrices.
#[test]
fn matmul_transpose_identity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, 5, 5, 5.0);
        let b = random_matrix(&mut rng, 5, 5, 5.0);
        let ab_t = ops::matmul(&a, &b).unwrap().transpose();
        let bt_at = ops::matmul(&b.transpose(), &a.transpose()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(approx_eq(ab_t[(i, j)], bt_at[(i, j)], 1e-8));
            }
        }
    }
}

/// The gram matrix AᵀA is always symmetric positive semidefinite.
#[test]
fn gram_is_psd() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let a = random_matrix(&mut rng, 6, 6, 5.0);
        let g = ops::gram(&a);
        assert!(g.is_symmetric(1e-9));
        let eig = SymmetricEigen::new(&g).unwrap();
        for &l in eig.eigenvalues() {
            assert!(l > -1e-7, "negative eigenvalue {l}");
        }
    }
}

/// Eigendecomposition reconstructs the matrix and preserves the trace.
#[test]
fn eigen_reconstruction() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let a = random_matrix(&mut rng, 6, 6, 5.0);
        let g = ops::gram(&a);
        let eig = SymmetricEigen::new(&g).unwrap();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!(approx_eq(sum, g.trace(), 1e-6 * (1.0 + g.trace().abs())));
        let rec = eig.reconstruct();
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(
                    rec[(i, j)],
                    g[(i, j)],
                    1e-6 * (1.0 + g.max_abs())
                ));
            }
        }
    }
}

/// Cholesky solves reproduce the right-hand side.
#[test]
fn cholesky_solve_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let a = random_matrix(&mut rng, 5, 5, 5.0);
        let rhs = random_vec(&mut rng, 5, -10.0, 10.0);
        let mut g = ops::gram(&a);
        for i in 0..5 {
            g[(i, i)] += 5.0;
        }
        let ch = Cholesky::new(&g).unwrap();
        let x = ch.solve_vec(&rhs).unwrap();
        let back = g.matvec(&x).unwrap();
        for (b, r) in back.iter().zip(rhs.iter()) {
            assert!(approx_eq(*b, *r, 1e-6));
        }
    }
}

/// A linear query evaluates identically in sparse and dense form.
#[test]
fn query_sparse_dense_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let coeffs = random_vec(&mut rng, 12, -3.0, 3.0);
        let x = random_vec(&mut rng, 12, 0.0, 50.0);
        let q = LinearQuery::from_dense(&coeffs);
        let dense: f64 = coeffs.iter().zip(x.iter()).map(|(c, v)| c * v).sum();
        assert!(approx_eq(q.evaluate(&x), dense, 1e-9));
        assert!(q.nnz() <= 12);
    }
}

/// Permuting cell conditions never changes the workload's eigenvalues, and
/// therefore never changes the lower bound or the eigen-design error.
#[test]
fn permutation_preserves_spectrum() {
    for case in 0..CASES {
        let seed = case * 137 + 5; // spread over [0, 5000)
        let n = 12usize;
        let w = AllRangeWorkload::new(Domain::one_dim(n));
        let permuted = PermutedWorkload::new(
            AllRangeWorkload::new(Domain::one_dim(n)),
            seeded_permutation(n, seed),
        );
        let e0 = workload_eigenvalues(&w.gram()).unwrap();
        let e1 = workload_eigenvalues(&permuted.gram()).unwrap();
        for (a, b) in e0.iter().zip(e1.iter()) {
            assert!(approx_eq(*a, *b, 1e-7 * (1.0 + a.abs())));
        }
    }
}

/// The weighting solver always returns a feasible point that is at least as
/// good as the Theorem-2 initial weighting.
#[test]
fn weighting_solver_feasible_and_improving() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let k = rng.gen_range(2usize..10);
        let costs = random_vec(&mut rng, k, 0.0, 20.0);
        let design = random_matrix(&mut rng, k, k + 2, 1.0);
        let problem = match WeightingProblem::from_design_queries(&design, costs) {
            Ok(p) => p,
            Err(_) => continue, // e.g. a positive-cost query with all-zero coefficients
        };
        let sol = solve_weighting(&problem, &WeightingOptions::fast()).unwrap();
        assert!(problem.is_feasible(&sol.u, 1e-6));
        let init = problem.initial_point();
        assert!(sol.objective <= problem.objective(&init) * (1.0 + 1e-6));
    }
}

/// Weak duality, checked without the solver: on the random problems above,
/// the dual value of any simplex weighting of the constraints is at most
/// the objective of any feasible point.
#[test]
fn weighting_weak_duality_holds_for_random_points() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let k = rng.gen_range(2usize..10);
        let costs = random_vec(&mut rng, k, 0.0, 20.0);
        let design = random_matrix(&mut rng, k, k + 2, 1.0);
        let problem = match WeightingProblem::from_design_queries(&design, costs) {
            Ok(p) => p,
            Err(_) => continue,
        };
        for _ in 0..4 {
            let raw = random_vec(&mut rng, problem.num_constraints(), 0.0, 1.0);
            let total = ops::sum(&raw);
            let mu: Vec<f64> = raw.iter().map(|&m| m / total).collect();
            let u = problem.normalize(&random_vec(&mut rng, k, 0.01, 1.0));
            assert!(problem.is_feasible(&u, 1e-9));
            let (d, f) = (problem.dual_value(&mu), problem.objective(&u));
            assert!(d <= f, "dual {d} above primal {f} (seed {seed})");
        }
    }
}

/// The Eigen-Design weighting problem of a workload (the retained
/// eigenvectors as design queries, their eigenvalues as costs), together
/// with the spectrum it sees: the retained eigenvalues, and zero for the
/// eigenvalues below the rank cutoff (the numerical null space of a
/// rank-deficient gram).
fn eigen_problem<W: Workload>(w: &W) -> (Vec<f64>, WeightingProblem) {
    let (eigenvalues, retained, q) = workload_eigensystem(&w.gram(), 1e-10).unwrap();
    let mut spectrum = retained.clone();
    spectrum.resize(eigenvalues.len(), 0.0);
    (
        spectrum,
        WeightingProblem::from_design_queries(&q, retained).unwrap(),
    )
}

/// On Eigen-Design problems the dual at uniform μ is the singular value
/// bound (the design rows are unit-norm eigenvectors), and the solver's
/// certificate brackets the optimum from there: svdb ≤ dual bound ≤
/// objective, with objective − dual bound ≤ gap · objective.
#[test]
fn eigen_design_dual_starts_at_the_svd_bound() {
    let opts = WeightingOptions::default();
    let problems = [
        (
            "all-range 64",
            eigen_problem(&AllRangeWorkload::new(Domain::new(&[64]))),
        ),
        (
            "all-range 256",
            eigen_problem(&AllRangeWorkload::new(Domain::new(&[256]))),
        ),
        (
            "all-range 16x16",
            eigen_problem(&AllRangeWorkload::new(Domain::new(&[16, 16]))),
        ),
        (
            "2-way range marginals 8x8x4",
            eigen_problem(&MarginalWorkload::all_k_way(
                Domain::new(&[8, 8, 4]),
                2,
                MarginalKind::Range,
            )),
        ),
    ];
    for (name, (spectrum, problem)) in &problems {
        let svdb = svd_bound_value(spectrum);
        let cells = problem.num_constraints();
        let d0 = problem.dual_value(&vec![1.0 / cells as f64; cells]);
        assert!(
            (d0 - svdb).abs() <= 1e-12 * svdb,
            "{name}: D(uniform) = {d0}, svdb = {svdb}"
        );
        let sol = solve_weighting(problem, &opts).unwrap();
        assert!(
            svdb <= sol.dual_bound * (1.0 + 1e-12),
            "{name}: dual bound {} below svdb {svdb}",
            sol.dual_bound
        );
        assert!(sol.dual_bound <= sol.objective, "{name}");
        assert!(
            sol.objective - sol.dual_bound <= opts.gap * sol.objective,
            "{name}: objective {} dual bound {}",
            sol.objective,
            sol.dual_bound
        );
        assert!(sol.gap <= opts.gap, "{name}: gap {}", sol.gap);
    }
}

/// The ρ schedule's win, gated as a count: iteration counts repeat exactly,
/// and ρ = 1 alone needs 1 000–1 900 updates on these problems.
#[test]
fn weighting_solver_closes_the_gap_within_400_iterations() {
    let problems = [
        (
            "all-range 256",
            eigen_problem(&AllRangeWorkload::new(Domain::new(&[256]))),
        ),
        (
            "all-range 16x16",
            eigen_problem(&AllRangeWorkload::new(Domain::new(&[16, 16]))),
        ),
        (
            "2-way range marginals 8x8x4",
            eigen_problem(&MarginalWorkload::all_k_way(
                Domain::new(&[8, 8, 4]),
                2,
                MarginalKind::Range,
            )),
        ),
    ];
    let opts = WeightingOptions { gap: 1e-4 };
    for (name, (_, problem)) in &problems {
        let sol = solve_weighting(problem, &opts).unwrap();
        assert!(sol.gap <= opts.gap, "{name}: gap {}", sol.gap);
        assert!(
            sol.iterations <= 400,
            "{name}: {} iterations to gap 1e-4",
            sol.iterations
        );
    }
}

/// The solver closes its gap on every workload the selector and
/// Eigen-Design unit tests run Program 1 on.
#[test]
fn final_gap_within_tolerance_on_selector_workloads() {
    let eigen_cases: Vec<(&str, Matrix, EigenDesignOptions)> = vec![
        (
            "identity 16",
            IdentityWorkload::new(16).gram(),
            EigenDesignOptions::default(),
        ),
        (
            "fig1",
            fig1_workload().gram(),
            EigenDesignOptions::default(),
        ),
        (
            "all-range 16",
            AllRangeWorkload::new(Domain::one_dim(16)).gram(),
            EigenDesignOptions::default(),
        ),
        (
            "all-range 16 fast",
            AllRangeWorkload::new(Domain::one_dim(16)).gram(),
            EigenDesignOptions::fast(),
        ),
        (
            "all-range 32",
            AllRangeWorkload::new(Domain::one_dim(32)).gram(),
            EigenDesignOptions::default(),
        ),
        (
            "permuted all-range 16",
            PermutedWorkload::new(
                AllRangeWorkload::new(Domain::one_dim(16)),
                seeded_permutation(16, 99),
            )
            .gram(),
            EigenDesignOptions::default(),
        ),
        (
            "2-way marginals 4x4x2",
            MarginalWorkload::all_k_way(Domain::new(&[4, 4, 2]), 2, MarginalKind::Point).gram(),
            EigenDesignOptions::default(),
        ),
        (
            "1-way marginals 4x4",
            MarginalWorkload::all_k_way(Domain::new(&[4, 4]), 1, MarginalKind::Point).gram(),
            EigenDesignOptions::default(),
        ),
        (
            "prefix 12, no completion",
            PrefixWorkload::new(12).gram(),
            EigenDesignOptions {
                completion: false,
                ..Default::default()
            },
        ),
    ];
    for (name, gram, opts) in &eigen_cases {
        let res = eigen_design(gram, opts).unwrap();
        assert!(res.gap <= opts.solver.gap, "{name}: gap {}", res.gap);
        assert!(res.dual_bound <= res.objective, "{name}");
    }

    let range16 = AllRangeWorkload::new(Domain::one_dim(16)).gram();
    let prefix8 = PrefixWorkload::new(8);
    let prefix8_gram = prefix8.gram();
    let prefix12 = PrefixWorkload::new(12).gram();
    let design_cases: Vec<(&str, &Matrix, Matrix)> = vec![
        ("wavelet, all-range 16", &range16, haar_matrix(16)),
        ("fourier, all-range 16", &range16, attribute_basis(16)),
        ("identity, all-range 16", &range16, Matrix::identity(16)),
        (
            "workload rows, prefix 8",
            &prefix8_gram,
            prefix8.to_matrix().unwrap(),
        ),
        ("fourier, prefix 12", &prefix12, attribute_basis(12)),
    ];
    let opts = DesignWeightingOptions::default();
    for (name, gram, design) in &design_cases {
        let res = weighted_design_strategy(*name, gram, design, &opts).unwrap();
        assert!(res.gap <= opts.solver.gap, "{name}: gap {}", res.gap);
        assert!(res.dual_bound <= res.objective, "{name}");
    }
}

/// The eigen-design error never beats the Theorem-2 lower bound and never
/// loses to the identity strategy by more than the identity's own error.
#[test]
fn eigen_design_respects_bound() {
    for seed in 0..CASES {
        let n = 10usize;
        let domain = Domain::one_dim(n);
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let w = RandomRangeWorkload::sample(domain, 15, &mut rng);
        let g = w.gram();
        let m = w.query_count();
        let p = PrivacyParams::paper_default();
        let eigen = eigen_design(&g, &EigenDesignOptions::fast())
            .unwrap()
            .strategy;
        let err = rms_workload_error(&g, m, &eigen, &p).unwrap();
        let bound = rms_error_bound(&workload_eigenvalues(&g).unwrap(), m, &p);
        assert!(err >= bound * (1.0 - 1e-6), "err {err} below bound {bound}");
        let id_err = rms_workload_error(&g, m, &identity_strategy(n), &p).unwrap();
        assert!(
            err <= id_err * 1.01,
            "eigen {err} should not lose to identity {id_err}"
        );
    }
}

/// The Low-Rank Mechanism's rank knob is monotone: on a fixed workload, the
/// predicted RMS error (the Prop. 4 noise error of the subspace mechanism
/// plus the dropped-mass truncation-bias proxy) never increases as the
/// requested rank grows — more retained spectrum can only help.
#[test]
fn low_rank_predicted_error_is_monotone_in_rank() {
    use adaptive_dp::core::Engine;

    let p = PrivacyParams::paper_default();
    let ec = p.gaussian_error_constant();
    let n = 32usize;
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(800 + case);
        let w = RandomRangeWorkload::sample(Domain::one_dim(n), 40, &mut rng);
        let m = w.query_count();
        let mut prev = f64::INFINITY;
        for rank in [2usize, 4, 8, 16, 24] {
            let engine = Engine::builder()
                .privacy(PrivacyParams::paper_default())
                .low_rank(rank)
                .build()
                .unwrap();
            let (plan, _, _) = engine.select_plan_for(&w).unwrap();
            let lr = plan
                .as_low_rank()
                .expect("rank < n must yield a low-rank plan");
            let sens = lr.selection().strategy().l2_sensitivity();
            // A data scale far above the noise floor, so the truncation bias
            // dominates wherever mass is dropped.
            let err = lr.predicted_rms_error(m, ec, sens, 1e4).unwrap();
            assert!(
                err <= prev * (1.0 + 1e-6),
                "predicted error rose from {prev} to {err} at rank {rank} (case {case})"
            );
            prev = err;
        }
    }
}

/// Scaling every query of a workload by a constant scales the error of any
/// strategy by the same constant (error linearity, Sec. 3.4).
#[test]
fn error_scales_linearly_with_query_norm() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let scale = rng.gen_range(0.5f64..4.0);
        let w = ExplicitWorkload::new(
            "pair",
            vec![LinearQuery::range_1d(8, 0, 5), LinearQuery::cell(8, 3)],
        );
        let scaled = ExplicitWorkload::new(
            "scaled",
            vec![
                LinearQuery::range_1d(8, 0, 5).scaled(scale),
                LinearQuery::cell(8, 3).scaled(scale),
            ],
        );
        let p = PrivacyParams::paper_default();
        let s = identity_strategy(8);
        let e1 = rms_workload_error(&w.gram(), 2, &s, &p).unwrap();
        let e2 = rms_workload_error(&scaled.gram(), 2, &s, &p).unwrap();
        assert!(approx_eq(e2, scale * e1, 1e-7 * (1.0 + e2)));
    }
}
