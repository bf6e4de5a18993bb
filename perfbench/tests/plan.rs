//! The benchmark's own tests: plans replay from their seed, the program
//! under test receives nothing but the plan's inputs, tail percentiles
//! refuse thin tails, and `BENCHMARK.json` matches the code.

use mm_core::{Engine, PrivacyParams};
use perfbench::harness::{self, KERNEL_THREADS, SERVE_WORKERS};
use perfbench::plan::{
    Kind, Plan, Request, Spec, SERVE_DEADLINE_MS, SERVE_PRINCIPALS, SERVE_RATE, TAIL_Q,
};
use perfbench::report::{benchmark_json, RUN_SECONDS};
use perfbench::stats::{digest, min_samples_for_tail, tail_percentile, MIN_TAIL_BEYOND};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn same_seed_same_plan_and_other_seed_other_plan() {
    for kind in Kind::ALL {
        let a = Plan::build(kind, 7, 1);
        let b = Plan::build(kind, 7, 1);
        assert_eq!(a, b, "{}: plan must be a function of the seed", kind.name());
        for req in a.requests.iter().take(3) {
            assert_eq!(a.data(req), b.data(req));
        }
        let c = Plan::build(kind, 8, 1);
        assert_eq!(
            a.requests.len(),
            c.requests.len(),
            "the count does not depend on the seed"
        );
        let noise = |p: &Plan| p.requests.iter().map(|r| r.noise_seed).collect::<Vec<_>>();
        assert_ne!(noise(&a), noise(&c), "{}: noise seeds", kind.name());
        assert_ne!(
            a.data(&a.requests[0]),
            c.data(&c.requests[0]),
            "{}: data vectors",
            kind.name()
        );
        match kind {
            Kind::ServeOpen => {
                let times = |p: &Plan| p.requests.iter().map(|r| r.send_at_us).collect::<Vec<_>>();
                assert_ne!(times(&a), times(&c), "arrival times");
            }
            Kind::WarmDense | Kind::StructuredLarge => {
                assert_eq!(a.specs, c.specs, "{}: fixed workloads", kind.name())
            }
            _ => assert_ne!(a.specs, c.specs, "{}: workloads", kind.name()),
        }
        // Set-up does the same work whatever the seed.
        assert_eq!(a.warmup, c.warmup, "{}: warm-up requests", kind.name());
        for req in &a.warmup {
            assert_eq!(a.specs[req.spec], c.specs[req.spec], "{}", kind.name());
        }
    }
}

#[test]
fn serve_plan_has_the_stated_mix() {
    let plan = Plan::build(Kind::ServeOpen, 3, 15);
    let hot = perfbench::plan::serve_hot_count();
    let n = plan.requests.len();
    let to_hot = plan.requests.iter().filter(|r| r.spec < hot).count();
    assert_eq!(to_hot, (n as f64 * 0.75).round() as usize);
    // Every tail workload's first two requests are sent together.
    for t in hot..plan.specs.len() {
        let at: Vec<usize> = (0..n).filter(|&i| plan.requests[i].spec == t).collect();
        if at.len() >= 2 {
            assert_eq!(at[1], at[0] + 1, "tail workload {t}");
            assert_eq!(
                plan.requests[at[0]].send_at_us, plan.requests[at[1]].send_at_us,
                "tail workload {t}"
            );
        }
    }
    assert!(plan
        .requests
        .windows(2)
        .all(|w| w[0].send_at_us <= w[1].send_at_us));
}

#[test]
fn tail_has_ten_beyond_at_every_run_length() {
    assert_eq!(min_samples_for_tail(TAIL_Q), 100);
    for seconds in 1..=RUN_SECONDS {
        for kind in Kind::ALL {
            let n = Plan::build(kind, 1, seconds).requests.len();
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(
                tail_percentile(&samples, TAIL_Q).is_ok(),
                "{} at {seconds} s: {n} requests",
                kind.name()
            );
        }
    }
}

#[test]
fn min_samples_for_tail_is_the_floor_tail_percentile_accepts() {
    for q in [50.0, 90.0, 95.0, 96.0, 99.0] {
        let n = min_samples_for_tail(q);
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert!(tail_percentile(&samples, q).is_ok(), "p{q} of {n}");
        assert!(
            tail_percentile(&samples[1..], q).is_err(),
            "p{q} of {}",
            n - 1
        );
    }
}

/// Ranks of the median and the tail among `n` requests whose cost classes,
/// cheapest first, hold `counts` requests: each must lie at least
/// [`MIN_TAIL_BEYOND`] ranks from every boundary between two classes.
fn assert_inside_classes(what: &str, n: usize, counts: &[usize]) {
    assert_eq!(counts.iter().sum::<usize>(), n, "{what}");
    let boundaries: Vec<usize> = counts
        .iter()
        .scan(0, |end, c| {
            *end += c;
            Some(*end)
        })
        .filter(|&end| end < n)
        .collect();
    for q in [50.0, TAIL_Q] {
        let rank = (q / 100.0 * n as f64).ceil() as usize;
        for &b in &boundaries {
            assert!(
                rank.abs_diff(b) >= MIN_TAIL_BEYOND,
                "{what}: p{q} is rank {rank} of {n}, next to a class boundary at {b}"
            );
        }
    }
}

/// Where a workload mixes requests of different cost, the median and the
/// tail each fall well inside one cost class, not on a boundary.
#[test]
fn median_and_tail_fall_inside_one_cost_class() {
    // structured_large: the Haar and hierarchical answers cost about the
    // same, so either may be the dearer.
    let plan = Plan::build(Kind::StructuredLarge, 1, RUN_SECONDS);
    let n = plan.requests.len();
    let haar = plan.requests.iter().filter(|r| r.spec == 0).count();
    assert_inside_classes("structured, Haar cheaper", n, &[haar, n - haar]);
    assert_inside_classes("structured, Haar dearer", n, &[n - haar, haar]);

    // cold_select: misses at all-range 256 and on the 8x8x6 marginals cost
    // about the same, all-range 16x16 a little more, all-range 384 most.
    let plan = Plan::build(Kind::ColdSelect, 1, RUN_SECONDS);
    let mut levels = [0usize; 3];
    for r in &plan.requests {
        let Spec::Permuted(base, _) = &plan.specs[r.spec] else {
            panic!("cold requests are permuted bases");
        };
        let level = match &**base {
            Spec::AllRange(d) if d == &[16, 16] => 1,
            Spec::AllRange(d) if d == &[384] => 2,
            _ => 0,
        };
        levels[level] += 1;
    }
    assert_inside_classes("cold_select", plan.requests.len(), &levels);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples, 90.0), Ok(90.0));
    assert!(
        tail_percentile(&samples, 95.0).is_err(),
        "only 5 beyond p95"
    );
    assert!(
        tail_percentile(&samples[..19], 50.0).is_err(),
        "9 beyond p50 of 19"
    );
    assert!(tail_percentile(&[], 50.0).is_err());
}

fn small_request(spec: usize, seed: u64, send_at_us: u64, principal: usize) -> Request {
    Request {
        spec,
        data_seed: seed,
        noise_seed: seed.wrapping_mul(31).wrapping_add(7),
        send_at_us,
        principal,
    }
}

/// Recomputes every answer of a pass from the plan's inputs alone, on a
/// fresh engine that has never seen the harness: equal digests mean the
/// engine received the plan's workloads, data vectors and noise seeds, and
/// nothing else that changed its answers.
fn assert_answers_come_from_plan(plan: &Plan) {
    let rig = harness::setup(plan, None).expect("set-up");
    let pass = harness::run(plan, &rig);
    assert!(pass.problems.is_empty(), "{:?}", pass.problems);
    let fresh = Engine::new(PrivacyParams::paper_default());
    for (i, req) in plan.requests.iter().enumerate() {
        let x = plan.data(req);
        let mut rng = StdRng::seed_from_u64(req.noise_seed);
        let answers = match &plan.specs[req.spec] {
            spec @ Spec::Intervals(..) => {
                fresh
                    .answer_structured(&*spec.structured(), &x, &mut rng)
                    .expect("answer")
                    .answers
            }
            spec => {
                fresh
                    .answer(&*spec.dense(), &x, &mut rng)
                    .expect("answer")
                    .answers
            }
        };
        assert_eq!(pass.digests[i], digest(&answers), "request {i}");
    }
}

#[test]
fn closed_loop_passes_only_plan_inputs() {
    // A structured_large plan runs the closed loop with no workload-specific
    // counter checks, so it can mix dense and matrix-free requests.
    let plan = Plan {
        kind: Kind::StructuredLarge,
        specs: vec![
            Spec::AllRange(vec![8]),
            Spec::Permuted(Box::new(Spec::AllRange(vec![4, 4])), 11),
            Spec::Permuted(Box::new(Spec::AllRange(vec![12])), 12),
            Spec::Intervals(64, vec![(0, 9), (3, 40), (63, 63)]),
        ],
        warmup: vec![small_request(0, 1, 0, 0)],
        requests: (0..6)
            .map(|i| small_request(1 + i % 3, 100 + i as u64, 0, 0))
            .collect(),
    };
    assert_answers_come_from_plan(&plan);
}

#[test]
fn open_loop_passes_only_plan_inputs() {
    let hot = perfbench::plan::serve_hot_count();
    let mut specs: Vec<Spec> = (0..hot).map(|k| Spec::AllRange(vec![6 + k])).collect();
    specs.push(Spec::Permuted(Box::new(Spec::AllRange(vec![10])), 5));
    specs.push(Spec::Permuted(Box::new(Spec::AllRange(vec![9])), 6));
    let requests = (0..12)
        .map(|i| small_request(i % (hot + 2), 200 + i as u64, 500 * i as u64, i % 3))
        .collect();
    let plan = Plan {
        kind: Kind::ServeOpen,
        warmup: (0..hot)
            .map(|s| small_request(s, 300 + s as u64, 0, 0))
            .collect(),
        specs,
        requests,
    };
    assert_answers_come_from_plan(&plan);
}

#[test]
fn benchmark_json_is_the_declared_one() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate it with `python3 perfbench/steady.py` or `perfbench --describe`"
    );
}

#[test]
fn whys_state_the_settings_the_code_uses() {
    for kind in Kind::ALL {
        let why = kind.why();
        assert!(
            why.len() <= 200 && why.is_ascii(),
            "{}: one short line",
            kind.name()
        );
        assert!(
            why.contains(&format!("{KERNEL_THREADS} kernel thread")),
            "{}",
            kind.name()
        );
        assert!(
            why.contains(&format!("Tail is p{TAIL_Q}.")),
            "{}",
            kind.name()
        );
    }
    let serve = Kind::ServeOpen.why();
    assert!(serve.contains(&format!("Poisson {SERVE_RATE}/s")));
    assert!(serve.contains(&format!("{SERVE_WORKERS} serve worker")));
    assert!(serve.contains(&format!("{SERVE_DEADLINE_MS} ms deadline")));
    assert!(serve.contains(&format!("{SERVE_PRINCIPALS} ledgers")));
}
