//! Seeded request plans.  A plan is everything the program under test
//! receives: workloads, data vectors, noise seeds, arrival times and
//! principals.  It is a pure function of the workload, the seed and the run
//! length, so the same arguments replay the same inputs.

use crate::stats::min_samples_for_tail;
use mm_workload::marginal::{MarginalKind, MarginalWorkload};
use mm_workload::range::AllRangeWorkload;
use mm_workload::transform::{seeded_permutation, PermutedWorkload};
use mm_workload::{Domain, RangeQueryWorkload, StructuredWorkload, Workload};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// A dense workload shared with the engine and the serving tier.
pub type DenseWorkload = Arc<dyn Workload + Send + Sync>;
/// A matrix-free workload.
pub type StructuredArc = Arc<dyn StructuredWorkload + Send + Sync>;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cache hits on one large dense workload.
    WarmDense,
    /// Every request a first-seen dense workload.
    ColdSelect,
    /// Matrix-free answers on two large interval workloads.
    StructuredLarge,
    /// Open-loop Poisson traffic through the serving tier.
    ServeOpen,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::WarmDense,
        Kind::ColdSelect,
        Kind::StructuredLarge,
        Kind::ServeOpen,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmDense => "warm_dense",
            Kind::ColdSelect => "cold_select",
            Kind::StructuredLarge => "structured_large",
            Kind::ServeOpen => "serve_open",
        }
    }

    /// Why the workload exists, with the settings it runs under; one line
    /// of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Kind::WarmDense => {
                "Closed loop, 1 client, 1 kernel thread: cache hits on all-range n=1024 (m=524800); \
                 only the hit path runs (key, mechanism, W*x evaluation). Tail is p90."
            }
            Kind::ColdSelect => {
                "Closed loop, 1 client, 1 kernel thread: each request a first-seen permuted dense \
                 workload (n=256-384, a third at n=384), fresh store; selection dominates. Tail is p90."
            }
            Kind::StructuredLarge => {
                "Closed loop, 1 client, 1 kernel thread: matrix-free answers, 2/3 n=65536 (Haar) \
                 and 1/3 n=49152 (hierarchical), 1024 intervals each; CG dominates. Tail is p90."
            }
            Kind::ServeOpen => {
                "Open loop, Poisson 20/s, 1 serve worker, 1 kernel thread, 1000 ms deadline: Zipf hot \
                 head (n=256-512) and first-seen tail (n=192), 32 ledgers. Tail is p90."
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests per second of `--seconds`.  The closed-loop rates are sized
    /// so that a run measures about `--seconds` on a 2-core x86-64 machine
    /// with one kernel thread; the request count, not the clock, ends a run,
    /// so the plan (and every error figure) repeats exactly for a seed.
    /// For `serve_open` it is the offered arrival rate.
    pub fn rate(self) -> f64 {
        match self {
            Kind::WarmDense => 16.0,
            Kind::ColdSelect => 7.5,
            Kind::StructuredLarge => 16.0,
            Kind::ServeOpen => SERVE_RATE,
        }
    }

    /// The fixed request count of a run of `seconds`: never fewer than the
    /// tail percentile needs, and whole rounds of the workload's mix, so
    /// every class of request appears in its stated share whatever the seed.
    pub fn requests(self, seconds: u64) -> usize {
        let n = (self.rate() * seconds as f64).ceil() as usize;
        let n = n.max(min_samples_for_tail(TAIL_Q));
        match self {
            Kind::ColdSelect => n.div_ceil(COLD_ROUND) * COLD_ROUND,
            Kind::StructuredLarge => n.div_ceil(STRUCTURED_ROUND) * STRUCTURED_ROUND,
            _ => n,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.  More where a
    /// set-up is short, so that one slow moment of the host moves it less.
    pub fn setups(self) -> usize {
        match self {
            Kind::WarmDense | Kind::ServeOpen => 3,
            Kind::ColdSelect => 5,
            Kind::StructuredLarge => 7,
        }
    }
}

/// The percentile reported as `answer_tail_ms` on every workload.  A run
/// has at least ten requests beyond it whatever its length, and 10 to 20
/// at `BENCHMARK.json`'s run length: a higher percentile would be read off
/// a handful of requests, and so off whichever moments the host was busy.
pub const TAIL_Q: f64 = 90.0;

/// Offered rate of `serve_open`, requests per second.  Low enough that the
/// generator thread, which assembles every answer, is idle at most
/// arrivals: the median request is then an unqueued hot hit, not one that
/// waited behind another, and does not flip between the two from seed to
/// seed.
pub const SERVE_RATE: f64 = 20.0;
/// Latency limit of `serve_open`: the serving tier's default deadline.
pub const SERVE_DEADLINE_MS: u64 = 1000;
/// Principals whose ledgers `serve_open` charges.
pub const SERVE_PRINCIPALS: usize = 32;
/// Share of `serve_open` requests that go to the hot head.
const SERVE_HOT_SHARE: f64 = 0.75;
/// First-seen tail workloads per `serve_open` request.  Enough that the
/// requests waiting on a selection are about a sixth of all, so the p90
/// falls well inside them; few enough that at `BENCHMARK.json`'s run
/// length the whole working set (4 hot + 22 tail workloads) fits the
/// engine's default cache of 32 plans, so every miss is a first sight.
const SERVE_TAIL_ITEMS_PER_REQUEST: f64 = 0.11;
/// Cells of every first-seen tail workload.  One size, so the requests
/// that wait on a selection form one cost class, clearly slower than the
/// hot head's hits, and the p90 falls inside it.
const SERVE_TAIL_N: usize = 192;
/// Requests per round of `cold_select`'s mix (see [`cold_bases`]).
const COLD_ROUND: usize = 6;
/// Seed of every plan's set-up inputs.
const SETUP_SEED: u64 = 0x5E7_0B5E;
/// Random intervals per `structured_large` workload.
const STRUCTURED_INTERVALS: usize = 1024;
/// Requests per round of `structured_large`: two Haar, one hierarchical.
/// Uneven, so the median and the tail each fall inside one plan's answers
/// rather than on the boundary between the two.
const STRUCTURED_ROUND: usize = 3;

/// Bases of `cold_select` with their requests per round.  Their misses
/// cost three levels: all-range 256 and the 8×8×6 marginals (rank
/// deficient, so the smallest eigen-design) about the same, all-range
/// 16×16 a little more, all-range 384 well over twice as much.  Each level
/// gets a third of the requests, so the median falls in the middle of the
/// middle level and the p90 inside the dearest one, not on a boundary
/// between two levels.
fn cold_bases() -> [(Spec, usize); 4] {
    [
        (Spec::AllRange(vec![256]), 1),
        (Spec::RangeMarginals(vec![8, 8, 6], 2), 1),
        (Spec::AllRange(vec![16, 16]), 2),
        (Spec::AllRange(vec![384]), 2),
    ]
}

/// One workload, described by value so plans compare and print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// All range queries over a (multi-dimensional) domain.
    AllRange(Vec<usize>),
    /// All `k`-way range marginals over a domain.
    RangeMarginals(Vec<usize>, usize),
    /// A base spec with its cells permuted by a seeded permutation.
    Permuted(Box<Spec>, u64),
    /// Inclusive intervals over `n` cells, answered matrix-free.
    Intervals(usize, Vec<(usize, usize)>),
}

impl Spec {
    /// Cells in the data vector.
    pub fn dim(&self) -> usize {
        match self {
            Spec::AllRange(d) | Spec::RangeMarginals(d, _) => d.iter().product(),
            Spec::Permuted(base, _) => base.dim(),
            Spec::Intervals(n, _) => *n,
        }
    }

    /// Builds the dense workload.  Panics on an interval spec.
    pub fn dense(&self) -> DenseWorkload {
        match self {
            Spec::AllRange(d) => Arc::new(AllRangeWorkload::new(Domain::new(d))),
            Spec::RangeMarginals(d, k) => Arc::new(MarginalWorkload::all_k_way(
                Domain::new(d),
                *k,
                MarginalKind::Range,
            )),
            Spec::Permuted(base, seed) => {
                let perm = seeded_permutation(base.dim(), *seed);
                match &**base {
                    Spec::AllRange(d) => Arc::new(PermutedWorkload::new(
                        AllRangeWorkload::new(Domain::new(d)),
                        perm,
                    )),
                    Spec::RangeMarginals(d, k) => Arc::new(PermutedWorkload::new(
                        MarginalWorkload::all_k_way(Domain::new(d), *k, MarginalKind::Range),
                        perm,
                    )),
                    other => panic!("cannot permute {other:?}"),
                }
            }
            Spec::Intervals(..) => panic!("interval specs are answered matrix-free"),
        }
    }

    /// Builds the matrix-free workload.  Panics on a dense spec.
    pub fn structured(&self) -> StructuredArc {
        match self {
            Spec::Intervals(n, ivs) => {
                Arc::new(RangeQueryWorkload::from_intervals(*n, ivs.clone()))
            }
            other => panic!("{other:?} is not matrix-free"),
        }
    }
}

/// One request: which workload, and the seeds of its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Plan::specs`].
    pub spec: usize,
    /// Seed of the data vector (see [`Plan::data`]).
    pub data_seed: u64,
    /// Seed of the noise draw (`StdRng::seed_from_u64`).
    pub noise_seed: u64,
    /// Scheduled send time from the start of the timed phase (open loop).
    pub send_at_us: u64,
    /// Principal charged (open loop).
    pub principal: usize,
}

/// A workload's complete, seeded input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which workload this plans.
    pub kind: Kind,
    /// Every workload a request or warm-up refers to.
    pub specs: Vec<Spec>,
    /// Requests run during set-up (not timed as requests).
    pub warmup: Vec<Request>,
    /// The timed requests, in send order.
    pub requests: Vec<Request>,
}

impl Plan {
    /// Builds the plan of `kind` for a seed and a run length.  The timed
    /// requests come from the seed; set-up's inputs come from a fixed
    /// stream, so set-up does the same work whatever the seed and
    /// `setup_s` moves only with the program and the host.
    pub fn build(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let stream = |s: u64| {
            StdRng::seed_from_u64(s ^ (kind as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let mut rng = stream(seed);
        let mut fixed = stream(SETUP_SEED);
        let count = kind.requests(seconds);
        match kind {
            Kind::WarmDense => {
                let specs = vec![Spec::AllRange(vec![1024])];
                let warmup = vec![request(&mut fixed, 0)];
                let requests = (0..count).map(|_| request(&mut rng, 0)).collect();
                Plan {
                    kind,
                    specs,
                    warmup,
                    requests,
                }
            }
            Kind::ColdSelect => {
                let bases = cold_bases();
                let mut specs = Vec::new();
                let mut warmup = Vec::new();
                for (base, _) in &bases {
                    warmup.push(request(&mut fixed, specs.len()));
                    specs.push(Spec::Permuted(Box::new(base.clone()), fixed.next_u64()));
                }
                let round: Vec<usize> = (0..bases.len())
                    .flat_map(|b| std::iter::repeat_n(b, bases[b].1))
                    .collect();
                debug_assert_eq!(round.len(), COLD_ROUND);
                let mut requests = Vec::new();
                for _ in 0..count / COLD_ROUND {
                    let mut order = round.clone();
                    shuffle(&mut rng, &mut order);
                    for b in order {
                        requests.push(request(&mut rng, specs.len()));
                        specs.push(Spec::Permuted(Box::new(bases[b].0.clone()), rng.next_u64()));
                    }
                }
                Plan {
                    kind,
                    specs,
                    warmup,
                    requests,
                }
            }
            Kind::StructuredLarge => {
                // The warm-up answers these, so they are set-up inputs too.
                let specs: Vec<Spec> = [65_536, 49_152]
                    .into_iter()
                    .map(|n| {
                        let ivs = (0..STRUCTURED_INTERVALS)
                            .map(|_| {
                                let lo = fixed.gen_range(0..n);
                                (lo, fixed.gen_range(lo..n))
                            })
                            .collect();
                        Spec::Intervals(n, ivs)
                    })
                    .collect();
                let warmup = vec![request(&mut fixed, 0), request(&mut fixed, 1)];
                let requests = (0..count)
                    .map(|i| request(&mut rng, usize::from(i % STRUCTURED_ROUND == 2)))
                    .collect();
                Plan {
                    kind,
                    specs,
                    warmup,
                    requests,
                }
            }
            Kind::ServeOpen => serve_plan(&mut rng, &mut fixed, count),
        }
    }

    /// The data vector of a request: cell counts in `0..1000`.
    pub fn data(&self, req: &Request) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(req.data_seed);
        (0..self.specs[req.spec].dim())
            .map(|_| rng.gen_range(0..1000u64) as f64)
            .collect()
    }
}

/// The hot head of `serve_open`, most popular first; all are selected in
/// set-up, so their requests are cache hits.  The most popular hits cost
/// the middle of the range, and about as many requests cost less (the 2nd
/// and 4th workloads, the tail's hits) as cost more (the 3rd, the misses):
/// the median is then near the middle of the most popular workload's hits,
/// and stays inside them when a slow host delays a share of all requests.
fn serve_hot_specs() -> Vec<Spec> {
    vec![
        Spec::AllRange(vec![16, 24]),
        Spec::AllRange(vec![256]),
        Spec::AllRange(vec![16, 32]),
        Spec::RangeMarginals(vec![8, 8, 4], 2),
    ]
}

fn serve_plan(rng: &mut StdRng, fixed: &mut StdRng, count: usize) -> Plan {
    let mut specs = serve_hot_specs();
    let hot = specs.len();
    let warmup = (0..hot).map(|s| request(fixed, s)).collect();
    let n_hot = (count as f64 * SERVE_HOT_SHARE).round() as usize;
    let n_items = ((count as f64 * SERVE_TAIL_ITEMS_PER_REQUEST).round() as usize).max(1);
    for _ in 0..n_items {
        specs.push(Spec::Permuted(
            Box::new(Spec::AllRange(vec![SERVE_TAIL_N])),
            rng.next_u64(),
        ));
    }
    // Zipf popularity within each group, with exact per-item counts so the
    // mix of request classes is the same for every seed; only the order
    // (and so the queueing) is random.  A tail workload's first two
    // requests arrive together, as when several clients discover a new
    // workload at once: the second joins the first one's selection flight.
    let mut units: Vec<Vec<usize>> = Vec::with_capacity(count);
    for (s, c) in zipf_counts(n_hot, hot, 0).into_iter().enumerate() {
        units.extend((0..c).map(|_| vec![s]));
    }
    for (t, c) in zipf_counts(count - n_hot, n_items, 1)
        .into_iter()
        .enumerate()
    {
        let s = hot + t;
        let paired = c.min(2);
        units.push(vec![s; paired]);
        units.extend((paired..c).map(|_| vec![s]));
    }
    shuffle(rng, &mut units);
    let mut first_unit = std::collections::BTreeMap::new();
    for (u, unit) in units.iter().enumerate() {
        if unit[0] >= hot {
            first_unit.entry(unit[0]).or_insert(u);
        }
    }
    for u in 0..units.len() {
        if units[u].len() == 2 {
            let first = first_unit[&units[u][0]];
            units.swap(first, u);
        }
    }
    // Poisson arrivals of the units, conditioned on their number: sorted
    // uniform times over count / rate seconds.  A pair's two requests share
    // their unit's send time.
    let span_us = (count as f64 / SERVE_RATE * 1e6) as u64;
    let mut times: Vec<u64> = (0..units.len())
        .map(|_| rng.gen_range(0..span_us))
        .collect();
    times.sort_unstable();
    let mut requests = Vec::with_capacity(count);
    for (unit, t) in units.into_iter().zip(times) {
        for spec in unit {
            requests.push(Request {
                send_at_us: t,
                principal: rng.gen_range(0..SERVE_PRINCIPALS),
                ..request(rng, spec)
            });
        }
    }
    Plan {
        kind: Kind::ServeOpen,
        specs,
        warmup,
        requests,
    }
}

/// The index of the first tail workload of a `serve_open` plan.
pub fn serve_hot_count() -> usize {
    serve_hot_specs().len()
}

fn request(rng: &mut StdRng, spec: usize) -> Request {
    Request {
        spec,
        data_seed: rng.next_u64(),
        noise_seed: rng.next_u64(),
        send_at_us: 0,
        principal: 0,
    }
}

/// Splits `total` over `items` by Zipf weights `1/rank` (largest
/// remainder), after giving each item `floor` first.
fn zipf_counts(total: usize, items: usize, floor: usize) -> Vec<usize> {
    assert!(
        total >= items * floor,
        "too few requests for the item floor"
    );
    let rest = total - items * floor;
    let weights: Vec<f64> = (1..=items).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| rest as f64 * w / sum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = rest - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts.iter().map(|c| c + floor).collect()
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}
