//! Reducing passes and spans to the reported metrics, and the
//! `BENCHMARK.json` that declares them.

use crate::harness::{Interval, Pass};
use crate::plan::{Kind, SERVE_DEADLINE_MS, TAIL_Q};
use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::trace::{Span, Stage, NONE};
use std::collections::{BTreeMap, BTreeSet};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The command that runs one workload, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
/// Seconds one run measures: the closed-loop request counts are sized
/// from it, and it sets the length of the open-loop arrival schedule.
pub const RUN_SECONDS: u64 = 10;

/// End-to-end metrics of an untraced run: name, unit, whether higher is
/// better, and the bound — the share of the parent's median by which the
/// metric may worsen before a change counts as a regression.  Every time
/// takes the largest bound allowed: on a shared 2-vCPU VM other tenants
/// slow identical runs for minutes at a time, which moves the median of
/// ten runs by up to a fifth.  Error and memory are not timed and repeat
/// within a few percent.
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("setup_s", "s", false, 0.25),
    ("answer_p50_ms", "ms", false, 0.25),
    ("answer_tail_ms", "ms", false, 0.25),
    ("answers_per_s", "1/s", true, 0.25),
    ("rms_error_ratio", "ratio", false, 0.1),
    ("peak_rss_mb", "MB", false, 0.1),
];

/// Per-layer metrics of a traced run: name, unit, whether higher is
/// better.  `WORKLOADS.md` says which end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str, bool); 40] = [
    ("workload.gram_calls", "count", false),
    ("workload.gram_ms", "ms", false),
    ("workload.fingerprint_ms", "ms", false),
    ("workload.evaluate_ms", "ms", false),
    ("cache.hit_ratio", "ratio", true),
    ("cache.lookup_us", "us", false),
    ("select.ms", "ms", false),
    ("select.count", "count", false),
    ("select.eigen_ms", "ms", false),
    ("select.weighting_ms", "ms", false),
    ("select.factor_ms", "ms", false),
    ("select.trace_ms", "ms", false),
    ("store.writes", "count", false),
    ("store.reads", "count", false),
    ("store.save_ms", "ms", false),
    ("store.entry_kb", "KiB", false),
    ("noise.sample_ms", "ms", false),
    ("noise.draws", "count", false),
    ("linalg.matmul_ms", "ms", false),
    ("linalg.matmul_t_ms", "ms", false),
    ("linalg.trsm_ms", "ms", false),
    ("structured.select_ms", "ms", false),
    ("structured.cg_ms", "ms", false),
    ("structured.cg_applies", "count", false),
    ("structured.apply_ms", "ms", false),
    ("ledger.check_us", "us", false),
    ("ledger.charge_us", "us", false),
    ("ledger.charges", "count", false),
    ("serve.queue_wait_ms", "ms", false),
    ("serve.queue_depth_max", "count", false),
    ("serve.selection_jobs", "count", false),
    ("serve.coalesced", "count", false),
    ("serve.shed", "count", false),
    ("serve.expired", "count", false),
    ("serve.rejected", "count", false),
    ("serve.poll_ms", "ms", false),
    ("serve.generator_lag_p50_ms", "ms", false),
    ("serve.generator_lag_max_ms", "ms", false),
    ("trace.overhead_ratio", "ratio", false),
    ("trace.unattributed_share", "ratio", false),
];

/// Checks that a run reports exactly the metrics `BENCHMARK.json`
/// declares for its mode, in order and with the declared units.
pub fn check_declared(traced: bool, metrics: &[Metric]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "reported metrics {got:?} differ from the declared {want:?}"
        ))
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The contents of `BENCHMARK.json`: the command, the benchmark's paths, the
/// run length, the workloads with why each exists, and every metric.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let command = list(
        COMMAND
            .iter()
            .map(|c| format!("    {}", quoted(c)))
            .collect(),
    );
    let workloads = list(
        Kind::ALL
            .iter()
            .map(|k| {
                format!(
                    "    {{\n      \"name\": {},\n      \"why\": {}\n    }}",
                    quoted(k.name()),
                    quoted(k.why())
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|&(name, unit, higher, bound)| {
                format!(
                    "    {{\n      \"name\": {},\n      \"unit\": {},\n      \"better\": {},\n      \"bound\": {bound}\n    }}",
                    quoted(name),
                    quoted(unit),
                    quoted(better(higher))
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|&(name, unit, higher)| {
                format!(
                    "    {{\n      \"name\": {},\n      \"unit\": {},\n      \"better\": {}\n    }}",
                    quoted(name),
                    quoted(unit),
                    quoted(better(higher))
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\n    \"perfbench\"\n  ],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {workloads},\n  \"end_to_end\": {end_to_end},\n  \"per_layer\": {per_layer}\n}}\n"
    )
}

/// Metrics printed beside the end-to-end ones but not declared in
/// `BENCHMARK.json`, whose metrics must be non-zero on every workload:
/// the failed share (0 on a healthy run) and, for the open loop, the share
/// of requests answered within the deadline.
pub fn failure_metrics(kind: Kind, pass: &Pass) -> Vec<Metric> {
    let n = pass.latency_ms.len() as f64;
    let mut out = vec![metric("failed_share", pass.failed as f64 / n, "ratio")];
    if kind == Kind::ServeOpen {
        let limit = SERVE_DEADLINE_MS as f64;
        let met = pass.latency_ms.iter().filter(|&&l| l <= limit).count();
        out.push(metric("slo_attainment", met as f64 / n, "ratio"));
    }
    out
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setups_s: &[f64], pass: &Pass) -> Result<Vec<Metric>, String> {
    let answered = pass.latency_ms.len() - pass.failed;
    Ok(vec![
        metric("setup_s", median(setups_s), "s"),
        metric("answer_p50_ms", percentile(&pass.latency_ms, 50.0), "ms"),
        metric(
            "answer_tail_ms",
            tail_percentile(&pass.latency_ms, TAIL_Q)?,
            "ms",
        ),
        metric("answers_per_s", answered as f64 / pass.busy_s, "1/s"),
        metric("rms_error_ratio", pass.rms_error_ratio, "ratio"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Mean duration in ms of the spans of `stage` accepted by `keep`, 0 when
/// there are none.
fn mean_ms(spans: &[Span], stage: Stage, keep: impl Fn(&Span) -> bool) -> f64 {
    let (sum, count) = spans
        .iter()
        .filter(|s| s.stage == stage && keep(s))
        .fold((0u64, 0u64), |(sum, n), s| (sum + (s.end - s.start), n + 1));
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e6
    }
}

fn count(spans: &[Span], stage: Stage, keep: impl Fn(&Span) -> bool) -> f64 {
    spans.iter().filter(|s| s.stage == stage && keep(s)).count() as f64
}

fn amount(spans: &[Span], stage: Stage, keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.stage == stage && keep(s))
        .fold(0.0, |sum, s| sum + s.amount as f64)
}

/// Stages whose spans explain request time (the seams).
fn covers(stage: Stage) -> bool {
    matches!(
        stage,
        Stage::Gram
            | Stage::Evaluate
            | Stage::Select
            | Stage::StructuredSelect
            | Stage::Noise
            | Stage::LedgerCheck
            | Stage::LedgerCharge
    )
}

/// Share of request time that no seam span covers.  A request's own spans
/// count, and on the serving tier so do the worker's spans for the
/// workload the request waits on.
fn unattributed_share(intervals: &[Interval], spans: &[Span], request_wl: Option<&[u32]>) -> f64 {
    let mut by_req: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let mut by_wl: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| covers(s.stage)) {
        if s.req != NONE {
            by_req.entry(s.req).or_default().push((s.start, s.end));
        } else if s.wl != NONE {
            by_wl.entry(s.wl).or_default().push((s.start, s.end));
        }
    }
    let (mut total, mut covered) = (0u64, 0u64);
    for (i, iv) in intervals.iter().enumerate() {
        total += iv.end - iv.start;
        let mut parts: Vec<(u64, u64)> = by_req.get(&(i as u32)).cloned().unwrap_or_default();
        if let Some(wl) = request_wl.map(|w| w[i]) {
            parts.extend(by_wl.get(&wl).into_iter().flatten().copied());
        }
        let mut clipped: Vec<(u64, u64)> = parts
            .into_iter()
            .map(|(a, b)| (a.max(iv.start), b.min(iv.end)))
            .filter(|(a, b)| a < b)
            .collect();
        clipped.sort_unstable();
        let mut reach = iv.start;
        for (a, b) in clipped {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

/// The per-layer metrics of a traced run.  Every metric is reported for
/// every workload; a layer a workload never reaches reads 0.
pub fn per_layer(untraced: &Pass, traced: &Pass, spans: &[Span]) -> Vec<Metric> {
    let n = traced.latency_ms.len() as f64;
    let t0 = traced.started_ns;
    let pass = |s: &Span| s.start >= t0;
    let any = |_: &Span| true;
    let (before, after) = traced.engine_stats;
    let hits = (after.cache_hits - before.cache_hits)
        + (after.structured_cache_hits - before.structured_cache_hits);
    let lookups = hits
        + (after.cache_misses - before.cache_misses)
        + (after.structured_cache_misses - before.structured_cache_misses);
    let applies = count(spans, Stage::ReplayApply, pass);
    let cg_runs = count(spans, Stage::ReplayCg, pass);
    let saves = count(spans, Stage::ReplaySave, any);

    let serve = traced.serve.clone().unwrap_or_default();
    // Queue wait: from the founding request's send to the worker picking
    // up its selection job (the job instant right before the worker builds
    // that workload's gram).
    let mut waits = Vec::new();
    let mut worker: Vec<&Span> = spans
        .iter()
        .filter(|s| pass(s) && s.req == NONE && matches!(s.stage, Stage::WorkerJob | Stage::Gram))
        .collect();
    worker.sort_by_key(|s| s.start);
    let mut job_at = None;
    let mut measured = BTreeSet::new();
    for s in worker {
        match s.stage {
            Stage::WorkerJob => job_at = Some(s.start),
            _ => {
                if let (Some(job), Some(&sent)) = (job_at, serve.founding_send.get(&s.wl)) {
                    if measured.insert(s.wl) {
                        waits.push(job.saturating_sub(sent) as f64 / 1e6);
                    }
                }
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let (lag_p50, lag_max) = if serve.lag_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&serve.lag_ms, 50.0),
            serve.lag_ms.iter().copied().fold(0.0, f64::max),
        )
    };

    vec![
        metric(
            "workload.gram_calls",
            count(spans, Stage::Gram, pass) / n,
            "count",
        ),
        metric("workload.gram_ms", mean_ms(spans, Stage::Gram, pass), "ms"),
        metric(
            "workload.fingerprint_ms",
            mean_ms(spans, Stage::ReplayFingerprint, pass),
            "ms",
        ),
        metric(
            "workload.evaluate_ms",
            mean_ms(spans, Stage::Evaluate, pass),
            "ms",
        ),
        metric(
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        ),
        metric(
            "cache.lookup_us",
            mean_ms(spans, Stage::ReplayLookup, pass) * 1e3,
            "us",
        ),
        metric("select.ms", mean_ms(spans, Stage::Select, any), "ms"),
        metric(
            "select.count",
            (after.selections - before.selections) as f64,
            "count",
        ),
        metric(
            "select.eigen_ms",
            mean_ms(spans, Stage::ReplayEigen, any),
            "ms",
        ),
        metric(
            "select.weighting_ms",
            mean_ms(spans, Stage::ReplayWeighting, any),
            "ms",
        ),
        metric(
            "select.factor_ms",
            mean_ms(spans, Stage::ReplayFactor, any),
            "ms",
        ),
        metric(
            "select.trace_ms",
            mean_ms(spans, Stage::ReplayTrace, any),
            "ms",
        ),
        metric(
            "store.writes",
            (after.store_writes - before.store_writes) as f64,
            "count",
        ),
        metric("store.reads", count(spans, Stage::StoreRead, pass), "count"),
        metric(
            "store.save_ms",
            mean_ms(spans, Stage::ReplaySave, any),
            "ms",
        ),
        metric(
            "store.entry_kb",
            if saves == 0.0 {
                0.0
            } else {
                amount(spans, Stage::ReplaySave, any) / saves / 1024.0
            },
            "KiB",
        ),
        metric("noise.sample_ms", mean_ms(spans, Stage::Noise, pass), "ms"),
        metric(
            "noise.draws",
            amount(spans, Stage::Noise, pass) / n,
            "count",
        ),
        metric(
            "linalg.matmul_ms",
            mean_ms(spans, Stage::ReplayMatmul, pass),
            "ms",
        ),
        metric(
            "linalg.matmul_t_ms",
            mean_ms(spans, Stage::ReplayMatmulT, pass),
            "ms",
        ),
        metric(
            "linalg.trsm_ms",
            mean_ms(spans, Stage::ReplayTrsm, pass),
            "ms",
        ),
        metric(
            "structured.select_ms",
            mean_ms(spans, Stage::StructuredSelect, any),
            "ms",
        ),
        metric(
            "structured.cg_ms",
            mean_ms(spans, Stage::ReplayCg, pass),
            "ms",
        ),
        metric(
            "structured.cg_applies",
            if cg_runs == 0.0 {
                0.0
            } else {
                applies / cg_runs
            },
            "count",
        ),
        metric(
            "structured.apply_ms",
            mean_ms(spans, Stage::ReplayApply, pass),
            "ms",
        ),
        metric(
            "ledger.check_us",
            mean_ms(spans, Stage::LedgerCheck, pass) * 1e3,
            "us",
        ),
        metric(
            "ledger.charge_us",
            mean_ms(spans, Stage::LedgerCharge, pass) * 1e3,
            "us",
        ),
        metric(
            "ledger.charges",
            amount(spans, Stage::LedgerCharge, pass),
            "count",
        ),
        metric("serve.queue_wait_ms", mean(&waits), "ms"),
        metric(
            "serve.queue_depth_max",
            serve.queue_depth_max as f64,
            "count",
        ),
        metric(
            "serve.selection_jobs",
            serve.stats.selection_jobs as f64,
            "count",
        ),
        metric(
            "serve.coalesced",
            serve
                .pending_first
                .saturating_sub(serve.stats.selection_jobs as usize) as f64,
            "count",
        ),
        metric("serve.shed", serve.stats.shed as f64, "count"),
        metric(
            "serve.expired",
            serve.stats.deadline_expired as f64,
            "count",
        ),
        metric("serve.rejected", serve.stats.rejected as f64, "count"),
        metric("serve.poll_ms", mean_ms(spans, Stage::Poll, pass), "ms"),
        metric("serve.generator_lag_p50_ms", lag_p50, "ms"),
        metric("serve.generator_lag_max_ms", lag_max, "ms"),
        metric(
            "trace.overhead_ratio",
            percentile(&traced.latency_ms, 50.0) / percentile(&untraced.latency_ms, 50.0),
            "ratio",
        ),
        metric(
            "trace.unattributed_share",
            unattributed_share(
                &traced.intervals,
                spans,
                traced.serve.as_ref().map(|s| s.request_wl.as_slice()),
            ),
            "ratio",
        ),
    ]
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.  A non-finite value prints as
/// `null` (and the caller marks the run incorrect).
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
