//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result.  Exits 0 when every output check passed, 1
//! when a check failed or the run could not complete, 2 on bad arguments.
//!
//! `perfbench --describe` prints the `BENCHMARK.json` that declares the
//! workloads and metrics.

#![forbid(unsafe_code)]

use perfbench::harness::{self, Pass, KERNEL_THREADS};
use perfbench::plan::{Kind, Plan};
use perfbench::report::{self, Metric};
use perfbench::trace::Recorder;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <warm_dense|cold_select|structured_large|serve_open> \
     --seed <n> --seconds <n> --trace <0|1>\n       perfbench --describe";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-ups, then the timed pass, untraced.  An untraced run sets up
/// [`Kind::setups`] times so that `setup_s` is a median, and keeps the last
/// set-up; a traced run reports no `setup_s` and sets up once.
fn untraced(args: &Args, process_start: Instant) -> Result<(Vec<f64>, Pass), String> {
    let count = if args.trace { 1 } else { args.kind.setups() };
    let mut setups = Vec::with_capacity(count);
    let mut built = None;
    for k in 0..count {
        // Drop the previous set-up first: only one lives at a time.
        drop(built.take());
        let start = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let plan = Plan::build(args.kind, args.seed, args.seconds);
        let rig = harness::setup(&plan, None)?;
        setups.push(start.elapsed().as_secs_f64());
        built = Some((plan, rig));
    }
    let (plan, rig) = built.expect("at least one set-up");
    Ok((setups, harness::run(&plan, &rig)))
}

/// What one run reports.
struct Outcome {
    /// The declared metrics of the run's mode.
    metrics: Vec<Metric>,
    /// Metrics printed but not declared.
    extra: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Output checks that failed.
    problems: Vec<String>,
}

/// Runs the workload.
fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (setups, untraced) = untraced(args, process_start)?;
    let n = untraced.latency_ms.len();
    let extra = report::failure_metrics(args.kind, &untraced);
    if !args.trace {
        return Ok(Outcome {
            metrics: report::end_to_end(&setups, &untraced)?,
            extra,
            attempted: n,
            failed: untraced.failed,
            problems: untraced.problems,
        });
    }
    let plan = Plan::build(args.kind, args.seed, args.seconds);
    let rec = Recorder::new();
    let rig = harness::setup(&plan, Some(rec.clone()))?;
    harness::replay_warmup(&plan, &rig)?;
    let traced = harness::run(&plan, &rig);
    drop(rig);
    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    if let Some(i) = (0..n).find(|&i| untraced.digests[i] != traced.digests[i]) {
        problems.push(format!(
            "request {i}: traced answer differs from the untraced one"
        ));
    }
    Ok(Outcome {
        metrics: report::per_layer(&untraced, &traced, &rec.spans()),
        extra,
        attempted: n,
        failed: traced.failed.max(untraced.failed),
        problems,
    })
}

fn main() {
    let process_start = Instant::now();
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", report::benchmark_json());
        return;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    mm_linalg::parallel::set_max_threads(Some(KERNEL_THREADS));
    let Outcome {
        metrics,
        extra,
        attempted,
        failed,
        mut problems,
    } = match run(&args, process_start) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            std::process::exit(1);
        }
    };
    if let Err(e) = report::check_declared(args.trace, &metrics) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{} seed={} seconds={} trace={} requests={attempted} failed={failed} kernel_threads={KERNEL_THREADS}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in metrics.iter().chain(&extra) {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
