//! Table formatting, JSON output and command-line configuration shared by the
//! reproduction binaries, and the one report (`mm-bench/v2`) that the four
//! benches write and CI gates.

use mm_linalg::parallel;
use std::fmt::Write as _;

/// Command-line configuration for a reproduction binary.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Target number of cells (per experiment, interpreted by each binary).
    pub cells: usize,
    /// Whether the paper-scale sizes were requested.
    pub paper_scale: bool,
    /// Optional JSON output path.
    pub json_path: Option<String>,
    /// Privacy parameter ε used for workload error.
    pub epsilon: f64,
    /// Privacy parameter δ.
    pub delta: f64,
    /// Trials for Monte-Carlo (relative error) experiments.
    pub trials: usize,
    /// Seed for all randomised components.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cells: 256,
            paper_scale: false,
            json_path: None,
            epsilon: 0.5,
            delta: 1e-4,
            trials: 3,
            seed: 20120216, // the paper's arXiv submission date
        }
    }
}

impl RunConfig {
    /// Parses configuration from `std::env::args()`.
    pub fn from_args() -> Self {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// Parses configuration from an explicit argument list (for tests).
    pub fn from_arg_list<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut cfg = RunConfig::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--paper" => {
                    cfg.paper_scale = true;
                    cfg.cells = 2048;
                }
                "--cells" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        cfg.cells = v;
                    }
                }
                "--json" => cfg.json_path = iter.next(),
                "--epsilon" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        cfg.epsilon = v;
                    }
                }
                "--delta" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        cfg.delta = v;
                    }
                }
                "--trials" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        cfg.trials = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        cfg.seed = v;
                    }
                }
                other => eprintln!("ignoring unknown argument `{other}`"),
            }
        }
        cfg
    }

    /// The privacy parameters implied by this configuration.
    pub fn privacy(&self) -> mm_core::PrivacyParams {
        mm_core::PrivacyParams::new(self.epsilon, self.delta)
    }
}

/// Escapes `s` for use inside a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A printable experiment table (one per figure/table of the paper).
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Table title (which paper artifact it reproduces).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ExperimentTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let mut header_line = String::new();
        for (h, w) in self.headers.iter().zip(widths.iter()) {
            let _ = write!(header_line, "{h:<w$}  ");
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(widths.iter()) {
                let _ = write!(line, "{c:<w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the table as pretty-printed JSON (hand-rolled: the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        fn string_array(items: &[String], indent: &str) -> String {
            let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
            format!("{indent}[{}]", inner.join(", "))
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": \"{}\",", esc(&self.title));
        let _ = writeln!(
            out,
            "  \"headers\": {},",
            string_array(&self.headers, "").trim_start()
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "{}{}", string_array(row, "    "), sep);
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the table to stdout and optionally writes it as JSON.
    pub fn emit(&self, cfg: &RunConfig) {
        println!("{}", self.render());
        if let Some(path) = &cfg.json_path {
            if let Err(e) = std::fs::write(path, self.to_json()) {
                eprintln!("failed to write {path}: {e}");
            }
        }
    }
}

/// Schema identifier written into every bench report.
const BENCH_FORMAT: &str = "mm-bench/v2";

/// Tail quantiles a latency summary may report, highest first, in per mille.
const TAILS: [(&str, usize); 3] = [("p99.9", 999), ("p99", 990), ("p90", 900)];

/// One measured scenario of a bench report.
///
/// `total_ns` times the measured path and `baseline_ns`, where the scenario
/// has one, the path it is compared with.  Their ratio `baseline / total` is
/// what the printed summary shows and [`BenchReport::gate`] checks; it is
/// not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Scenario name (`matmul`, `cholesky`, `warm_start`, `structured`, …).
    pub scenario: String,
    /// Integer parameters (`n`, `k`, `r`, …), in insertion order.
    pub params: Vec<(String, usize)>,
    /// Nanoseconds of the measured path; non-finite is written as `null`.
    pub total_ns: f64,
    /// Nanoseconds of the baseline; `None` when the scenario has none.
    pub baseline_ns: Option<f64>,
    /// Named parts or summaries of the measurement, in insertion order.
    pub detail_ns: Vec<(String, f64)>,
}

impl BenchRecord {
    /// A record with no baseline and no details.
    pub fn new(scenario: impl Into<String>, params: &[(&str, usize)], total_ns: f64) -> Self {
        BenchRecord {
            scenario: scenario.into(),
            params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            total_ns,
            baseline_ns: None,
            detail_ns: Vec::new(),
        }
    }

    /// Summarises per-request latencies.  The median is the total, the
    /// sample count follows `params` as `samples`, and `detail_ns` holds the
    /// highest of `p90`, `p99` and `p99.9` that has at least ten samples
    /// beyond it, so below 100 samples the median stands alone.
    pub fn from_latencies(
        scenario: impl Into<String>,
        params: &[(&str, usize)],
        latencies_ns: &[f64],
    ) -> Self {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let len = sorted.len();
        let median = sorted.get(len / 2).copied().unwrap_or(f64::NAN);
        let mut record = BenchRecord::new(scenario, params, median);
        record.params.push(("samples".to_string(), len));
        let beyond = |per_mille: usize| len * (1000 - per_mille) / 1000;
        if let Some(&(name, per_mille)) = TAILS.iter().find(|&&(_, pm)| beyond(pm) >= 10) {
            let tail = sorted[len - 1 - beyond(per_mille)];
            record.detail_ns.push((name.to_string(), tail));
        }
        record
    }

    /// Sets the baseline the gate compares the total with.
    pub fn with_baseline(mut self, baseline_ns: f64) -> Self {
        self.baseline_ns = Some(baseline_ns);
        self
    }

    /// Appends one named detail.
    pub fn with_detail(mut self, name: &str, ns: f64) -> Self {
        self.detail_ns.push((name.to_string(), ns));
        self
    }

    /// The value of parameter `name`, if the record has it.
    pub fn param(&self, name: &str) -> Option<usize> {
        self.params.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// `baseline_ns / total_ns`, if the record has a baseline.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ns.map(|b| b / self.total_ns)
    }

    /// The scenario and its parameters, as the summary and gate print them.
    fn label(&self) -> String {
        let mut out = self.scenario.clone();
        for (k, v) in &self.params {
            let _ = write!(out, " {k}={v}");
        }
        out
    }
}

/// One bench run's report, written as `BENCH_<bench>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Bench name: `batch`, `selection`, `serving` or `large_domain`.
    pub bench: String,
    /// Whether the run used CI's short fixed-iteration mode.
    pub quick: bool,
    /// Kernel thread budget at bench time (`parallel::max_threads()`).
    pub threads: usize,
    /// Measured scenarios, in run order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report that records the current kernel thread budget.
    pub fn new(bench: &str, quick: bool) -> Self {
        BenchReport {
            bench: bench.to_string(),
            quick,
            threads: parallel::max_threads(),
            records: Vec::new(),
        }
    }

    /// Renders the report as pretty-printed JSON, one record per line
    /// (hand-rolled: the offline build has no serde).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        }
        fn object<T>(pairs: &[(String, T)], value: impl Fn(&T) -> String) -> String {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", esc(k), value(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"{BENCH_FORMAT}\",");
        let _ = writeln!(out, "  \"bench\": \"{}\",", esc(&self.bench));
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"params\": {}, \"total_ns\": {}, \
                 \"baseline_ns\": {}, \"detail_ns\": {}}}{sep}",
                esc(&r.scenario),
                object(&r.params, |v| v.to_string()),
                num(r.total_ns),
                num(r.baseline_ns.unwrap_or(f64::NAN)),
                object(&r.detail_ns, |&v| num(v)),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The one CI gate: every `scenario` record that `which` selects and that
    /// has a baseline must reach `baseline_ns / total_ns >= min_speedup`.  A
    /// NaN ratio fails, and so does a call that compares no record.  Returns
    /// what was compared, or the failures.
    pub fn gate(
        &self,
        scenario: &str,
        which: impl Fn(&BenchRecord) -> bool,
        min_speedup: f64,
    ) -> Result<String, String> {
        let mut compared = 0usize;
        let mut lowest = f64::INFINITY;
        let mut failures = Vec::new();
        for r in self
            .records
            .iter()
            .filter(|r| r.scenario == scenario && which(r))
        {
            let Some(speedup) = r.speedup() else {
                continue;
            };
            compared += 1;
            lowest = lowest.min(speedup);
            if speedup.is_nan() || speedup < min_speedup {
                failures.push(format!("{}: {speedup:.2}x < {min_speedup:.2}x", r.label()));
            }
        }
        if compared == 0 {
            Err(format!("no `{scenario}` record with a baseline matches"))
        } else if failures.is_empty() {
            Ok(format!(
                "{scenario}: {compared} compared, lowest {lowest:.2}x >= {min_speedup:.2}x"
            ))
        } else {
            Err(failures.join("; "))
        }
    }
}

fn n_at_least(min: usize) -> impl Fn(&BenchRecord) -> bool {
    move |r| r.param("n").is_some_and(|n| n >= min)
}

/// `batch_answering`: at K ≥ 8 the batched solve and the batched engine
/// answer must not lose to the per-vector loop.  `matmul`'s K ≥ 8 margin is
/// about 1.5x, thin enough for a noisy shared runner to trip, so it is
/// recorded but not gated.
pub fn batch_gates(report: &BenchReport) -> Vec<Result<String, String>> {
    let wide = |r: &BenchRecord| r.param("k").is_some_and(|k| k >= 8);
    vec![
        report.gate("solve_multi", wide, 1.0),
        report.gate("engine_answer_batch", wide, 1.0),
    ]
}

/// `selection_latency`: the blocked Cholesky must beat the scalar reference
/// at n ≥ 512, and the Low-Rank Mechanism's cold miss must beat the full
/// dense miss at n ≥ 4096, checked on its own at r = 16 and at r = 64.  The
/// eigen, full-path and hit ratios, and r = 256, whose margin depends on the
/// truncated eigensolver's iteration count, are recorded but not gated.
pub fn selection_gates(report: &BenchReport) -> Vec<Result<String, String>> {
    let low_rank = |rank| move |r: &BenchRecord| n_at_least(4096)(r) && r.param("r") == Some(rank);
    vec![
        report.gate("cholesky", n_at_least(512), 1.0),
        report.gate("selection_low_rank", low_rank(16), 1.0),
        report.gate("selection_low_rank", low_rank(64), 1.0),
    ]
}

/// `serving_soak`: a restart that decodes the stored selection must be at
/// least 5x faster than one that recomputes it, at n ≥ 1024.
pub fn serving_gates(report: &BenchReport) -> Vec<Result<String, String>> {
    vec![report.gate("warm_start", n_at_least(1024), 5.0)]
}

/// `large_domain`: the matrix-free path must not lose to the materialised
/// baseline at n ≥ 4096, and it must complete n = 65 536, where the
/// baseline cannot run.
pub fn large_domain_gates(report: &BenchReport) -> Vec<Result<String, String>> {
    let completed = report.records.iter().any(|r| {
        r.scenario == "structured" && r.param("n") == Some(65536) && r.total_ns.is_finite()
    });
    vec![
        report.gate("structured", n_at_least(4096), 1.0),
        if completed {
            Ok("structured completed n=65536".to_string())
        } else {
            Err("structured n=65536 missing or unmeasured".to_string())
        },
    ]
}

/// The three environment settings every bench reads, read in one place.
#[derive(Debug)]
pub struct BenchEnv {
    /// `MM_BENCH_QUICK=1`: CI's short fixed-iteration mode.
    pub quick: bool,
    /// `MM_BENCH_JSON`: where the report goes; by default
    /// `BENCH_<bench>.json` at the workspace root.
    json_path: Option<String>,
    /// `MM_BENCH_GATE=1`: check the bench's gate clauses.
    gate: bool,
}

impl BenchEnv {
    /// Reads `MM_BENCH_QUICK`, `MM_BENCH_JSON` and `MM_BENCH_GATE`.
    pub fn read() -> Self {
        let on = |name| std::env::var(name).is_ok_and(|v| v == "1");
        BenchEnv {
            quick: on("MM_BENCH_QUICK"),
            json_path: std::env::var("MM_BENCH_JSON").ok(),
            gate: on("MM_BENCH_GATE"),
        }
    }

    /// Prints the summary, writes the report and, under `MM_BENCH_GATE=1`,
    /// checks the bench's gate clauses (`batch_gates`, …).  Exits 1 if the
    /// write or a clause fails.
    pub fn emit(
        &self,
        report: &BenchReport,
        gates: fn(&BenchReport) -> Vec<Result<String, String>>,
    ) {
        println!("\n== {}: total and baseline / total ==", report.bench);
        for r in &report.records {
            let speedup = r
                .speedup()
                .map_or(String::new(), |s| format!("  {s:>12.2}x"));
            println!("{:<48} {:>16.0} ns{speedup}", r.label(), r.total_ns);
        }
        let path = self.json_path.clone().unwrap_or_else(|| {
            // Anchored on the crate manifest, so the report lands at the
            // workspace root whatever the invoking directory.
            format!(
                "{}/../../BENCH_{}.json",
                env!("CARGO_MANIFEST_DIR"),
                report.bench
            )
        });
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {path}");
        if !self.gate {
            return;
        }
        let mut failed = false;
        for clause in gates(report) {
            match clause {
                Ok(passed) => println!("perf gate passed: {passed}"),
                Err(failures) => {
                    eprintln!("perf gate FAILED: {failures}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "inf".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parsing() {
        let cfg = RunConfig::from_arg_list(
            [
                "--cells",
                "512",
                "--epsilon",
                "1.0",
                "--trials",
                "7",
                "--json",
                "/tmp/x.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(cfg.cells, 512);
        assert_eq!(cfg.epsilon, 1.0);
        assert_eq!(cfg.trials, 7);
        assert_eq!(cfg.json_path.as_deref(), Some("/tmp/x.json"));
        let paper = RunConfig::from_arg_list(["--paper".to_string()]);
        assert!(paper.paper_scale);
        assert_eq!(paper.cells, 2048);
    }

    #[test]
    fn table_rendering() {
        let mut t = ExperimentTable::new("Test", &["a", "method"]);
        t.push_row(vec!["1".into(), "wavelet".into()]);
        t.push_row(vec!["2".into(), "eigen".into()]);
        let s = t.render();
        assert!(s.contains("Test"));
        assert!(s.contains("wavelet"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(0.012345), "0.0123");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = ExperimentTable::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    fn record(scenario: &str, params: &[(&str, usize)], total: f64, baseline: f64) -> BenchRecord {
        BenchRecord::new(scenario, params, total).with_baseline(baseline)
    }

    /// Runs one bench's gate clauses over `records`; the failures, joined.
    fn check(
        gates: fn(&BenchReport) -> Vec<Result<String, String>>,
        records: Vec<BenchRecord>,
    ) -> Result<(), String> {
        let report = BenchReport {
            bench: "test".into(),
            quick: true,
            threads: 1,
            records,
        };
        let failures: Vec<String> = gates(&report).into_iter().filter_map(Result::err).collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    #[test]
    fn report_json_schema() {
        let mut report = BenchReport::new("batch", true);
        report.threads = 4;
        report
            .records
            .push(record("matmul", &[("n", 256), ("k", 8)], 1000.0, 4000.0));
        report.records.push(
            BenchRecord::new("structured", &[("n", 65536), ("queries", 1024)], 5000.0)
                .with_detail("select", 1000.0)
                .with_detail("answer", 4000.0),
        );
        let json = report.to_json();
        assert!(
            json.starts_with("{\n  \"format\": \"mm-bench/v2\",\n"),
            "{json}"
        );
        assert!(json.contains("\"bench\": \"batch\""), "{json}");
        assert!(json.contains("\"quick\": true"), "{json}");
        assert!(json.contains("\"threads\": 4"), "{json}");
        assert!(json.contains(
            "{\"scenario\": \"matmul\", \"params\": {\"n\": 256, \"k\": 8}, \
             \"total_ns\": 1000.0, \"baseline_ns\": 4000.0, \"detail_ns\": {}},\n"
        ));
        assert!(json.contains(
            "\"baseline_ns\": null, \"detail_ns\": {\"select\": 1000.0, \"answer\": 4000.0}}\n"
        ));
        assert!(!json.contains("speedup"), "{json}");
    }

    #[test]
    fn writer_nulls_non_finite_timings_escapes_names_and_keeps_param_order() {
        let mut report = BenchReport::new("x", false);
        report.records.push(
            BenchRecord::new("a \"b\"\\c\n", &[("z", 1), ("a", 2), ("m", 3)], f64::NAN)
                .with_baseline(f64::INFINITY)
                .with_detail("p\t90", f64::NEG_INFINITY),
        );
        let json = report.to_json();
        assert!(
            json.contains("\"scenario\": \"a \\\"b\\\"\\\\c\\n\""),
            "{json}"
        );
        assert!(
            json.contains("\"params\": {\"z\": 1, \"a\": 2, \"m\": 3}"),
            "{json}"
        );
        assert!(
            json.contains("\"total_ns\": null, \"baseline_ns\": null"),
            "{json}"
        );
        assert!(json.contains("\"detail_ns\": {\"p\\t90\": null}"), "{json}");
    }

    #[test]
    fn latency_tails_need_ten_samples_beyond_them() {
        let samples = |count: usize| -> Vec<f64> { (1..=count).rev().map(|i| i as f64).collect() };
        let r = BenchRecord::from_latencies("soak", &[("n", 48)], &samples(99));
        assert_eq!(r.total_ns, 50.0);
        assert_eq!(r.params, vec![("n".into(), 48), ("samples".into(), 99)]);
        assert!(r.detail_ns.is_empty(), "{:?}", r.detail_ns);
        let r = BenchRecord::from_latencies("soak", &[], &samples(100));
        assert_eq!(r.detail_ns, vec![("p90".into(), 90.0)]);
        let r = BenchRecord::from_latencies("soak", &[], &samples(512));
        assert_eq!(r.detail_ns, vec![("p90".into(), 461.0)]);
        let r = BenchRecord::from_latencies("soak", &[], &samples(1000));
        assert_eq!(r.total_ns, 501.0);
        assert_eq!(r.detail_ns, vec![("p99".into(), 990.0)]);
        let r = BenchRecord::from_latencies("start", &[], &[3.0, 1.0, 2.0]);
        assert_eq!((r.total_ns, r.param("samples")), (2.0, Some(3)));
        assert!(r.detail_ns.is_empty());
        let r = BenchRecord::from_latencies("none", &[], &[]);
        assert!(r.total_ns.is_nan());
    }

    #[test]
    fn batch_gate_clause() {
        let passing = || {
            vec![
                // matmul is recorded but not gated; K = 1 is exempt.
                record("matmul", &[("n", 256), ("k", 8)], 100.0, 50.0),
                record("solve_multi", &[("n", 256), ("k", 1)], 100.0, 80.0),
                record("solve_multi", &[("n", 256), ("k", 8)], 100.0, 150.0),
                record(
                    "engine_answer_batch",
                    &[("n", 256), ("k", 64)],
                    100.0,
                    500.0,
                ),
            ]
        };
        assert_eq!(check(batch_gates, passing()), Ok(()));
        let mut losing = passing();
        losing.push(record(
            "engine_answer_batch",
            &[("n", 1024), ("k", 8)],
            100.0,
            90.0,
        ));
        let err = check(batch_gates, losing).unwrap_err();
        assert!(
            err.contains("engine_answer_batch n=1024 k=8: 0.90x < 1.00x"),
            "{err}"
        );
        let mut nan = passing();
        nan[2].total_ns = f64::NAN;
        assert!(check(batch_gates, nan).is_err());
        // With nothing at K >= 8 for solve_multi, the clause compares no
        // record and fails.
        let mut empty = passing();
        empty.remove(2);
        let err = check(batch_gates, empty).unwrap_err();
        assert!(err.contains("no `solve_multi` record"), "{err}");
    }

    #[test]
    fn selection_cholesky_gate_clause() {
        let passing = || {
            vec![
                record("cholesky", &[("n", 256)], 100.0, 90.0),
                record("cholesky", &[("n", 512)], 100.0, 300.0),
                record("eigen", &[("n", 512)], 100.0, 10.0),
                record("selection_low_rank", &[("n", 4096), ("r", 16)], 1.0, 9.0),
                record("selection_low_rank", &[("n", 4096), ("r", 64)], 1.0, 9.0),
            ]
        };
        assert_eq!(check(selection_gates, passing()), Ok(()));
        let mut losing = passing();
        losing.push(record("cholesky", &[("n", 2048)], 100.0, 80.0));
        let err = check(selection_gates, losing).unwrap_err();
        assert!(err.contains("cholesky n=2048: 0.80x < 1.00x"), "{err}");
        let mut nan = passing();
        nan[1].baseline_ns = Some(f64::NAN);
        assert!(check(selection_gates, nan).is_err());
        let mut empty = passing();
        empty.remove(1);
        let err = check(selection_gates, empty).unwrap_err();
        assert!(err.contains("no `cholesky` record"), "{err}");
    }

    #[test]
    fn selection_low_rank_gate_clause() {
        let passing = || {
            vec![
                record("cholesky", &[("n", 512)], 100.0, 300.0),
                record("selection_low_rank", &[("n", 1024), ("r", 16)], 100.0, 50.0),
                record("selection_low_rank", &[("n", 4096), ("r", 16)], 1.0, 9.0),
                record("selection_low_rank", &[("n", 4096), ("r", 64)], 1.0, 9.0),
                record("selection_low_rank", &[("n", 4096), ("r", 256)], 9.0, 1.0),
            ]
        };
        assert_eq!(check(selection_gates, passing()), Ok(()));
        let mut losing = passing();
        losing[3].total_ns = 10.0;
        let err = check(selection_gates, losing).unwrap_err();
        assert!(
            err.contains("selection_low_rank n=4096 r=64: 0.90x < 1.00x"),
            "{err}"
        );
        let mut nan = passing();
        nan[2].total_ns = f64::NAN;
        assert!(check(selection_gates, nan).is_err());
        // r = 16 and r = 64 are separate clauses: one alone does not pass.
        let mut empty = passing();
        empty.remove(3);
        let err = check(selection_gates, empty).unwrap_err();
        assert!(err.contains("no `selection_low_rank` record"), "{err}");
    }

    #[test]
    fn serving_warm_restart_gate_clause() {
        let passing = || {
            vec![
                BenchRecord::from_latencies("cold_start", &[("n", 1024)], &[100_000.0]),
                BenchRecord::from_latencies("warm_start", &[("n", 1024)], &[10_000.0])
                    .with_baseline(100_000.0),
                BenchRecord::from_latencies("warm_start", &[("n", 512)], &[50_000.0])
                    .with_baseline(100_000.0),
                BenchRecord::from_latencies("soak_warm", &[("n", 48)], &[10.0]),
            ]
        };
        assert_eq!(check(serving_gates, passing()), Ok(()));
        let mut losing = passing();
        losing[1].total_ns = 25_000.0;
        let err = check(serving_gates, losing).unwrap_err();
        assert!(
            err.contains("warm_start n=1024 samples=1: 4.00x < 5.00x"),
            "{err}"
        );
        let mut nan = passing();
        nan[1].baseline_ns = Some(f64::NAN);
        assert!(check(serving_gates, nan).is_err());
        let mut empty = passing();
        empty[1].baseline_ns = None;
        let err = check(serving_gates, empty).unwrap_err();
        assert!(err.contains("no `warm_start` record"), "{err}");
    }

    #[test]
    fn large_domain_gate_clause() {
        let structured = |n: usize, total: f64| {
            BenchRecord::new("structured", &[("n", n), ("queries", 1024)], total)
        };
        let passing = || {
            vec![
                structured(1024, 1000.0).with_baseline(500.0),
                structured(4096, 1000.0).with_baseline(900_000.0),
                structured(65536, 7000.0),
            ]
        };
        assert_eq!(check(large_domain_gates, passing()), Ok(()));
        let mut losing = passing();
        losing.push(structured(8192, 1000.0).with_baseline(900.0));
        let err = check(large_domain_gates, losing).unwrap_err();
        assert!(
            err.contains("structured n=8192 queries=1024: 0.90x < 1.00x"),
            "{err}"
        );
        let mut nan = passing();
        nan[1].total_ns = f64::NAN;
        assert!(check(large_domain_gates, nan).is_err());
        let mut empty = passing();
        empty[1].baseline_ns = None;
        let err = check(large_domain_gates, empty).unwrap_err();
        assert!(err.contains("no `structured` record"), "{err}");
        // The headline size must be present and measured.
        let mut missing = passing();
        missing.pop();
        let err = check(large_domain_gates, missing).unwrap_err();
        assert!(err.contains("structured n=65536"), "{err}");
        let mut unmeasured = passing();
        unmeasured[2].total_ns = f64::NAN;
        assert!(check(large_domain_gates, unmeasured).is_err());
    }
}
