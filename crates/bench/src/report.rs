//! Table formatting, JSON output and command-line configuration shared by the
//! reproduction binaries.

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

/// One measured batch-answering scenario: the vectorised (batched) path
/// against the per-vector baseline at a given domain size `n` and batch
/// width `k`.
///
/// Both timings are whole-batch figures — `baseline_ns_per_op` is the total
/// time of `k` per-vector calls, so `speedup = baseline / batched` is the
/// end-to-end win of vectorising, and `>= 1.0` means batching does not lose.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchBenchRecord {
    /// Scenario name (`matmul`, `solve_multi`, `engine_answer_batch`, …).
    pub scenario: String,
    /// Domain size (cells / matrix dimension).
    pub n: usize,
    /// Batch width (number of right-hand sides / data vectors).
    pub k: usize,
    /// Nanoseconds for one whole-batch operation on the vectorised path
    /// (fastest sample).
    pub batched_ns_per_op: f64,
    /// Nanoseconds for the per-vector baseline answering the same batch
    /// (fastest sample, total over the `k` calls).
    pub baseline_ns_per_op: f64,
    /// `baseline_ns_per_op / batched_ns_per_op`.
    pub speedup: f64,
}

impl BatchBenchRecord {
    /// Builds a record, deriving the speedup from the two timings.
    pub fn new(
        scenario: impl Into<String>,
        n: usize,
        k: usize,
        batched_ns_per_op: f64,
        baseline_ns_per_op: f64,
    ) -> Self {
        let speedup = if batched_ns_per_op > 0.0 {
            baseline_ns_per_op / batched_ns_per_op
        } else {
            f64::INFINITY
        };
        BatchBenchRecord {
            scenario: scenario.into(),
            n,
            k,
            batched_ns_per_op,
            baseline_ns_per_op,
            speedup,
        }
    }
}

/// The machine-readable perf-trajectory report emitted as
/// `BENCH_batch.json` — the repo's recorded performance format (schema
/// documented in the README's Performance section).
#[derive(Debug, Clone, Default)]
pub struct BatchBenchReport {
    /// Whether the run used the short fixed-iteration CI mode.
    pub quick: bool,
    /// All measured scenarios.
    pub records: Vec<BatchBenchRecord>,
}

/// Schema identifier written into every `BENCH_batch.json`.
pub const BATCH_BENCH_FORMAT: &str = "mm-bench/batch-v1";

impl BatchBenchReport {
    /// An empty report.
    pub fn new(quick: bool) -> Self {
        BatchBenchReport {
            quick,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: BatchBenchRecord) {
        self.records.push(record);
    }

    /// Renders the report as pretty-printed JSON (hand-rolled: the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"{BATCH_BENCH_FORMAT}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"n\": {}, \"k\": {}, \
                 \"batched_ns_per_op\": {}, \"baseline_ns_per_op\": {}, \
                 \"speedup\": {}}}{sep}",
                r.scenario,
                r.n,
                r.k,
                num(r.batched_ns_per_op),
                num(r.baseline_ns_per_op),
                num(r.speedup),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The coarse CI regression gate: every scenario with `k >= min_k` must
    /// show `speedup >= min_speedup` (batching must not lose once the batch
    /// is wide enough to amortise its setup).  Returns the offending records'
    /// descriptions on failure.
    pub fn gate(&self, min_k: usize, min_speedup: f64) -> Result<(), String> {
        let failures: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.k >= min_k && (r.speedup < min_speedup || r.speedup.is_nan()))
            .map(|r| {
                format!(
                    "{} n={} k={}: speedup {:.2}x < {:.2}x",
                    r.scenario, r.n, r.k, r.speedup, min_speedup
                )
            })
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

/// One measured selection-path scenario: the blocked-parallel (optimized)
/// implementation against its reference baseline at domain size `n`.
///
/// What "optimized" and "baseline" mean is scenario-specific (documented in
/// the README's Performance section): for the kernel scenarios (`cholesky`,
/// `eigen`) the baseline is the scalar reference kernel; for
/// `selection_eigen_design` it is the full cold miss path rebuilt on the
/// scalar kernels; for the `*_hit` scenarios it is the cold miss itself, so
/// the speedup is the cache win.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionBenchRecord {
    /// Scenario name (`cholesky`, `eigen`, `selection_eigen_design`, …).
    pub scenario: String,
    /// Domain size (cells / matrix dimension).
    pub n: usize,
    /// Nanoseconds per operation on the optimized path (fastest sample).
    pub optimized_ns_per_op: f64,
    /// Nanoseconds per operation on the baseline (fastest sample).
    pub baseline_ns_per_op: f64,
    /// `baseline_ns_per_op / optimized_ns_per_op`.
    pub speedup: f64,
}

impl SelectionBenchRecord {
    /// Builds a record, deriving the speedup from the two timings.
    pub fn new(
        scenario: impl Into<String>,
        n: usize,
        optimized_ns_per_op: f64,
        baseline_ns_per_op: f64,
    ) -> Self {
        let speedup = if optimized_ns_per_op > 0.0 {
            baseline_ns_per_op / optimized_ns_per_op
        } else {
            f64::INFINITY
        };
        SelectionBenchRecord {
            scenario: scenario.into(),
            n,
            optimized_ns_per_op,
            baseline_ns_per_op,
            speedup,
        }
    }
}

/// Schema identifier written into every `BENCH_selection.json`.
pub const SELECTION_BENCH_FORMAT: &str = "mm-bench/selection-v1";

/// The machine-readable selection-latency report emitted as
/// `BENCH_selection.json` — the perf-trajectory record for the engine's
/// expensive (cache-miss) path, companion to [`BatchBenchReport`].
#[derive(Debug, Clone, Default)]
pub struct SelectionBenchReport {
    /// Whether the run used the short fixed-iteration CI mode.
    pub quick: bool,
    /// Worker-thread budget the kernels ran with
    /// (`mm_linalg::parallel::max_threads()` at bench time).
    pub threads: usize,
    /// All measured scenarios.
    pub records: Vec<SelectionBenchRecord>,
}

impl SelectionBenchReport {
    /// An empty report.
    pub fn new(quick: bool, threads: usize) -> Self {
        SelectionBenchReport {
            quick,
            threads,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: SelectionBenchRecord) {
        self.records.push(record);
    }

    /// Renders the report as pretty-printed JSON (hand-rolled: the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"{SELECTION_BENCH_FORMAT}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"n\": {}, \
                 \"optimized_ns_per_op\": {}, \"baseline_ns_per_op\": {}, \
                 \"speedup\": {}}}{sep}",
                r.scenario,
                r.n,
                num(r.optimized_ns_per_op),
                num(r.baseline_ns_per_op),
                num(r.speedup),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The coarse CI regression gate: every record of `scenario` with
    /// `n >= min_n` must show `speedup >= min_speedup`.  Returns the
    /// offending records' descriptions on failure, or an error when the
    /// report holds no matching record at all (an empty gate must not pass).
    pub fn gate(&self, scenario: &str, min_n: usize, min_speedup: f64) -> Result<(), String> {
        let mut matched = 0usize;
        let failures: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.scenario == scenario && r.n >= min_n)
            .inspect(|_| matched += 1)
            .filter(|r| r.speedup < min_speedup || r.speedup.is_nan())
            .map(|r| {
                format!(
                    "{} n={}: speedup {:.2}x < {:.2}x",
                    r.scenario, r.n, r.speedup, min_speedup
                )
            })
            .collect();
        if matched == 0 {
            return Err(format!(
                "no records for scenario `{scenario}` with n >= {min_n}"
            ));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

/// One measured serving scenario: latency quantiles over `requests` answered
/// requests at domain size `n` with `clients` concurrent clients.
///
/// Scenario names: `cold_start` / `warm_start` (first answer of a fresh
/// engine process without / with a populated strategy store — the restart
/// figure the store exists for) and `soak_cold` / `soak_warm` (the async
/// client mix against a cold / pre-warmed serving tier).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingBenchRecord {
    /// Scenario name (`cold_start`, `warm_start`, `soak_cold`, `soak_warm`).
    pub scenario: String,
    /// Domain size (cells).
    pub n: usize,
    /// Concurrent clients driving the scenario (1 for the start scenarios).
    pub clients: usize,
    /// Requests answered over the whole scenario.
    pub requests: usize,
    /// Median per-request latency in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-request latency in nanoseconds.
    pub p99_ns: f64,
}

impl ServingBenchRecord {
    /// Builds a record from a sorted-or-not slice of per-request latencies.
    pub fn from_latencies(
        scenario: impl Into<String>,
        n: usize,
        clients: usize,
        latencies_ns: &[f64],
    ) -> Self {
        let mut sorted: Vec<f64> = latencies_ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let q = |p: f64| -> f64 {
            if sorted.is_empty() {
                return f64::NAN;
            }
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        ServingBenchRecord {
            scenario: scenario.into(),
            n,
            clients,
            requests: sorted.len(),
            p50_ns: q(0.5),
            p99_ns: q(0.99),
        }
    }
}

/// Schema identifier written into every `BENCH_serving.json`.
pub const SERVING_BENCH_FORMAT: &str = "mm-bench/serving-v1";

/// The machine-readable serving-tier report emitted as `BENCH_serving.json`
/// — the perf-trajectory record for `mm-serve` (async front-end + persistent
/// strategy store), companion to [`SelectionBenchReport`].
#[derive(Debug, Clone, Default)]
pub struct ServingBenchReport {
    /// Whether the run used the short fixed-iteration CI mode.
    pub quick: bool,
    /// Serving workers the tier ran with.
    pub workers: usize,
    /// All measured scenarios.
    pub records: Vec<ServingBenchRecord>,
}

impl ServingBenchReport {
    /// An empty report.
    pub fn new(quick: bool, workers: usize) -> Self {
        ServingBenchReport {
            quick,
            workers,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: ServingBenchRecord) {
        self.records.push(record);
    }

    /// Renders the report as pretty-printed JSON (hand-rolled: the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"{SERVING_BENCH_FORMAT}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"n\": {}, \"clients\": {}, \
                 \"requests\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{sep}",
                r.scenario,
                r.n,
                r.clients,
                r.requests,
                num(r.p50_ns),
                num(r.p99_ns),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The CI regression gate for the persistent store: at every domain size
    /// `n >= min_n` where both are recorded, `warm_start` p50 must beat
    /// `cold_start` p50 by at least `min_speedup`.  Errors when no such pair
    /// exists (an empty gate must not pass).
    pub fn gate_warm_restart(&self, min_n: usize, min_speedup: f64) -> Result<(), String> {
        let p50 = |scenario: &str, n: usize| -> Option<f64> {
            self.records
                .iter()
                .find(|r| r.scenario == scenario && r.n == n)
                .map(|r| r.p50_ns)
        };
        let mut matched = 0usize;
        let mut failures = Vec::new();
        for r in &self.records {
            if r.scenario != "cold_start" || r.n < min_n {
                continue;
            }
            let Some(warm) = p50("warm_start", r.n) else {
                continue;
            };
            matched += 1;
            let speedup = if warm > 0.0 {
                r.p50_ns / warm
            } else {
                f64::INFINITY
            };
            if speedup < min_speedup || speedup.is_nan() {
                failures.push(format!(
                    "warm restart n={}: speedup {:.2}x < {:.2}x (cold p50 {:.0}ns, warm p50 {:.0}ns)",
                    r.n, speedup, min_speedup, r.p50_ns, warm
                ));
            }
        }
        if matched == 0 {
            return Err(format!("no cold_start/warm_start pair with n >= {min_n}"));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

/// One measured large-domain answering scenario: the matrix-free structured
/// path (`structured`) or the materialised-operator baseline (`dense`) at
/// domain size `n`, answering `queries` range queries end to end.
///
/// `select_ns` is the strategy-side setup cost — structured selection for
/// the structured path, operator densification for the dense baseline —
/// and `answer_ns` the full noisy answer (observe, reconstruct, evaluate:
/// the structured path inverts its strategy exactly, the dense baseline
/// runs CG over the materialised operator).  Above the dense
/// materialisation cap the baseline cannot run at all; such sizes are
/// recorded with `skipped = true` and no timings, so the artifact shows
/// *why* the comparison stops rather than silently omitting the row.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeDomainRecord {
    /// Scenario name (`structured` or `dense`).
    pub scenario: String,
    /// Domain size (cells).
    pub n: usize,
    /// Range queries answered.
    pub queries: usize,
    /// True when the scenario could not run at this size (dense above the
    /// materialisation cap); timings are NaN and serialise as null.
    pub skipped: bool,
    /// Nanoseconds for strategy selection / densification (fastest sample).
    pub select_ns: f64,
    /// Nanoseconds for one end-to-end noisy answer (fastest sample).
    pub answer_ns: f64,
}

impl LargeDomainRecord {
    /// A measured record.
    pub fn measured(
        scenario: impl Into<String>,
        n: usize,
        queries: usize,
        select_ns: f64,
        answer_ns: f64,
    ) -> Self {
        LargeDomainRecord {
            scenario: scenario.into(),
            n,
            queries,
            skipped: false,
            select_ns,
            answer_ns,
        }
    }

    /// A skipped record (scenario infeasible at this size).
    pub fn skipped(scenario: impl Into<String>, n: usize, queries: usize) -> Self {
        LargeDomainRecord {
            scenario: scenario.into(),
            n,
            queries,
            skipped: true,
            select_ns: f64::NAN,
            answer_ns: f64::NAN,
        }
    }

    /// Selection plus answering — the end-to-end figure the gate compares.
    pub fn total_ns(&self) -> f64 {
        self.select_ns + self.answer_ns
    }
}

/// Schema identifier written into every `BENCH_large_domain.json`.
pub const LARGE_DOMAIN_BENCH_FORMAT: &str = "mm-bench/large-domain-v1";

/// The machine-readable large-domain report emitted as
/// `BENCH_large_domain.json` — the perf-trajectory record for the
/// matrix-free structured answering path, companion to
/// [`SelectionBenchReport`].
#[derive(Debug, Clone, Default)]
pub struct LargeDomainReport {
    /// Whether the run used the short fixed-iteration CI mode.
    pub quick: bool,
    /// Worker-thread budget the kernels ran with
    /// (`mm_linalg::parallel::max_threads()` at bench time).
    pub threads: usize,
    /// All measured scenarios.
    pub records: Vec<LargeDomainRecord>,
}

impl LargeDomainReport {
    /// An empty report.
    pub fn new(quick: bool, threads: usize) -> Self {
        LargeDomainReport {
            quick,
            threads,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: LargeDomainRecord) {
        self.records.push(record);
    }

    /// Renders the report as pretty-printed JSON (hand-rolled: the offline
    /// build has no serde).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"{LARGE_DOMAIN_BENCH_FORMAT}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scenario\": \"{}\", \"n\": {}, \"queries\": {}, \
                 \"skipped\": {}, \"select_ns\": {}, \"answer_ns\": {}, \
                 \"total_ns\": {}}}{sep}",
                r.scenario,
                r.n,
                r.queries,
                r.skipped,
                num(r.select_ns),
                num(r.answer_ns),
                num(r.total_ns()),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The CI regression gate for the matrix-free path.  Two clauses:
    ///
    /// 1. the structured path must *complete* `must_complete_n` (the
    ///    headline large domain) — a missing or skipped record fails;
    /// 2. at every n >= `min_n` where the dense baseline also ran,
    ///    structured end-to-end must not lose to dense; at least one such
    ///    pair must exist (an empty gate must not pass).
    pub fn gate(&self, min_n: usize, must_complete_n: usize) -> Result<(), String> {
        let find = |scenario: &str, n: usize| {
            self.records
                .iter()
                .find(|r| r.scenario == scenario && r.n == n)
        };
        let mut failures = Vec::new();
        match find("structured", must_complete_n) {
            Some(r) if !r.skipped && r.total_ns().is_finite() => {}
            _ => failures.push(format!(
                "structured n={must_complete_n} missing, skipped, or unmeasured"
            )),
        }
        let mut pairs = 0usize;
        for r in &self.records {
            if r.scenario != "dense" || r.n < min_n || r.skipped {
                continue;
            }
            let Some(s) = find("structured", r.n) else {
                continue;
            };
            if s.skipped {
                continue;
            }
            pairs += 1;
            let speedup = if s.total_ns() > 0.0 {
                r.total_ns() / s.total_ns()
            } else {
                f64::INFINITY
            };
            // A NaN speedup (corrupt timing) must fail the gate, not pass it.
            if speedup.is_nan() || speedup < 1.0 {
                failures.push(format!(
                    "n={}: structured {:.0}ns loses to dense {:.0}ns ({:.2}x)",
                    r.n,
                    s.total_ns(),
                    r.total_ns(),
                    speedup
                ));
            }
        }
        if pairs == 0 {
            failures.push(format!("no structured/dense pair with n >= {min_n}"));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
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

    #[test]
    fn batch_report_json_schema() {
        let mut report = BatchBenchReport::new(true);
        report.push(BatchBenchRecord::new("matmul", 256, 8, 1000.0, 4000.0));
        report.push(BatchBenchRecord::new(
            "engine_answer_batch",
            1024,
            64,
            2.0,
            5.0,
        ));
        let json = report.to_json();
        assert!(json.contains("\"format\": \"mm-bench/batch-v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"scenario\": \"matmul\""));
        assert!(json.contains("\"n\": 256"));
        assert!(json.contains("\"k\": 8"));
        assert!(json.contains("\"batched_ns_per_op\": 1000.0"));
        assert!(json.contains("\"speedup\": 4.0"));
        // Two records, comma-separated, last one bare.
        assert_eq!(json.matches("\"scenario\"").count(), 2);
        assert!(json.contains("\"speedup\": 2.5}\n"));
    }

    #[test]
    fn selection_report_json_schema() {
        let mut report = SelectionBenchReport::new(true, 4);
        report.push(SelectionBenchRecord::new("cholesky", 512, 1000.0, 5000.0));
        report.push(SelectionBenchRecord::new(
            "selection_eigen_design",
            1024,
            2.0,
            9.0,
        ));
        let json = report.to_json();
        assert!(json.contains("\"format\": \"mm-bench/selection-v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"scenario\": \"cholesky\""));
        assert!(json.contains("\"n\": 512"));
        assert!(json.contains("\"optimized_ns_per_op\": 1000.0"));
        assert!(json.contains("\"speedup\": 5.0"));
        assert_eq!(json.matches("\"scenario\"").count(), 2);
        assert!(json.contains("\"speedup\": 4.5}\n"));
        // Infinite speedup serialises as null.
        let r = SelectionBenchRecord::new("s", 4, 0.0, 100.0);
        assert!(r.speedup.is_infinite());
        let json = SelectionBenchReport {
            quick: false,
            threads: 1,
            records: vec![r],
        }
        .to_json();
        assert!(json.contains("\"speedup\": null"), "{json}");
    }

    #[test]
    fn selection_report_gate() {
        let mut report = SelectionBenchReport::new(true, 1);
        report.push(SelectionBenchRecord::new("cholesky", 256, 100.0, 90.0));
        report.push(SelectionBenchRecord::new("cholesky", 512, 100.0, 300.0));
        report.push(SelectionBenchRecord::new("cholesky", 1024, 100.0, 450.0));
        // n < min_n records are exempt; both n >= 512 records pass.
        assert!(report.gate("cholesky", 512, 1.0).is_ok());
        // A losing large-n record trips the gate with a description.
        report.push(SelectionBenchRecord::new("cholesky", 2048, 100.0, 80.0));
        let err = report.gate("cholesky", 512, 1.0).unwrap_err();
        assert!(err.contains("cholesky n=2048"), "{err}");
        assert!(err.contains("0.80x"), "{err}");
        // An empty gate (unknown scenario or too-large min_n) must fail.
        assert!(report.gate("eigen", 512, 1.0).is_err());
        assert!(report.gate("cholesky", 4096, 1.0).is_err());
        // NaN speedups fail the gate.
        let nan = SelectionBenchReport {
            quick: false,
            threads: 1,
            records: vec![SelectionBenchRecord {
                scenario: "cholesky".into(),
                n: 512,
                optimized_ns_per_op: f64::NAN,
                baseline_ns_per_op: f64::NAN,
                speedup: f64::NAN,
            }],
        };
        assert!(nan.gate("cholesky", 512, 1.0).is_err());
    }

    #[test]
    fn serving_report_json_schema() {
        let mut report = ServingBenchReport::new(true, 2);
        report.push(ServingBenchRecord::from_latencies(
            "cold_start",
            1024,
            1,
            &[50_000.0],
        ));
        report.push(ServingBenchRecord::from_latencies(
            "soak_warm",
            256,
            8,
            &[10.0, 20.0, 30.0, 40.0],
        ));
        let json = report.to_json();
        assert!(json.contains("\"format\": \"mm-bench/serving-v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"scenario\": \"cold_start\""));
        assert!(json.contains("\"clients\": 8"));
        assert!(json.contains("\"requests\": 4"));
        assert_eq!(json.matches("\"scenario\"").count(), 2);
    }

    #[test]
    fn serving_record_quantiles() {
        let latencies: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let r = ServingBenchRecord::from_latencies("soak_cold", 64, 4, &latencies);
        assert_eq!(r.requests, 100);
        assert_eq!(r.p50_ns, 51.0);
        assert_eq!(r.p99_ns, 99.0);
        // Ordering of the input must not matter.
        let mut shuffled = latencies.clone();
        shuffled.reverse();
        let r2 = ServingBenchRecord::from_latencies("soak_cold", 64, 4, &shuffled);
        assert_eq!(r, r2);
    }

    #[test]
    fn serving_warm_restart_gate() {
        let mut report = ServingBenchReport::new(false, 2);
        report.push(ServingBenchRecord::from_latencies(
            "cold_start",
            1024,
            1,
            &[100_000.0],
        ));
        // No warm_start pair yet: the gate must fail, not vacuously pass.
        assert!(report.gate_warm_restart(1024, 5.0).is_err());
        report.push(ServingBenchRecord::from_latencies(
            "warm_start",
            1024,
            1,
            &[10_000.0],
        ));
        assert!(report.gate_warm_restart(1024, 5.0).is_ok());
        let err = report.gate_warm_restart(1024, 20.0).unwrap_err();
        assert!(err.contains("warm restart n=1024"), "{err}");
        assert!(err.contains("10.00x < 20.00x"), "{err}");
        // Sub-threshold sizes are exempt.
        assert!(report.gate_warm_restart(2048, 5.0).is_err());
    }

    #[test]
    fn large_domain_report_json_schema() {
        let mut report = LargeDomainReport::new(true, 4);
        report.push(LargeDomainRecord::measured(
            "structured",
            65536,
            1024,
            1000.0,
            4000.0,
        ));
        report.push(LargeDomainRecord::skipped("dense", 65536, 1024));
        let json = report.to_json();
        assert!(json.contains("\"format\": \"mm-bench/large-domain-v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"scenario\": \"structured\""));
        assert!(json.contains("\"n\": 65536"));
        assert!(json.contains("\"queries\": 1024"));
        assert!(json.contains("\"total_ns\": 5000.0"));
        // Skipped rows stay in the artifact with null timings.
        assert!(json.contains("\"skipped\": true"));
        assert!(json.contains("\"select_ns\": null"), "{json}");
        assert_eq!(json.matches("\"scenario\"").count(), 2);
    }

    #[test]
    fn large_domain_gate() {
        let mut report = LargeDomainReport::new(true, 1);
        // Structured completes the headline size but no dense pair exists
        // yet: the comparison clause must fail, not vacuously pass.
        report.push(LargeDomainRecord::measured(
            "structured",
            65536,
            1024,
            1_000.0,
            50_000.0,
        ));
        report.push(LargeDomainRecord::skipped("dense", 65536, 1024));
        assert!(report.gate(4096, 65536).is_err());
        // A winning pair at n >= min_n satisfies both clauses.
        report.push(LargeDomainRecord::measured(
            "structured",
            4096,
            1024,
            1_000.0,
            10_000.0,
        ));
        report.push(LargeDomainRecord::measured(
            "dense", 4096, 1024, 500_000.0, 900_000.0,
        ));
        assert!(report.gate(4096, 65536).is_ok());
        // Small-n dense wins are exempt (below min_n).
        report.push(LargeDomainRecord::measured(
            "structured",
            1024,
            1024,
            1_000.0,
            10_000.0,
        ));
        report.push(LargeDomainRecord::measured("dense", 1024, 1024, 10.0, 20.0));
        assert!(report.gate(4096, 65536).is_ok());
        // A losing large-n pair trips the gate with a description.
        report.push(LargeDomainRecord::measured(
            "structured",
            8192,
            1024,
            1_000.0,
            999_000.0,
        ));
        report.push(LargeDomainRecord::measured(
            "dense", 8192, 1024, 100.0, 900.0,
        ));
        let err = report.gate(4096, 65536).unwrap_err();
        assert!(err.contains("n=8192"), "{err}");
        // A skipped headline size fails the completion clause.
        let mut incomplete = LargeDomainReport::new(true, 1);
        incomplete.push(LargeDomainRecord::skipped("structured", 65536, 1024));
        let err = incomplete.gate(4096, 65536).unwrap_err();
        assert!(err.contains("structured n=65536"), "{err}");
    }

    #[test]
    fn batch_record_speedup_edge_cases() {
        let r = BatchBenchRecord::new("s", 4, 1, 0.0, 100.0);
        assert!(r.speedup.is_infinite());
        let json = BatchBenchReport {
            quick: false,
            records: vec![r],
        }
        .to_json();
        assert!(json.contains("\"speedup\": null"), "{json}");
    }

    #[test]
    fn batch_report_gate() {
        let mut report = BatchBenchReport::new(true);
        // K = 1 is exempt from the gate regardless of its speedup.
        report.push(BatchBenchRecord::new("engine", 256, 1, 100.0, 80.0));
        report.push(BatchBenchRecord::new("engine", 256, 8, 100.0, 150.0));
        assert!(report.gate(8, 1.0).is_ok());
        // A losing K = 64 record trips the gate with a description.
        report.push(BatchBenchRecord::new("engine", 1024, 64, 100.0, 90.0));
        let err = report.gate(8, 1.0).unwrap_err();
        assert!(err.contains("engine n=1024 k=64"), "{err}");
        assert!(err.contains("0.90x"), "{err}");
        // NaN speedups must fail, not pass, the gate.
        let nan = BatchBenchReport {
            quick: false,
            records: vec![BatchBenchRecord {
                scenario: "s".into(),
                n: 1,
                k: 8,
                batched_ns_per_op: f64::NAN,
                baseline_ns_per_op: f64::NAN,
                speedup: f64::NAN,
            }],
        };
        assert!(nan.gate(8, 1.0).is_err());
    }
}
