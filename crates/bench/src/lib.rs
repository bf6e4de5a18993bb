//! # mm-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Sec. 5).  Each `repro_*` binary regenerates one artifact and
//! prints the same rows/series the paper reports.  The four benches under
//! `benches/` each write one `mm-bench/v2` report
//! ([`report::BenchReport`]) through [`report::BenchEnv::emit`], which CI's
//! `bench-quick` job gates: `batch_answering` (`BENCH_batch.json`),
//! `selection_latency` (`BENCH_selection.json`), `serving_soak`
//! (`BENCH_serving.json`) and `large_domain` (`BENCH_large_domain.json`),
//! committed at the workspace root.
//!
//! Every `repro_*` binary accepts:
//!
//! * `--paper` — run at the paper's domain sizes (2048 cells, 8192 for Fig. 4);
//!   slower but closest to the original setup;
//! * `--cells N` — override the target cell count (default: a quick scale of
//!   256 cells that preserves every qualitative conclusion);
//! * `--epsilon E`, `--delta D`, `--trials T`, `--seed S` — privacy
//!   parameters, Monte-Carlo trials and the seed ([`RunConfig`]);
//! * `--json PATH` — additionally write the rows as JSON.

#![forbid(unsafe_code)]

pub mod report;
pub mod runs;

pub use report::{ExperimentTable, RunConfig};
