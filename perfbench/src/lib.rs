//! The repository benchmark.  One process runs one workload: it builds the
//! workload's seeded plan, sets the engine up, times a fixed number of
//! requests, checks every output, and prints its metrics.  A traced run
//! (`--trace 1`) runs the same plan untraced and traced and reports the
//! per-layer split.  See `WORKLOADS.md` for what each workload and metric
//! is for.

#![forbid(unsafe_code)]

pub mod harness;
pub mod plan;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
