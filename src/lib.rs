//! # adaptive-dp
//!
//! A Rust implementation of the adaptive matrix mechanism of
//! *Li & Miklau, "An Adaptive Mechanism for Accurate Query Answering under
//! Differential Privacy", VLDB 2012*.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names so that applications only need a single dependency:
//!
//! * [`linalg`] — dense linear algebra (matrices, factorizations, eigen);
//! * [`opt`] — the convex solvers behind optimal query weighting (Program 1);
//! * [`workload`] — linear counting query workloads and their gram matrices;
//! * [`strategies`] — prior-work strategies (identity, hierarchical, wavelet,
//!   Fourier, DataCube);
//! * [`core`] — the serving `Engine` (strategy selection — dense, low-rank
//!   and structured, unified behind one `SelectionPlan` — plan caching and
//!   persistence, budgeted sessions, and the one release step that draws
//!   noise through the Gaussian or Laplace backend), error analysis, the
//!   Eigen-Design algorithm (Program 2) and the performance optimizations
//!   of Sec. 4;
//! * [`serve`] — the async serving tier: executor-agnostic futures over the
//!   engine, bounded admission, per-principal shared budgets, and (via
//!   [`core::engine::Engine::builder`]'s `strategy_store`) persistent
//!   cross-restart strategy caching;
//! * [`data`] — data vectors, synthetic datasets and relative-error harness.
//!
//! ## Quick start
//!
//! The primary entry point is [`core::engine::Engine`]: build it once, then
//! answer any number of workloads.  Strategy selection is data independent
//! (Sec. 1 of the paper), so the engine caches the selected strategy per
//! workload — repeated `answer` calls skip selection entirely.
//!
//! ```
//! use adaptive_dp::core::engine::{Engine, PrivacyBudget};
//! use adaptive_dp::core::PrivacyParams;
//! use adaptive_dp::workload::range::AllRangeWorkload;
//! use adaptive_dp::workload::{Domain, Workload};
//! use rand::SeedableRng;
//!
//! // All range queries over a 16-cell ordered domain.
//! let workload = AllRangeWorkload::new(Domain::one_dim(16));
//! // A (tiny) histogram of true counts.
//! let counts: Vec<f64> = (0..16).map(|i| 100.0 + i as f64).collect();
//!
//! let engine = Engine::builder()
//!     .privacy(PrivacyParams::new(1.0, 1e-4))
//!     .build()
//!     .unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = engine.answer(&workload, &counts, &mut rng).unwrap();
//!
//! assert_eq!(result.answers.len(), workload.query_count());
//! assert!(result.expected_rms_error > 0.0);
//!
//! // Second call on the same workload: strategy served from the cache.
//! assert!(engine.answer(&workload, &counts, &mut rng).unwrap().cache_hit);
//!
//! // Budgeted sessions account sequential composition across answers.
//! let mut session = engine.session(PrivacyBudget::new(2.0, 1e-3));
//! assert!(session.answer(&workload, &counts, &mut rng).is_ok());
//! assert!(session.answer(&workload, &counts, &mut rng).is_ok());
//! assert!(session.answer(&workload, &counts, &mut rng).is_err()); // ε spent
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mm_core as core;
pub use mm_data as data;
pub use mm_linalg as linalg;
pub use mm_opt as opt;
pub use mm_serve as serve;
pub use mm_strategies as strategies;
pub use mm_workload as workload;

/// The paper this workspace reproduces.
pub const PAPER: &str = "Li & Miklau, An Adaptive Mechanism for Accurate Query Answering \
under Differential Privacy, PVLDB 2012 (arXiv:1202.3807)";

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let d = crate::workload::Domain::new(&[4, 4]);
        assert_eq!(d.n_cells(), 16);
        let p = crate::core::PrivacyParams::paper_default();
        assert!(p.is_approximate());
        assert!(crate::PAPER.contains("Adaptive Mechanism"));
    }
}
