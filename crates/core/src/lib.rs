//! # mm-core
//!
//! The adaptive matrix mechanism of Li & Miklau (VLDB 2012) under
//! (ε,δ)-differential privacy.
//!
//! The crate provides, on top of the substrates `mm-linalg`, `mm-opt`,
//! `mm-workload` and `mm-strategies`:
//!
//! * [`privacy`] — privacy parameters, the Gaussian/Laplace noise calibration
//!   and the error constant `P(ε,δ)`;
//! * [`mechanism`] — the noise backends: the Gaussian (Prop. 2) and Laplace
//!   calibrations and samplers behind one [`NoiseBackend`] trait;
//! * [`error`] — the analytic workload error of Prop. 4 / Def. 5;
//! * [`bounds`] — the singular value lower bound (Thm. 2) and the
//!   approximation ratio bound (Thm. 3);
//! * [`mod@eigen_design`] — the Eigen-Design algorithm (Program 2);
//! * [`design_set`] — Program 1 over arbitrary design sets (wavelet, Fourier,
//!   workload rows, …), used by the Fig. 5 comparison;
//! * [`separation`] and [`principal`] — the eigen-query separation and
//!   principal-vector performance optimizations (Sec. 4.2);
//! * [`pure_dp`] — the ε-differential-privacy (L1) variant of optimal query
//!   weighting (Sec. 3.5);
//! * [`engine`] — **the primary entry point**: a serving [`engine::Engine`]
//!   with pluggable strategy selection ([`engine::StrategySelector`]), every
//!   selection artifact (dense, structured, low-rank) unified behind one
//!   [`engine::SelectionPlan`] currency flowing through one cache and one
//!   persistent store, every plan kind answered through one release step
//!   (admit, check the ledger, observe, add Gaussian/Laplace noise from a
//!   [`mechanism::NoiseBackend`], infer, charge once), and one budgeted
//!   [`engine::Session`] type — borrowing (`Session<&Engine>`) or owning
//!   ([`engine::OwnedSession`]) its engine — charging through a pluggable
//!   [`accounting::Accountant`];
//! * [`faults`] — deterministic fault injection for the serving stack: a
//!   seeded [`FaultInjector`] threaded through the strategy store's I/O, the
//!   selector path, and the serve tier's workers, so robustness tests replay
//!   exact failure schedules;
//! * [`accounting`] — privacy accounting: sequential composition (default),
//!   the advanced (strong) composition bound, and Rényi-DP accounting with
//!   per-mechanism curves, all behind one object-safe trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod bounds;
pub mod design_set;
pub mod eigen_design;
pub mod engine;
pub mod error;
pub mod faults;
pub mod mechanism;
pub mod principal;
pub mod privacy;
pub mod pure_dp;
pub mod separation;

pub use accounting::{
    Accountant, AccountantFactory, AdvancedCompositionAccountant, AdvancedCompositionAccounting,
    MechanismEvent, MechanismKind, RdpAccountant, RdpAccounting, SequentialAccountant,
    SequentialAccounting, UserLedger, UserLedgerRegistry,
};
pub use eigen_design::{eigen_design, EigenDesignOptions, EigenDesignResult};
pub use engine::{
    Engine, EngineAnswer, EngineBuilder, LowRankPlan, OwnedSession, PlanKind, PrivacyBudget,
    SelectionPlan, Session, StructuredAnswer,
};
pub use error::{predicted_rms_error, rms_workload_error, total_squared_error};
pub use faults::{Fault, FaultInjector, FaultSchedule, FaultSite, NoFaults};
pub use mechanism::{GaussianBackend, LaplaceBackend, NoiseBackend};
pub use privacy::PrivacyParams;

/// Error type shared by the mechanism-level routines.
///
/// Marked `#[non_exhaustive]`: new serving-layer failure modes (budget
/// accounting, backend compatibility, …) may be added without a breaking
/// change, so downstream matches must carry a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MechanismError {
    /// A linear-algebra step failed.
    Linalg(mm_linalg::LinalgError),
    /// The optimization step failed.
    Opt(mm_opt::OptError),
    /// The requested operation needs an explicit strategy matrix that is not
    /// available (the strategy was too large to materialise).
    StrategyNotMaterialized(String),
    /// Invalid argument supplied by the caller.
    InvalidArgument(String),
    /// A [`engine::Session`] ran out of privacy budget: the requested charge
    /// does not fit the remaining budget under the session accountant's
    /// composition (sequential by default; see [`accounting`]).
    #[non_exhaustive]
    BudgetExhausted {
        /// ε requested by the rejected call.
        requested_epsilon: f64,
        /// δ requested by the rejected call.
        requested_delta: f64,
        /// ε still admissible before the call, in the accountant's view.
        /// For the sequential accountant this is the slack-aware *headroom*
        /// — the exact accept/reject boundary: a request at or below it
        /// would have been admitted.
        remaining_epsilon: f64,
        /// δ still admissible before the call (see `remaining_epsilon`).
        remaining_delta: f64,
        /// Composed ε spent before the call, in the accountant's view.
        spent_epsilon: f64,
        /// Composed δ spent before the call, in the accountant's view.
        spent_delta: f64,
        /// Name of the accountant that rejected the charge
        /// (`"sequential"`, `"advanced"`, `"rdp"`, …).
        accountant: &'static str,
    },
    /// The privacy parameters are unusable with the selected noise backend
    /// (e.g. the Gaussian backend with δ = 0).
    IncompatibleBackend(String),
    /// The workload's gram matrix contains a NaN entry, so it cannot be
    /// fingerprinted (and the workload is numerically broken upstream).
    NanWorkloadGram {
        /// Row of the first NaN entry found.
        row: usize,
        /// Column of the first NaN entry found.
        col: usize,
    },
    /// The persistent strategy store could not be opened or written (the
    /// message carries the I/O error and path).  Per-entry corruption is
    /// *not* reported here — corrupt entries fall back to fresh selection.
    Store(String),
    /// A selection this caller was waiting on died with the leader (panic or
    /// abandonment, or the serving tier shut down before any thread led it)
    /// and was not retried on the caller's behalf.
    PoisonedSelection(String),
}

impl MechanismError {
    /// Whether retrying the same request could plausibly succeed without
    /// any caller-side change.
    ///
    /// * **Transient** — [`MechanismError::Store`] (an I/O failure: the disk
    ///   may recover, and the engine degrades to memory-only caching
    ///   meanwhile) and [`MechanismError::PoisonedSelection`] (the poison is
    ///   cleared when the waiter observes it; a retry founds a fresh
    ///   selection).
    /// * **Permanent** — everything else: invalid arguments, dimension
    ///   mismatches, NaN workloads, incompatible backends, selector errors
    ///   and exhausted budgets are deterministic functions of the request
    ///   (or of state that only moves further against the caller), so
    ///   retrying unchanged cannot help.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MechanismError::Store(_) | MechanismError::PoisonedSelection(_)
        )
    }
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            MechanismError::Opt(e) => write!(f, "optimization error: {e}"),
            MechanismError::StrategyNotMaterialized(name) => {
                write!(f, "strategy `{name}` has no explicit matrix available")
            }
            MechanismError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MechanismError::BudgetExhausted {
                requested_epsilon,
                requested_delta,
                remaining_epsilon,
                remaining_delta,
                spent_epsilon,
                spent_delta,
                accountant,
            } => write!(
                f,
                "privacy budget exhausted: requested (ε = {requested_epsilon}, δ = \
                 {requested_delta}) but only (ε = {remaining_epsilon}, δ = {remaining_delta}) \
                 remains under {accountant} accounting (composed spend ε = {spent_epsilon}, \
                 δ = {spent_delta})"
            ),
            MechanismError::IncompatibleBackend(msg) => {
                write!(f, "incompatible noise backend: {msg}")
            }
            MechanismError::NanWorkloadGram { row, col } => {
                write!(
                    f,
                    "workload gram matrix entry ({row}, {col}) is NaN; the workload is \
                     numerically broken upstream"
                )
            }
            MechanismError::Store(msg) => write!(f, "strategy store error: {msg}"),
            MechanismError::PoisonedSelection(msg) => {
                write!(f, "in-flight selection died: {msg}")
            }
        }
    }
}

impl std::error::Error for MechanismError {}

impl From<mm_linalg::LinalgError> for MechanismError {
    fn from(e: mm_linalg::LinalgError) -> Self {
        MechanismError::Linalg(e)
    }
}

impl From<mm_workload::NanGramEntry> for MechanismError {
    fn from(e: mm_workload::NanGramEntry) -> Self {
        MechanismError::NanWorkloadGram {
            row: e.row,
            col: e.col,
        }
    }
}

impl From<mm_opt::OptError> for MechanismError {
    fn from(e: mm_opt::OptError) -> Self {
        MechanismError::Opt(e)
    }
}

/// Result alias for mechanism-level routines.
pub type Result<T> = std::result::Result<T, MechanismError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e: MechanismError = mm_linalg::LinalgError::Empty.into();
        assert!(e.to_string().contains("linear algebra"));
        let e: MechanismError = mm_opt::OptError::InvalidProblem("p".into()).into();
        assert!(e.to_string().contains("optimization"));
        assert!(MechanismError::StrategyNotMaterialized("w".into())
            .to_string()
            .contains("w"));
        assert!(MechanismError::InvalidArgument("arg".into())
            .to_string()
            .contains("arg"));
    }

    #[test]
    fn transient_classification() {
        assert!(MechanismError::Store("disk on fire".into()).is_transient());
        assert!(MechanismError::PoisonedSelection("leader died".into()).is_transient());
        assert!(!MechanismError::InvalidArgument("bad".into()).is_transient());
        assert!(!MechanismError::StrategyNotMaterialized("w".into()).is_transient());
        assert!(!MechanismError::IncompatibleBackend("b".into()).is_transient());
        assert!(!MechanismError::NanWorkloadGram { row: 0, col: 1 }.is_transient());
        let e: MechanismError = mm_linalg::LinalgError::Empty.into();
        assert!(!e.is_transient());
    }
}
