//! # mm-opt
//!
//! A certified solver for the *optimal query weighting* problem (Program 1
//! of Li & Miklau, VLDB 2012), plus conjugate gradient.
//!
//! Program 1 is stated in the paper as a semidefinite program, but its
//! 2×2 PSD constraints `[[uᵢ, 1], [1, vᵢ]] ⪰ 0` only encode `vᵢ ≥ 1/uᵢ`
//! (with `uᵢ ≥ 0`), so at the optimum `vᵢ = 1/uᵢ` and the program reduces to
//! the smooth convex problem
//!
//! ```text
//!     minimize    f(u) = Σᵢ cᵢ / uᵢ
//!     subject to  B u ≤ 1,   u ≥ 0,      B = (Q ∘ Q)ᵀ
//! ```
//!
//! where `cᵢ` is the squared L2 norm of column `i` of `W Q⁺` and each
//! constraint row corresponds to one cell: the squared L2 norm of that cell's
//! column in the weighted strategy `A = diag(√u) Q` may not exceed 1 (the L2
//! sensitivity budget).
//!
//! ## The dual and its certificate
//!
//! For any weighting `μ` of the cells on the probability simplex, let
//! `v = Bᵀμ` and
//!
//! ```text
//!     D(μ) = (Σᵢ √(cᵢ vᵢ))²
//! ```
//!
//! By Cauchy–Schwarz, `D(μ) ≤ f(u)` for every feasible `u`, so every `D(μ)`
//! is a lower bound on the optimum ([`WeightingProblem::dual_value`]).  On
//! an Eigen-Design problem at uniform `μ`, `D` equals the paper's singular
//! value bound (Theorem 2), so the ascent starts at that bound.  Each `μ`
//! also yields a primal point: `uᵢ = √(cᵢ/vᵢ)`, rescaled so that
//! `maxⱼ (Bu)ⱼ = 1`, is feasible.  Any pair of a feasible `u` and a
//! simplex `μ` therefore certifies that `f(u)` lies within
//! `(f(u) − D(μ)) / f(u)` of the optimum.
//!
//! ## The solver
//!
//! [`solve_weighting`] runs multiplicative dual ascent,
//!
//! ```text
//!     μⱼ ← μⱼ · ((Bu)ⱼ / maxₖ (Bu)ₖ)^ρ,   then renormalise μ,
//! ```
//!
//! keeps the best primal point (seeded with
//! [`WeightingProblem::initial_point`], the Theorem-2 weighting) and the best
//! dual bound it has seen, and stops once their relative gap is at most
//! [`WeightingOptions::gap`].
//!
//! Only `ρ = 1` carries a proof: it is the classical multiplicative
//! algorithm for optimal design, monotone for this class (Yu, *Ann.
//! Statist.* 2010), and it needs 1 000–1 900 updates to a gap of 1e-4 on
//! the workloads the engine serves.  The solver starts at `ρ = 8` and halves `ρ`, down to 1,
//! whenever the dual bound fails to rise, which cuts the update count about
//! eightfold.  A larger `ρ` is a heuristic, and the certificate is what
//! makes it safe: the reported gap is computed from the best primal and the
//! best dual, each valid on its own, so it holds whatever path `μ` took.
//!
//! [`cg`] holds a conjugate-gradient solver for SPD systems.  No engine
//! path runs it: the structured front inverts its strategies exactly.  Its
//! callers are the `large_domain` bench's dense baseline (CG over the
//! materialised operator), the repository benchmark's replay of the
//! structured reconstruction, and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod error;
pub mod weighting;

pub use cg::{cg_normal_equations, conjugate_gradient, CgOptions};
pub use error::{OptError, Result};
pub use weighting::{solve_weighting, WeightingOptions, WeightingProblem, WeightingSolution};
