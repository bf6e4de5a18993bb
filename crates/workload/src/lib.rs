//! # mm-workload
//!
//! Workloads of linear counting queries for the adaptive matrix mechanism
//! (Li & Miklau, VLDB 2012).
//!
//! A *workload* is a set of linear counting queries over a data vector `x` of
//! cell counts (Sec. 2.1 of the paper).  Under the matrix mechanism the error
//! of answering a workload `W` with a strategy `A` depends on `W` only through
//! its gram matrix `WᵀW` (Prop. 4), so the central abstraction of this crate
//! is the [`Workload`] trait whose main obligation is producing that gram
//! matrix — which many workload families can do *without materialising `W`*
//! (the workload of all range queries over 2048 cells has ~2·10⁶ rows; its
//! gram matrix has a closed form).
//!
//! Provided workload families:
//!
//! * [`IdentityWorkload`], [`TotalWorkload`], [`ExplicitWorkload`] — basics;
//! * [`range::AllRangeWorkload`], [`range::RandomRangeWorkload`],
//!   [`prefix::PrefixWorkload`] (1D CDF) — (multi-dimensional) range queries;
//! * [`marginal::MarginalWorkload`] — k-way marginals, range marginals,
//!   random marginal unions;
//! * [`predicate::RandomPredicateWorkload`] — uniformly sampled 0/1 predicate
//!   queries;
//! * [`kronecker::KroneckerWorkload`], [`union::UnionWorkload`],
//!   [`transform::PermutedWorkload`], [`transform::ScaledWorkload`] —
//!   combinators used to build the paper's ad hoc workloads;
//! * [`example::fig1_workload`] — the 8-query student workload of Fig. 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod example;
pub mod explicit;
pub mod fingerprint;
pub mod kronecker;
pub mod marginal;
pub mod predicate;
pub mod prefix;
pub mod query;
pub mod range;
pub mod structured;
pub mod tensor;
pub mod transform;
pub mod union;

pub use domain::Domain;
pub use explicit::{ExplicitWorkload, IdentityWorkload, TotalWorkload};
pub use fingerprint::{
    gram_fingerprint, structured_fingerprint, try_gram_fingerprint, workload_fingerprint,
    Fingerprint, NanGramEntry, WorkloadDescriptor,
};
pub use query::LinearQuery;
pub use structured::{RangeQueryWorkload, StructuredWorkload};

use mm_linalg::Matrix;

/// A workload of linear counting queries over an `n`-cell data vector.
///
/// Implementations must be consistent: `gram()` must equal `WᵀW` for the same
/// (conceptual) query matrix whose answers `evaluate()` returns, and
/// `query_count()` must equal the number of rows of that matrix.
pub trait Workload {
    /// Number of cells `n` in the data vector the queries are expressed over.
    fn dim(&self) -> usize;

    /// Number of queries `m` in the workload.
    fn query_count(&self) -> usize;

    /// The gram matrix `WᵀW` (an `n x n` symmetric positive semidefinite matrix).
    fn gram(&self) -> Matrix;

    /// Evaluates every query against the data vector, returning `W x`
    /// (length `query_count()`), in a fixed deterministic order.
    fn evaluate(&self, x: &[f64]) -> Vec<f64>;

    /// The workload's cache key, [`try_gram_fingerprint`] of
    /// [`Workload::gram`], returned with the gram when this call built it.
    ///
    /// The default builds the gram on every call, so it always returns
    /// `Some`.  Workloads whose gram is fixed at construction
    /// ([`range::AllRangeWorkload`], [`range::RandomRangeWorkload`],
    /// [`marginal::MarginalWorkload`]) memoise the fingerprint per
    /// instance: the first call builds the gram and returns it, every later
    /// call returns the memo and `None`.  A caller that needs the gram after
    /// `None` builds it itself, so repeated requests on one instance — warm
    /// cache hits — build no gram at all, and a first request hands the gram
    /// it hashed on to its selection.
    ///
    /// An override must return exactly `try_gram_fingerprint(&self.gram())`:
    /// the value keys the engine's cache and store, where equal grams share
    /// one plan (Props. 5–6).
    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        let gram = self.gram();
        let fp = try_gram_fingerprint(&gram)?;
        Ok((fp, Some(gram)))
    }

    /// Evaluates every query against each *column* of `x` (an `n × K` matrix
    /// of K data vectors), returning the `m × K` answer matrix `W·X` with
    /// column `k` equal to `evaluate(x.col(k))` — **bit for bit**, so
    /// batched serving paths can substitute this for a per-column loop
    /// without changing a single result.
    ///
    /// The default implementation is exactly that per-column loop; at
    /// K = 1 `evaluate`'s vector becomes the single column as it is, with
    /// no copy.  Workloads with a materialised query matrix (e.g.
    /// [`ExplicitWorkload`]) override it with one blocked mat-mat product,
    /// which accumulates each answer in the same ascending-index,
    /// zero-skipping order as their sparse per-query evaluation and
    /// therefore stays bit-identical while vectorising the whole batch.
    ///
    /// Panics when `x.rows() != dim()` (like [`Workload::evaluate`] on a
    /// wrong-length vector).
    fn evaluate_matrix(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.dim(),
            "data matrix has {} rows but the workload covers {} cells",
            x.rows(),
            self.dim()
        );
        let m = self.query_count();
        let k = x.cols();
        if k == 1 {
            return Matrix::from_vec(m, 1, self.evaluate(x.as_slice()))
                .expect("evaluate must return one answer per query");
        }
        let mut out = Matrix::zeros(m, k);
        for c in 0..k {
            let answers = self.evaluate(&x.col(c));
            assert_eq!(
                answers.len(),
                m,
                "evaluate must return one answer per query"
            );
            for (i, v) in answers.into_iter().enumerate() {
                out[(i, c)] = v;
            }
        }
        out
    }

    /// Human-readable description used in reports and experiment output.
    fn description(&self) -> String;

    /// The squared L2 norm of every query (the diagonal of `W Wᵀ`), in the
    /// same order as [`Workload::evaluate`].
    ///
    /// Used when optimizing for relative error (Sec. 3.4): queries are scaled
    /// to unit L2 norm before strategy selection.
    fn query_squared_norms(&self) -> Vec<f64>;

    /// The explicit query matrix `W`, when it is reasonable to materialise.
    ///
    /// The default implementation returns `None`; small/explicit workloads
    /// override it.  Callers that require `W` (e.g. actually running the
    /// mechanism end-to-end on every workload query) should prefer workloads
    /// that provide it or use [`Workload::evaluate`] instead.
    fn to_matrix(&self) -> Option<Matrix> {
        None
    }
}

/// Convenience: total squared Frobenius norm of the workload, i.e.
/// `trace(WᵀW)`, computable from any [`Workload`].
pub fn total_squared_norm<W: Workload + ?Sized>(w: &W) -> f64 {
    w.gram().trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_squared_norm_of_identity() {
        let w = IdentityWorkload::new(5);
        assert_eq!(total_squared_norm(&w), 5.0);
    }
}
