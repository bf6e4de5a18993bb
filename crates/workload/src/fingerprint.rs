//! Workload fingerprints: a stable hash of the gram matrix used as a
//! strategy-cache key.
//!
//! Strategy selection is *data independent* (Sec. 1 of the paper): the
//! selected strategy depends on the workload only through its gram matrix
//! `WᵀW` (Props. 4–6).  Two workloads with the same gram matrix therefore
//! receive the same strategy, and a serving system can cache selections keyed
//! by a hash of the gram matrix alone.  This module provides that hash as a
//! [`Fingerprint`]: a 64-bit digest of the matrix shape and the exact bit
//! patterns of its entries (no tolerance — semantically equal workloads built
//! the same way hash equal because gram construction is deterministic).
//!
//! The digest is an FNV-1a/xxhash-style multiply-xor fold with a final
//! avalanche, chosen for speed on large matrices (hashing a 2048×2048 gram is
//! orders of magnitude cheaper than one iteration of strategy selection).

use crate::Workload;
use mm_linalg::Matrix;
use std::sync::OnceLock;

/// A 64-bit digest identifying a workload up to its gram matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const MULT: u64 = 0x2545_F491_4F6C_DD1D;

#[inline]
fn mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(MULT);
    x ^ (x >> 29)
}

#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// A gram matrix handed to the fingerprint contained a NaN entry.
///
/// A NaN-poisoned gram is already broken upstream (some query coefficient or
/// matrix product produced NaN), and because `NaN != NaN` it would silently
/// violate the "equal grams hash equal" cache contract, so fingerprinting
/// surfaces it as a typed error in **all** builds — a `debug_assert!` here
/// once let release builds cache-key poisoned grams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NanGramEntry {
    /// Row of the first NaN entry found.
    pub row: usize,
    /// Column of the first NaN entry found.
    pub col: usize,
}

impl std::fmt::Display for NanGramEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gram matrix entry ({}, {}) is NaN; the workload is numerically broken upstream",
            self.row, self.col
        )
    }
}

impl std::error::Error for NanGramEntry {}

/// `-0.0` hashes as `+0.0` so that two grams that compare equal entry-wise
/// hash equal (NaN entries are the callers' concern).
#[inline]
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0_f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// The one hashing loop both fingerprint variants share; `entry_bits` maps
/// each entry to the bits to fold in, or rejects it.
fn fold_gram(
    gram: &Matrix,
    mut entry_bits: impl FnMut(f64, usize, usize) -> Result<u64, NanGramEntry>,
) -> Result<Fingerprint, NanGramEntry> {
    let mut state = mix(SEED, gram.rows() as u64);
    state = mix(state, gram.cols() as u64);
    for i in 0..gram.rows() {
        for j in 0..gram.cols() {
            state = mix(state, entry_bits(gram[(i, j)], i, j)?);
        }
    }
    Ok(Fingerprint(avalanche(state)))
}

/// Hashes a gram matrix (shape plus exact entry bit patterns), failing with
/// the location of the first NaN entry.
///
/// `-0.0` is canonicalised to `+0.0` so that two grams that compare equal
/// entry-wise hash equal.  This is the variant serving paths should use: a
/// NaN gram must not become a cache key (see [`NanGramEntry`]).
pub fn try_gram_fingerprint(gram: &Matrix) -> Result<Fingerprint, NanGramEntry> {
    fold_gram(gram, |v, row, col| {
        if v.is_nan() {
            Err(NanGramEntry { row, col })
        } else {
            Ok(canonical_bits(v))
        }
    })
}

/// Infallible [`try_gram_fingerprint`]: NaN entries are canonicalised to one
/// fixed bit pattern, so entry-wise-equal grams still hash equal even when
/// poisoned.  Prefer the checked variant wherever an error can be surfaced.
pub fn gram_fingerprint(gram: &Matrix) -> Fingerprint {
    fold_gram(gram, |v, _, _| {
        Ok(if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            canonical_bits(v)
        })
    })
    .expect("NaN-canonicalising fingerprint cannot fail")
}

/// A per-instance memo of [`try_gram_fingerprint`], for workloads whose gram
/// is a pure function of fields fixed at construction (see
/// [`Workload::try_fingerprint`]).  A clone carries the memo, which stays
/// right because it carries the same gram; a method that changes the gram
/// must reset the memo.
#[derive(Debug, Clone, Default)]
pub(crate) struct FingerprintMemo(OnceLock<Fingerprint>);

impl FingerprintMemo {
    /// The memoised fingerprint with `None`, or — on first use — the
    /// fingerprint of `gram()` with that gram, so the caller can reuse it.
    /// A NaN gram is rejected and never memoised.
    pub(crate) fn get_or_derive(
        &self,
        gram: impl FnOnce() -> Matrix,
    ) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        if let Some(&fp) = self.0.get() {
            return Ok((fp, None));
        }
        let gram = gram();
        let fp = try_gram_fingerprint(&gram)?;
        Ok((*self.0.get_or_init(|| fp), Some(gram)))
    }
}

/// Fingerprints any [`Workload`] through its gram matrix.
///
/// Callers that already hold the gram matrix (e.g. a serving engine that
/// needs it for error analysis anyway) should prefer [`gram_fingerprint`]
/// to avoid recomputing it.
pub fn workload_fingerprint<W: Workload + ?Sized>(workload: &W) -> Fingerprint {
    gram_fingerprint(&workload.gram())
}

/// The structural identity of a matrix-free workload (see
/// [`crate::structured::StructuredWorkload`]): everything the serving
/// engine's structured path needs to key caches and persist selections
/// *without* materialising an O(n²) gram matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadDescriptor {
    /// 1D inclusive interval (range) queries over `n` cells, in evaluation
    /// order.
    Intervals {
        /// Number of cells in the data vector.
        n: usize,
        /// The queried inclusive intervals `(lo, hi)`.
        intervals: std::sync::Arc<Vec<(usize, usize)>>,
    },
}

impl WorkloadDescriptor {
    /// Number of cells the described workload covers.
    pub fn dim(&self) -> usize {
        match self {
            WorkloadDescriptor::Intervals { n, .. } => *n,
        }
    }

    /// Number of queries in the described workload.
    pub fn query_count(&self) -> usize {
        match self {
            WorkloadDescriptor::Intervals { intervals, .. } => intervals.len(),
        }
    }
}

/// Domain-separation tag folded into every structured fingerprint, so a
/// structured descriptor can never collide with a gram fingerprint by
/// construction (the gram fold starts from the matrix shape instead).
const STRUCTURED_TAG: u64 = 0x6d6d_5f73_7472_7563; // "mm_struc"

/// Fingerprints a [`WorkloadDescriptor`] in O(descriptor size) — for
/// interval workloads, O(m) integer folds instead of the O(n²) gram hash.
///
/// Same digest family as [`gram_fingerprint`] (multiply-xor fold plus
/// avalanche) but over the exact structural description, under a
/// domain-separating tag.  Two equal descriptors always hash equal; the
/// serving engine's structured cache and store key on this.
pub fn structured_fingerprint(descriptor: &WorkloadDescriptor) -> Fingerprint {
    let mut state = mix(SEED, STRUCTURED_TAG);
    match descriptor {
        WorkloadDescriptor::Intervals { n, intervals } => {
            state = mix(state, 1); // variant tag
            state = mix(state, *n as u64);
            state = mix(state, intervals.len() as u64);
            for &(lo, hi) in intervals.iter() {
                state = mix(state, lo as u64);
                state = mix(state, hi as u64);
            }
        }
    }
    Fingerprint(avalanche(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::AllRangeWorkload;
    use crate::transform::{seeded_permutation, PermutedWorkload};
    use crate::{Domain, IdentityWorkload, TotalWorkload};

    #[test]
    fn deterministic_and_shape_sensitive() {
        let a = gram_fingerprint(&IdentityWorkload::new(8).gram());
        let b = gram_fingerprint(&IdentityWorkload::new(8).gram());
        assert_eq!(a, b);
        assert_ne!(a, gram_fingerprint(&IdentityWorkload::new(9).gram()));
        assert_ne!(a, gram_fingerprint(&TotalWorkload::new(8).gram()));
    }

    #[test]
    fn same_gram_same_fingerprint_across_construction() {
        // Two structurally different objects with the same gram matrix.
        let w1 = AllRangeWorkload::new(Domain::one_dim(16));
        let w2 = AllRangeWorkload::new(Domain::one_dim(16));
        assert_eq!(workload_fingerprint(&w1), workload_fingerprint(&w2));
    }

    #[test]
    fn permutation_changes_fingerprint() {
        // Permuted cell conditions change the gram (entry order), hence the
        // fingerprint — correctly so: the selected strategy matrix differs by
        // the same permutation.
        let base = AllRangeWorkload::new(Domain::one_dim(12));
        let perm = PermutedWorkload::new(
            AllRangeWorkload::new(Domain::one_dim(12)),
            seeded_permutation(12, 7),
        );
        assert_ne!(workload_fingerprint(&base), workload_fingerprint(&perm));
    }

    #[test]
    fn zero_sign_canonicalised() {
        let mut g1 = Matrix::zeros(2, 2);
        let mut g2 = Matrix::zeros(2, 2);
        g1[(0, 0)] = 0.0;
        g2[(0, 0)] = -0.0;
        assert_eq!(gram_fingerprint(&g1), gram_fingerprint(&g2));
    }

    #[test]
    fn nan_grams_are_detected_in_all_builds() {
        // Runs identically under `cargo test` and `cargo test --release`:
        // the NaN guard is a real check, not a debug assertion.
        let mut g = Matrix::zeros(3, 3);
        g[(1, 2)] = f64::NAN;
        let err = try_gram_fingerprint(&g).unwrap_err();
        assert_eq!(err, NanGramEntry { row: 1, col: 2 });
        assert!(err.to_string().contains("(1, 2)"));
        assert!(try_gram_fingerprint(&Matrix::zeros(3, 3)).is_ok());
    }

    #[test]
    fn infallible_fingerprint_canonicalises_nan() {
        // Entry-wise-equal poisoned grams hash equal despite NaN != NaN,
        // whatever the NaN's sign or payload bits.
        let mut g1 = Matrix::zeros(2, 2);
        let mut g2 = Matrix::zeros(2, 2);
        g1[(0, 1)] = f64::NAN;
        g2[(0, 1)] = -f64::NAN;
        assert_eq!(gram_fingerprint(&g1), gram_fingerprint(&g2));
        assert_ne!(
            gram_fingerprint(&g1),
            gram_fingerprint(&Matrix::zeros(2, 2))
        );
    }

    #[test]
    fn checked_and_infallible_agree_on_clean_grams() {
        let g = IdentityWorkload::new(8).gram();
        assert_eq!(try_gram_fingerprint(&g).unwrap(), gram_fingerprint(&g));
    }

    #[test]
    fn display_is_hex() {
        let f = Fingerprint(0xABCD);
        assert_eq!(f.to_string(), "000000000000abcd");
    }

    #[test]
    fn structured_fingerprint_is_deterministic_and_content_sensitive() {
        let desc = |n: usize, iv: Vec<(usize, usize)>| WorkloadDescriptor::Intervals {
            n,
            intervals: std::sync::Arc::new(iv),
        };
        let a = structured_fingerprint(&desc(8, vec![(0, 3), (2, 7)]));
        let b = structured_fingerprint(&desc(8, vec![(0, 3), (2, 7)]));
        assert_eq!(a, b);
        // Order, content, and domain size all matter.
        assert_ne!(a, structured_fingerprint(&desc(8, vec![(2, 7), (0, 3)])));
        assert_ne!(a, structured_fingerprint(&desc(8, vec![(0, 3), (2, 6)])));
        assert_ne!(a, structured_fingerprint(&desc(9, vec![(0, 3), (2, 7)])));
    }

    #[test]
    fn structured_and_gram_fingerprints_are_domain_separated() {
        // Same workload, two identity schemes: the structured digest is
        // keyed on the descriptor under its own tag and must not collide
        // with the gram digest of the same workload.
        let w = crate::structured::RangeQueryWorkload::prefixes(8);
        use crate::structured::StructuredWorkload;
        assert_ne!(
            structured_fingerprint(&w.descriptor()),
            workload_fingerprint(&w)
        );
    }
}
