//! Persistent plan store: spills [`SelectionPlan`]s to disk so engine
//! restarts (and independent processes sharing a directory) skip selection
//! entirely — O(n³) dense selections, O(nr² + r³) low-rank selections, and
//! structured selections alike.
//!
//! Strategy selection is data independent and keyed by the workload's
//! [`Fingerprint`] (gram-entry bits for the dense/low-rank paths, the
//! structured descriptor hash for the matrix-free path) — valid across
//! processes and machines.  Each store entry records everything the answer
//! path derives from a selection, pre-seeded on load (Cholesky factor,
//! Prop. 4 trace term, low-rank basis), so a warm restart answers
//! bit-identically to the run that produced the entry — nothing is
//! refactorized or re-derived.
//!
//! # File format (`.mmplan`, version 2)
//!
//! One file per fingerprint, named `<fingerprint as 16 hex digits>.mmplan`,
//! framed by the `entry` module (magic, version, fingerprint, length, payload,
//! FNV-1a checksum).  The payload starts with one *kind* byte:
//!
//! * `0` **dense** — strategy name, row count, dimension, L2/L1
//!   sensitivities, optional explicit matrix, strategy gram, Cholesky
//!   factor `L`, trace term (f64 via `to_bits`, all LE).
//! * `1` **structured** — the encoded
//!   [`StrategyDescriptor`] (a few bytes; the operator is
//!   re-instantiated on load).
//! * `2` **low-rank** — requested rank, total gram trace, captured
//!   spectral mass, the subspace basis `L̃`, the projected gram `L̃GL̃ᵀ`,
//!   then the subspace selection in the dense field layout.
//!
//! An entry of any other version (version 1 included) fails the frame check
//! and is dropped and recomputed like any other corrupt entry.
//!
//! # Durability and concurrency
//!
//! * **Atomic writes.** Entries are written to a temporary file in the same
//!   directory and `rename`d into place, so readers never observe a partial
//!   entry under a crashed writer.  Every write gets its own temporary file
//!   (process id plus a process-wide sequence number), so concurrent
//!   writers never clobber each other's half-written bytes.
//! * **Write-once.** A fingerprint identifies its selection input exactly,
//!   and selection is deterministic, so the first process to write an entry
//!   wins; later saves for the same fingerprint are skipped.  Concurrent
//!   writers racing on one fingerprint each rename a complete,
//!   identical-content file — the last rename wins and every reader sees a
//!   whole entry.
//! * **Corruption falls back to recompute.** A truncated file, a checksum
//!   mismatch (bit flip), a wrong version or a mismatched fingerprint makes
//!   [`StrategyStore::load`] delete the entry and return `None`: the caller
//!   runs a fresh selection and rewrites a valid entry.  A corrupt store can
//!   cost time, never correctness.

pub(crate) mod entry;

use super::cache::{CachedSelection, StrategyCache};
use super::plan::{LowRankPlan, SelectionPlan, StructuredPlan};
use crate::faults::{Fault, FaultInjector, FaultSite, NoFaults};
use crate::MechanismError;
use entry::Cursor;
use mm_linalg::decomp::Cholesky;
use mm_linalg::Matrix;
use mm_strategies::{Strategy, StrategyDescriptor};
use mm_workload::Fingerprint;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Current store format version (bumped on any encoding change; entries
/// with any other version are treated as corrupt and recomputed).
pub const PLAN_STORE_VERSION: u32 = 2;

/// File extension of store entries.
pub const PLAN_STORE_EXTENSION: &str = "mmplan";

const PLAN_MAGIC: [u8; 8] = *b"MMPLAN0\n";

/// Process-wide sequence number that makes every temporary file name
/// unique, even for two writers of one fingerprint in one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

const KIND_DENSE: u8 = 0;
const KIND_STRUCTURED: u8 = 1;
const KIND_LOW_RANK: u8 = 2;

fn encode_dense_fields(out: &mut Vec<u8>, e: &CachedSelection, factor: &Cholesky, trace: f64) {
    let strategy = e.strategy();
    let name = strategy.name().as_bytes();
    entry::push_u32(out, name.len() as u32);
    out.extend_from_slice(name);
    entry::push_u64(out, strategy.rows() as u64);
    entry::push_u64(out, strategy.dim() as u64);
    entry::push_f64(out, strategy.l2_sensitivity());
    entry::push_f64(out, strategy.l1_sensitivity());
    match strategy.matrix() {
        Some(m) => {
            out.push(1);
            entry::push_matrix(out, m);
        }
        None => out.push(0),
    }
    entry::push_matrix(out, strategy.gram());
    entry::push_matrix(out, &factor.l());
    entry::push_f64(out, trace);
}

fn decode_dense_fields(c: &mut Cursor<'_>) -> Option<CachedSelection> {
    let name_len = usize::try_from(c.u32()?).ok()?;
    let name = String::from_utf8(c.take(name_len)?.to_vec()).ok()?;
    let rows = usize::try_from(c.u64()?).ok()?;
    let dim = usize::try_from(c.u64()?).ok()?;
    let l2 = c.f64()?;
    let l1 = c.f64()?;
    let matrix = match c.u8()? {
        0 => None,
        1 => Some(c.matrix()?),
        _ => return None,
    };
    let gram = c.matrix()?;
    let factor_l = c.matrix()?;
    let trace = c.f64()?;
    // Validate shapes before `Strategy::from_parts`, whose contract
    // violations are asserts (panics), not parse failures.
    if gram.rows() != dim || !gram.is_square() || dim == 0 {
        return None;
    }
    if let Some(m) = &matrix {
        if m.cols() != dim || m.rows() != rows {
            return None;
        }
    }
    if factor_l.rows() != dim {
        return None;
    }
    if !(l2.is_finite() && l1.is_finite() && trace.is_finite()) {
        return None;
    }
    let factor = Cholesky::from_factor(factor_l).ok()?;
    let strategy = Arc::new(Strategy::from_parts(name, matrix, gram, l2, l1, rows));
    Some(CachedSelection::with_parts(
        strategy,
        Arc::new(factor),
        trace,
    ))
}

fn decode_plan_file(fp: Fingerprint, bytes: &[u8]) -> Option<SelectionPlan> {
    let payload = entry::decode_framed(&PLAN_MAGIC, PLAN_STORE_VERSION, fp, bytes)?;
    let mut c = Cursor::new(payload);
    match c.u8()? {
        KIND_DENSE => {
            let e = decode_dense_fields(&mut c)?;
            if !c.done() {
                return None; // trailing garbage
            }
            Some(SelectionPlan::Dense(Arc::new(e)))
        }
        KIND_STRUCTURED => {
            let descriptor = StrategyDescriptor::decode(c.rest())?;
            Some(SelectionPlan::Structured(Arc::new(StructuredPlan::new(
                descriptor.instantiate(),
            ))))
        }
        KIND_LOW_RANK => {
            let rank = usize::try_from(c.u64()?).ok()?;
            let total_gram_trace = c.f64()?;
            let captured_mass = c.f64()?;
            let basis = c.matrix()?;
            let subspace_gram = c.matrix()?;
            let selection = decode_dense_fields(&mut c)?;
            if !c.done() {
                return None;
            }
            if rank == 0 || basis.rows() == 0 || basis.cols() == 0 {
                return None;
            }
            if !subspace_gram.is_square() || subspace_gram.rows() != basis.rows() {
                return None;
            }
            if selection.strategy().dim() != basis.rows() {
                return None;
            }
            if !(total_gram_trace.is_finite() && captured_mass.is_finite()) {
                return None;
            }
            Some(SelectionPlan::LowRank(Arc::new(LowRankPlan::from_parts(
                basis,
                selection,
                subspace_gram,
                rank,
                total_gram_trace,
                captured_mass,
            ))))
        }
        _ => None,
    }
}

/// Outcome of a [`StrategyStore::try_save`] attempt.  The tri-state matters
/// to the engine's circuit breaker: an existing entry is *not* a
/// persistence failure, and a failed write is *not* a write-once skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOutcome {
    /// This call wrote the entry.
    Written,
    /// An entry for the fingerprint already existed — the write-once
    /// contract skipped the write.  Also returned for plans the store
    /// cannot derive a complete entry for (e.g. a dense plan without its
    /// workload gram), which stay memory-only by design.
    Skipped,
    /// The write was attempted and failed (I/O error, torn write).
    Failed,
}

/// A directory of persisted selection plans, shared by any number of engines
/// and processes (see the module docs for format and concurrency semantics).
#[derive(Debug)]
pub struct StrategyStore {
    dir: PathBuf,
    /// Fault-injection seam for reads and writes (default: [`NoFaults`]).
    injector: Arc<dyn FaultInjector>,
    /// Corrupt entries silently dropped (deleted so a fresh selection can
    /// rewrite them) since this store handle was opened.
    corrupt_dropped: AtomicU64,
}

impl StrategyStore {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> crate::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            MechanismError::Store(format!(
                "cannot create store directory {}: {e}",
                dir.display()
            ))
        })?;
        Ok(StrategyStore {
            dir,
            injector: Arc::new(NoFaults),
            corrupt_dropped: AtomicU64::new(0),
        })
    }

    /// Routes this store's reads and writes through a
    /// [`FaultInjector`] (see [`crate::faults`]); used by the engine
    /// builder to thread one injector through the whole stack.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Corrupt entries dropped (deleted for recompute) by this store handle
    /// — truncated files, checksum mismatches, wrong versions, mismatched
    /// fingerprints, malformed payloads.  Unreadable files (I/O errors,
    /// including injected read faults) are not counted: nothing was
    /// inspected, so nothing was judged corrupt.
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped.load(Ordering::Relaxed)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of a fingerprint's entry.
    pub fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.{PLAN_STORE_EXTENSION}"))
    }

    /// Loads a fingerprint's plan, pre-seeded with every persisted derived
    /// quantity.  Any corruption (truncation, checksum mismatch, wrong
    /// version, mismatched fingerprint, malformed payload) counts and
    /// deletes the entry (best effort — a failed delete only means the next
    /// load re-detects the corruption), so the caller recomputes and
    /// rewrites it.
    pub fn load(&self, fp: Fingerprint) -> Option<Arc<SelectionPlan>> {
        // Fault-injection seam: a read fault behaves exactly like an
        // unreadable file — the caller recomputes; nothing is deleted or
        // counted corrupt.
        match self.injector.inject(FaultSite::StoreRead) {
            Some(Fault::Fail | Fault::Torn) => return None,
            Some(Fault::LatencyMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            _ => {}
        }
        let path = self.entry_path(fp);
        let bytes = std::fs::read(&path).ok()?;
        match decode_plan_file(fp, &bytes) {
            Some(plan) => Some(Arc::new(plan)),
            None => {
                self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists a plan (write-once per fingerprint): returns `true` when
    /// this call wrote the entry, `false` when an entry already existed or
    /// the write failed.  [`StrategyStore::try_save`] exposes which of the
    /// two it was.
    pub fn save(
        &self,
        fp: Fingerprint,
        plan: &SelectionPlan,
        workload_gram: Option<&Matrix>,
    ) -> bool {
        self.try_save(fp, plan, workload_gram) == SaveOutcome::Written
    }

    /// Persists a plan (write-once per fingerprint), distinguishing a
    /// skipped write from a failed one — the signal the engine's store
    /// circuit breaker runs on.
    ///
    /// Dense plans need the `workload_gram` they were selected for to derive
    /// their trace term (if not already materialised); structured and
    /// low-rank plans ignore it — a low-rank plan carries its own subspace
    /// gram.  Underivable entries (e.g. a singular strategy gram) stay
    /// memory-only and report [`SaveOutcome::Skipped`].
    pub fn try_save(
        &self,
        fp: Fingerprint,
        plan: &SelectionPlan,
        workload_gram: Option<&Matrix>,
    ) -> SaveOutcome {
        let path = self.entry_path(fp);
        if path.exists() {
            return SaveOutcome::Skipped; // write-once per fingerprint
        }
        let payload = match plan {
            SelectionPlan::Dense(e) => {
                let Some(gram) = workload_gram else {
                    return SaveOutcome::Skipped;
                };
                let (Ok(factor), Ok(trace)) = (e.factor(), e.trace_term(gram)) else {
                    return SaveOutcome::Skipped;
                };
                let mut out = vec![KIND_DENSE];
                encode_dense_fields(&mut out, e, &factor, trace);
                out
            }
            SelectionPlan::Structured(s) => {
                let mut out = vec![KIND_STRUCTURED];
                out.extend_from_slice(&s.strategy().descriptor().encode());
                out
            }
            SelectionPlan::LowRank(p) => {
                let sel = p.selection();
                let (Ok(factor), Ok(trace)) = (sel.factor(), sel.trace_term(p.subspace_gram()))
                else {
                    return SaveOutcome::Skipped;
                };
                let mut out = vec![KIND_LOW_RANK];
                entry::push_u64(&mut out, p.requested_rank() as u64);
                entry::push_f64(&mut out, p.total_gram_trace());
                entry::push_f64(&mut out, p.captured_mass());
                entry::push_matrix(&mut out, p.basis());
                entry::push_matrix(&mut out, p.subspace_gram());
                encode_dense_fields(&mut out, sel, &factor, trace);
                out
            }
        };
        let bytes = entry::encode_framed(&PLAN_MAGIC, PLAN_STORE_VERSION, fp, &payload);
        // Fault-injection seam: a `Fail` is a clean I/O error (no bytes
        // land); a `Torn` write lands a truncated entry at the final path —
        // the mid-crash case the checksumming read path must catch.
        match self.injector.inject(FaultSite::StoreWrite) {
            Some(Fault::Fail) => return SaveOutcome::Failed,
            Some(Fault::Torn) => {
                entry::torn_write(&path, &bytes);
                return SaveOutcome::Failed;
            }
            Some(Fault::LatencyMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            _ => {}
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp_name = format!(".{fp}.tmp.{}.{seq}", std::process::id());
        if entry::atomic_write(&self.dir, &tmp_name, &path, &bytes) {
            SaveOutcome::Written
        } else {
            SaveOutcome::Failed
        }
    }

    /// Loads up to `limit` plans into a [`StrategyCache`] in ascending
    /// fingerprint order, returning how many were inserted.  Corrupt
    /// entries are skipped (and deleted) exactly as in
    /// [`StrategyStore::load`].
    pub fn warm(&self, cache: &StrategyCache, limit: usize) -> usize {
        let mut inserted = 0;
        for raw in self.fingerprints().into_iter().take(limit) {
            let fp = Fingerprint(raw);
            if let Some(plan) = self.load(fp) {
                cache.insert(fp, plan);
                inserted += 1;
            }
        }
        inserted
    }

    /// Number of fingerprints with (undamaged or not-yet-inspected) entries
    /// on disk.
    pub fn len(&self) -> usize {
        self.fingerprints().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprints of every entry file in the directory, in ascending
    /// order: which entries warm under a `limit` must be a pure function of
    /// the store's contents, never of directory order.
    fn fingerprints(&self) -> BTreeSet<u64> {
        let mut fps = BTreeSet::new();
        // mm-lint: allow(determinism-hygiene): directory order is discarded — fingerprints are collected into an ordered set before any caller sees them
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return fps;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path
                .extension()
                .is_some_and(|ext| ext == PLAN_STORE_EXTENSION)
            {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if let Ok(raw) = u64::from_str_radix(stem, 16) {
                    fps.insert(raw);
                }
            }
        }
        fps
    }
}

#[cfg(test)]
mod tests {
    use super::entry::fnv1a;
    use super::*;
    use crate::eigen_design::EigenDesignOptions;
    use crate::engine::low_rank::select_low_rank;
    use mm_strategies::identity::identity_strategy;
    use mm_workload::prefix::PrefixWorkload;
    use mm_workload::Workload;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mm-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn dense_entry(n: usize) -> CachedSelection {
        CachedSelection::new(Arc::new(identity_strategy(n)))
    }

    fn dense_plan(n: usize) -> SelectionPlan {
        SelectionPlan::Dense(Arc::new(dense_entry(n)))
    }

    #[test]
    fn dense_round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let store = StrategyStore::open(&dir).unwrap();
        let fp = Fingerprint(0xDEAD_BEEF_0BAD_F00D);
        let e = dense_entry(6);
        let gram = Matrix::identity(6);
        // Force the derived quantities so we can compare them bit-for-bit.
        let factor = e.factor().unwrap();
        let trace = e.trace_term(&gram).unwrap();
        let plan = SelectionPlan::Dense(Arc::new(e));
        assert!(store.save(fp, &plan, Some(&gram)), "first save writes");
        assert!(
            !store.save(fp, &plan, Some(&gram)),
            "second save is write-once"
        );
        assert_eq!(store.len(), 1);

        let loaded = store.load(fp).expect("entry loads");
        let loaded = loaded.as_dense().expect("dense plan kind");
        let s0 = plan.as_dense().unwrap().strategy();
        let s1 = loaded.strategy();
        assert_eq!(s0.name(), s1.name());
        assert_eq!(s0.rows(), s1.rows());
        assert_eq!(s0.dim(), s1.dim());
        assert_eq!(s0.l2_sensitivity().to_bits(), s1.l2_sensitivity().to_bits());
        assert_eq!(s0.l1_sensitivity().to_bits(), s1.l1_sensitivity().to_bits());
        for (a, b) in s0
            .matrix()
            .unwrap()
            .as_slice()
            .iter()
            .zip(s1.matrix().unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in s0.gram().as_slice().iter().zip(s1.gram().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let loaded_factor = loaded.factor().unwrap();
        for (a, b) in factor
            .l()
            .as_slice()
            .iter()
            .zip(loaded_factor.l().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(trace.to_bits(), loaded.trace_term(&gram).unwrap().to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrixless_strategy_round_trips() {
        let dir = tmp_dir("gramonly");
        let store = StrategyStore::open(&dir).unwrap();
        let fp = Fingerprint(7);
        let gram = Matrix::identity(4);
        let strategy = Arc::new(Strategy::from_parts(
            "implicit",
            None,
            gram.clone(),
            1.0,
            1.0,
            4,
        ));
        let plan = SelectionPlan::Dense(Arc::new(CachedSelection::new(strategy)));
        assert!(store.save(fp, &plan, Some(&gram)));
        let loaded = store.load(fp).unwrap();
        let loaded = loaded.as_dense().unwrap();
        assert!(loaded.strategy().matrix().is_none());
        assert_eq!(loaded.strategy().dim(), 4);
        // A dense plan cannot be saved without its workload gram.
        assert!(!store.save(Fingerprint(8), &dense_plan(4), None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structured_plan_round_trips() {
        let dir = tmp_dir("structured");
        let store = StrategyStore::open(&dir).unwrap();
        let fp = Fingerprint(0xFEED_F00D);
        let d = StrategyDescriptor::Haar { n: 64 };
        let plan = SelectionPlan::Structured(Arc::new(StructuredPlan::new(d.instantiate())));
        assert!(store.save(fp, &plan, None), "first save writes");
        assert!(!store.save(fp, &plan, None), "second save is write-once");
        assert_eq!(store.len(), 1);
        let loaded = store.load(fp).expect("entry loads");
        let loaded = loaded.as_structured().expect("structured plan kind");
        assert_eq!(loaded.descriptor(), d);
        assert_eq!(loaded.dim(), 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn low_rank_plan_round_trips_bit_identically() {
        let dir = tmp_dir("lowrank");
        let store = StrategyStore::open(&dir).unwrap();
        let fp = Fingerprint(0x10_CA1);
        let g = PrefixWorkload::new(16).gram();
        let plan = select_low_rank(&g, 4, &EigenDesignOptions::default()).unwrap();
        let plan = SelectionPlan::LowRank(Arc::new(plan));
        assert!(store.save(fp, &plan, None));
        let loaded = store.load(fp).expect("entry loads");
        let (orig, back) = (plan.as_low_rank().unwrap(), loaded.as_low_rank().unwrap());
        assert_eq!(orig.requested_rank(), back.requested_rank());
        assert_eq!(orig.retained_rank(), back.retained_rank());
        assert_eq!(
            orig.total_gram_trace().to_bits(),
            back.total_gram_trace().to_bits()
        );
        assert_eq!(
            orig.captured_mass().to_bits(),
            back.captured_mass().to_bits()
        );
        for (a, b) in orig.basis().as_slice().iter().zip(back.basis().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in orig
            .subspace_gram()
            .as_slice()
            .iter()
            .zip(back.subspace_gram().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (f0, f1) = (
            orig.selection().factor().unwrap(),
            back.selection().factor().unwrap(),
        );
        for (a, b) in f0.l().as_slice().iter().zip(f1.l().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            orig.selection()
                .trace_term(orig.subspace_gram())
                .unwrap()
                .to_bits(),
            back.selection()
                .trace_term(back.subspace_gram())
                .unwrap()
                .to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checksum_flip_and_wrong_version_all_fall_back() {
        let fp = Fingerprint(0xABCD);
        for (tag, corrupt) in [
            (
                "truncate",
                Box::new(|bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2))
                    as Box<dyn Fn(&mut Vec<u8>)>,
            ),
            (
                "bitflip",
                Box::new(|bytes: &mut Vec<u8>| {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                }),
            ),
            (
                "version",
                Box::new(|bytes: &mut Vec<u8>| {
                    // Rewrite the version field and re-checksum so *only* the
                    // version check can reject it.
                    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
                    let body_len = bytes.len() - 8;
                    let sum = fnv1a(&bytes[..body_len]);
                    let at = bytes.len() - 8;
                    bytes[at..].copy_from_slice(&sum.to_le_bytes());
                }),
            ),
        ] {
            let dir = tmp_dir(tag);
            let store = StrategyStore::open(&dir).unwrap();
            let gram = Matrix::identity(5);
            assert!(store.save(fp, &dense_plan(5), Some(&gram)));
            let path = store.entry_path(fp);
            let mut bytes = std::fs::read(&path).unwrap();
            corrupt(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();

            assert!(store.load(fp).is_none(), "{tag}: corrupt entry rejected");
            assert!(!path.exists(), "{tag}: corrupt entry deleted");
            // The slot is clear: a fresh save rewrites a valid entry.
            assert!(
                store.save(fp, &dense_plan(5), Some(&gram)),
                "{tag}: rewrite succeeds"
            );
            assert!(store.load(fp).is_some(), "{tag}: rewritten entry loads");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let dir = tmp_dir("fpmismatch");
        let store = StrategyStore::open(&dir).unwrap();
        let gram = Matrix::identity(3);
        assert!(store.save(Fingerprint(1), &dense_plan(3), Some(&gram)));
        // Copy the entry under another fingerprint's filename.
        std::fs::copy(
            store.entry_path(Fingerprint(1)),
            store.entry_path(Fingerprint(2)),
        )
        .unwrap();
        assert!(store.load(Fingerprint(2)).is_none());
        assert!(store.load(Fingerprint(1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_fills_a_cache_across_plan_kinds_in_deterministic_order() {
        let dir = tmp_dir("warm");
        let store = StrategyStore::open(&dir).unwrap();
        let gram = Matrix::identity(4);
        // fp 1 and 2: dense, fp 3: structured.
        assert!(store.save(Fingerprint(1), &dense_plan(4), Some(&gram)));
        assert!(store.save(Fingerprint(2), &dense_plan(4), Some(&gram)));
        let haar = SelectionPlan::Structured(Arc::new(StructuredPlan::new(
            StrategyDescriptor::Haar { n: 8 }.instantiate(),
        )));
        assert!(store.save(Fingerprint(3), &haar, None));
        assert_eq!(store.len(), 3);

        let cache = StrategyCache::new(8);
        assert_eq!(store.warm(&cache, 8), 3);
        assert_eq!(cache.len(), 3);
        for v in 1..=3u64 {
            assert!(cache.get(Fingerprint(v)).is_some());
        }
        assert!(cache.get(Fingerprint(3)).unwrap().as_structured().is_some());
        // The limit caps how much is loaded, lowest fingerprints first.
        let small = StrategyCache::new(8);
        assert_eq!(store.warm(&small, 2), 2);
        assert!(small.get(Fingerprint(1)).is_some());
        assert!(small.get(Fingerprint(2)).is_some());
        assert!(small.get(Fingerprint(3)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_fingerprint_never_fail() {
        // Writers racing on the same fingerprints through one handle each
        // write their own temporary file, so no rename loses its source.
        const THREADS: usize = 4;
        const FINGERPRINTS: u64 = 200;
        let dir = tmp_dir("concurrent-save");
        let store = Arc::new(StrategyStore::open(&dir).unwrap());
        let plan = Arc::new(SelectionPlan::Structured(Arc::new(StructuredPlan::new(
            StrategyDescriptor::Haar { n: 8 }.instantiate(),
        ))));
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (store, plan, barrier) = (store.clone(), plan.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..FINGERPRINTS)
                        .filter(|&v| {
                            store.try_save(Fingerprint(v), &plan, None) == SaveOutcome::Failed
                        })
                        .count()
                })
            })
            .collect();
        let failed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(failed, 0, "no concurrent save may fail");
        assert_eq!(store.len(), FINGERPRINTS as usize);
        for v in 0..FINGERPRINTS {
            assert!(store.load(Fingerprint(v)).is_some(), "entry {v} loads");
        }
        assert_eq!(store.corrupt_dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_drops_are_counted_per_store_handle() {
        let dir = tmp_dir("corrupt-count");
        let store = StrategyStore::open(&dir).unwrap();
        let gram = Matrix::identity(4);
        assert!(store.save(Fingerprint(1), &dense_plan(4), Some(&gram)));
        assert_eq!(store.corrupt_dropped(), 0);
        // Bit-flip the entry: the next load drops it and counts the drop.
        let path = store.entry_path(Fingerprint(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(Fingerprint(1)).is_none());
        assert_eq!(store.corrupt_dropped(), 1);
        // A load of a simply-absent fingerprint is not a corruption.
        assert!(store.load(Fingerprint(2)).is_none());
        assert_eq!(store.corrupt_dropped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_fails_without_landing_bytes() {
        use crate::faults::{Fault, FaultSchedule, FaultSite};
        let dir = tmp_dir("inject-write");
        let store = StrategyStore::open(&dir).unwrap().with_injector(Arc::new(
            FaultSchedule::new().inject_at(FaultSite::StoreWrite, 0, Fault::Fail),
        ));
        let gram = Matrix::identity(4);
        let fp = Fingerprint(9);
        assert_eq!(
            store.try_save(fp, &dense_plan(4), Some(&gram)),
            SaveOutcome::Failed
        );
        assert!(!store.entry_path(fp).exists(), "clean failure: no bytes");
        // The schedule only faulted op 0: the retry writes.
        assert_eq!(
            store.try_save(fp, &dense_plan(4), Some(&gram)),
            SaveOutcome::Written
        );
        assert_eq!(
            store.try_save(fp, &dense_plan(4), Some(&gram)),
            SaveOutcome::Skipped,
            "write-once skip is not a failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_lands_a_half_entry_the_reader_drops() {
        use crate::faults::{Fault, FaultSchedule, FaultSite};
        let dir = tmp_dir("inject-torn");
        let store = StrategyStore::open(&dir).unwrap().with_injector(Arc::new(
            FaultSchedule::new().inject_at(FaultSite::StoreWrite, 0, Fault::Torn),
        ));
        let gram = Matrix::identity(4);
        let fp = Fingerprint(11);
        assert_eq!(
            store.try_save(fp, &dense_plan(4), Some(&gram)),
            SaveOutcome::Failed
        );
        assert!(
            store.entry_path(fp).exists(),
            "torn write left a half-entry"
        );
        // The reader detects the truncation, counts and deletes it …
        assert!(store.load(fp).is_none());
        assert_eq!(store.corrupt_dropped(), 1);
        assert!(!store.entry_path(fp).exists());
        // … and the slot is clear for a clean rewrite.
        assert_eq!(
            store.try_save(fp, &dense_plan(4), Some(&gram)),
            SaveOutcome::Written
        );
        assert!(store.load(fp).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_fault_skips_without_judging_the_entry() {
        use crate::faults::{Fault, FaultSchedule, FaultSite};
        let dir = tmp_dir("inject-read");
        let store = StrategyStore::open(&dir).unwrap().with_injector(Arc::new(
            FaultSchedule::new().inject_at(FaultSite::StoreRead, 0, Fault::Fail),
        ));
        let gram = Matrix::identity(4);
        let fp = Fingerprint(13);
        assert!(store.save(fp, &dense_plan(4), Some(&gram)));
        assert!(store.load(fp).is_none(), "injected read error");
        assert_eq!(store.corrupt_dropped(), 0, "nothing was judged corrupt");
        assert!(store.entry_path(fp).exists(), "entry untouched");
        assert!(store.load(fp).is_some(), "next read succeeds");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_unwritable_path() {
        // A path under a regular file cannot be a directory.
        let dir = tmp_dir("notadir");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain");
        std::fs::write(&file, b"x").unwrap();
        let err = StrategyStore::open(file.join("sub")).unwrap_err();
        assert!(matches!(err, MechanismError::Store(_)));
        assert!(err.to_string().contains("store"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
