//! Thread-count policy for the parallel kernels in this crate.
//!
//! Every threaded kernel (`ops::matmul`, `ops::syrk_sub_lower`,
//! `ops::trsm_right_transpose_lower`, the blocked Cholesky and the symmetric
//! eigensolver) asks this module how many worker threads to use instead of
//! querying the machine ad hoc.  The policy, in precedence order:
//!
//! 1. a programmatic override set with [`set_max_threads`] (what the
//!    determinism tests and embedding applications use),
//! 2. the `MM_LINALG_THREADS` environment variable (read once, at first use),
//! 3. [`std::thread::available_parallelism`].
//!
//! A kernel granted one thread runs on the calling thread and starts none.
//!
//! # Determinism contract
//!
//! The thread count never changes *what* is computed — only who computes it.
//! Every parallel kernel in this crate partitions its work over **fixed block
//! boundaries** (block sizes are compile-time constants, independent of the
//! thread count) and accumulates each output entry, or each per-block partial,
//! in a fixed sequential order; per-block partials are always combined in
//! ascending block order.  Results are therefore deterministic for a fixed
//! input and **bit-identical across thread counts** — `MM_LINALG_THREADS=1`
//! and `MM_LINALG_THREADS=64` produce the same bytes.  The regression test
//! `tests/determinism.rs` (workspace root) enforces this end to end, from the
//! raw kernels up through `Engine::answer`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `MM_LINALG_THREADS`, parsed once at first use.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("MM_LINALG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Sets (or with `None` clears) the process-wide thread-count override.
///
/// Takes precedence over `MM_LINALG_THREADS` and the detected parallelism.
/// Values are clamped to at least 1.  Thanks to the determinism contract this
/// knob only affects wall-clock time, never results.
pub fn set_max_threads(threads: Option<usize>) {
    OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The maximum number of worker threads a kernel may use right now.
pub fn max_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Thread count for a kernel with `items` independent work items: at most
/// [`max_threads`], at most one thread per item, at least 1.
pub fn threads_for(items: usize) -> usize {
    max_threads().min(items).max(1)
}

/// Runs `f(row_index, row)` over the first `rows` rows of a row-major slab
/// on `threads` workers — the shared harness for kernels whose output rows
/// are independent (the SYRK trailing update, TRSM row solves and the
/// eigensolver's rank-1/2 row updates).
///
/// Each worker owns a contiguous chunk of `ceil(rows / threads)` rows and
/// every row's update order is fixed by `f` alone, so the partitioning obeys
/// the determinism contract above: results are bit-identical for any thread
/// count.
pub fn for_rows<F>(data: &mut [f64], row_len: usize, rows: usize, threads: usize, f: &F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let data = &mut data[..rows * row_len];
    if threads <= 1 {
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(i, row);
        }
        return;
    }
    let chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slab) in data.chunks_mut(chunk * row_len).enumerate() {
            scope.spawn(move || {
                for (di, row) in slab.chunks_mut(row_len).enumerate() {
                    f(t * chunk + di, row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_for_clamps() {
        // Regardless of the machine, the invariants hold.
        assert!(threads_for(0) == 1);
        assert!(threads_for(1) == 1);
        assert!(threads_for(usize::MAX) >= 1);
        assert!(threads_for(3) <= 3);
    }

    #[test]
    fn override_wins_and_clears() {
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        assert_eq!(threads_for(8), 3);
        assert_eq!(threads_for(2), 2);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }
}
