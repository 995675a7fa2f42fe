//! Deterministic scoped-thread fan-out for CAD lifting — the one place a
//! query spawns threads (DESIGN.md §6).
//!
//! The build environment is offline (no `rayon`), so parallelism is plain
//! [`std::thread::scope`] over a shared atomic work queue. Determinism
//! contract: results are collected **in input order**, and the reported
//! error (if any) is the lowest-index error — the same one the sequential
//! loop would have hit first.
//!
//! Work is claimed in **chunks** of consecutive indices (one `fetch_add`
//! and one slot-mutex lock per chunk, not per item), so a level with
//! thousands of parent cells does not pay a SeqCst atomic plus a lock per
//! stack. Chunks are handed out in ascending order and every claimed chunk
//! is processed to completion (or to its own first error), which is what
//! keeps the lowest-index-error guarantee: the first error the sequential
//! loop would hit lives in a chunk at or below any chunk whose error
//! triggered the stop flag, and that chunk was necessarily claimed earlier.

use crate::QeError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A chunk's publication slot: `None` until the owning worker stores the
/// chunk's results (full-length, or ending at the chunk's first error).
type ChunkSlot<U> = Mutex<Option<Vec<Result<U, QeError>>>>;

/// Number of chunks each worker should get on average: small enough that
/// the claim traffic is negligible, large enough to rebalance when chunk
/// costs are skewed.
const CHUNKS_PER_WORKER: usize = 4;

/// Chunk length for `n` items over `workers` threads: `n / workers`
/// shrunk by an oversubscription factor so uneven chunks can still be
/// rebalanced, floored at 1 (heavyweight jobs keep per-item claiming).
fn chunk_len(n: usize, workers: usize) -> usize {
    (n / (workers * CHUNKS_PER_WORKER)).max(1)
}

/// Map `f` over `items` on up to `workers` scoped threads (the caller's
/// thread is worker 0), preserving input order. With `workers <= 1` (or at
/// most one item) this degenerates to the plain sequential iterator — no
/// threads are spawned. `workers` is taken as given: the caller passes
/// [`crate::QeContext::effective_workers`], which has already clamped the
/// request to the hardware.
pub(crate) fn par_map_result<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> Result<U, QeError> + Sync,
) -> Result<Vec<U>, QeError> {
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = chunk_len(n, workers);
    let nchunks = n.div_ceil(chunk);
    // SeqCst per the determinism rule: claim order and the stop flag gate
    // which slots get filled, so their ordering must not be architecture-
    // dependent. A poisoned slot mutex means a worker panicked mid-store;
    // the stored value (if any) is a fully-written `Some(..)`, so
    // recovering the inner value is sound.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // One slot per *chunk*: each chunk is exclusively owned by the worker
    // that claimed it, so a single lock per chunk publishes all its
    // results. A stored vector is either full-length (all Ok) or ends at
    // the chunk's first error.
    let slots: Vec<ChunkSlot<U>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // The stop flag is consulted only *between* chunk claims; a
        // claimed chunk always runs to completion (or to its own first
        // error). Abandoning a chunk mid-way could leave a hole below
        // another worker's error, losing the lowest-index-error guarantee.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let start = next.fetch_add(chunk, Ordering::SeqCst);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        let mut results: Vec<Result<U, QeError>> = Vec::with_capacity(end - start);
        for item in &items[start..end] {
            let r = f(item);
            let is_err = r.is_err();
            results.push(r);
            if is_err {
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
        *slots[start / chunk]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(results);
    };
    std::thread::scope(|s| {
        // The calling thread is worker 0: only `workers - 1` threads are
        // spawned, keeping one spawn off the critical path (and letting
        // small fan-outs run mostly in-place on oversubscribed hosts).
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    // Chunks are claimed contiguously from index 0, so unclaimed chunks
    // form a suffix; scanning in order meets the lowest-index error (if
    // any) before reaching it.
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some(results) => {
                for r in results {
                    out.push(r?);
                }
            }
            None => {
                return Err(QeError::Unsupported(
                    "parallel fan-out: unclaimed work chunk without a prior error".to_owned(),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_result(&items, 8, |&x| Ok(x * x)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_degenerate_case() {
        let items = [1u64, 2, 3];
        let out = par_map_result(&items, 1, |&x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn reports_lowest_index_error() {
        let items: Vec<u64> = (0..64).collect();
        let err = par_map_result(&items, 8, |&x| {
            if x >= 10 {
                Err(QeError::Unsupported(format!("item {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, QeError::Unsupported("item 10".into()));
    }

    #[test]
    fn empty_input() {
        let items: [u64; 0] = [];
        let out = par_map_result(&items, 4, |&x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_len_scales_with_input() {
        // 96 jobs over 2 workers: 12-item chunks (8 claims total) instead
        // of 96 single-item claims.
        assert_eq!(chunk_len(96, 2), 12);
        // Few heavyweight jobs: per-item claiming preserved.
        assert_eq!(chunk_len(6, 4), 1);
        assert_eq!(chunk_len(1, 2), 1);
    }

    /// Error in the middle of a chunk: everything below it is still
    /// collected deterministically and the chunk's own first error wins
    /// over later chunks' errors.
    #[test]
    fn mid_chunk_error_is_lowest_index() {
        let items: Vec<u64> = (0..97).collect(); // non-multiple of chunk len
        for workers in [2, 3, 8] {
            let err = par_map_result(&items, workers, |&x| {
                if x == 13 || x >= 40 {
                    Err(QeError::Unsupported(format!("item {x}")))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, QeError::Unsupported("item 13".into()));
        }
    }

    /// Same output for every worker count, including chunk-boundary sizes.
    #[test]
    fn worker_count_invariance() {
        for n in [1usize, 2, 7, 16, 95, 96, 97] {
            let items: Vec<u64> = (0..n as u64).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            for workers in [1usize, 2, 3, 4, 9] {
                let out = par_map_result(&items, workers, |&x| Ok(x * 3 + 1)).unwrap();
                assert_eq!(out, expect, "n={n} workers={workers}");
            }
        }
    }
}
