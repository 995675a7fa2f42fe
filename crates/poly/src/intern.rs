//! Hash-consing interner for canonical polynomial term vectors.
//!
//! Every [`crate::MPoly`] is born by sealing a canonical
//! [`Terms`](crate::Terms) vector ([`Terms::seal`](crate::Terms::seal)),
//! and sealing funnels the resulting [`PolyData`](crate::mpoly::PolyData)
//! through [`canonicalize`]: if a structurally equal polynomial is already
//! resident, the existing `Arc` is handed back and the duplicate is
//! dropped, so equal polynomials share one allocation, `Clone` is a pointer
//! bump, and `Eq` usually short-circuits on pointer identity.
//! Intermediates that a kernel builds and discards in `Terms` never reach
//! the interner (DESIGN.md §10.2).
//!
//! Determinism: interning changes **sharing**, never **values**. Handles
//! carry a content hash computed from `(nvars, terms)` with the fixed-key
//! `DefaultHasher`, so ids ([`crate::PolyId`]) are a pure function of the
//! polynomial — independent of insertion order, eviction history or thread
//! schedule. A lookup miss yields a fresh allocation whose observable
//! behaviour is identical.
//!
//! Concurrency: 16 shards, each a `Mutex` around a hash → bucket map
//! (the PR 1 `AlgebraicCache` pattern), poisoned locks recovered with
//! `PoisonError::into_inner` (the data is a grow-only map of immutable
//! entries — always valid). [`canonicalize`] takes exactly one lock, never
//! nested, and never calls back into polynomial code while holding it.
//! Memory is bounded by a per-shard sweep: when a shard reaches its
//! threshold, entries no longer referenced outside the interner
//! (`strong_count == 1`) are swept, and the threshold re-arms at twice what
//! survived (never below [`SHARD_WATERMARK`]) — so a shard full of live
//! polynomials is swept O(log n) times over n misses, not on every miss.
//! All metrics counters are `SeqCst`, per the PR 4 determinism sweep.

use crate::mpoly::PolyData;
// Keyed lookups only — bucket iteration order never reaches any output, and
// `cdb_poly` is outside the determinism-rule scope anyway; results are
// content-addressed (the same contract as cdb-qe's memo shards).
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock, PoisonError};

const SHARDS: usize = 16;

/// Least per-shard sweep threshold, measured in distinct content hashes
/// (buckets are almost always singletons, so this tracks entry count to
/// within hash collisions). 16 shards × 4096 ≈ 64k resident polynomials
/// before the first sweep.
const SHARD_WATERMARK: usize = 4096;

/// hash → all resident polynomials with that content hash. Buckets guard
/// against hash collisions: a hit requires full structural equality.
/// Keyed lookups only (see the allow on the import above).
#[allow(clippy::disallowed_types)]
type ShardMap = HashMap<u64, Vec<Arc<PolyData>>>;

/// One interner shard: its map and the size at which the next miss sweeps.
struct Shard {
    map: ShardMap,
    threshold: usize,
}

impl Shard {
    // cdb-lint: allow(determinism-taint) — the shard map is keyed lookup/insert
    // only (content hash → bucket, hit requires structural equality); iteration
    // order never reaches canonical ids or result bytes
    fn new() -> Shard {
        Shard {
            #[allow(clippy::disallowed_types)]
            map: HashMap::new(),
            threshold: SHARD_WATERMARK,
        }
    }

    /// Insert a polynomial known to be absent, sweeping first when the
    /// shard has reached its threshold.
    fn insert(&mut self, data: PolyData) -> Arc<PolyData> {
        if self.map.len() >= self.threshold {
            sweep(&mut self.map);
            self.threshold = rearm(self.map.len());
        }
        let arc = Arc::new(data);
        self.map.entry(arc.hash).or_default().push(Arc::clone(&arc));
        arc
    }
}

/// The threshold after a sweep that left `live` keys: twice the survivors,
/// never below [`SHARD_WATERMARK`]. Doubling makes sweeps geometric in the
/// live set, so their total cost stays linear in the misses.
fn rearm(live: usize) -> usize {
    SHARD_WATERMARK.max(2 * live)
}

fn pool() -> &'static Vec<Mutex<Shard>> {
    static POOL: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
    POOL.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect())
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static ENTRIES: AtomicU64 = AtomicU64::new(0);

/// Intern a canonical polynomial: return the resident `Arc` for a
/// structurally equal polynomial if one exists, else insert `data`.
pub(crate) fn canonicalize(data: PolyData) -> Arc<PolyData> {
    let shards = pool();
    let idx = (data.hash as usize) & (SHARDS - 1);
    let mut shard = shards[idx].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(bucket) = shard.map.get(&data.hash) {
        if let Some(found) = bucket.iter().find(|c| c.body == data.body) {
            HITS.fetch_add(1, Ordering::SeqCst);
            return Arc::clone(found);
        }
    }
    MISSES.fetch_add(1, Ordering::SeqCst);
    let arc = shard.insert(data);
    ENTRIES.fetch_add(1, Ordering::SeqCst);
    arc
}

/// Drop every entry no longer referenced outside the interner. Called with
/// the shard lock held; touches no other locks.
fn sweep(map: &mut ShardMap) {
    let mut removed = 0u64;
    map.retain(|_, bucket| {
        bucket.retain(|a| {
            if Arc::strong_count(a) > 1 {
                true
            } else {
                removed += 1;
                false
            }
        });
        !bucket.is_empty()
    });
    if removed > 0 {
        ENTRIES.fetch_sub(removed, Ordering::SeqCst);
    }
}

/// Interner occupancy and traffic counters (all `SeqCst` reads).
#[derive(Debug, Clone, Copy)]
pub struct InternStats {
    /// Resident canonical polynomials.
    pub entries: u64,
    /// Lookups answered by an already-resident polynomial.
    pub hits: u64,
    /// Lookups that inserted a new polynomial.
    pub misses: u64,
}

/// Snapshot the interner metrics.
#[must_use]
pub fn stats() -> InternStats {
    InternStats {
        entries: ENTRIES.load(Ordering::SeqCst),
        hits: HITS.load(Ordering::SeqCst),
        misses: MISSES.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Terms;
    use cdb_num::Rat;

    /// A distinct payload per `k` (the constant `k + 1`, hashed as `k`),
    /// built without touching the global pool.
    fn payload(k: u64) -> PolyData {
        PolyData {
            body: Terms::constant(Rat::from(k as i64 + 1), 1),
            hash: k,
            total_degree: 0,
            var_degrees: vec![0],
        }
    }

    #[test]
    fn rearm_doubles_the_survivors() {
        assert_eq!(rearm(0), SHARD_WATERMARK);
        assert_eq!(rearm(SHARD_WATERMARK / 2), SHARD_WATERMARK);
        assert_eq!(rearm(SHARD_WATERMARK), 2 * SHARD_WATERMARK);
        assert_eq!(rearm(10 * SHARD_WATERMARK), 20 * SHARD_WATERMARK);
    }

    /// N misses over entries that all stay referenced sweep O(log N) times:
    /// each sweep frees nothing, so the threshold must double past it.
    #[test]
    fn live_shard_sweeps_logarithmically() {
        let n = 16 * SHARD_WATERMARK as u64;
        let mut shard = Shard::new();
        let mut live = Vec::new();
        let mut sweeps = 0u32;
        for k in 0..n {
            // A sweep over live entries always moves the threshold up.
            let before = shard.threshold;
            live.push(shard.insert(payload(k)));
            sweeps += u32::from(shard.threshold != before);
        }
        assert_eq!(shard.map.len() as u64, n);
        // Sweeps at 4096, 8192, 16384 and 32768 keys; the next threshold
        // is n itself.
        assert_eq!(sweeps, 4, "sweeps over {n} live misses");
    }

    /// Dead entries are still reclaimed, and the threshold falls back to
    /// the watermark once the survivors are few.
    #[test]
    fn dead_entries_are_swept_and_threshold_resets() {
        let mut shard = Shard::new();
        for k in 0..SHARD_WATERMARK as u64 {
            drop(shard.insert(payload(k)));
        }
        let _kept = shard.insert(payload(u64::MAX));
        assert_eq!(shard.map.len(), 1, "the dead entries were swept");
        assert_eq!(shard.threshold, SHARD_WATERMARK);
    }
}
