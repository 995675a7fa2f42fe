//! Hash-consing interner for canonical polynomial term vectors.
//!
//! Every [`crate::MPoly`] is born by sealing a canonical
//! [`Terms`] vector ([`Terms::seal`]),
//! and sealing funnels the vector and its content hash through
//! `canonicalize`: if a structurally equal polynomial is already resident,
//! the existing `Arc` is handed back and the vector is dropped, so equal
//! polynomials share one allocation, `Clone` is a pointer bump, and `Eq`
//! usually short-circuits on pointer identity. A hit builds nothing: the
//! degree caches of `PolyData` are computed on a miss only. Intermediates
//! that a kernel builds and discards in `Terms` never reach the interner
//! (DESIGN.md §10.2).
//!
//! Determinism: interning changes **sharing**, never **values**. Handles
//! carry a content hash computed from `(nvars, terms)` with the fixed-key
//! [`cdb_num::hash::ContentHasher`], so ids ([`crate::PolyId`]) are a pure
//! function of the polynomial — independent of insertion order, eviction
//! history or thread schedule. A lookup miss yields a fresh allocation
//! whose observable behaviour is identical.
//!
//! Concurrency: 16 shards, each a leaf-ranked mutex
//! ([`cdb_num::ranked::Rank::InternerShard`]) around a hash → bucket map
//! (the `AlgebraicCache` pattern) and the shard's traffic counters;
//! the lock recovers a poisoned shard (the data is a grow-only map of
//! immutable entries and three counts — always valid). `canonicalize`
//! takes exactly one lock, never nested, and never calls back into
//! polynomial code while holding it; [`stats`] takes the shard locks one
//! at a time. The map is keyed by finished content hashes, so it
//! hashes them with the same word hasher rather than re-hashing them with
//! a keyed one.
//! Memory is bounded by a per-shard sweep: when a shard reaches its
//! threshold, entries no longer referenced outside the interner
//! (`strong_count == 1`) are swept, and the threshold re-arms at twice what
//! survived (never below `SHARD_WATERMARK`) — so a shard full of live
//! polynomials is swept O(log n) times over n misses, not on every miss.
//! An entry's memoised primitive and squarefree parts are handles to other
//! entries, never in a cycle (DESIGN.md §10.2), so a form stays resident
//! while an entry points at it and goes at the first sweep after that.

use crate::mpoly::PolyData;
use crate::Terms;
use cdb_num::hash::BuildContentHasher;
use cdb_num::ranked::{Rank, Ranked};
// Keyed lookups only — bucket iteration order never reaches any output, and
// `cdb_poly` is outside the determinism-rule scope anyway; results are
// content-addressed (the same contract as cdb-qe's memo shards).
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;

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
type ShardMap = HashMap<u64, Vec<Arc<PolyData>>, BuildContentHasher>;

/// One interner shard: its map, the size at which the next miss sweeps, and
/// its counters, kept under the shard's lock.
struct Shard {
    map: ShardMap,
    threshold: usize,
    /// Resident polynomials.
    entries: u64,
    /// Lookups answered by a resident polynomial.
    hits: u64,
    /// Lookups that inserted a new polynomial.
    misses: u64,
}

impl Shard {
    // cdb-lint: allow(determinism-taint) — the shard map is keyed lookup/insert
    // only (content hash → bucket, hit requires structural equality); iteration
    // order never reaches canonical ids or result bytes
    fn new() -> Shard {
        Shard {
            #[allow(clippy::disallowed_types)]
            map: HashMap::default(),
            threshold: SHARD_WATERMARK,
            entries: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The resident polynomial equal to `body`, if any, counting the
    /// lookup as a hit or a miss.
    fn find(&mut self, body: &Terms, hash: u64) -> Option<Arc<PolyData>> {
        let found = self
            .map
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|c| c.body == *body))
            .cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Insert a polynomial known to be absent, sweeping first when the
    /// shard has reached its threshold.
    fn insert(&mut self, data: PolyData) -> Arc<PolyData> {
        if self.map.len() >= self.threshold {
            self.entries -= sweep(&mut self.map);
            self.threshold = rearm(self.map.len());
        }
        let arc = Arc::new(data);
        self.map.entry(arc.hash).or_default().push(Arc::clone(&arc));
        self.entries += 1;
        arc
    }
}

/// The threshold after a sweep that left `live` keys: twice the survivors,
/// never below [`SHARD_WATERMARK`]. Doubling makes sweeps geometric in the
/// live set, so their total cost stays linear in the misses.
fn rearm(live: usize) -> usize {
    SHARD_WATERMARK.max(2 * live)
}

fn pool() -> &'static Vec<Ranked<Shard>> {
    static POOL: OnceLock<Vec<Ranked<Shard>>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..SHARDS)
            .map(|_| Ranked::new(Rank::InternerShard, Shard::new()))
            .collect()
    })
}

/// Intern the canonical term vector `body`, whose content hash is `hash`:
/// return the resident `Arc` for a structurally equal polynomial if one
/// exists, else seal `body` into a new entry.
pub(crate) fn canonicalize(body: Terms, hash: u64) -> Arc<PolyData> {
    let idx = (hash as usize) & (SHARDS - 1);
    let mut shard = pool()[idx].lock();
    // On a hit `body` is dropped after the guard, outside the lock.
    match shard.find(&body, hash) {
        Some(found) => found,
        None => shard.insert(PolyData::new(body, hash)),
    }
}

/// Drop every entry no longer referenced outside the interner, returning
/// how many went. Called with the shard lock held; touches no other locks.
fn sweep(map: &mut ShardMap) -> u64 {
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
    removed
}

/// Interner occupancy and traffic counters, summed over the shards.
#[derive(Debug, Clone, Copy)]
pub struct InternStats {
    /// Resident canonical polynomials.
    pub entries: u64,
    /// Lookups answered by an already-resident polynomial.
    pub hits: u64,
    /// Lookups that inserted a new polynomial.
    pub misses: u64,
}

/// Snapshot the interner metrics. Each shard is read under its lock, so
/// the counts are exact whenever no seal runs concurrently.
#[must_use]
pub fn stats() -> InternStats {
    let mut sum = InternStats {
        entries: 0,
        hits: 0,
        misses: 0,
    };
    for shard in pool() {
        let shard = shard.lock();
        sum.entries += shard.entries;
        sum.hits += shard.hits;
        sum.misses += shard.misses;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Terms;
    use cdb_num::Rat;

    /// A distinct payload per `k` (the constant `k + 1`, hashed as `k`),
    /// built without touching the global pool.
    fn payload(k: u64) -> PolyData {
        PolyData::new(Terms::constant(Rat::from(k as i64 + 1), 1), k)
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
