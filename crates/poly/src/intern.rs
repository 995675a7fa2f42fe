//! Hash-consing interner for canonical polynomial term vectors.
//!
//! Every [`crate::MPoly`] construction funnels its canonical
//! [`PolyData`](crate::mpoly::PolyData) through [`canonicalize`]: if a
//! structurally equal polynomial is already resident, the existing
//! `Arc` is handed back and the duplicate is dropped, so equal polynomials
//! share one allocation, `Clone` is a pointer bump, and `Eq` usually
//! short-circuits on pointer identity.
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
//! Memory is bounded by a per-shard watermark: when a shard grows past it,
//! entries no longer referenced outside the interner (`strong_count == 1`)
//! are swept. All metrics counters are `SeqCst`, per the PR 4 determinism
//! sweep.

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

/// Per-shard GC watermark, measured in distinct content hashes (buckets are
/// almost always singletons, so this tracks entry count to within hash
/// collisions). 16 shards × 4096 ≈ 64k resident polynomials.
const SHARD_WATERMARK: usize = 4096;

/// hash → all resident polynomials with that content hash. Buckets guard
/// against hash collisions: a hit requires full structural equality.
/// Keyed lookups only (see the allow on the import above).
#[allow(clippy::disallowed_types)]
type ShardMap = HashMap<u64, Vec<Arc<PolyData>>>;

#[allow(clippy::disallowed_types)]
// cdb-lint: allow(determinism-taint) — the shard map is keyed lookup/insert
// only (content hash → bucket, hit requires structural equality); iteration
// order never reaches canonical ids or result bytes
fn pool() -> &'static Vec<Mutex<ShardMap>> {
    static POOL: OnceLock<Vec<Mutex<ShardMap>>> = OnceLock::new();
    POOL.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect())
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static ENTRIES: AtomicU64 = AtomicU64::new(0);

/// Intern a canonical polynomial: return the resident `Arc` for a
/// structurally equal polynomial if one exists, else insert `data`.
pub(crate) fn canonicalize(data: PolyData) -> Arc<PolyData> {
    let shards = pool();
    let idx = (data.hash as usize) & (SHARDS - 1);
    let mut map = shards[idx].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(bucket) = map.get(&data.hash) {
        if let Some(found) = bucket
            .iter()
            .find(|c| c.nvars == data.nvars && c.terms == data.terms)
        {
            HITS.fetch_add(1, Ordering::SeqCst);
            return Arc::clone(found);
        }
    }
    MISSES.fetch_add(1, Ordering::SeqCst);
    if map.len() >= SHARD_WATERMARK {
        sweep(&mut map);
    }
    let arc = Arc::new(data);
    map.entry(arc.hash).or_default().push(Arc::clone(&arc));
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
