//! Shared algebraic memo-cache for the QE hot path.
//!
//! CAD projection and lifting recompute the same resultants,
//! discriminants and normal forms many times: projection emits pairwise
//! resultants level by level, every stack lifted over an algebraic sample
//! eliminates the coordinates by resultants against the same minimal
//! polynomials, and every polynomial entering a CAD level — an input, a
//! projection output, a coefficient or discriminant tested for zero over a
//! parent cell — is first replaced by its primitive squarefree part
//! ([`crate::cad::project::normalize`], a multivariate gcd). Queries over
//! the same stored relations keep feeding the same polynomials back in.
//! All three operations are *pure* functions of their (canonicalized)
//! polynomial arguments, so memoizing them cannot change any result — only
//! skip redundant work.
//!
//! # Cache key canonicalization
//!
//! [`MPoly`] stores polynomials canonically (sorted monomials, no explicit
//! zeros, normalized rationals), so structural equality coincides with
//! mathematical equality
//! and the polynomial itself serves as the key — no separate canonical form
//! is computed, and a key hashes the polynomial's content hash (its
//! `PolyId`), not its terms. Resultant keys are *ordered* pairs
//! `(p, q, var)`: `res(p, q)` and `res(q, p)` differ by sign, so the two
//! orders are cached independently rather than folded together.
//!
//! # Concurrency
//!
//! The table is sharded (`Arc<[Mutex<HashMap>]>`): the shard index is
//! derived from the key hash, so concurrent workers contend only when they
//! touch the same slice of the key space. Values are computed *outside* the
//! shard lock; two workers racing on the same missing key may both compute
//! it, but the functions are pure so either result is identical and the
//! insert is idempotent.
//!
//! # Size bound
//!
//! Each shard is bounded: inserting a new key into a shard that has reached
//! its per-shard capacity clears that shard first, and the entries dropped
//! are counted in [`AlgebraicCache::evictions`] next to hits/misses (the
//! statement benchmark reports all three as `qe.cache.*`). No recency is
//! kept: no workload has ever filled a shard, so the bound is a safety
//! property for long-lived server contexts, not a replacement policy.
//!
//! # Sharing and invalidation
//!
//! The cache is a cheap-to-clone handle (`Arc` around the shard table):
//! cloning shares the entries and counters, so a long-lived owner — the
//! `constraintdb` facade, every server session's snapshot — hands the
//! *same* cache to every per-call `QeContext` instead of rebuilding a cold
//! one per call. Entries are pure functions of their polynomial keys and
//! can never go stale. The facade's destructive writes call
//! [`AlgebraicCache::invalidate`] anyway; nothing needs the wipe
//! (`crates/core/tests/update_path.rs` pins warm ≡ cold), and it goes once
//! the frozen benchmark stops asserting that it fired (the ROADMAP's
//! unfreeze ledger).

use crate::cad::project::normalize;
use cdb_num::hash::BuildContentHasher;
use cdb_poly::resultant as resfn;
use cdb_poly::MPoly;
#[allow(clippy::disallowed_types)]
// cdb-lint: allow(determinism) — bounded memo table: the map is only ever
// read by key, counted (`len`) and emptied (`clear`), never iterated, and
// cached values are pure functions of the key, so cache contents can never
// alter a result.
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent lock shards; a small power of two keeps the
/// modulo cheap while comfortably exceeding typical worker counts.
const SHARD_COUNT: usize = 16;

/// Default total entry capacity (spread across the shards). Each entry is a
/// polynomial — tens of thousands comfortably fit in memory
/// while covering every workload in the test and bench suites without a
/// single eviction.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Memoized operation + canonicalized arguments.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    /// `res_var(p, q)` — ordered pair (resultant is antisymmetric up to sign).
    Resultant(MPoly, MPoly, usize),
    /// `disc_var(p)`.
    Discriminant(MPoly, usize),
    /// `normalize(p)` of a non-constant `p`; the entry holds the normal
    /// form, or a constant where `normalize` found none (a normal form is
    /// never constant, so the two cannot be confused).
    Normal(MPoly),
}

#[allow(clippy::disallowed_types)]
// cdb-lint: allow(determinism) — see the `use` above: keyed access, `len`
// and `clear` only.
type Shard = Mutex<HashMap<Key, MPoly, BuildContentHasher>>;

/// Sharded, thread-safe, size-bounded memo-cache for resultants,
/// discriminants and CAD normal forms. One instance lives on
/// [`crate::QeContext`] and is shared by every worker of a parallel
/// elimination; `clone()` is a shallow handle copy, so one instance can
/// also be shared *across* contexts (see the module docs).
#[derive(Clone)]
pub struct AlgebraicCache {
    inner: Arc<CacheInner>,
}

struct CacheInner {
    shards: Box<[Shard]>,
    /// Maximum entries *per shard*; a new key arriving at a full shard
    /// clears it.
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for AlgebraicCache {
    fn default() -> AlgebraicCache {
        AlgebraicCache::new()
    }
}

impl std::fmt::Debug for AlgebraicCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgebraicCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl AlgebraicCache {
    /// An empty cache with the default capacity ([`DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn new() -> AlgebraicCache {
        AlgebraicCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache bounded at roughly `capacity` total entries (rounded
    /// up to a multiple of the shard count; at least one entry per shard).
    /// Private: [`DEFAULT_CAPACITY`] is the one size outside this module's
    /// eviction test.
    #[must_use]
    fn with_capacity(capacity: usize) -> AlgebraicCache {
        let shards: Vec<Shard> = (0..SHARD_COUNT)
            .map(|_| {
                #[allow(clippy::disallowed_types)]
                // cdb-lint: allow(determinism) — see the `use` above: keyed
                // access, `len` and `clear` only.
                Mutex::new(HashMap::default())
            })
            .collect();
        AlgebraicCache {
            inner: Arc::new(CacheInner {
                shards: shards.into(),
                per_shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// True iff `other` is a handle to this very cache (shares entries and
    /// counters) — the property the context-threading tests pin.
    #[must_use]
    pub fn shares_storage_with(&self, other: &AlgebraicCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Drop every memoized entry, returning how many were removed. Entries
    /// are pure functions of their keys, so this can never change a result
    /// and no write can make one stale; the facade's destructive writes
    /// call it all the same, for as long as the frozen benchmark
    /// (`stmtbench/`) names it and asserts that they do.
    // frozen harness: `stmtbench` calls it and asserts the wipes fire.
    pub fn invalidate(&self) -> usize {
        let mut removed = 0usize;
        for shard in self.inner.shards.iter() {
            let mut guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            removed += guard.len();
            guard.clear();
        }
        removed
    }

    /// The shard of `key`, picked by bits 32 and up of its hash: the
    /// shard's own map places the key by the low bits and tags it with the
    /// top seven of the same hash, so those must vary within a shard.
    fn shard_of(&self, key: &Key) -> &Shard {
        let h = BuildContentHasher::default().hash_one(key);
        &self.inner.shards[((h >> 32) as usize) % self.inner.shards.len()]
    }

    /// Look up `key`, or compute it with `f` (outside the shard lock) and
    /// insert, clearing the shard first when it is full. Pure `f` makes the
    /// compute-twice race benign. A poisoned shard holds a structurally
    /// valid map (std's `HashMap` never unwinds mid-rehash into an invalid
    /// state) of fully-constructed pure entries, so poison recovery is
    /// sound here.
    fn get_or_insert(&self, key: Key, f: impl FnOnce() -> MPoly) -> MPoly {
        let shard = self.shard_of(&key);
        if let Some(v) = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.inner.hits.fetch_add(1, Ordering::SeqCst);
            return v.clone();
        }
        self.inner.misses.fetch_add(1, Ordering::SeqCst);
        let v = f();
        let mut guard = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !guard.contains_key(&key) && guard.len() >= self.inner.per_shard_capacity {
            self.inner
                .evictions
                .fetch_add(guard.len() as u64, Ordering::SeqCst);
            guard.clear();
        }
        guard.entry(key).or_insert(v).clone()
    }

    /// Memoized `res_var(p, q)`.
    #[must_use]
    pub fn resultant(&self, p: &MPoly, q: &MPoly, var: usize) -> MPoly {
        self.get_or_insert(Key::Resultant(p.clone(), q.clone(), var), || {
            resfn::resultant(p, q, var)
        })
    }

    /// Memoized `disc_var(p)` (requires `degree_in(var) >= 1`, as the
    /// underlying [`cdb_poly::resultant::discriminant`] does).
    #[must_use]
    pub fn discriminant(&self, p: &MPoly, var: usize) -> MPoly {
        self.get_or_insert(Key::Discriminant(p.clone(), var), || {
            resfn::discriminant(p, var)
        })
    }

    /// Memoized [`normalize`]`(p)`: the primitive squarefree part a
    /// polynomial enters a CAD level as, `None` when it is (effectively)
    /// constant. A constant `p` is answered without a lookup.
    #[must_use]
    pub fn normal_form(&self, p: &MPoly) -> Option<MPoly> {
        if p.is_constant() {
            return None;
        }
        let n = self.get_or_insert(Key::Normal(p.clone()), || {
            normalize(p).unwrap_or_else(|| MPoly::zero(p.nvars()))
        });
        (!n.is_constant()).then_some(n)
    }

    /// Total lookups that found an entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::SeqCst)
    }

    /// Total lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::SeqCst)
    }

    /// Total entries displaced by the size bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::SeqCst)
    }

    /// Total entry capacity across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.per_shard_capacity * self.inner.shards.len()
    }

    /// Current entry count of each shard (index = shard number).
    fn shard_entry_counts(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .collect()
    }

    /// Number of memoized entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shard_entry_counts().iter().sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_num::Rat;

    fn xy_poly() -> MPoly {
        // x² + y² − 1 in 2 vars.
        MPoly::from_terms(
            2,
            vec![
                (vec![2, 0], Rat::one()),
                (vec![0, 2], Rat::one()),
                (vec![0, 0], -Rat::one()),
            ],
        )
    }

    #[test]
    fn resultant_hits_on_repeat() {
        let cache = AlgebraicCache::new();
        let p = xy_poly();
        let q = &MPoly::var(0, 2) - &MPoly::var(1, 2);
        let r1 = cache.resultant(&p, &q, 1);
        let r2 = cache.resultant(&p, &q, 1);
        assert_eq!(r1, r2);
        assert_eq!(r1, resfn::resultant(&p, &q, 1));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn ordered_pair_keys_are_distinct() {
        let cache = AlgebraicCache::new();
        let p = xy_poly();
        let q = &MPoly::var(0, 2) - &MPoly::var(1, 2);
        let _ = cache.resultant(&p, &q, 1);
        let _ = cache.resultant(&q, &p, 1);
        assert_eq!(cache.misses(), 2, "res(p,q) and res(q,p) differ by sign");
    }

    /// `x² − c` in one variable: a distinct key for every `c`.
    fn shifted_square(c: i64) -> MPoly {
        MPoly::from_terms(1, vec![(vec![2], Rat::one()), (vec![0], Rat::from(-c))])
    }

    #[test]
    fn discriminant_memoized() {
        let cache = AlgebraicCache::new();
        let p = xy_poly();
        let d1 = cache.discriminant(&p, 1);
        let d2 = cache.discriminant(&p, 1);
        assert_eq!(d1, d2);
        assert_eq!(d1, resfn::discriminant(&p, 1));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    /// Clones are handles onto one shared table: entries and counters
    /// inserted through one handle are visible through the other, and
    /// `invalidate` empties both while leaving results correct.
    #[test]
    fn clone_shares_storage_and_invalidate_clears() {
        let a = AlgebraicCache::new();
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert!(!a.shares_storage_with(&AlgebraicCache::new()));

        let p = xy_poly();
        let q = &MPoly::var(0, 2) - &MPoly::var(1, 2);
        let r1 = a.resultant(&p, &q, 1);
        let r2 = b.resultant(&p, &q, 1);
        assert_eq!(r1, r2);
        assert_eq!(b.hits(), 1, "clone must see the entry the original made");
        assert_eq!(b.len(), 1);

        let removed = b.invalidate();
        assert_eq!(removed, 1);
        assert!(a.is_empty(), "invalidate through one handle empties all");

        // Post-invalidation lookups recompute and still agree exactly.
        let r3 = a.resultant(&p, &q, 1);
        assert_eq!(r3, resfn::resultant(&p, &q, 1));
        assert_eq!(a.misses(), 2);
    }

    /// Long-lived-context bound: a stream of distinct keys far exceeding the
    /// configured capacity must leave the entry count at or below the cap,
    /// with the overflow reported as evictions.
    #[test]
    fn eviction_bounds_long_lived_context() {
        let cap = 32;
        let cache = AlgebraicCache::with_capacity(cap);
        assert_eq!(cache.capacity(), cap);
        for i in 0..10 * cap as i64 {
            let _ = cache.discriminant(&shifted_square(i), 0);
        }
        assert!(
            cache.len() <= cache.capacity(),
            "len {} exceeds capacity {}",
            cache.len(),
            cache.capacity()
        );
        assert!(cache.evictions() > 0, "overflow must evict");
        assert_eq!(cache.misses(), 10 * cap as u64);
        let per_shard = cache.capacity() / SHARD_COUNT;
        for (i, n) in cache.shard_entry_counts().iter().enumerate() {
            assert!(*n <= per_shard, "shard {i} holds {n} > {per_shard}");
        }
        // Evicted entries are recomputed on re-access and hit thereafter.
        let p = shifted_square(1);
        let d1 = cache.discriminant(&p, 0);
        let hits = cache.hits();
        assert_eq!(cache.discriminant(&p, 0), d1);
        assert_eq!(d1, resfn::discriminant(&p, 0));
        assert_eq!(cache.hits(), hits + 1, "recomputed entry must be kept");
    }

    /// `(x − y)²·(x + 1)` in 2 vars: content in `y` and a repeated factor.
    fn content_and_square() -> MPoly {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let one = MPoly::constant(Rat::one(), 2);
        &(&x - &y).pow(2) * &(&x + &one)
    }

    #[test]
    fn normal_form_hits_on_repeat() {
        let cache = AlgebraicCache::new();
        let p = content_and_square();
        let n1 = cache.normal_form(&p);
        let n2 = cache.normal_form(&p);
        assert_eq!(n1, normalize(&p));
        assert_eq!(n1, n2);
        assert!(n1.is_some_and(|n| n != p), "a repeated factor must go");
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 1, 1));
    }

    /// A constant input has no normal form and is answered without a
    /// lookup; a stored constant reads back as no normal form, the way
    /// `normalize` answers a constant squarefree part.
    #[test]
    fn constants_have_no_normal_form() {
        let cache = AlgebraicCache::new();
        for c in [Rat::zero(), Rat::from(5i64)] {
            let k = MPoly::constant(c, 2);
            assert_eq!(normalize(&k), None);
            assert_eq!(cache.normal_form(&k), None);
        }
        assert_eq!(cache.hits() + cache.misses(), 0);
        let p = xy_poly();
        let stored = cache.get_or_insert(Key::Normal(p.clone()), || MPoly::zero(2));
        assert!(stored.is_zero());
        assert_eq!(cache.normal_form(&p), None);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = AlgebraicCache::new();
        let p = xy_poly();
        let q = &MPoly::var(0, 2) - &MPoly::var(1, 2);
        let expect = resfn::resultant(&p, &q, 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(cache.resultant(&p, &q, 1), expect);
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 32);
        assert!(cache.misses() >= 1);
        assert_eq!(cache.len(), 1);
    }
}
