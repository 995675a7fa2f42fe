//! The workspace's one mutex, ranked by the lock order (DESIGN.md §13).
//!
//! Every lock a library crate owns is a [`Ranked`] and names its [`Rank`]
//! when it is built. The order has one root and three leaves: the server's
//! master database is taken first, and under it any one of a memo-cache
//! shard, an interner shard or the CAD lift pool. Nothing is taken while a
//! leaf is held, not even a second lock of the same class, and a second
//! master is never taken under the first.
//!
//! The order is checked where locks are taken. In a build with debug
//! assertions, [`Ranked::lock`] keeps a thread-local set of the ranks the
//! thread holds and `debug_assert!`s that the new rank may follow every one
//! of them; the failure names both ranks. The guard's drop takes its rank
//! out of the set again, on unwinding too and in whatever order guards are
//! released. The debug build also records, process-wide, which (held,
//! taken) pairs of ranks it has seen ([`edges_seen`]), so a test can show
//! that a path really drives an edge of the order. A release build keeps
//! none of this: `lock` is the plain `Mutex::lock`.
//!
//! `lock` also recovers a poisoned mutex. Every critical section in the
//! workspace stores whole values, so a holder that panicked left valid data
//! behind.

use std::ops::{Deref, DerefMut};
// The one `std::sync::Mutex` of the library crates: every other lock wraps
// it through `Ranked` and so takes a place in the order.
#[allow(clippy::disallowed_types)]
use std::sync::Mutex;
use std::sync::{Condvar, MutexGuard, PoisonError};

/// A lock class's place in the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    /// The server's master database, taken before any other lock.
    DbMaster,
    /// A shard of the algebraic memo-cache. A leaf.
    CacheShard,
    /// A shard of the polynomial interner. A leaf.
    InternerShard,
    /// The CAD lift pool's job queue, or a job's result table. A leaf.
    LiftPool,
}

impl Rank {
    /// The name a lock-order failure gives the rank.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rank::DbMaster => "db-master",
            Rank::CacheShard => "cache-shard",
            Rank::InternerShard => "interner-shard",
            Rank::LiftPool => "lift-pool",
        }
    }

    /// Whether a thread that holds a `self` lock may take a `next` one:
    /// the master may be followed by any leaf, and a leaf by nothing.
    #[must_use]
    pub fn may_precede(self, next: Rank) -> bool {
        self == Rank::DbMaster && next != Rank::DbMaster
    }
}

/// A mutex with a rank in the lock order (see the module docs).
pub struct Ranked<T> {
    rank: Rank,
    #[allow(clippy::disallowed_types)]
    mutex: Mutex<T>,
}

impl<T> Ranked<T> {
    /// A mutex of rank `rank` around `value`.
    #[allow(clippy::disallowed_types)]
    pub const fn new(rank: Rank, value: T) -> Ranked<T> {
        Ranked {
            rank,
            mutex: Mutex::new(value),
        }
    }

    /// Block until the lock is free and take it, recovering the value of a
    /// poisoned mutex. With debug assertions on, panics when the calling
    /// thread holds a lock this one may not follow.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        let held = Held::take(self.rank);
        RankedGuard {
            guard: self.mutex.lock().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }
}

/// The guard of a taken [`Ranked`] lock; dropping it releases the lock.
pub struct RankedGuard<'a, T> {
    // Field order is drop order: unlock, then leave the held set.
    guard: MutexGuard<'a, T>,
    held: Held,
}

impl<'a, T> RankedGuard<'a, T> {
    /// [`Condvar::wait`] on this guard: release the lock until `cv` is
    /// notified, then take it again. The rank stays in the held set
    /// meanwhile, since the thread takes nothing else while it waits.
    #[must_use]
    pub fn wait(self, cv: &Condvar) -> RankedGuard<'a, T> {
        let RankedGuard { guard, held } = self;
        RankedGuard {
            guard: cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
pub use held::edges_seen;
use held::Held;

/// Without debug assertions nothing is kept: the token is empty.
#[cfg(not(debug_assertions))]
mod held {
    use super::Rank;

    /// An empty stand-in for the debug build's held-set membership.
    pub struct Held;

    impl Held {
        #[inline(always)]
        pub(super) fn take(_rank: Rank) -> Held {
            Held
        }
    }
}

/// The thread-local set of held ranks, kept with debug assertions on.
#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU16, Ordering};

    thread_local! {
        /// One bit per rank the thread holds (`Rank as u8` is the bit).
        static HELD: Cell<u8> = const { Cell::new(0) };
    }

    /// Every rank, in the order.
    const RANKS: [Rank; 4] = [
        Rank::DbMaster,
        Rank::CacheShard,
        Rank::InternerShard,
        Rank::LiftPool,
    ];

    /// One bit per (held, taken) pair of ranks seen by any thread, at
    /// `held * 4 + taken`.
    static SEEN: AtomicU16 = AtomicU16::new(0);

    fn bit(rank: Rank) -> u8 {
        1 << rank as u8
    }

    fn edge_bit(held: Rank, taken: Rank) -> u16 {
        1 << (held as u16 * 4 + taken as u16)
    }

    /// Every (held, taken) pair of ranks a thread of this process has taken
    /// so far, in rank order. Only a build with debug assertions keeps it.
    #[must_use]
    pub fn edges_seen() -> Vec<(Rank, Rank)> {
        let seen = SEEN.load(Ordering::SeqCst);
        RANKS
            .into_iter()
            .flat_map(|h| RANKS.into_iter().map(move |t| (h, t)))
            .filter(|&(h, t)| seen & edge_bit(h, t) != 0)
            .collect()
    }

    /// A rank's membership in the held set, given up on drop.
    pub struct Held(Rank);

    impl Held {
        /// Check that `rank` may follow every held rank, then add it.
        pub(super) fn take(rank: Rank) -> Held {
            HELD.with(|held| {
                let set = held.get();
                let blocker = RANKS
                    .into_iter()
                    .find(|&h| set & bit(h) != 0 && !h.may_precede(rank));
                debug_assert!(
                    blocker.is_none(),
                    "lock order: {} taken while {} is held",
                    rank.name(),
                    blocker.map_or("", Rank::name)
                );
                let edges = RANKS
                    .into_iter()
                    .filter(|&h| set & bit(h) != 0)
                    .fold(0, |e, h| e | edge_bit(h, rank));
                if SEEN.load(Ordering::SeqCst) & edges != edges {
                    SEEN.fetch_or(edges, Ordering::SeqCst);
                }
                held.set(set | bit(rank));
            });
            Held(rank)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // `try_with`: a guard that outlives the thread's locals (dropped
            // by another thread-local's destructor) has nothing to clear.
            let _ = HELD.try_with(|held| held.set(held.get() & !bit(self.0)));
        }
    }

    /// The calling thread's held set, for the tests.
    #[cfg(test)]
    pub(super) fn ranks() -> u8 {
        HELD.with(Cell::get)
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Arc;
    use std::thread;

    const LEAVES: [Rank; 3] = [Rank::CacheShard, Rank::InternerShard, Rank::LiftPool];

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => (*payload.downcast::<&str>().expect("string payload")).to_owned(),
        }
    }

    #[test]
    fn the_master_then_any_leaf_passes() {
        let master = Ranked::new(Rank::DbMaster, 0u32);
        for leaf in LEAVES {
            let leaf = Ranked::new(leaf, 1u32);
            let m = master.lock();
            let l = leaf.lock();
            assert_eq!(*m + *l, 1);
        }
        // Leaves one after the other, none held across the next.
        for leaf in LEAVES {
            *Ranked::new(leaf, 0u32).lock() += 1;
        }
        assert_eq!(held::ranks(), 0);
        let seen = edges_seen();
        for leaf in LEAVES {
            assert!(seen.contains(&(Rank::DbMaster, leaf)), "{seen:?}");
        }
        // Any other pair would have panicked before it was recorded.
        assert!(seen.iter().all(|&(h, t)| h.may_precede(t)), "{seen:?}");
    }

    #[test]
    fn the_master_under_a_leaf_panics_naming_both_ranks() {
        let master = Ranked::new(Rank::DbMaster, ());
        let shard = Ranked::new(Rank::CacheShard, ());
        let message = panic_message(|| {
            let _leaf = shard.lock();
            let _master = master.lock();
        });
        assert_eq!(
            message,
            "lock order: db-master taken while cache-shard is held"
        );
        // The unwinding dropped the leaf's guard, and the master was never
        // taken: the set is empty and both locks are free.
        assert_eq!(held::ranks(), 0);
        let _master = master.lock();
        let _leaf = shard.lock();
    }

    #[test]
    fn a_leaf_under_a_leaf_panics() {
        let cache = Ranked::new(Rank::CacheShard, ());
        let interner = Ranked::new(Rank::InternerShard, ());
        let pool = Ranked::new(Rank::LiftPool, ());
        let message = panic_message(|| {
            let _c = cache.lock();
            let _i = interner.lock();
        });
        assert!(message.contains("interner-shard") && message.contains("cache-shard"));
        let message = panic_message(|| {
            let _p = pool.lock();
            let _c = cache.lock();
        });
        assert_eq!(
            message,
            "lock order: cache-shard taken while lift-pool is held"
        );
        assert_eq!(held::ranks(), 0);
    }

    #[test]
    fn a_second_lock_of_one_class_panics() {
        let shards = [
            Ranked::new(Rank::InternerShard, ()),
            Ranked::new(Rank::InternerShard, ()),
        ];
        let message = panic_message(|| {
            let _a = shards.first().map(Ranked::lock);
            let _b = shards.last().map(Ranked::lock);
        });
        assert_eq!(
            message,
            "lock order: interner-shard taken while interner-shard is held"
        );
        let masters = [
            Ranked::new(Rank::DbMaster, ()),
            Ranked::new(Rank::DbMaster, ()),
        ];
        let message = panic_message(|| {
            let _a = masters.first().map(Ranked::lock);
            let _b = masters.last().map(Ranked::lock);
        });
        assert_eq!(
            message,
            "lock order: db-master taken while db-master is held"
        );
        assert_eq!(held::ranks(), 0);
    }

    #[test]
    fn release_out_of_order_clears_only_its_own_rank() {
        let master = Ranked::new(Rank::DbMaster, ());
        let pool = Ranked::new(Rank::LiftPool, ());
        let m = master.lock();
        let p = pool.lock();
        drop(m);
        // The leaf is still held, so the master may not be taken again.
        assert!(panic_message(|| drop(master.lock())).contains("while lift-pool is held"));
        drop(p);
        assert_eq!(held::ranks(), 0);
        let _m = master.lock();
        let _p = pool.lock();
    }

    #[test]
    fn unwinding_releases_and_the_poisoned_value_is_recovered() {
        let master = Ranked::new(Rank::DbMaster, vec![1u32]);
        let shard = Ranked::new(Rank::CacheShard, 7u32);
        let message = panic_message(|| {
            let mut m = master.lock();
            let _s = shard.lock();
            m.push(2);
            panic!("writer failed");
        });
        assert_eq!(message, "writer failed");
        assert_eq!(held::ranks(), 0);
        assert_eq!(*master.lock(), vec![1, 2]);
        assert_eq!(*shard.lock(), 7);
    }

    #[test]
    fn a_guard_waits_on_a_condvar_and_keeps_its_rank() {
        let state = Arc::new((Ranked::new(Rank::LiftPool, false), Condvar::new()));
        let notifier = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let (flag, cv) = &*state;
                *flag.lock() = true;
                cv.notify_all();
            })
        };
        let (flag, cv) = &*state;
        let mut ready = flag.lock();
        while !*ready {
            ready = ready.wait(cv);
        }
        assert_eq!(held::ranks(), 1 << Rank::LiftPool as u8);
        drop(ready);
        assert_eq!(held::ranks(), 0);
        notifier.join().expect("notifier");
    }
}
