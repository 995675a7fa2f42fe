//! The interner's counters are exact under concurrent sealing. This file
//! holds one test so that no other test of the process seals while it
//! reads `intern::stats()`.

use cdb_num::Rat;
use cdb_poly::{intern, MPoly};
use std::sync::Barrier;

/// Threads seal one shared polynomial and one each of their own, all
/// released at once: the shared one misses once and hits on every other
/// thread, each own one misses.
#[test]
fn stats_count_hits_and_misses_exactly_across_threads() {
    const THREADS: usize = 4;
    // Coefficients no other polynomial of this process uses.
    let shared = |_: usize| MPoly::from_terms(2, [(vec![3, 1], Rat::from(982_451_653i64))]);
    let own = |t: usize| MPoly::from_terms(2, [(vec![1, 3], Rat::from(982_451_653 + t as i64))]);
    let before = intern::stats();
    let barrier = Barrier::new(THREADS);
    let polys: Vec<(MPoly, MPoly)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (shared(t), own(t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sealing thread panicked"))
            .collect()
    });
    let after = intern::stats();
    assert_eq!(after.misses - before.misses, 1 + THREADS as u64);
    assert_eq!(after.hits - before.hits, THREADS as u64 - 1);
    assert_eq!(after.entries - before.entries, 1 + THREADS as u64);
    assert!(polys
        .windows(2)
        .all(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1));
}
