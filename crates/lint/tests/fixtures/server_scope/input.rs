//! Pretend `cdb-server::session`: the serving layer is in the
//! determinism scope (DESIGN.md §13) — a session's transcript must be
//! byte-identical under every interleaving with other sessions, so
//! nothing order- or clock-dependent may sit on a result path, and the
//! session loop must never panic out from under a request.
//! BTree containers, SeqCst counters, and poison recovery pass
//! untouched.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Fine: ordered histogram — iteration order is part of the stats output.
pub fn batch_histogram(sizes: &[usize]) -> BTreeMap<usize, u64> {
    let mut hist = BTreeMap::new();
    for &s in sizes {
        *hist.entry(s).or_insert(0) += 1;
    }
    hist
}

/// Fine: SeqCst counter; poison recovery instead of unwrap.
pub fn note_read(reads: &AtomicU64, hist: &Mutex<BTreeMap<usize, u64>>, size: usize) {
    reads.fetch_add(1, Ordering::SeqCst);
    let mut h = hist.lock().unwrap_or_else(PoisonError::into_inner);
    *h.entry(size).or_insert(0) += 1;
}

/// Finding (determinism): hash-order catalog listing reaches the reply.
pub fn catalog_reply(schema: &HashMap<String, usize>) -> Vec<String> {
    schema.iter().map(|(n, a)| format!("{n}/{a}")).collect()
}

/// Finding (determinism): wall-clock latency on the result path.
pub fn stamp_response(text: String) -> (String, std::time::Instant) {
    (text, std::time::Instant::now())
}

/// Finding (determinism): relaxed read of the admitted-batch counter.
pub fn batches_admitted(batches: &AtomicU64) -> u64 {
    batches.load(Ordering::Relaxed)
}

/// Finding (panic): unwrap in the session loop drops a queued request.
pub fn take_result(slot: &Mutex<Option<String>>) -> String {
    slot.lock().unwrap().take().unwrap()
}
