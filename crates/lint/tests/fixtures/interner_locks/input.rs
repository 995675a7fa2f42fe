//! Interner lock discipline: `canonicalize` (reached by every
//! `Terms::seal`, so by every `MPoly` construction) takes an interner shard
//! lock, so reaching it — through `.seal()` or any `intern::` path — while
//! a caller-side mutex guard is live nests two lock scopes.

use std::sync::Mutex;

/// Interning while the registry guard is still live.
pub fn register(registry: &Mutex<Vec<u64>>, terms: Vec<u64>) -> u64 {
    let guard = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let id = canonicalize(terms);
    guard.len() as u64 + id
}

/// Same hazard through the module path.
pub fn register_via_path(registry: &Mutex<Vec<u64>>, n: u64) -> bool {
    let state = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    intern::set_enabled(n > 0);
    state.is_empty()
}

/// Same hazard through the builder's sealing call.
pub fn register_sealed(registry: &Mutex<Vec<u64>>, terms: Terms) -> u64 {
    let guard = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let sealed = terms.seal();
    guard.len() as u64 + sealed
}

/// Dropping the guard first is clean, for sealing too.
pub fn register_sealed_clean(registry: &Mutex<Vec<u64>>, terms: Terms) -> u64 {
    let guard = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let len = guard.len() as u64;
    drop(guard);
    len + terms.seal()
}

/// Dropping the guard first is clean.
pub fn register_clean(registry: &Mutex<Vec<u64>>, terms: Vec<u64>) -> u64 {
    let guard = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let len = guard.len() as u64;
    drop(guard);
    len + canonicalize(terms)
}

fn canonicalize(terms: Vec<u64>) -> u64 {
    terms.iter().sum()
}

pub struct Terms(Vec<u64>);

impl Terms {
    fn seal(self) -> u64 {
        canonicalize(self.0)
    }
}

mod intern {
    pub fn set_enabled(_on: bool) {}
}
