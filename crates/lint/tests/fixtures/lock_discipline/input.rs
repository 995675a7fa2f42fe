//! Lock discipline: two `.lock()` calls in one statement deadlock under
//! opposite acquisition order; a guard held across `fan_out` serializes
//! the fan-out.

use std::sync::Mutex;

/// Pairwise sum taking both locks in a single statement.
pub fn pair_sum(a: &Mutex<i64>, b: &Mutex<i64>) -> i64 {
    *a.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        + *b.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fan out while a guard is still live.
pub fn sum_under_guard(total: &Mutex<i64>, items: &[i64]) -> i64 {
    let guard = total.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let s: i64 = fan_out(items);
    *guard + s
}

fn fan_out(items: &[i64]) -> i64 {
    items.iter().sum()
}
