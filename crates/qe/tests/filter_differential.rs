//! Differential tests for the split-word float filter (DESIGN.md §8).
//!
//! The filter may only short-circuit sign decisions the exact path would
//! have confirmed, so with the filter ON every QE/CAD output must be
//! *byte-identical* (compared on the printed relation) to the exact
//! filter-OFF run — across worker counts 1 and 4. A final check confirms
//! the filter actually fires on these workloads, so the identity is not
//! vacuous.

use cdb_constraints::{Atom, Formula, Quantifier, RelOp};
use cdb_num::{fintv, Rat};
use cdb_poly::MPoly;
use cdb_qe::QeContext;
use proptest::prelude::*;
use std::sync::MutexGuard;
// A test-only serialiser outside the workspace's lock order: it is held
// across whole QE runs, which take every leaf rank under it.
#[allow(clippy::disallowed_types)]
use std::sync::Mutex;

/// The filter switch is process-global; serialize every test that toggles
/// it, and restore the enabled default even on panic.
#[allow(clippy::disallowed_types)]
static FILTER_LOCK: Mutex<()> = Mutex::new(());

struct FilterGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FilterGuard {
    fn lock() -> FilterGuard {
        FilterGuard(FILTER_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for FilterGuard {
    fn drop(&mut self) {
        fintv::set_filter_enabled(true);
    }
}

fn conic(a: i64, b: i64, c: i64) -> Formula {
    let n = 2;
    let p = &(&(&MPoly::var(0, n).pow(2).scale(&Rat::from(a))
        + &MPoly::var(1, n).pow(2).scale(&Rat::from(b)))
        + &MPoly::var(0, n).scale(&Rat::from(c)))
        - &MPoly::constant(Rat::from(1i64), n);
    Formula::Atom(Atom::new(p, RelOp::Le))
}

/// Eliminate ∃x₁ from a disjunction of conics; returns the printed output
/// relation (byte-level identity is the strongest observable equality).
fn run_conics(params: &[(i64, i64, i64)], workers: usize) -> Option<String> {
    let matrix = Formula::Or(params.iter().map(|&(a, b, c)| conic(a, b, c)).collect()).to_nnf();
    cdb_qe::cad::eliminate(
        &matrix,
        &[(Quantifier::Exists, 1)],
        &[0],
        2,
        &QeContext::exact().with_workers(workers),
    )
    .ok()
    .map(|rel| format!("{rel}"))
}

/// Fixed workload: filter on vs off is byte-identical for workers 1 and 4,
/// and the filter demonstrably fires when enabled.
#[test]
fn filter_on_off_byte_identical_fixed() {
    let _guard = FilterGuard::lock();
    let params = [(1, 1, 0), (2, 1, -1), (1, 2, 1), (-1, 2, 0)];
    for workers in [1usize, 4] {
        fintv::set_filter_enabled(false);
        let exact = run_conics(&params, workers);
        fintv::set_filter_enabled(true);
        let (h0, _) = fintv::filter_counters();
        let filtered = run_conics(&params, workers);
        let (h1, _) = fintv::filter_counters();
        assert_eq!(
            exact, filtered,
            "filter changed output (workers = {workers})"
        );
        assert!(exact.is_some(), "workload unexpectedly rejected by CAD");
        assert!(h1 > h0, "filter never fired (workers = {workers})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized conics: the filtered run reproduces the exact run byte
    /// for byte, for workers 1 and 4 (accept/reject decisions included).
    #[test]
    fn filter_on_off_byte_identical(
        a in -2i64..=2, b in -2i64..=2, c in -2i64..=2,
        a2 in -2i64..=2, b2 in -2i64..=2, c2 in -2i64..=2,
    ) {
        let _guard = FilterGuard::lock();
        let params = [(a, b, c), (a2, b2, c2)];
        for workers in [1usize, 4] {
            fintv::set_filter_enabled(false);
            let exact = run_conics(&params, workers);
            fintv::set_filter_enabled(true);
            let filtered = run_conics(&params, workers);
            prop_assert_eq!(
                &exact, &filtered,
                "filter changed output (workers = {})", workers
            );
        }
    }
}
