//! Dependency tracking for the update path.
//!
//! Every derived relation — a [`crate::ConstraintDb::define`]d view or a
//! Datalog¬ head materialized by [`crate::ConstraintDb::run_datalog`] —
//! is recorded here with the set of relations its definition *reads*.
//! The update path's scheduler (`crate::update`) closes a change over
//! these edges ([`DepTracker::reads_of`]) to find exactly the derived
//! relations whose stored extents may no longer match their definitions,
//! and refreshes those and nothing else.
//!
//! The tracker stores names only — no extents, no formulas — so it stays
//! cheap to clone with the database (`ConstraintDb` is `Clone`) and
//! trivially deterministic (`BTreeMap`/`BTreeSet` throughout).

use cdb_calcf::{CFormula, CTerm};
use std::collections::{BTreeMap, BTreeSet};

/// Which derived relations read which others, recorded at definition /
/// materialization time.
#[derive(Debug, Clone, Default)]
pub struct DepTracker {
    /// target → relations its definition reads (direct edges only).
    reads: BTreeMap<String, BTreeSet<String>>,
}

impl DepTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> DepTracker {
        DepTracker::default()
    }

    /// Record (or replace) the read set of `target`.
    pub fn record(&mut self, target: &str, reads: BTreeSet<String>) {
        self.reads.insert(target.to_owned(), reads);
    }

    /// Drop `target`'s edges (it was removed or is no longer derived).
    pub fn forget(&mut self, target: &str) {
        self.reads.remove(target);
    }

    /// Direct read set of `target`, if it is a tracked derived relation.
    #[must_use]
    pub fn reads_of(&self, target: &str) -> Option<&BTreeSet<String>> {
        self.reads.get(target)
    }
}

/// Relation names a CALC_F formula reads — the read set recorded for a
/// `define`d view. Descends into aggregate bodies (`AGG[ȳ]{φ}` reads
/// whatever φ reads).
#[must_use]
pub fn formula_reads(formula: &CFormula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_formula(formula, &mut out);
    out
}

fn collect_formula(formula: &CFormula, out: &mut BTreeSet<String>) {
    match formula {
        CFormula::True | CFormula::False => {}
        CFormula::Cmp(a, _, b) => {
            collect_term(a, out);
            collect_term(b, out);
        }
        CFormula::Rel(name, _) => {
            out.insert(name.clone());
        }
        CFormula::EvalPred(_, f) | CFormula::Not(f) => collect_formula(f, out),
        CFormula::And(fs) | CFormula::Or(fs) => {
            for f in fs {
                collect_formula(f, out);
            }
        }
        CFormula::Exists(_, f) | CFormula::Forall(_, f) => collect_formula(f, out),
    }
}

fn collect_term(term: &CTerm, out: &mut BTreeSet<String>) {
    match term {
        CTerm::Var(_) | CTerm::Const(_) => {}
        CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
            collect_term(a, out);
            collect_term(b, out);
        }
        CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => collect_term(a, out),
        CTerm::Agg(_, _, f) => collect_formula(f, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn formula_reads_descend_into_aggregates() {
        let f = cdb_calcf::parse_formula("exists y (S(x, y) and z = LENGTH[w]{ P(w) and Q(w) })")
            .unwrap();
        assert_eq!(formula_reads(&f), set(&["P", "Q", "S"]));
    }
}
