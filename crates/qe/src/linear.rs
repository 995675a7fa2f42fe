//! Linearity test and `≠` splitting for the linear fragment
//! `FO(≤, +, 0, 1)` (dense order `FO(≤)` is a special case).
//!
//! The Fourier–Motzkin eliminator itself is the planner's
//! ([`crate::plan`]): per disjunct, an equality in the variable sends it to
//! the planner's substitution eliminator instead, `≠` atoms are split into
//! `<` / `>` disjuncts, the variable is isolated in every other atom
//! (`a·x σ rest`), and bound pairs are combined. This is the engine
//! behind Theorem 4.2: every number produced is a sum/product of two input
//! coefficients, so bit growth is linear in the input bit length — finite
//! precision with `c·k` bits loses nothing.

use cdb_constraints::{Atom, ConstraintRelation, GeneralizedTuple, RelOp};

/// True iff every atom of the relation is linear (total degree ≤ 1).
#[must_use]
pub fn is_linear(rel: &ConstraintRelation) -> bool {
    rel.tuples()
        .iter()
        .all(|t| t.atoms().iter().all(|a| a.poly.total_degree() <= 1))
}

/// Split `p ≠ 0` atoms that involve `var` into `<` and `>` cases
/// (a disjunction, so the tuple multiplies) — the planner's step before
/// FM/quadratic elimination, whose bound pairing has no case for `≠`.
pub(crate) fn split_ne(tuple: &GeneralizedTuple, var: usize) -> Vec<GeneralizedTuple> {
    let mut result = vec![GeneralizedTuple::top(tuple.nvars())];
    for atom in tuple.atoms() {
        if atom.op == RelOp::Ne && atom.poly.uses_var(var) {
            let lt = Atom::new(atom.poly.clone(), RelOp::Lt);
            let gt = Atom::new(atom.poly.clone(), RelOp::Gt);
            let mut next = Vec::with_capacity(result.len() * 2);
            for t in result {
                let mut a = t.clone();
                a.push(lt.clone());
                next.push(a);
                let mut b = t;
                b.push(gt.clone());
                next.push(b);
            }
            result = next;
        } else {
            for t in &mut result {
                t.push(atom.clone());
            }
        }
    }
    result
}
