//! Conservative bounding boxes of generalized tuples, and box-based
//! pruning — the first of the "central problems" the paper's conclusion
//! names ("the central problems are optimization and error control").
//!
//! A tuple's box is derived from its single-variable degree-1 atoms
//! (`a·xᵢ + b σ 0`). The box is conservative: a tuple whose box is empty
//! is certainly unsatisfiable and can be dropped before any expensive
//! processing — which matters enormously for CALC_F's approximation stage,
//! where most hypercube guards `z ∈ e` contradict the query's own range
//! constraints.

use crate::atom::RelOp;
use crate::gtuple::GeneralizedTuple;
use crate::relation::ConstraintRelation;
use cdb_num::Rat;
use std::cmp::Ordering;

/// One-sided bound with strictness.
#[derive(Debug, Clone, PartialEq)]
pub struct SideBound {
    /// The bounding value.
    pub value: Rat,
    /// True for `<` / `>` (excluded endpoint).
    pub strict: bool,
}

/// Per-variable interval hull of a generalized tuple.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleBox {
    /// Per variable: `(lower, upper)`; `None` = unbounded on that side.
    pub sides: Vec<(Option<SideBound>, Option<SideBound>)>,
}

impl TupleBox {
    /// The unconstrained box.
    #[must_use]
    pub fn unbounded(k: usize) -> TupleBox {
        TupleBox {
            sides: vec![(None, None); k],
        }
    }

    /// Conservative hull of a tuple, from its univariate linear atoms.
    #[must_use]
    pub fn of_tuple(t: &GeneralizedTuple) -> TupleBox {
        let mut bb = TupleBox::unbounded(t.nvars());
        for atom in t.atoms() {
            let Some((v, value, negative)) = atom.as_linear_bound() else {
                continue;
            };
            let op = if negative { atom.op.flipped() } else { atom.op };
            let bound = |strict| SideBound {
                value: value.clone(),
                strict,
            };
            match op {
                RelOp::Le => bb.tighten_upper(v, &bound(false)),
                RelOp::Lt => bb.tighten_upper(v, &bound(true)),
                RelOp::Ge => bb.tighten_lower(v, &bound(false)),
                RelOp::Gt => bb.tighten_lower(v, &bound(true)),
                RelOp::Eq => {
                    bb.tighten_upper(v, &bound(false));
                    bb.tighten_lower(v, &bound(false));
                }
                RelOp::Ne => {}
            }
        }
        bb
    }

    fn tighten_upper(&mut self, v: usize, new: &SideBound) {
        let side = &mut self.sides[v].1;
        let replace = side.as_ref().is_none_or(|cur| {
            new.value < cur.value || (new.value == cur.value && new.strict && !cur.strict)
        });
        if replace {
            *side = Some(new.clone());
        }
    }

    fn tighten_lower(&mut self, v: usize, new: &SideBound) {
        let side = &mut self.sides[v].0;
        let replace = side.as_ref().is_none_or(|cur| {
            new.value > cur.value || (new.value == cur.value && new.strict && !cur.strict)
        });
        if replace {
            *side = Some(new.clone());
        }
    }

    /// True iff the box is certainly empty (some variable's lower bound
    /// exceeds — or meets with strictness — its upper bound).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides
            .iter()
            .any(|(lo, hi)| crosses(lo.as_ref().map(Bound::of), hi.as_ref().map(Bound::of)))
    }

    /// True iff the box of the conjunction of the two boxes' tuples is
    /// certainly empty, decided side by side without building it: per
    /// variable, the tighter lower bound against the tighter upper bound, a
    /// strict side winning a tie — what [`Self::of_tuple`] of `a.and(b)`
    /// would hold, then [`Self::is_empty`]. Nothing is cloned or allocated.
    #[must_use]
    pub fn disjoint(&self, other: &TupleBox) -> bool {
        debug_assert_eq!(self.sides.len(), other.sides.len());
        self.sides
            .iter()
            .zip(&other.sides)
            .any(|((l1, h1), (l2, h2))| {
                let lo = tighter(l1.as_ref(), l2.as_ref(), Ordering::Greater);
                let hi = tighter(h1.as_ref(), h2.as_ref(), Ordering::Less);
                crosses(lo, hi)
            })
    }
}

/// The tighter of two bounds on one side: the one whose value compares
/// `wins` against the other's, strict on a tie if either is.
fn tighter<'a>(
    a: Option<&'a SideBound>,
    b: Option<&'a SideBound>,
    wins: Ordering,
) -> Option<Bound<'a>> {
    match (a, b) {
        (Some(a), Some(b)) => Some(match a.value.cmp(&b.value) {
            Ordering::Equal => Bound {
                value: &a.value,
                strict: a.strict || b.strict,
            },
            o if o == wins => Bound::of(a),
            _ => Bound::of(b),
        }),
        (Some(s), None) | (None, Some(s)) => Some(Bound::of(s)),
        (None, None) => None,
    }
}

/// A borrowed bound: what [`crosses`] reads of a [`SideBound`].
struct Bound<'a> {
    value: &'a Rat,
    strict: bool,
}

impl<'a> Bound<'a> {
    fn of(s: &'a SideBound) -> Bound<'a> {
        Bound {
            value: &s.value,
            strict: s.strict,
        }
    }
}

/// True iff a lower bound exceeds an upper bound, or meets it with a strict
/// side: no value lies between them.
fn crosses(lo: Option<Bound<'_>>, hi: Option<Bound<'_>>) -> bool {
    match (lo, hi) {
        (Some(l), Some(h)) => l.value > h.value || (l.value == h.value && (l.strict || h.strict)),
        _ => false,
    }
}

impl ConstraintRelation {
    /// Drop tuples whose bounding boxes are empty — a cheap, conservative
    /// satisfiability filter (tuples kept may still be unsatisfiable; that
    /// requires QE).
    #[must_use]
    pub fn prune_empty_boxes(&self) -> ConstraintRelation {
        let tuples: Vec<GeneralizedTuple> = self
            .tuples()
            .iter()
            .filter(|t| !TupleBox::of_tuple(t).is_empty())
            .cloned()
            .collect();
        ConstraintRelation::new(self.nvars(), tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use cdb_poly::MPoly;

    fn x(n: usize) -> MPoly {
        MPoly::var(0, n)
    }

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    #[test]
    fn detects_contradictory_ranges() {
        // x ≥ 2 ∧ x ≤ 1: empty.
        let t = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(&c(2, 1) - &x(1), RelOp::Le),
                Atom::new(&x(1) - &c(1, 1), RelOp::Le),
            ],
        );
        assert!(TupleBox::of_tuple(&t).is_empty());
        // x ≥ 1 ∧ x ≤ 1: the point {1} — not empty.
        let p = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(&c(1, 1) - &x(1), RelOp::Le),
                Atom::new(&x(1) - &c(1, 1), RelOp::Le),
            ],
        );
        assert!(!TupleBox::of_tuple(&p).is_empty());
        // x > 1 ∧ x ≤ 1: empty (strictness).
        let s = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(&c(1, 1) - &x(1), RelOp::Lt),
                Atom::new(&x(1) - &c(1, 1), RelOp::Le),
            ],
        );
        assert!(TupleBox::of_tuple(&s).is_empty());
    }

    #[test]
    fn pruning_preserves_semantics() {
        let sat = GeneralizedTuple::new(1, vec![Atom::new(&x(1) - &c(5, 1), RelOp::Le)]);
        let unsat = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(&c(7, 1) - &x(1), RelOp::Le),
                Atom::new(&x(1) - &c(3, 1), RelOp::Le),
            ],
        );
        let rel = ConstraintRelation::new(1, vec![sat.clone(), unsat]);
        let pruned = rel.prune_empty_boxes();
        assert_eq!(pruned.tuples().len(), 1);
        for v in [-10i64, 0, 4, 6, 10] {
            assert_eq!(
                rel.satisfied_at(&[Rat::from(v)]),
                pruned.satisfied_at(&[Rat::from(v)]),
                "at {v}"
            );
        }
    }

    #[test]
    fn nonlinear_atoms_never_prune() {
        // x² ≤ −1 is unsatisfiable but not box-detectable: kept (sound).
        let t = GeneralizedTuple::new(1, vec![Atom::new(&x(1).pow(2) + &c(1, 1), RelOp::Le)]);
        assert!(!TupleBox::of_tuple(&t).is_empty());
    }

    #[test]
    fn prune_keeps_full_and_empty_relations_intact() {
        // Full relation: the top tuple has an unbounded box — never pruned.
        let full = ConstraintRelation::full(2).prune_empty_boxes();
        assert_eq!(full, ConstraintRelation::full(2));
        // Empty relation: nothing to prune, arity preserved.
        let empty = ConstraintRelation::empty(2).prune_empty_boxes();
        assert!(empty.is_syntactically_empty());
        assert_eq!(empty.nvars(), 2);
    }

    #[test]
    fn prune_drops_every_empty_box() {
        let unsat = || {
            GeneralizedTuple::new(
                1,
                vec![
                    Atom::new(&c(7, 1) - &x(1), RelOp::Le),
                    Atom::new(&x(1) - &c(3, 1), RelOp::Le),
                ],
            )
        };
        let rel = ConstraintRelation::new(1, vec![unsat(), unsat()]);
        assert!(rel.prune_empty_boxes().is_syntactically_empty());
    }

    #[test]
    fn prune_preserves_duplicate_disjuncts() {
        // Pruning is a filter, not a simplifier: syntactic duplicates with
        // nonempty boxes pass through untouched (dedup is simplify()'s job).
        let sat = GeneralizedTuple::new(1, vec![Atom::new(&x(1) - &c(5, 1), RelOp::Le)]);
        let rel = ConstraintRelation::new(1, vec![sat.clone(), sat]);
        assert_eq!(rel.prune_empty_boxes(), rel);
        assert_eq!(rel.simplify().tuples().len(), 1);
    }

    #[test]
    fn scaled_coefficients_normalize() {
        // −2x ≤ −6 (i.e. x ≥ 3) ∧ 3x ≤ 6 (x ≤ 2): empty.
        let t = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(&c(6, 1) - &x(1).scale(&Rat::from(2i64)), RelOp::Le),
                Atom::new(&x(1).scale(&Rat::from(3i64)) - &c(6, 1), RelOp::Le),
            ],
        );
        assert!(TupleBox::of_tuple(&t).is_empty());
    }
}
