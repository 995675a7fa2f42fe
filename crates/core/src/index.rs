//! Bounding-box indexing for generalized tuples.
//!
//! The paper points to "indexing techniques for constraint data \[KRVV93\]"
//! as an implementation concern. We provide the standard first step: each
//! generalized tuple gets a conservative axis-aligned bounding box derived
//! from its single-variable linear atoms ([`TupleBox`], the box the DNF's
//! cross product prunes with); membership tests and box probes prune tuples
//! whose boxes miss the probe before evaluating polynomials.

use cdb_constraints::{ConstraintRelation, GeneralizedTuple, TupleBox};
use cdb_num::Rat;

/// A box index over a relation's generalized tuples.
#[derive(Debug, Clone)]
pub struct BoxIndex {
    boxes: Vec<TupleBox>,
    relation: ConstraintRelation,
    /// Tuples pruned by the last probe (for instrumentation/benchmarks).
    pub last_pruned: std::cell::Cell<usize>,
}

impl BoxIndex {
    /// Build the index.
    #[must_use]
    pub fn build(relation: ConstraintRelation) -> BoxIndex {
        let boxes = relation.tuples().iter().map(TupleBox::of_tuple).collect();
        BoxIndex {
            boxes,
            relation,
            last_pruned: std::cell::Cell::new(0),
        }
    }

    /// The indexed relation.
    #[must_use]
    pub fn relation(&self) -> &ConstraintRelation {
        &self.relation
    }

    /// Membership with box pruning (same answer as
    /// [`ConstraintRelation::satisfied_at`], fewer polynomial evaluations).
    #[must_use]
    pub fn contains(&self, point: &[Rat]) -> bool {
        let mut pruned = 0;
        let mut hit = false;
        for (bb, t) in self.boxes.iter().zip(self.relation.tuples()) {
            if !bb.may_contain(point) {
                pruned += 1;
                continue;
            }
            if t.satisfied_at(point) {
                hit = true;
                break;
            }
        }
        self.last_pruned.set(pruned);
        hit
    }

    /// Tuples whose boxes intersect a probe box.
    #[must_use]
    pub fn candidates(&self, probe: &[(Rat, Rat)]) -> Vec<&GeneralizedTuple> {
        self.boxes
            .iter()
            .zip(self.relation.tuples())
            .filter(|(bb, _)| bb.may_intersect(probe))
            .map(|(_, t)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::boxes::SideBound;
    use cdb_constraints::{Atom, RelOp};
    use cdb_poly::MPoly;

    fn closed(v: i64) -> Option<SideBound> {
        Some(SideBound {
            value: Rat::from(v),
            strict: false,
        })
    }

    fn square_at(cx: i64, cy: i64) -> GeneralizedTuple {
        // [cx, cx+1] × [cy, cy+1]
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        GeneralizedTuple::new(
            2,
            vec![
                Atom::new(&c(cx) - &x, RelOp::Le),
                Atom::new(&x - &c(cx + 1), RelOp::Le),
                Atom::new(&c(cy) - &y, RelOp::Le),
                Atom::new(&y - &c(cy + 1), RelOp::Le),
            ],
        )
    }

    #[test]
    fn boxes_extracted() {
        let bb = TupleBox::of_tuple(&square_at(3, 4));
        assert_eq!(bb.sides[0], (closed(3), closed(4)));
        assert_eq!(bb.sides[1], (closed(4), closed(5)));
    }

    #[test]
    fn membership_with_pruning() {
        let tuples: Vec<GeneralizedTuple> = (0..50).map(|i| square_at(2 * i, 0)).collect();
        let rel = ConstraintRelation::new(2, tuples);
        let idx = BoxIndex::build(rel.clone());
        let p = [Rat::from(20i64), "1/2".parse().unwrap()];
        assert_eq!(idx.contains(&p), rel.satisfied_at(&p));
        assert!(idx.contains(&p));
        assert!(
            idx.last_pruned.get() >= 9,
            "pruned {}",
            idx.last_pruned.get()
        );
        let q = ["43/2".parse().unwrap(), "1/2".parse().unwrap()]; // gap between squares
        assert!(!idx.contains(&q));
        assert_eq!(idx.last_pruned.get(), 50);
    }

    #[test]
    fn unbounded_sides_never_prune() {
        // x ≥ 0 ∧ x² + y² ≤ 1has a nonlinear atom: only x's lower bound is
        // indexed; y stays open.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let t = GeneralizedTuple::new(
            2,
            vec![
                Atom::new(-&x, RelOp::Le),
                Atom::new(
                    &(&x.pow(2) + &y.pow(2)) - &MPoly::constant(Rat::one(), 2),
                    RelOp::Le,
                ),
            ],
        );
        let bb = TupleBox::of_tuple(&t);
        assert_eq!(bb.sides[0], (closed(0), None));
        assert_eq!(bb.sides[1], (None, None));
        assert!(bb.may_contain(&[Rat::one(), Rat::from(100i64)]));
        assert!(!bb.may_contain(&[Rat::from(-1i64), Rat::zero()]));
    }

    #[test]
    fn box_probe_candidates() {
        let tuples: Vec<GeneralizedTuple> = (0..10).map(|i| square_at(3 * i, 0)).collect();
        let idx = BoxIndex::build(ConstraintRelation::new(2, tuples));
        let probe = [
            (Rat::from(4i64), Rat::from(8i64)),
            (Rat::zero(), Rat::one()),
        ];
        // Squares at x ∈ [3,4], [6,7] intersect [4, 8]: candidates 2.
        assert_eq!(idx.candidates(&probe).len(), 2);
    }
}
