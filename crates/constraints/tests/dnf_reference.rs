//! `Formula::to_dnf` against the three-pass composition it replaced.
//!
//! The reference below is the pre-one-pass pipeline kept verbatim as test
//! code: fold `And` with `intersection` and `Or` with a `Vec::contains`
//! union over *raw* leaves, then `simplify` (canonicalise, collapse on a top
//! tuple, `Vec::contains` dedup), then `prune_empty_boxes`. The contract is
//! equality of the `ConstraintRelation`s — tuple order and atom order
//! included — not semantic equivalence.

use cdb_constraints::{
    Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, RelOp, TupleBox,
};
use cdb_num::Rat;
use cdb_poly::MPoly;
use proptest::prelude::*;

const NVARS: usize = 3;

fn reference_fold(f: &Formula, nvars: usize) -> ConstraintRelation {
    match f {
        Formula::True => ConstraintRelation::full(nvars),
        Formula::False => ConstraintRelation::empty(nvars),
        Formula::Atom(a) => {
            ConstraintRelation::new(nvars, vec![GeneralizedTuple::new(nvars, vec![a.clone()])])
        }
        Formula::And(fs) => fs.iter().fold(ConstraintRelation::full(nvars), |acc, g| {
            acc.intersection(&reference_fold(g, nvars))
        }),
        Formula::Or(fs) => {
            let mut tuples: Vec<GeneralizedTuple> = Vec::new();
            for g in fs {
                for t in reference_fold(g, nvars).tuples() {
                    if !tuples.contains(t) {
                        tuples.push(t.clone());
                    }
                }
            }
            ConstraintRelation::new(nvars, tuples)
        }
        other => panic!("generator produced {other}"),
    }
}

fn reference_simplify(rel: &ConstraintRelation) -> ConstraintRelation {
    let mut tuples: Vec<GeneralizedTuple> = Vec::new();
    for t in rel.tuples() {
        if let Some(s) = t.simplify() {
            if s.is_top() {
                return ConstraintRelation::full(rel.nvars());
            }
            if !tuples.contains(&s) {
                tuples.push(s);
            }
        }
    }
    ConstraintRelation::new(rel.nvars(), tuples)
}

fn reference_dnf(f: &Formula, nvars: usize) -> ConstraintRelation {
    reference_simplify(&reference_fold(f, nvars)).prune_empty_boxes()
}

fn assert_matches_reference(f: &Formula, nvars: usize) {
    let got = f.to_dnf(nvars).unwrap();
    assert_eq!(got, reference_dnf(f, nvars), "on {f}");
    // The normal form is a fixed point of the two passes callers used to add.
    assert_eq!(got.simplify(), got, "simplify moved {f}");
    assert_eq!(got.prune_empty_boxes(), got, "prune moved {f}");
}

fn var(i: usize) -> MPoly {
    MPoly::var(i, NVARS)
}

fn constant(c: i64) -> MPoly {
    MPoly::constant(Rat::from(c), NVARS)
}

fn op(k: usize) -> RelOp {
    [
        RelOp::Eq,
        RelOp::Ne,
        RelOp::Lt,
        RelOp::Le,
        RelOp::Gt,
        RelOp::Ge,
    ][k % 6]
}

/// A small pool, so that repeats, scaled copies of one atom (`x ≤ 0`,
/// `2x ≤ 0`, `−3x ≥ 0`), `p ≤ 0 ∧ p > 0` pairs and contradicting bounds all
/// turn up often; plus constant atoms and two atoms no box can read.
fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0usize..NVARS, -1i64..3, 0usize..4, 0usize..6).prop_map(|(v, c, s, o)| {
            let scale = Rat::from([1i64, 2, -1, -3][s]);
            Atom::new((&var(v) - &constant(c)).scale(&scale), op(o))
        }),
        (-1i64..2, 0usize..6).prop_map(|(c, o)| Atom::new(constant(c), op(o))),
        (0usize..6).prop_map(|o| Atom::new(&var(0) - &var(1), op(o))),
        (0usize..6)
            .prop_map(|o| { Atom::new(&(&var(0).pow(2) + &var(2).pow(2)) - &constant(1), op(o)) }),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        atom().prop_map(Formula::Atom),
        atom().prop_map(Formula::Atom),
        atom().prop_map(Formula::Atom),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
            prop::collection::vec(inner, 0..4).prop_map(Formula::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn dnf_matches_reference(f in formula()) {
        assert_matches_reference(&f, NVARS);
    }

    /// The box of a conjunction is the meet of the boxes, before and after
    /// the conjunction is simplified.
    #[test]
    fn meet_is_the_box_of_the_conjunction(
        a in prop::collection::vec(atom(), 0..5),
        b in prop::collection::vec(atom(), 0..5),
    ) {
        let a = GeneralizedTuple::new(NVARS, a);
        let b = GeneralizedTuple::new(NVARS, b);
        let meet = TupleBox::of_tuple(&a).meet(&TupleBox::of_tuple(&b));
        let both = a.and(&b);
        prop_assert_eq!(&meet, &TupleBox::of_tuple(&both));
        if let Some(s) = both.simplify() {
            prop_assert_eq!(&meet, &TupleBox::of_tuple(&s));
        }
    }
}

fn le(v: usize, c: i64) -> Formula {
    Formula::Atom(Atom::new(&var(v) - &constant(c), RelOp::Le))
}

/// `a ∧ (b ∨ ⊤)` keeps both disjuncts `a∧b ∨ a`; the collapse to `full`
/// happens at the root only.
#[test]
fn true_disjunct_inside_an_and_operand() {
    let f = Formula::and(le(0, 1), Formula::or(le(1, 2), Formula::True));
    assert_matches_reference(&f, NVARS);
    assert_eq!(f.to_dnf(NVARS).unwrap().tuples().len(), 2);
    let root = Formula::or(le(0, 1), Formula::and(Formula::True, Formula::True));
    assert_matches_reference(&root, NVARS);
    assert_eq!(root.to_dnf(NVARS).unwrap(), ConstraintRelation::full(NVARS));
}

/// A raw top-level atom is canonicalised, and decided when constant.
#[test]
fn raw_top_level_atom() {
    let scaled = Formula::Atom(Atom::new(
        (&var(0) - &constant(1)).scale(&Rat::from(-2i64)),
        RelOp::Ge,
    ));
    assert_matches_reference(&scaled, NVARS);
    assert_eq!(
        scaled.to_dnf(NVARS).unwrap(),
        le(0, 1).to_dnf(NVARS).unwrap()
    );
    for (c, expect_full) in [(-1, true), (1, false)] {
        let f = Formula::Atom(Atom::new(constant(c), RelOp::Le));
        assert_matches_reference(&f, NVARS);
        let want = if expect_full {
            ConstraintRelation::full(NVARS)
        } else {
            ConstraintRelation::empty(NVARS)
        };
        assert_eq!(f.to_dnf(NVARS).unwrap(), want);
    }
}

/// Disjuncts that coincide only after canonicalisation are one disjunct,
/// also when an enclosing `And` multiplies them first.
#[test]
fn duplicates_that_appear_only_after_canonicalisation() {
    let twice = Formula::Atom(Atom::new(var(0).scale(&Rat::from(2i64)), RelOp::Le));
    let either = Formula::or(le(0, 0), twice);
    assert_matches_reference(&either, NVARS);
    assert_eq!(either.to_dnf(NVARS).unwrap().tuples().len(), 1);
    let multiplied = Formula::and(either, Formula::or(le(1, 0), le(2, 0)));
    assert_matches_reference(&multiplied, NVARS);
    assert_eq!(multiplied.to_dnf(NVARS).unwrap().tuples().len(), 2);
}

/// The join the Datalog rule `T(x,y) :- T(x,z), E(z,y)` instantiates: two
/// stored point relations sharing `z`; only the pairs that agree on it
/// survive, in cross-product order.
#[test]
fn instantiated_join_of_point_relations() {
    let pts = |ps: &[(i64, i64)]| {
        let ps: Vec<Vec<Rat>> = ps
            .iter()
            .map(|&(a, b)| vec![Rat::from(a), Rat::from(b)])
            .collect();
        ConstraintRelation::from_points(2, &ps)
    };
    let mut db = Database::new();
    db.insert("T", pts(&[(1, 2), (1, 3), (2, 3), (5, 5), (2, 3)]));
    db.insert("E", pts(&[(3, 4), (2, 3), (5, 5), (9, 1)]));
    let body = Formula::and(
        Formula::Rel("T".into(), vec![0, 2]),
        Formula::Rel("E".into(), vec![2, 1]),
    );
    let pure = body.instantiate(&db, NVARS).unwrap();
    assert_matches_reference(&pure, NVARS);
    assert_eq!(pure.to_dnf(NVARS).unwrap().tuples().len(), 4);
}
