//! Integration: soundness of quantifier elimination across engines.
//!
//! For randomly generated databases and queries, the closed-form QE answer
//! must agree pointwise with a brute-force witness scan, and the linear
//! engine (Fourier–Motzkin) must agree with the CAD engine on linear
//! inputs.

use cdb_constraints::{
    Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, Quantifier, RelOp,
};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::{evaluate_query, QeContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn c(v: i64, n: usize) -> MPoly {
    MPoly::constant(Rat::from(v), n)
}

/// Random linear atom a·x + b·y + d σ 0.
fn random_linear_atom(rng: &mut StdRng, n: usize) -> Atom {
    let a = rng.gen_range(-4i64..=4);
    let b = rng.gen_range(-4i64..=4);
    let d = rng.gen_range(-6i64..=6);
    let poly = &(&MPoly::var(0, n).scale(&Rat::from(a)) + &MPoly::var(1, n).scale(&Rat::from(b)))
        + &c(d, n);
    let op = match rng.gen_range(0..4) {
        0 => RelOp::Le,
        1 => RelOp::Lt,
        2 => RelOp::Ge,
        _ => RelOp::Eq,
    };
    Atom::new(poly, op)
}

#[test]
fn fourier_motzkin_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let n = 2;
    for case in 0..40 {
        let tuple =
            GeneralizedTuple::new(n, (0..3).map(|_| random_linear_atom(&mut rng, n)).collect());
        let rel = ConstraintRelation::new(n, vec![tuple]);
        let mut db = Database::new();
        db.insert("R", rel.clone());
        let query = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let ctx = QeContext::exact();
        let out = evaluate_query(&db, &query, n, &ctx).unwrap();
        // Brute force: scan y over a fine grid; a grid miss can only
        // under-approximate ∃, so compare asymmetrically: any witness found
        // must satisfy the QE answer, and QE-true points must admit a
        // witness on a *dense* rational grid (bounds here are rational with
        // denominator ≤ 4, so step 1/8 over [-30, 30] finds all witnesses
        // except equality-only constraints; skip Eq-heavy mismatch cases by
        // testing implication both ways only for non-degenerate rows).
        for xi in -12..=12 {
            let x = Rat::from_ints(xi, 2);
            let witness =
                (-240..=240).any(|yi| rel.satisfied_at(&[x.clone(), Rat::from_ints(yi, 8)]));
            let claimed = out.relation.satisfied_at(&[x.clone(), Rat::zero()]);
            if witness {
                assert!(
                    claimed,
                    "case {case}: witness exists but QE says empty at x={x}"
                );
            }
            if !claimed {
                assert!(!witness, "case {case}: QE false but witness at x={x}");
            }
        }
    }
}

#[test]
fn cad_agrees_with_fm_on_linear_inputs() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let n = 2;
    for case in 0..12 {
        let atoms: Vec<Atom> = (0..2).map(|_| random_linear_atom(&mut rng, n)).collect();
        let matrix = Formula::And(atoms.iter().cloned().map(Formula::Atom).collect());
        let ctx = QeContext::exact();
        // FM path (via pipeline — linear matrix dispatches to FM).
        let mut db = Database::new();
        let rel = ConstraintRelation::new(n, vec![GeneralizedTuple::new(n, atoms)]);
        db.insert("R", rel);
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let fm = evaluate_query(&db, &q, n, &ctx).unwrap();
        // CAD path, forced.
        let cad =
            cdb_qe::cad::eliminate(&matrix.to_nnf(), &[(Quantifier::Exists, 1)], &[0], n, &ctx)
                .unwrap();
        for xi in -16..=16 {
            let x = Rat::from_ints(xi, 2);
            assert_eq!(
                fm.relation.satisfied_at(&[x.clone(), Rat::zero()]),
                cad.satisfied_at(&[x.clone(), Rat::zero()]),
                "case {case}, x = {x}"
            );
        }
    }
}

#[test]
fn cad_soundness_on_random_conics() {
    let mut rng = StdRng::seed_from_u64(0xABCD);
    let n = 2;
    for case in 0..10 {
        // a x² + b y² + c x + d y + e σ 0
        let poly = &(&(&MPoly::var(0, n)
            .pow(2)
            .scale(&Rat::from(rng.gen_range(-2i64..=2)))
            + &MPoly::var(1, n)
                .pow(2)
                .scale(&Rat::from(rng.gen_range(-2i64..=2))))
            + &(&MPoly::var(0, n).scale(&Rat::from(rng.gen_range(-3i64..=3)))
                + &MPoly::var(1, n).scale(&Rat::from(rng.gen_range(-3i64..=3)))))
            + &c(rng.gen_range(-5i64..=5), n);
        if poly.is_constant() {
            continue;
        }
        let op = if rng.gen_bool(0.5) {
            RelOp::Le
        } else {
            RelOp::Lt
        };
        let matrix = Formula::Atom(Atom::new(poly.clone(), op));
        let ctx = QeContext::exact();
        let out = cdb_qe::cad::eliminate(&matrix, &[(Quantifier::Exists, 1)], &[0], n, &ctx);
        let Ok(out) = out else {
            continue; // degenerate formula-construction cases are typed errors
        };
        // ∃y (p(x,y) σ 0) vs scan over y grid.
        for xi in -10..=10 {
            let x = Rat::from_ints(xi, 2);
            let witness = (-200..=200).any(|yi| {
                Atom::new(poly.clone(), op).satisfied_at(&[x.clone(), Rat::from_ints(yi, 10)])
            });
            let claimed = out.satisfied_at(&[x.clone(), Rat::zero()]);
            if witness {
                assert!(claimed, "case {case}: grid witness but QE empty at x = {x}");
            }
        }
    }
}

/// The lifting corpus of `crates/qe/tests/plan_differential.rs` (the four
/// `conic_cad` template shapes, two shared-root-over-an-algebraic-section
/// cases), probed pointwise: a grid witness of `∃y` must lie in the answer,
/// a grid counterexample of `∀y` must not.
#[test]
fn cad_soundness_on_lifting_corpus() {
    type Row<'a> = (Quantifier, &'a [(&'a [(i64, u32, u32)], RelOp)]);
    let corpus: [Row; 6] = [
        (
            Quantifier::Exists,
            &[
                (
                    &[(1, 2, 0), (1, 0, 2), (-2, 1, 0), (4, 0, 1), (-4, 0, 0)],
                    RelOp::Le,
                ),
                (&[(2, 2, 0), (3, 0, 2), (-20, 0, 0)], RelOp::Le),
            ],
        ),
        (
            Quantifier::Exists,
            &[
                (&[(1, 1, 2), (2, 0, 1), (-3, 0, 0)], RelOp::Eq),
                (&[(1, 0, 1), (-1, 0, 0)], RelOp::Ge),
                (&[(1, 1, 0), (-5, 0, 0)], RelOp::Le),
            ],
        ),
        (
            Quantifier::Exists,
            &[
                (
                    &[(1, 0, 3), (1, 1, 1), (-2, 0, 1), (2, 1, 0), (1, 0, 0)],
                    RelOp::Eq,
                ),
                (&[(1, 0, 1), (1, 0, 0)], RelOp::Ge),
                (&[(1, 0, 1), (-2, 0, 0)], RelOp::Le),
            ],
        ),
        // ∀y (outside the open disc ∨ on or below the line); the atoms are
        // the disjuncts.
        (
            Quantifier::Forall,
            &[
                (
                    &[(1, 2, 0), (1, 0, 2), (-2, 1, 0), (2, 0, 1), (-3, 0, 0)],
                    RelOp::Ge,
                ),
                (&[(1, 0, 1), (-2, 1, 0), (-1, 0, 0)], RelOp::Le),
            ],
        ),
        (
            Quantifier::Exists,
            &[
                (&[(1, 0, 2), (-1, 1, 0)], RelOp::Eq),
                (&[(1, 0, 1), (-1, 0, 0)], RelOp::Ge),
            ],
        ),
        (
            Quantifier::Exists,
            &[
                (&[(1, 2, 0), (1, 0, 2), (-1, 0, 0)], RelOp::Le),
                (&[(1, 0, 1), (-1, 1, 0)], RelOp::Eq),
            ],
        ),
    ];
    let n = 2;
    for (row, (q, atoms)) in corpus.into_iter().enumerate() {
        let atoms: Vec<Atom> = atoms
            .iter()
            .map(|(terms, op)| {
                let poly = terms.iter().fold(c(0, n), |acc, &(k, i, j)| {
                    &acc + &(&MPoly::var(0, n).pow(i) * &MPoly::var(1, n).pow(j))
                        .scale(&Rat::from(k))
                });
                Atom::new(poly, *op)
            })
            .collect();
        let parts = atoms.iter().cloned().map(Formula::Atom).collect();
        let matrix = match q {
            Quantifier::Exists => Formula::And(parts),
            Quantifier::Forall => Formula::Or(parts),
        };
        let ctx = QeContext::exact();
        let out = cdb_qe::cad::eliminate(&matrix.to_nnf(), &[(q, 1)], &[0], n, &ctx).unwrap();
        let mut decisive = 0;
        for xi in -24..=24 {
            let x = Rat::from_ints(xi, 4);
            let claimed = out.satisfied_at(&[x.clone(), Rat::zero()]);
            for yi in -48..=48 {
                let point = [x.clone(), Rat::from_ints(yi, 8)];
                match q {
                    Quantifier::Exists if atoms.iter().all(|a| a.satisfied_at(&point)) => {
                        decisive += 1;
                        assert!(claimed, "row {row}: witness y = {} at x = {x}", point[1]);
                    }
                    Quantifier::Forall if !atoms.iter().any(|a| a.satisfied_at(&point)) => {
                        decisive += 1;
                        assert!(
                            !claimed,
                            "row {row}: counterexample y = {} at x = {x}",
                            point[1]
                        );
                    }
                    _ => {}
                }
            }
        }
        assert!(decisive > 0, "row {row}: the grid decided nothing");
    }
}

#[test]
fn numerical_evaluation_is_epsilon_close() {
    // Roots of random products of quadratics: numerical evaluation must be
    // within ε of the true roots.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 1;
    for _ in 0..10 {
        let r1 = rng.gen_range(-6i64..=6);
        let r2 = rng.gen_range(-6i64..=6);
        let k = rng.gen_range(1i64..=3);
        // (x − r1)(k·x − r2) = 0
        let p = &(&MPoly::var(0, n) - &c(r1, n))
            * &(&MPoly::var(0, n).scale(&Rat::from(k)) - &c(r2, n));
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(n, vec![Atom::new(p, RelOp::Eq)])],
        );
        let ctx = QeContext::exact();
        let eps: Rat = "1/1048576".parse().unwrap();
        let pts = cdb_qe::pipeline::numerical_evaluation(&rel, &[0], &eps, &ctx)
            .unwrap()
            .expect("finite");
        let mut expect = vec![Rat::from(r1), Rat::from_ints(r2, k)];
        expect.sort();
        expect.dedup();
        assert_eq!(pts.len(), expect.len());
        for (got, want) in pts.iter().zip(&expect) {
            assert!(
                (&got.coords[0] - want).abs() <= eps,
                "{} vs {want}",
                got.coords[0]
            );
        }
    }
}
