//! Integration tests driving the CAD through its hardest paths:
//!
//! * three-level decompositions whose samples stack *two* algebraic
//!   coordinates (the iterated-resultant + rational-separator machinery of
//!   DESIGN.md §5),
//! * sentences mixing equations and inequalities at algebraic values,
//! * solution formula construction needing derivative augmentation,
//! * tangent spheres, cylinders and planes, whose fibres have double roots
//!   over samples with two algebraic coordinates (the subresultant gcd of
//!   DESIGN.md §5 rule 2), checked against the sentence with `x` substituted.

use cdb_constraints::{Atom, Formula, Quantifier, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::cad::{build_cad, decide_sentence};
use cdb_qe::QeContext;

fn c(v: i64, n: usize) -> MPoly {
    MPoly::constant(Rat::from(v), n)
}

/// √2·√3 = √6 ≈ 2.449: deciding z ≥ q against it forces sign evaluation at
/// a sample with two algebraic coordinates.
#[test]
fn sentence_over_two_algebraic_coordinates() {
    let n = 3;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let z = MPoly::var(2, n);
    let base = vec![
        Formula::Atom(Atom::new(&x.pow(2) - &c(2, n), RelOp::Eq)),
        Formula::Atom(Atom::new(&y.pow(2) - &c(3, n), RelOp::Eq)),
        Formula::Atom(Atom::new(&z - &(&x * &y), RelOp::Eq)),
    ];
    let prefix = [
        (Quantifier::Exists, 0),
        (Quantifier::Exists, 1),
        (Quantifier::Exists, 2),
    ];
    let ctx = QeContext::exact();
    // ∃x∃y∃z: x²=2 ∧ y²=3 ∧ z = x·y ∧ z ≥ 2.4 — true (z = √6 ≈ 2.4495).
    let mut sat = base.clone();
    sat.push(Formula::Atom(Atom::new(
        &c(12, n) - &z.scale(&Rat::from(5i64)),
        RelOp::Le,
    )));
    assert!(decide_sentence(&Formula::And(sat), &prefix, n, &ctx).unwrap());
    // …and z ≥ 2.45 ∧ z ≤ 2.5 — still true? √6 = 2.44948… < 2.45: false.
    let mut unsat = base.clone();
    unsat.push(Formula::Atom(Atom::new(
        &c(49, n) - &z.scale(&Rat::from(20i64)),
        RelOp::Le,
    )));
    unsat.push(Formula::Atom(Atom::new(&z - &c(3, n), RelOp::Le)));
    assert!(!decide_sentence(&Formula::And(unsat), &prefix, n, &ctx).unwrap());
}

/// Full three-level CAD: stacks over (√2, √3)-type samples are built with
/// the multi-algebraic candidate machinery; check the cell counts are sane
/// and every level-3 poly got a sign everywhere.
#[test]
fn three_level_cad_structure() {
    let n = 3;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let z = MPoly::var(2, n);
    let polys = vec![&x.pow(2) - &c(2, n), &y.pow(2) - &c(3, n), &z - &(&x * &y)];
    let ctx = QeContext::exact();
    let cad = build_cad(&polys, &[0, 1, 2], n, &ctx).unwrap();
    assert_eq!(cad.levels.len(), 3);
    // Level 1: roots ±√2 plus 0 (the projection of z − x·y contributes the
    // coefficient x·y, whose own projection contributes x) → 7 cells.
    // Level 2: polys {y² − 3, x·y}: over the six cells with x ≠ 0 the fiber
    // roots are {−√3, 0, √3} → 7 cells; over the section x = 0 the poly
    // x·y is nullified → 5 cells. Total 6·7 + 5 = 47.
    // Level 3: z − x·y is a single section per fiber → 3 cells each.
    assert_eq!(cad.levels[0].len(), 7);
    assert_eq!(cad.levels[1].len(), 47);
    assert_eq!(cad.levels[2].len(), 141);
    // Every top cell has a sign recorded for every registered polynomial.
    let ids: Vec<usize> = cad.registry.iter().map(|(i, _)| i).collect();
    for cell in cad.levels[2].iter() {
        for id in &ids {
            assert!(
                cell.signs.contains_key(id),
                "missing sign for poly {id} at cell {:?}",
                cell.index
            );
        }
    }
}

/// The tangency of `repro` E16, `x² + y² + w² − 4` and `y·w − 1`, as a
/// full three-level CAD: level-3 stacks over sibling level-2 cells read the
/// same level-1 coordinate, each from its own copy, so the cells, their
/// sign vectors and their sample intervals are the same for every worker
/// count.
#[test]
fn three_level_tangency_is_worker_independent() {
    let n = 3;
    let (x, y, w) = (MPoly::var(0, n), MPoly::var(1, n), MPoly::var(2, n));
    let sphere = &(&(&x.pow(2) + &y.pow(2)) + &w.pow(2)) - &c(4, n);
    let hyperbola = &(&y * &w) - &c(1, n);
    let cells = |workers: usize| {
        let ctx = QeContext::exact().with_workers(workers);
        let cad = build_cad(&[sphere.clone(), hyperbola.clone()], &[0, 1, 2], n, &ctx).unwrap();
        let per_level: Vec<usize> = cad.levels.iter().map(|l| l.len()).collect();
        let cells: Vec<(Vec<String>, Vec<usize>, String)> = cad
            .levels
            .iter()
            .flat_map(|level| level.iter())
            .map(|cell| {
                let sample = cell.sample.iter().map(|c| c.interval().to_string());
                (
                    sample.collect(),
                    cell.index.clone(),
                    format!("{:?}", cell.signs),
                )
            })
            .collect();
        (per_level, cells)
    };
    let (per_level, sequential) = cells(1);
    assert_eq!(per_level.iter().sum::<usize>(), 419, "{per_level:?}");
    for workers in [2, 4] {
        assert_eq!(
            cells(workers),
            (per_level.clone(), sequential.clone()),
            "workers {workers}"
        );
    }
}

/// z = x·y over x = √2, y = √3 has the (irrational) root √6: EVAL-style
/// numeric extraction through a 3-var finite system.
#[test]
fn numeric_evaluation_of_sqrt6() {
    let n = 3;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let z = MPoly::var(2, n);
    let rel = cdb_constraints::ConstraintRelation::new(
        n,
        vec![cdb_constraints::GeneralizedTuple::new(
            n,
            vec![
                Atom::new(&x.pow(2) - &c(2, n), RelOp::Eq),
                Atom::new(x.clone(), RelOp::Ge),
                Atom::new(&y.pow(2) - &c(3, n), RelOp::Eq),
                Atom::new(y.clone(), RelOp::Ge),
                Atom::new(&z - &(&x * &y), RelOp::Eq),
            ],
        )],
    );
    let ctx = QeContext::exact();
    let eps: Rat = "1/1048576".parse().unwrap();
    let pts = cdb_qe::pipeline::numerical_evaluation(&rel, &[0, 1, 2], &eps, &ctx)
        .unwrap()
        .expect("finite");
    assert_eq!(pts.len(), 1);
    let p = &pts[0];
    assert!((p.coords[0].to_f64() - 2f64.sqrt()).abs() < 1e-5);
    assert!((p.coords[1].to_f64() - 3f64.sqrt()).abs() < 1e-5);
    assert!((p.coords[2].to_f64() - 6f64.sqrt()).abs() < 1e-5);
}

/// Formula construction where the initial projection signs collide:
/// ∃y (y² = x) ⇔ x ≥ 0, whose free-space polys (just x) distinguish the
/// cells directly; and a case needing augmentation: ∃y (y² = x²) is all of
/// R — solution formula must not fracture.
#[test]
fn solution_formula_edge_cases() {
    let n = 2;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let ctx = QeContext::exact();
    let sqrt_region = cdb_qe::cad::eliminate(
        &Formula::Atom(Atom::new(&y.pow(2) - &x, RelOp::Eq)),
        &[(Quantifier::Exists, 1)],
        &[0],
        n,
        &ctx,
    )
    .unwrap();
    for (v, expect) in [("0", true), ("4", true), ("-1", false)] {
        assert_eq!(
            sqrt_region.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
            expect,
            "x = {v}"
        );
    }
    let all_reals = cdb_qe::cad::eliminate(
        &Formula::Atom(Atom::new(&y.pow(2) - &x.pow(2), RelOp::Eq)),
        &[(Quantifier::Exists, 1)],
        &[0],
        n,
        &ctx,
    )
    .unwrap();
    for v in ["-3", "0", "5/2"] {
        assert!(
            all_reals.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
            "x = {v}"
        );
    }
}

/// `(x − a)² + (y − b)² + (w − c)² − r²` with the terms of absent axes left
/// out: a sphere, or a cylinder along every axis whose centre is `None`.
fn quadric(centre: [Option<Rat>; 3], r2: &Rat) -> MPoly {
    let n = 3;
    let mut p = MPoly::constant(-r2.clone(), n);
    for (v, a) in centre.iter().enumerate() {
        if let Some(a) = a {
            let d = &MPoly::var(v, n) - &MPoly::constant(a.clone(), n);
            p = &p + &d.pow(2);
        }
    }
    p
}

/// `n·(x, y, w) − δ`.
fn plane(normal: [i64; 3], delta: &Rat) -> MPoly {
    let n = 3;
    let mut p = MPoly::constant(-delta.clone(), n);
    for (v, k) in normal.iter().enumerate() {
        p = &p + &MPoly::var(v, n).scale(&Rat::from(*k));
    }
    p
}

/// Unit vectors with rational coordinates, from Pythagorean quadruples.
const DIRECTIONS: [([i64; 3], i64); 4] = [
    ([1, 2, 2], 3),
    ([2, 3, 6], 7),
    ([0, 3, 4], 5),
    ([4, 0, 3], 5),
];

/// A tangent pair and the `x` of its point of contact, all rational.
fn tangent_pair(
    shape: usize,
    centre: [i64; 3],
    normal: [i64; 3],
    k: i64,
    dir: usize,
) -> (MPoly, MPoly, Rat) {
    let centre = centre.map(Rat::from);
    let some = |c: &[Rat; 3]| c.clone().map(Some);
    let (u, len) = DIRECTIONS[dir % DIRECTIONS.len()];
    let u = u.map(|ui| Rat::from_ints(ui, len));
    let along =
        |from: &[Rat; 3], t: &Rat| -> [Rat; 3] { [0, 1, 2].map(|i| &from[i] + &(t * &u[i])) };
    match shape {
        // Sphere and plane: radius = distance from the centre to the plane.
        0 | 1 => {
            let normal = if shape == 0 {
                normal
            } else {
                [0, normal[1], normal[2]]
            };
            let nn: i64 = normal.iter().map(|v| v * v).sum();
            let nn = Rat::from(nn.max(1));
            let normal = if normal == [0, 0, 0] {
                [0, 0, 1]
            } else {
                normal
            };
            let dot = (0..3).fold(Rat::zero(), |s, i| {
                &s + &(&Rat::from(normal[i]) * &centre[i])
            });
            let delta = &dot + &Rat::from(k);
            let r2 = &(&Rat::from(k) * &Rat::from(k)) / &nn;
            // The contact point: the centre moved by k/|n|² along n.
            let x = &centre[0] + &(&Rat::from(k * normal[0]) / &nn);
            if shape == 0 {
                (quadric(some(&centre), &r2), plane(normal, &delta), x)
            } else {
                // A cylinder along x, the plane parallel to its axis: every
                // x has a contact point.
                let cyl = quadric(
                    [None, Some(centre[1].clone()), Some(centre[2].clone())],
                    &r2,
                );
                (cyl, plane(normal, &delta), x)
            }
        }
        // Two spheres touching from outside: radii r1 + r2 = |centre₂ − centre₁|.
        2 => {
            let (r1, d) = (
                Rat::from_ints(1 + k.rem_euclid(3), 2),
                Rat::from(2 + k.rem_euclid(2)),
            );
            let r2 = &d - &r1;
            let other = along(&centre, &d);
            let x = along(&centre, &r1)[0].clone();
            (
                quadric(some(&centre), &(&r1 * &r1)),
                quadric(some(&other), &(&r2 * &r2)),
                x,
            )
        }
        // A sphere touching a cylinder along w from outside, in the plane
        // w = its centre's.
        _ => {
            let u2 = [Rat::from_ints(3, 5), Rat::from_ints(4, 5)];
            let (rs, rc) = (Rat::from_ints(1 + k.rem_euclid(3), 2), Rat::one());
            let d = &rs + &rc;
            let axis = [0, 1].map(|i| Some(&centre[i] + &(&d * &u2[i])));
            let cyl = quadric([axis[0].clone(), axis[1].clone(), None], &(&rc * &rc));
            let x = &centre[0] + &(&rs * &u2[0]);
            (quadric(some(&centre), &(&rs * &rs)), cyl, x)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Tangent spheres, cylinders and planes in three variables, stated as
    /// `∃y ∃w`: lifting meets fibres with a double root over samples with
    /// two algebraic coordinates, where the fibre's gcd comes from its
    /// subresultants (DESIGN.md §5 rule 2). The answer's truth at rational
    /// `x` — the contact point's among them — equals the decision of the
    /// sentence with `x` substituted.
    #[test]
    fn tangencies_in_three_variables_match_the_substituted_sentence(
        shape in 0usize..4,
        centre in (-2i64..=2, -2i64..=2, -2i64..=2),
        normal in (-2i64..=2, -2i64..=2, -2i64..=2),
        k in 1i64..=3,
        dir in 0usize..4,
        ops in (0usize..3, 0usize..3),
    ) {
        let centre = [centre.0, centre.1, centre.2];
        let normal = [normal.0, normal.1, normal.2];
        let ops = [ops.0, ops.1];
        let (a, b, contact) = tangent_pair(shape, centre, normal, k, dir);
        let op = [RelOp::Le, RelOp::Eq, RelOp::Ge];
        let matrix = Formula::and(
            Formula::Atom(Atom::new(a, op[ops[0]])),
            Formula::Atom(Atom::new(b, op[ops[1]])),
        );
        let prefix = [(Quantifier::Exists, 1), (Quantifier::Exists, 2)];
        let ctx = QeContext::exact();
        let answer = cdb_qe::cad::eliminate(&matrix, &prefix, &[0], 3, &ctx).unwrap();
        let half = Rat::from_ints(1, 2);
        let mut grid: Vec<Rat> = (-6..=6).map(|i| Rat::from_ints(i, 2)).collect();
        grid.extend([&contact - &half, contact.clone(), &contact + &half]);
        for r in grid {
            let at = |f: &Formula| substitute_x(f, &r);
            let want = decide_sentence(&at(&matrix), &prefix, 3, &ctx).unwrap();
            let got = answer.satisfied_at(&[r.clone(), Rat::zero(), Rat::zero()]);
            proptest::prop_assert_eq!(got, want, "x = {}: {}", r, answer);
        }
    }
}

/// `f` with `x := r` in every atom.
fn substitute_x(f: &Formula, r: &Rat) -> Formula {
    match f {
        Formula::Atom(a) => Formula::Atom(Atom::new(a.poly.substitute(0, r), a.op)),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| substitute_x(g, r)).collect()),
        other => other.clone(),
    }
}

/// The three-variable tangency of the `exists y exists w` query: `x² + y² +
/// w² ≤ 4 ∧ y·w ≥ 1` projects to `x² ≤ 2` (the hyperbola `y·w = 1` touches
/// the sphere's slice `y² + w² ≤ 4 − x²` where `4 − x² = 2`).
#[test]
fn sphere_against_hyperbolic_cylinder_projects_to_x_squared_at_most_2() {
    let n = 3;
    let (x, y, w) = (MPoly::var(0, n), MPoly::var(1, n), MPoly::var(2, n));
    let matrix = Formula::and(
        Formula::Atom(Atom::new(
            &(&(&x.pow(2) + &y.pow(2)) + &w.pow(2)) - &c(4, n),
            RelOp::Le,
        )),
        Formula::Atom(Atom::new(&(&y * &w) - &c(1, n), RelOp::Ge)),
    );
    let prefix = [(Quantifier::Exists, 1), (Quantifier::Exists, 2)];
    let answer = cdb_qe::cad::eliminate(&matrix, &prefix, &[0], n, &QeContext::exact()).unwrap();
    for r in ["-3/2", "-7/5", "-1", "0", "1/2", "7/5", "3/2", "2"] {
        let r: Rat = r.parse().unwrap();
        let want = &r * &r <= Rat::from(2i64);
        assert_eq!(
            answer.satisfied_at(&[r.clone(), Rat::zero(), Rat::zero()]),
            want,
            "x = {r}"
        );
    }
}
