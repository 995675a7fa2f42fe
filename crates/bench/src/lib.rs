//! `cdb-bench`: workload generators and experiment fixtures for the
//! reproduction of every table and figure (see DESIGN.md §4 and
//! EXPERIMENTS.md for the experiment index E1–E16).
//!
//! The paper is a theory paper: its "evaluation" consists of Figure 1, the
//! worked examples, and complexity theorems. Each experiment regenerates
//! one of those artifacts, either exactly (the examples) or as a scaling
//! curve whose *shape* the theorem predicts (PTIME data complexity, linear
//! bit growth, undefinedness thresholds).

use cdb_constraints::{Atom, ConstraintRelation, Database, GeneralizedTuple, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's relation S(x, y) ≡ 4x² − y − 20x + 25 ≤ 0.
#[must_use]
pub fn paper_s() -> ConstraintRelation {
    let x = MPoly::var(0, 2);
    let y = MPoly::var(1, 2);
    let c = |v: i64| MPoly::constant(Rat::from(v), 2);
    let p = &(&(&c(4) * &x.pow(2)) - &y) - &(&(&c(20) * &x) - &c(25));
    ConstraintRelation::new(
        2,
        vec![GeneralizedTuple::new(2, vec![Atom::new(p, RelOp::Le)])],
    )
}

/// A database holding only S.
#[must_use]
pub fn paper_db() -> Database {
    let mut db = Database::new();
    db.insert("S", paper_s());
    db
}

/// Random linear binary relation: `m` generalized tuples, each a conjunction
/// of `atoms_per_tuple` linear constraints with coefficients of at most
/// `bits` bits.
#[must_use]
pub fn gen_linear_relation(
    seed: u64,
    m: usize,
    atoms_per_tuple: usize,
    bits: u32,
) -> ConstraintRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2;
    let bound = 1i64 << bits.min(40);
    let tuples = (0..m)
        .map(|_| {
            let atoms = (0..atoms_per_tuple)
                .map(|_| {
                    let a = rng.gen_range(-bound..=bound);
                    let b = rng.gen_range(-bound..=bound);
                    let d = rng.gen_range(-bound..=bound);
                    let poly = &(&MPoly::var(0, n).scale(&Rat::from(a))
                        + &MPoly::var(1, n).scale(&Rat::from(b)))
                        + &MPoly::constant(Rat::from(d), n);
                    let op = match rng.gen_range(0..3) {
                        0 => RelOp::Le,
                        1 => RelOp::Lt,
                        _ => RelOp::Ge,
                    };
                    Atom::new(poly, op)
                })
                .collect();
            GeneralizedTuple::new(n, atoms)
        })
        .collect();
    ConstraintRelation::new(n, tuples)
}

/// Random polynomial binary relation of degree ≤ `degree` per tuple (conic
/// sections for degree 2 — the class `K_{d,m}` of Theorem 4.3).
#[must_use]
pub fn gen_poly_relation(seed: u64, m: usize, degree: u32, bits: u32) -> ConstraintRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2;
    let bound = 1i64 << bits.min(30);
    let tuples = (0..m)
        .map(|_| {
            let mut poly = MPoly::zero(n);
            for dx in 0..=degree {
                for dy in 0..=(degree - dx) {
                    if rng.gen_bool(0.5) {
                        continue;
                    }
                    let coeff = rng.gen_range(-bound..=bound);
                    if coeff == 0 {
                        continue;
                    }
                    let mono = &MPoly::var(0, n).pow(dx) * &MPoly::var(1, n).pow(dy);
                    poly = &poly + &mono.scale(&Rat::from(coeff));
                }
            }
            if poly.is_constant() {
                poly = &poly + &MPoly::var(0, n);
            }
            GeneralizedTuple::new(n, vec![Atom::new(poly, RelOp::Le)])
        })
        .collect();
    ConstraintRelation::new(n, tuples)
}

/// Random dense univariate polynomial with roots guaranteed (odd degree) —
/// the NUMERICAL EVALUATION workload of Theorem 3.2.
#[must_use]
pub fn gen_upoly(seed: u64, degree: usize, bits: u32) -> cdb_poly::UPoly {
    let mut rng = StdRng::seed_from_u64(seed);
    let bound = 1i64 << bits.min(40);
    let mut coeffs: Vec<i64> = (0..=degree)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    if coeffs[degree] == 0 {
        coeffs[degree] = 1;
    }
    cdb_poly::UPoly::from_ints(&coeffs)
}

/// A moving-objects scenario (the `alibi_scan` workload): piecewise-linear 2-D trajectories over
/// unit time slices. `pos[k][s]` is object `k`'s position at the start of
/// slice `s`; `vel[k][s]` its (constant) velocity during slice `s`. Both
/// are integer-valued rationals, so every derived constraint is exact.
pub struct Trajectories {
    /// Slice-start positions, `objects × slices` (the position during
    /// slice `s` is `pos[k][s] + vel[k][s]·(t − s)`).
    pub pos: Vec<Vec<(Rat, Rat)>>,
    /// Per-slice velocities, `objects × slices`.
    pub vel: Vec<Vec<(Rat, Rat)>>,
}

/// Generate `objects` random trajectories over `slices` unit slices.
/// About a quarter of the slices put an object in *convoy* with its
/// predecessor (identical velocity), so the relative motion there is
/// constant — the disjuncts the planner's FM class picks up.
#[must_use]
pub fn gen_trajectories(seed: u64, objects: usize, slices: usize) -> Trajectories {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ivel: Vec<Vec<(i64, i64)>> = Vec::with_capacity(objects);
    let fresh = |rng: &mut StdRng| (rng.gen_range(-3i64..=3), rng.gen_range(-3i64..=3));
    for _ in 0..objects {
        let row = match ivel.last() {
            Some(prev) => prev
                .iter()
                .map(|&v| {
                    if rng.gen_bool(0.25) {
                        v
                    } else {
                        fresh(&mut rng)
                    }
                })
                .collect(),
            None => (0..slices).map(|_| fresh(&mut rng)).collect(),
        };
        ivel.push(row);
    }
    let mut pos = Vec::with_capacity(objects);
    let mut vel = Vec::with_capacity(objects);
    for row in &ivel {
        let mut x = rng.gen_range(-12i64..=12);
        let mut y = rng.gen_range(-12i64..=12);
        let mut ps = Vec::with_capacity(slices);
        let mut vs = Vec::with_capacity(slices);
        for &(vx, vy) in row {
            ps.push((Rat::from(x), Rat::from(y)));
            vs.push((Rat::from(vx), Rat::from(vy)));
            x += vx;
            y += vy;
        }
        pos.push(ps);
        vel.push(vs);
    }
    Trajectories { pos, vel }
}

/// Simple wall-clock measurement helper (median of `reps` runs).
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> std::time::Duration {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::Formula;
    use cdb_qe::{evaluate_query, QeContext};

    /// The shape `alibi_scan` is made of — many cheap linear disjuncts —
    /// runs on one code path whatever `workers` says: a 96-disjunct
    /// relation gives the same bytes at workers 1 and 4 and never reaches
    /// CAD, the only place `workers` is read.
    #[test]
    fn linear_96_disjuncts_ignore_workers() {
        let mut db = Database::new();
        db.insert("R", gen_linear_relation(77, 96, 6, 32));
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let run = |workers: usize| {
            let ctx = QeContext::exact().with_workers(workers);
            let out = evaluate_query(&db, &q, 2, &ctx).unwrap();
            let stats = ctx.plan_stats();
            assert_eq!(stats.cad, 0, "workers {workers}");
            assert!(stats.fm + stats.subst > 0, "workers {workers}");
            format!("{}", out.relation)
        };
        assert_eq!(run(1), run(4));
    }
}
