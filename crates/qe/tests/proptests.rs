//! Property tests for quantifier elimination.
//!
//! The key invariant is *pointwise soundness*: for every probe point of the
//! free variables, the eliminated formula holds iff a witness for the
//! quantified variable exists. Witnesses are searched on dense rational
//! grids (sound for the coefficient ranges generated here, where all
//! boundary values have small denominators).

use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::cad::project::normalize;
use cdb_qe::{evaluate_query, plan, AlgebraicCache, QeContext, QeError};
use proptest::prelude::*;

fn linear_atom(a: i64, b: i64, d: i64, op: u8) -> Atom {
    let n = 2;
    let poly = &(&MPoly::var(0, n).scale(&Rat::from(a)) + &MPoly::var(1, n).scale(&Rat::from(b)))
        + &MPoly::constant(Rat::from(d), n);
    let op = match op % 4 {
        0 => RelOp::Le,
        1 => RelOp::Lt,
        2 => RelOp::Ge,
        _ => RelOp::Eq,
    };
    Atom::new(poly, op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The memo-cache's normal form is `normalize`'s, cold and warm, on
    /// `s · (a·x + b)^e · Π (c·x + d·y² + f)^k`: constants (`s = 0`, or
    /// every factor constant), content in the main variable `y` (`d = 0`,
    /// and the `x`-only first factor) and repeated factors (`k > 1`).
    #[test]
    fn cached_normal_form_is_normalize(
        s in -2i64..=2,
        content in (-2i64..=2, -2i64..=2, 0u32..=2),
        factors in prop::collection::vec((-2i64..=2, -2i64..=2, -2i64..=2, 1u32..=3), 0..=2),
    ) {
        let n = 2;
        let (x, y) = (MPoly::var(0, n), MPoly::var(1, n));
        let k = |v: i64| MPoly::constant(Rat::from(v), n);
        let (a, b, e) = content;
        let mut p = &k(s) * &(&(&k(a) * &x) + &k(b)).pow(e);
        for &(c, d, f, m) in &factors {
            p = &p * &(&(&(&k(c) * &x) + &(&k(d) * &y.pow(2))) + &k(f)).pow(m);
        }
        let expect = normalize(&p);
        let cache = AlgebraicCache::default();
        prop_assert_eq!(cache.normal_form(&p), expect.clone());
        prop_assert_eq!(cache.normal_form(&p), expect);
        let lookups = if p.is_constant() { (0, 0) } else { (1, 1) };
        prop_assert_eq!((cache.misses(), cache.hits()), lookups);
    }

    /// FM elimination is pointwise sound against a witness grid.
    #[test]
    fn fm_exists_soundness(
        atoms in prop::collection::vec((-3i64..=3, -3i64..=3, -4i64..=4, 0u8..4), 1..=3),
    ) {
        let n = 2;
        let tuple = GeneralizedTuple::new(
            n,
            atoms.iter().map(|&(a, b, d, op)| linear_atom(a, b, d, op)).collect(),
        );
        let rel = ConstraintRelation::new(n, vec![tuple]);
        let ctx = QeContext::exact();
        let out = plan::eliminate_exists_run(&rel, &[1], &ctx).unwrap();
        // Probe x on a half-integer grid; witnesses on a 1/12 grid (all
        // bounds here have denominators dividing 12).
        for xi in -8..=8 {
            let x = Rat::from_ints(xi, 2);
            let claimed = out.satisfied_at(&[x.clone(), Rat::zero()]);
            // Wide witness grid: equality constraints like y = 3x + d have
            // single-point witnesses up to |3·8·... | ≈ 30; scan to ±60.
            let witness = (-60 * 12..=60 * 12)
                .any(|yi| rel.satisfied_at(&[x.clone(), Rat::from_ints(yi, 12)]));
            if witness {
                prop_assert!(claimed, "missing witness at x = {x}");
            }
            if claimed && !witness {
                // The witness may be outside the grid span only when the
                // region is unbounded in y; verify by checking far probes.
                let far = rel.satisfied_at(&[x.clone(), Rat::from(100i64)])
                    || rel.satisfied_at(&[x.clone(), Rat::from(-100i64)]);
                prop_assert!(far, "claimed but no witness at x = {x}");
            }
        }
    }

    /// Forall is the dual of exists on the complement.
    #[test]
    fn fm_forall_duality(
        atoms in prop::collection::vec((-2i64..=2, -2i64..=2, -3i64..=3, 0u8..3), 1..=2),
    ) {
        let n = 2;
        let tuple = GeneralizedTuple::new(
            n,
            atoms.iter().map(|&(a, b, d, op)| linear_atom(a, b, d, op)).collect(),
        );
        let rel = ConstraintRelation::new(n, vec![tuple]);
        let ctx = QeContext::exact();
        let fa = plan::eliminate_prefix(
            &cdb_constraints::formula::relation_to_formula(&rel),
            rel.clone(),
            &[(cdb_constraints::Quantifier::Forall, 1)],
            &[0],
            n,
            &ctx,
        )
        .unwrap();
        let ex_not = plan::eliminate_exists_run(&rel.complement().simplify(), &[1], &ctx).unwrap();
        for xi in -6..=6 {
            let x = Rat::from_ints(xi, 2);
            prop_assert_eq!(
                fa.satisfied_at(&[x.clone(), Rat::zero()]),
                !ex_not.satisfied_at(&[x.clone(), Rat::zero()]),
                "duality at x = {}", x
            );
        }
    }

    /// The pipeline agrees between its FM and CAD paths on linear input.
    #[test]
    fn pipeline_engines_agree(
        a in -3i64..=3, b in 1i64..=3, d in -4i64..=4,
        a2 in -3i64..=3, b2 in -3i64..=-1, d2 in -4i64..=4,
    ) {
        let n = 2;
        let atoms = vec![
            linear_atom(a, b, d, 0),
            linear_atom(a2, b2, d2, 0),
        ];
        let matrix = Formula::And(atoms.iter().cloned().map(Formula::Atom).collect());
        let ctx = QeContext::exact();
        let mut db = Database::new();
        db.insert(
            "R",
            ConstraintRelation::new(n, vec![GeneralizedTuple::new(n, atoms)]),
        );
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let fm = evaluate_query(&db, &q, n, &ctx).unwrap();
        let cad = cdb_qe::cad::eliminate(
            &matrix.to_nnf(),
            &[(cdb_constraints::Quantifier::Exists, 1)],
            &[0],
            n,
            &ctx,
        ).unwrap();
        for xi in -6..=6 {
            let x = Rat::from_ints(xi, 2);
            prop_assert_eq!(
                fm.relation.satisfied_at(&[x.clone(), Rat::zero()]),
                cad.satisfied_at(&[x.clone(), Rat::zero()]),
                "x = {}", x
            );
        }
    }

    /// The finite-precision budget is monotone: defined at k implies
    /// defined at every k' >= k, with the same answer.
    #[test]
    fn budget_monotonicity(
        atoms in prop::collection::vec((-3i64..=3, -3i64..=3, -4i64..=4, 0u8..3), 1..=2),
        k in 8u64..64,
    ) {
        let n = 2;
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                atoms.iter().map(|&(a, b, d, op)| linear_atom(a, b, d, op)).collect(),
            )],
        );
        let mut db = Database::new();
        db.insert("R", rel);
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let at = |budget: u64| -> Option<ConstraintRelation> {
            let ctx = QeContext::with_budget(budget);
            evaluate_query(&db, &q, n, &ctx).ok().map(|o| o.relation)
        };
        if let Some(small) = at(k) {
            let big = at(4 * k).expect("larger budget must stay defined");
            for xi in -5..=5 {
                let x = Rat::from(xi as i64);
                prop_assert_eq!(
                    small.satisfied_at(&[x.clone(), Rat::zero()]),
                    big.satisfied_at(&[x.clone(), Rat::zero()])
                );
            }
        }
    }

    /// CAD lifting parallelism is invisible: one worker (the sequential
    /// loop) and many produce structurally identical relations, atom for
    /// atom, in the same order, and the shared memo-cache does not perturb
    /// results. The counters the lift's helpers fold back into the caller's
    /// context (cells, sign evaluations, the largest bit length) are the
    /// sequential loop's too, and a budget one bit short of what the exact
    /// run needed fails with the same typed error for every worker count.
    /// Every cell of the full CAD carries the same sample coordinates, down
    /// to the isolating intervals their refinement left.
    #[test]
    fn cad_parallel_matches_sequential(
        a in -2i64..=2, b in -2i64..=2, c in -2i64..=2,
        a2 in -2i64..=2, b2 in -2i64..=2, c2 in -2i64..=2,
    ) {
        let n = 2;
        let conic = |a: i64, b: i64, c: i64| {
            let p = &(&(&MPoly::var(0, n).pow(2).scale(&Rat::from(a))
                + &MPoly::var(1, n).pow(2).scale(&Rat::from(b)))
                + &MPoly::var(0, n).scale(&Rat::from(c)))
                - &MPoly::constant(Rat::from(1i64), n);
            Atom::new(p, RelOp::Le)
        };
        let matrix = Formula::Or(vec![
            Formula::Atom(conic(a, b, c)),
            Formula::Atom(conic(a2, b2, c2)),
        ])
        .to_nnf();
        let run = |ctx: QeContext, workers: usize| {
            let ctx = ctx.with_workers(workers);
            let rel = cdb_qe::cad::eliminate(
                &matrix,
                &[(cdb_constraints::Quantifier::Exists, 1)],
                &[0],
                n,
                &ctx,
            );
            let counts = (ctx.cells_built.get(), ctx.sign_evals.get(), ctx.max_bits_seen.get());
            (rel, counts)
        };
        // Degenerate conics can be rejected by CAD (e.g. identically
        // vanishing iterated resultants); the contract under test only
        // concerns inputs the sequential engine accepts.
        // Each cell's sample, interval by interval.
        let samples = |workers: usize| -> Option<Vec<Vec<String>>> {
            let polys = cdb_qe::cad::matrix_polys(&matrix).ok()?;
            let ctx = QeContext::exact().with_workers(workers);
            let cad = cdb_qe::cad::build_cad(&polys, &[0, 1], n, &ctx).ok()?;
            let cells = cad.levels.iter().flat_map(|level| level.iter());
            Some(
                cells
                    .map(|cell| cell.sample.iter().map(|c| c.interval().to_string()).collect())
                    .collect(),
            )
        };
        if let (Ok(seq), seq_counts) = run(QeContext::exact(), 1) {
            let seq_samples = samples(1);
            let short = seq_counts.2 - 1;
            let seq_err = run(QeContext::with_budget(short), 1).0.expect_err("budget below need");
            prop_assert!(
                matches!(seq_err, QeError::PrecisionExceeded { budget_bits, .. } if budget_bits == short),
                "{:?}", seq_err
            );
            for workers in [2, 4] {
                let (par, par_counts) = run(QeContext::exact(), workers);
                let par = par.expect("parallel run failed where sequential succeeded");
                prop_assert_eq!(&seq, &par, "workers = {}", workers);
                prop_assert_eq!(seq_counts, par_counts, "workers = {}", workers);
                let par_err = run(QeContext::with_budget(short), workers).0;
                prop_assert_eq!(Err(seq_err.clone()), par_err, "workers = {}", workers);
                prop_assert_eq!(&seq_samples, &samples(workers), "workers = {}", workers);
            }
        }
    }

    /// Relation algebra semantics: union/intersection/complement are
    /// pointwise boolean algebra.
    #[test]
    fn relation_algebra_pointwise(
        atoms_a in prop::collection::vec((-2i64..=2, -2i64..=2, -3i64..=3, 0u8..3), 1..=2),
        atoms_b in prop::collection::vec((-2i64..=2, -2i64..=2, -3i64..=3, 0u8..3), 1..=2),
        px in -5i64..=5, py in -5i64..=5,
    ) {
        let n = 2;
        let mk = |atoms: &[(i64, i64, i64, u8)]| {
            ConstraintRelation::new(
                n,
                vec![GeneralizedTuple::new(
                    n,
                    atoms.iter().map(|&(a, b, d, op)| linear_atom(a, b, d, op)).collect(),
                )],
            )
        };
        let ra = mk(&atoms_a);
        let rb = mk(&atoms_b);
        let p = [Rat::from(px), Rat::from(py)];
        prop_assert_eq!(
            ra.union(&rb).satisfied_at(&p),
            ra.satisfied_at(&p) || rb.satisfied_at(&p)
        );
        prop_assert_eq!(
            ra.intersection(&rb).satisfied_at(&p),
            ra.satisfied_at(&p) && rb.satisfied_at(&p)
        );
        prop_assert_eq!(ra.complement().satisfied_at(&p), !ra.satisfied_at(&p));
    }
}
