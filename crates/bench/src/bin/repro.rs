//! `repro` — regenerate every table/figure of the paper (E1–E16).
//!
//! Usage: `cargo run --release -p cdb-bench --bin repro [-- e1 e2 …]`
//! (no arguments = all experiments). Each experiment prints the paper's
//! artifact next to the measured result and asserts the paper's own numbers;
//! EXPERIMENTS.md records a full run. Performance is measured by the
//! statement-level benchmark in `stmtbench/` (see `BENCHMARK.json`), not here.

use cdb_approx::modules::{approximate_on_abase, ApproxMethod};
use cdb_approx::{sup_error, ABase, AnalyticFn};
use cdb_bench::{gen_linear_relation, gen_poly_relation, gen_upoly, paper_db, time_median};
use cdb_calcf::CalcFEngine;
use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, RelOp};
use cdb_datalog::{Literal, Program, Rule};
use cdb_fp::doubling::{add2k_hi, add2k_lo, mul2k_words, Pair};
use cdb_fp::pathologies::{
    distributivity_counterexample, greatest_element, summation_order_counterexample,
};
use cdb_fp::semantics::input_bit_length;
use cdb_num::{FkParams, Int, Rat, Zk};
use cdb_poly::{MPoly, RealAlg};
use cdb_qe::{evaluate_query, QeContext};
use constraintdb::ConstraintDb;

// Bench driver, not library code: a bad experiment id should abort the run
// immediately with the conventional usage exit code.
#[allow(clippy::disallowed_methods)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<String> = (1..=16).map(|i| format!("e{i}")).collect();
    for a in &args {
        if a != "all" && !known.iter().any(|k| k.eq_ignore_ascii_case(a)) {
            eprintln!("unknown experiment id `{a}` (expected e1..e16 or all)");
            std::process::exit(2);
        }
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
    if want("e14") {
        e14();
    }
    if want("e15") {
        e15();
    }
    if want("e16") {
        e16();
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// E1 — §2 relation figure: membership tests on S.
fn e1() {
    header(
        "E1",
        "membership in S(x,y) = 4x^2 - y - 20x + 25 <= 0 (paper §2 figure)",
    );
    let db = paper_db();
    let s = db.get("S").unwrap();
    for (x, y, expect) in [
        ("5/2", "0", true), // parabola vertex
        ("0", "25", true),  // on the curve
        ("0", "24", false), // below the curve
        ("1", "9", true),   // the y=9 chord endpoint
        ("4", "9", true),
        ("5", "9", false),
    ] {
        let got = s.satisfied_at(&[x.parse().unwrap(), y.parse().unwrap()]);
        println!("  S({x}, {y}) = {got}   (paper: {expect})");
        assert_eq!(got, expect);
    }
}

/// E2 — Figure 1: the full pipeline.
fn e2() {
    header(
        "E2",
        "Figure 1 pipeline: Q(x) = exists y (S(x,y) and y <= 0)",
    );
    let db = paper_db();
    let y = MPoly::var(1, 2);
    let query = Formula::exists(
        1,
        Formula::and(
            Formula::Rel("S".into(), vec![0, 1]),
            Formula::Atom(Atom::new(y, RelOp::Le)),
        ),
    );
    let ctx = QeContext::exact();
    let out = evaluate_query(&db, &query, 2, &ctx).unwrap();
    println!(
        "  after QE: {}   (paper: 4x^2 - 20x + 25 = 0)",
        out.relation
    );
    let pts = cdb_qe::pipeline::numerical_evaluation(
        &out.relation,
        &out.free_vars,
        &"1/1000000".parse().unwrap(),
        &ctx,
    )
    .unwrap()
    .expect("finite");
    println!(
        "  numerical evaluation: x = {}   (paper: 2.5)",
        pts[0].coords[0]
    );
    assert_eq!(pts[0].coords[0], "5/2".parse().unwrap());
}

/// E3 — §2/Example 5.4: SURFACE = 18.
fn e3() {
    header(
        "E3",
        "SURFACE[x,y]{S(x,y) and y <= 9} (paper: 18, computed via the primitive F)",
    );
    let engine = CalcFEngine::default();
    let out = engine
        .evaluate(&paper_db(), "z = SURFACE[x, y]{ S(x, y) and y <= 9 }")
        .unwrap();
    let v = out.as_points().unwrap()[0][0].clone();
    println!("  measured: {v} (exact integration: {})", out.exact);
    assert_eq!(v, Rat::from(18i64));
}

/// E4 — Theorem 3.1: PTIME data complexity of QE.
fn e4() {
    header("E4", "QE data complexity (Theorem 3.1): time vs #tuples m");
    println!("  {:<10} {:>14} {:>14}", "m", "linear QE", "poly QE");
    for m in [2usize, 4, 8, 16, 32] {
        let lin = gen_linear_relation(11, m, 2, 4);
        // CAD cost grows steeply with the projection set; cap the
        // polynomial sweep (the shape is visible well before m = 8).
        let pol = gen_poly_relation(13, m.min(8), 2, 3);
        let t_lin = time_median(3, || {
            let mut db = Database::new();
            db.insert("R", lin.clone());
            let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
            let ctx = QeContext::exact();
            let _ = evaluate_query(&db, &q, 2, &ctx).unwrap();
        });
        let t_pol = time_median(1, || {
            let mut db = Database::new();
            db.insert("R", pol.clone());
            let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
            let ctx = QeContext::exact();
            let _ = evaluate_query(&db, &q, 2, &ctx).unwrap();
        });
        let pol_m = m.min(8);
        println!("  {m:<10} {t_lin:>14.2?} {t_pol:>14.2?} (poly at m = {pol_m})");
    }
    println!("  (shape: polynomial growth in m; paper proves PTIME data complexity)");
}

/// E5 — Theorem 3.2: numerical evaluation in PTIME.
fn e5() {
    header(
        "E5",
        "NUMERICAL EVALUATION (Theorem 3.2): time vs coefficient bits and vs log(1/eps)",
    );
    println!("  {:<22} {:>12}", "coefficient bits", "isolate");
    for bits in [4u32, 8, 16, 32] {
        let p = gen_upoly(5, 9, bits);
        let t = time_median(5, || {
            let _ = RealAlg::roots_of(&p);
        });
        println!("  {bits:<22} {t:>12.2?}");
    }
    println!("  {:<22} {:>12}", "log2(1/eps)", "refine");
    let p = gen_upoly(5, 9, 8);
    let roots = RealAlg::roots_of(&p);
    for k in [16u64, 64, 256] {
        let eps = Rat::new(Int::one(), Int::pow2(k));
        let t = time_median(3, || {
            for r in &roots {
                let _ = r.refined(&eps);
            }
        });
        println!("  {k:<22} {t:>12.2?}");
    }
    println!("  (shape: polynomial in bits and in log(1/eps))");
}

/// E6 — Theorem 4.1: FOF_QE is strictly weaker (undefinedness vs budget).
fn e6() {
    header(
        "E6",
        "finite precision partiality (Theorem 4.1): fraction of queries undefined vs budget k",
    );
    println!("  {:<8} {:>10} {:>12}", "k", "defined", "of queries");
    let total = 10;
    let mut row = Vec::new();
    for k in [4u64, 8, 16, 32, 64, 256] {
        let mut defined = 0;
        for seed in 0..total {
            let mut db = ConstraintDb::new();
            db.insert("R", gen_poly_relation(100 + seed, 2, 2, 4))
                .unwrap();
            // Only budget exhaustion is "undefined" (`None`); any other
            // error is a pipeline failure and aborts the run.
            if db
                .query_fp("exists y (R(x, y) and y <= 0)", k)
                .unwrap()
                .is_some()
            {
                defined += 1;
            }
        }
        println!("  {k:<8} {defined:>10} {total:>12}");
        row.push(defined);
    }
    assert_eq!(row, [0, 6, 10, 10, 10, 10]);
    println!("  (shape: undefined at small k, all defined at large k — FOF ⊊ FOR)");
}

/// E7 — Theorem 4.2: linear queries lose nothing under finite precision.
fn e7() {
    header(
        "E7",
        "linear equivalence (Theorem 4.2): FP vs exact agreement on linear inputs",
    );
    let mut disagreements_total = 0;
    let mut probes_total = 0;
    for seed in 0..8 {
        let mut db = ConstraintDb::new();
        db.insert("R", gen_linear_relation(200 + seed, 3, 2, 4))
            .unwrap();
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let k = input_bit_length(db.raw(), &q);
        let div = db
            .compare_semantics("exists y R(x, y)", 8 * k, 6)
            .unwrap()
            .expect("linear query undefined at 8k budget");
        disagreements_total += div.disagreements;
        probes_total += div.probes;
    }
    println!(
        "  8 random linear dbs, budget 8k: {probes_total} probes, {disagreements_total} disagreements"
    );
    assert_eq!((probes_total, disagreements_total), (200, 0));
    println!("  (paper: total-FOF(<=,+) = FOR(<=,+))");
}

/// E8 — Lemma 4.4: linear bit growth over K_{d,m}.
fn e8() {
    header(
        "E8",
        "bit growth (Lemma 4.4): max intermediate bits vs input bits, fixed (d,m)",
    );
    println!(
        "  {:<14} {:>14} {:>10}",
        "input bits", "observed bits", "ratio"
    );
    let mut growth = Vec::new();
    for bits in [4u32, 8, 16, 32] {
        let rel = gen_linear_relation(300, 3, 2, bits);
        let mut db = Database::new();
        db.insert("R", rel);
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        let ctx = QeContext::exact();
        let _ = evaluate_query(&db, &q, 2, &ctx).unwrap();
        let seen = ctx.max_bits_seen.get();
        let input = input_bit_length(&db, &q);
        println!(
            "  {input:<14} {seen:>14} {:>10.2}",
            seen as f64 / input as f64
        );
        growth.push((input, seen));
    }
    assert_eq!(growth, [(4, 4), (8, 16), (16, 31), (32, 62)]);
    println!("  (shape: ratio bounded by a constant — linear growth)");
}

/// E9 — Lemma 4.5: split-word doubling constructions.
fn e9() {
    header(
        "E9",
        "Z_2k from Z_k split ops (Lemma 4.5): exhaustive check at k = 4",
    );
    let z = Zk::new(4);
    let m = 256i64; // 2k-bit values
    let mut checked = 0;
    for a in (0..m).step_by(7) {
        for b in (0..m).step_by(5) {
            let pa = Pair::split(&z, &Int::from(a));
            let pb = Pair::split(&z, &Int::from(b));
            let lo = add2k_lo(&z, &pa, &pb).value(&z);
            let hi = add2k_hi(&z, &pa, &pb).value(&z);
            assert_eq!(&lo + &(&hi * &Int::from(m)), Int::from(a + b));
            let words = mul2k_words(&z, &pa, &pb);
            let mut total = Int::zero();
            for (i, w) in words.iter().enumerate() {
                total = &total + &(w * &Int::pow2(4 * i as u64));
            }
            assert_eq!(total, Int::from(a * b));
            checked += 1;
        }
    }
    println!("  {checked} (a, b) pairs verified for +l/+u and x-l/x-u doubling");
}

/// E10 — Proposition 4.6: the operator hierarchy.
fn e10() {
    header(
        "E10",
        "hierarchy FOF(<=) ⊂ FOF(<=,+) ⊂ FOF(<=,+,x) (Prop 4.6): witness relations",
    );
    // Order-only cannot define addition: the relation y = x + 1 is a line
    // with a slope, invariant only under shifts; order-definable relations
    // are invariant under *all* monotone bijections. Witness: the monotone
    // map f(t) = t³ preserves order atoms but moves the line.
    let n = 2;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let line = Atom::cmp(y.clone(), RelOp::Eq, &x + &MPoly::constant(Rat::one(), n));
    let on = |a: i64, b: i64| line.satisfied_at(&[Rat::from(a), Rat::from(b)]);
    println!(
        "  y = x + 1 holds at (1, 2): {}; after monotone t -> t^3 image (1, 8): {}",
        on(1, 2),
        on(1, 8)
    );
    println!("  => not order-invariant; needs + (separates FOF(<=) from FOF(<=,+))");
    // Addition-only cannot define multiplication: y = x² is not a finite
    // union of linear pieces, so it is outside the linear class and its QE
    // needs CAD.
    let parab = ConstraintRelation::new(
        n,
        vec![GeneralizedTuple::new(
            n,
            vec![Atom::cmp(y, RelOp::Eq, x.pow(2))],
        )],
    );
    println!(
        "  y = x^2 is linear? {} (outside Fourier–Motzkin's class; CAD evaluates it)",
        cdb_qe::linear::is_linear(&parab)
    );
    let ctx = QeContext::exact();
    let mut db = Database::new();
    db.insert("P", parab);
    let q = Formula::exists(1, Formula::Rel("P".into(), vec![0, 1]));
    let out = evaluate_query(&db, &q, n, &ctx).unwrap();
    println!("  CAD engine: exists y (y = x^2) = {}", out.relation);
}

/// E11 — Theorem 4.7: Datalog¬_F is PTIME (iterations scale, budget cuts).
fn e11() {
    header(
        "E11",
        "Datalog¬ under finite precision (Theorem 4.7): iterations vs db size",
    );
    println!("  {:<10} {:>12} {:>12}", "chain n", "iterations", "time");
    for n in [2usize, 4, 8, 16] {
        let mut db = Database::new();
        let pts: Vec<Vec<Rat>> = (0..n as i64)
            .map(|i| vec![Rat::from(i), Rat::from(i + 1)])
            .collect();
        db.insert("E", ConstraintRelation::from_points(2, &pts));
        let program = Program {
            rules: vec![
                Rule::new(
                    "T",
                    vec![0, 1],
                    vec![Literal::Rel("E".into(), vec![0, 1])],
                    2,
                )
                .unwrap(),
                Rule::new(
                    "T",
                    vec![0, 1],
                    vec![
                        Literal::Rel("T".into(), vec![0, 2]),
                        Literal::Rel("E".into(), vec![2, 1]),
                    ],
                    3,
                )
                .unwrap(),
            ],
        };
        let ctx = QeContext::exact();
        let t0 = std::time::Instant::now();
        let (_, stats) = program.run(&db, &ctx, 64).unwrap();
        println!("  {n:<10} {:>12} {:>12.2?}", stats.iterations, t0.elapsed());
    }
    println!("  (shape: n+1 iterations for linear-join TC; PTIME overall)");
}

/// E12 — Theorem 4.8: PTIME capture on dense-order inputs.
fn e12() {
    header(
        "E12",
        "dense-order capture (Theorem 4.8): interval reachability program",
    );
    let mut db = Database::new();
    db.insert(
        "Start",
        ConstraintRelation::from_points(1, &[vec![Rat::zero()]]),
    );
    let n = 2;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    db.insert(
        "Step",
        ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![
                    Atom::cmp(x.clone(), RelOp::Le, y.clone()),
                    Atom::cmp(y.clone(), RelOp::Le, &x + &MPoly::constant(Rat::one(), n)),
                    Atom::cmp(y, RelOp::Le, MPoly::constant(Rat::from(4i64), n)),
                ],
            )],
        ),
    );
    let program = Program {
        rules: vec![
            Rule::new("R", vec![0], vec![Literal::Rel("Start".into(), vec![0])], 1).unwrap(),
            Rule::new(
                "R",
                vec![1],
                vec![
                    Literal::Rel("R".into(), vec![0]),
                    Literal::Rel("Step".into(), vec![0, 1]),
                ],
                2,
            )
            .unwrap(),
        ],
    };
    let ctx = QeContext::exact();
    let (out, stats) = program.run(&db, &ctx, 32).unwrap();
    let r = out.get("R").unwrap();
    println!("  R saturates to [0, 4] in {} iterations", stats.iterations);
    for v in ["0", "2", "4", "9/2"] {
        println!("    R({v}) = {}", r.satisfied_at(&[v.parse().unwrap()]));
    }
}

/// E13 — Theorem 5.5 / Corollary 5.6: CALC_F PTIME.
fn e13() {
    header(
        "E13",
        "CALC_F complexity (Thm 5.5): time vs database size, aggregate query",
    );
    println!("  {:<10} {:>12}", "m tuples", "time");
    for m in [1usize, 2, 4, 8] {
        // m disjoint unit boxes; query the total area.
        let n = 2;
        let tuples: Vec<GeneralizedTuple> = (0..m as i64)
            .map(|i| {
                let x = MPoly::var(0, n);
                let y = MPoly::var(1, n);
                let c = |v: i64| MPoly::constant(Rat::from(v), n);
                GeneralizedTuple::new(
                    n,
                    vec![
                        Atom::new(&c(3 * i) - &x, RelOp::Le),
                        Atom::new(&x - &c(3 * i + 1), RelOp::Le),
                        Atom::new(-&y, RelOp::Le),
                        Atom::new(&y - &c(1), RelOp::Le),
                    ],
                )
            })
            .collect();
        let mut db = Database::new();
        db.insert("B", ConstraintRelation::new(n, tuples));
        let engine = CalcFEngine::default();
        let t0 = std::time::Instant::now();
        let out = engine
            .evaluate(&db, "z = SURFACE[x, y]{ B(x, y) }")
            .unwrap();
        let area = out.as_points().unwrap()[0][0].clone();
        assert_eq!(area, Rat::from(m as i64));
        println!("  {m:<10} {:>12.2?}  (area = {area})", t0.elapsed());
    }
    println!("  (shape: polynomial in m — closed-form evaluation with module calls)");
}

/// E14 — approximation trade-off: error vs a-base granularity and order k.
fn e14() {
    header(
        "E14",
        "approximation error vs a-base cells and order k (paper §5–6 trade-off)",
    );
    println!(
        "  {:<8} {:<8} {:>14} {:>14} {:>14}",
        "cells", "order", "Taylor", "Lagrange", "Chebyshev"
    );
    for cells in [2usize, 4, 8] {
        for k in [2u32, 4, 8] {
            let abase = ABase::uniform(Rat::from(-4i64), Rat::from(4i64), cells);
            let err = |method: ApproxMethod| -> f64 {
                let pw = approximate_on_abase(AnalyticFn::Exp, &abase, k, method).unwrap();
                pw.pieces
                    .iter()
                    .map(|(lo, hi, p)| sup_error(AnalyticFn::Exp, p, lo.to_f64(), hi.to_f64(), 200))
                    .fold(0.0, f64::max)
            };
            println!(
                "  {cells:<8} {k:<8} {:>14.3e} {:>14.3e} {:>14.3e}",
                err(ApproxMethod::Taylor),
                err(ApproxMethod::Lagrange),
                err(ApproxMethod::Chebyshev)
            );
        }
    }
    println!("  (shape: error falls with both cells and k; Chebyshev <= Lagrange)");
}

/// E15 — §4 pathologies of F_k.
fn e15() {
    header(
        "E15",
        "F_k pathologies (§4): greatest element, distributivity, evaluation order",
    );
    let params = FkParams::with_k(8);
    println!("  greatest element of F_8: {}", greatest_element(params));
    if let Some((a, b, c)) = distributivity_counterexample(params) {
        let lhs = a.mul_round(&b.add_round(&c).unwrap()).unwrap();
        let rhs = a
            .mul_round(&b)
            .unwrap()
            .add_round(&a.mul_round(&c).unwrap())
            .unwrap();
        println!(
            "  distributivity: a={} b={} c={}: a(b+c)={} vs ab+ac={}",
            a.to_rat(),
            b.to_rat(),
            c.to_rat(),
            lhs.to_rat(),
            rhs.to_rat()
        );
        assert_ne!(lhs, rhs);
    }
    if let Some((_, ltr, rtl)) = summation_order_counterexample(params) {
        println!(
            "  evaluation order: left-to-right sum = {}, right-to-left = {}",
            ltr.to_rat(),
            rtl.to_rat()
        );
        assert_ne!(ltr, rtl);
    }
    println!("  (paper: F_k |= exists x forall y (y <= x); no distributive laws)");
}

/// E16 — analytic atoms and three-variable tangencies through QE (§5, and
/// Appendix I's lifting over algebraic samples): each answer is asserted
/// byte for byte, with its wall time and the CAD cells it took.
fn e16() {
    header(
        "E16",
        "analytic atoms and 3-variable tangencies through QE (§5, Appendix I lifting)",
    );
    let engine = CalcFEngine::default();
    let db = Database::new();
    let run = |query: &str, exact: bool, want: &str| {
        let t0 = std::time::Instant::now();
        let out = engine.evaluate(&db, query).unwrap();
        let elapsed = t0.elapsed();
        println!("  {query}");
        println!("    {} ({elapsed:.2?}, {} cells)", out.display(), out.cells);
        assert_eq!(out.exact, exact, "{query}");
        assert_eq!(out.display(), want, "{query}");
        out
    };
    // exp's a-base piece over [0, 1] puts a double root on a fibre over a
    // degree-5 algebraic x; the threshold is exp(1) ≈ 2.718 > 2, so the
    // answer is x ∈ (≈1, 2] up to the approximation's error.
    run(
        "exists y (y >= 0 and y <= 1 and exp(y) < x and x <= 2)",
        false,
        "(x - 2 < 0 and 274877906944*x - 274877902613 > 0) or (x - 2 = 0) \
         or (x - 2 < 0 and 549755813888*x - 549755834669 > 0)",
    );
    run(
        "exists y (y >= 0 and y <= 1 and y^6 + y < x and x <= 2)",
        true,
        "(x - 2 < 0 and x > 0) or (x - 2 = 0)",
    );
    // The hyperbola y·w = 1 touches the sphere's slice y² + w² ≤ 4 − x²
    // where 4 − x² = 2: the fibres there have double roots over samples
    // with two algebraic coordinates. x⁴ − 8x² + 12 = (x² − 2)(x² − 6).
    let tangency = run(
        "exists y exists w (x^2 + y^2 + w^2 <= 4 and y*w >= 1)",
        true,
        "(x^2 - 4 < 0 and x^4 - 8*x^2 + 12 > 0) or (x^2 - 4 < 0 and x^4 - 8*x^2 + 12 = 0)",
    );
    for r in ["-2", "-3/2", "-7/5", "-1", "0", "1/2", "7/5", "3/2", "2"] {
        let r: Rat = r.parse().unwrap();
        let holds = tangency
            .relation
            .satisfied_at(&tangency.point(std::slice::from_ref(&r)));
        assert_eq!(holds, &r * &r <= Rat::from(2i64), "x = {r}");
    }
    println!("  (the tangency answer is x² ≤ 2, checked at ±7/5, ±3/2 and five more rationals)");
}
