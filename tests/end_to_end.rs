//! Integration: cross-crate flows — storage round trips, derived
//! definitions feeding aggregates, Datalog over facade-built databases,
//! and analytic queries against stored relations.

use cdb_datalog::{Literal, Program, Rule};
use cdb_qe::QeContext;
use constraintdb::{storage, ConstraintDb, Rat};

#[test]
fn storage_roundtrip_preserves_query_answers() {
    let mut db = ConstraintDb::new();
    db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
        .unwrap();
    db.define(
        "Box",
        &["x", "y"],
        "x >= 0 and x <= 2 and y >= 0 and y <= 2",
    )
    .unwrap();
    let text = storage::save(&db).unwrap();
    let back = storage::load(&text).unwrap();
    // Same schema.
    assert_eq!(db.schema(), back.schema());
    // Same answers for a nontrivial query.
    let q1 = db.query("exists y (S(x, y) and y <= 0)").unwrap();
    let q2 = back.query("exists y (S(x, y) and y <= 0)").unwrap();
    for i in -12..=12 {
        let x = Rat::from_ints(i, 4);
        assert_eq!(q1.contains(std::slice::from_ref(&x)), q2.contains(&[x]));
    }
    // And the surface aggregate survives the round trip.
    let a1 = db
        .query("z = SURFACE[x, y]{ Box(x, y) }")
        .unwrap()
        .points()
        .unwrap();
    let a2 = back
        .query("z = SURFACE[x, y]{ Box(x, y) }")
        .unwrap()
        .points()
        .unwrap();
    assert_eq!(a1, a2);
    assert_eq!(a1, vec![vec![Rat::from(4i64)]]);
}

#[test]
fn derived_relations_chain() {
    let mut db = ConstraintDb::new();
    db.define("Disk", &["x", "y"], "x^2 + y^2 <= 4").unwrap();
    // Derived: the right half-disk.
    db.define("Half", &["x", "y"], "Disk(x, y) and x >= 0")
        .unwrap();
    // Derived from derived: its x-projection.
    db.define("Shadow", &["x"], "exists y Half(x, y)").unwrap();
    let q = db.query("Shadow(x)").unwrap();
    assert!(q.contains(&[Rat::zero()]));
    assert!(q.contains(&[Rat::from(2i64)]));
    assert!(!q.contains(&["-1/2".parse().unwrap()]));
    assert!(!q.contains(&["5/2".parse().unwrap()]));
    // LENGTH of the shadow = 2.
    let len = db
        .query("m = LENGTH[x]{ Shadow(x) }")
        .unwrap()
        .points()
        .unwrap()[0][0]
        .clone();
    assert_eq!(len, Rat::from(2i64));
}

#[test]
fn datalog_over_facade_database() {
    // Build base relations through the facade, then run Datalog¬ on the raw
    // database: one-dimensional interval reachability.
    let mut fdb = ConstraintDb::new();
    fdb.insert_points("Start", 1, &[vec![Rat::zero()]]).unwrap();
    fdb.define("Step", &["x", "y"], "x <= y and y <= x + 2 and y <= 5")
        .unwrap();
    let program = Program {
        rules: vec![
            Rule::new(
                "Reach",
                vec![0],
                vec![Literal::Rel("Start".into(), vec![0])],
                1,
            )
            .unwrap(),
            Rule::new(
                "Reach",
                vec![1],
                vec![
                    Literal::Rel("Reach".into(), vec![0]),
                    Literal::Rel("Step".into(), vec![0, 1]),
                ],
                2,
            )
            .unwrap(),
        ],
    };
    let ctx = QeContext::exact();
    let (saturated, stats) = program.run(fdb.raw(), &ctx, 16).unwrap();
    let reach = saturated.get("Reach").unwrap();
    for (v, expect) in [
        ("0", true),
        ("3/2", true),
        ("5", true),
        ("11/2", false),
        ("-1", false),
    ] {
        assert_eq!(
            reach.satisfied_at(&[v.parse().unwrap()]),
            expect,
            "Reach({v})"
        );
    }
    assert!(stats.iterations <= 6);
}

#[test]
fn analytic_query_against_stored_relation() {
    // Price curve p = 100·e^{t/10}-ish via the exp approximation: find
    // where the curve exceeds a stored threshold relation.
    let mut db = ConstraintDb::new();
    db.engine_mut().abase = constraintdb::ABase::uniform(Rat::from(-1i64), Rat::from(3i64), 8);
    db.define("Window", &["t"], "t >= 0 and t <= 2").unwrap();
    let q = db.query("Window(t) and exp(t) >= 2").unwrap();
    // exp(t) ≥ 2 ⇔ t ≥ ln 2 ≈ 0.6931.
    assert!(!q.contains(&["1/2".parse().unwrap()]));
    assert!(q.contains(&[Rat::one()]));
    assert!(q.contains(&[Rat::from(2i64)]));
    assert!(!q.contains(&["5/2".parse().unwrap()])); // outside the window
                                                     // The boundary is within the approximation error of ln 2.
    let lo = db.query("m = MIN[t]{ Window(t) and exp(t) >= 2 }").unwrap();
    let m = lo.points().unwrap()[0][0].to_f64();
    assert!((m - std::f64::consts::LN_2).abs() < 1e-3, "{m}");
}

#[test]
fn finite_precision_facade_flow() {
    let mut db = ConstraintDb::new();
    db.define("L", &["x", "y"], "y = 5*x and x >= 0 and x <= 100")
        .unwrap();
    // Linear queries are defined at modest budgets and agree with exact.
    let exact = db.query("exists y L(x, y)").unwrap();
    let fp = db
        .query_fp("exists y L(x, y)", 64)
        .unwrap()
        .expect("defined");
    for i in -5..=105 {
        let x = Rat::from(i as i64);
        assert_eq!(exact.contains(std::slice::from_ref(&x)), fp.contains(&[x]));
    }
}
