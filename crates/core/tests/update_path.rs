//! Update-path regressions and differentials.
//!
//! The contract (DESIGN.md §12): after any sequence of
//! `insert_tuples`/`retract_tuples`/redefinitions, every `define`d view
//! and materialized Datalog¬ head equals what a from-scratch evaluation
//! of the final base state would produce — byte-identically on finite
//! extents; a write whose propagation fails changes nothing; and the shared
//! `AlgebraicCache` answers warm exactly as cold across destructive updates.

use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use constraintdb::{parse_program, ConstraintDb, DbError};
use proptest::prelude::*;

fn pt2(a: i64, b: i64) -> Vec<Rat> {
    vec![Rat::from(a), Rat::from(b)]
}

fn edge_tuples(edges: &[(i64, i64)]) -> Vec<GeneralizedTuple> {
    edges
        .iter()
        .map(|&(a, b)| GeneralizedTuple::point(&pt2(a, b)))
        .collect()
}

fn tc_src() -> &'static str {
    "T(x, y) :- E(x, y).\n\
     T(x, y) :- T(x, z), E(z, y)."
}

fn t_display(db: &ConstraintDb) -> String {
    db.relation("T").unwrap().display_with(&["x", "y"])
}

/// Incremental maintenance under inserts ≡ from-scratch evaluation of the
/// updated base, byte-identically — and the incremental path is actually
/// taken.
#[test]
fn insert_tuples_incremental_matches_scratch() {
    let program = parse_program(tc_src()).unwrap();
    let mut db = ConstraintDb::new();
    db.insert_points("E", 2, &[pt2(1, 2), pt2(2, 3), pt2(3, 4)])
        .unwrap();
    db.run_datalog(&program, 32).unwrap();

    let report = db
        .insert_tuples("E", &edge_tuples(&[(4, 5), (5, 6)]))
        .unwrap();
    assert_eq!(report.inserted, 2);
    assert_eq!(report.incremental_reruns, 1, "{report:?}");
    assert_eq!(report.full_reruns, 0, "{report:?}");
    assert!(!report.cache_invalidated, "pure inserts keep the cache");
    assert_eq!(report.refreshed_heads, vec!["T".to_owned()]);

    let mut scratch = ConstraintDb::new();
    scratch
        .insert_points(
            "E",
            2,
            &[pt2(1, 2), pt2(2, 3), pt2(3, 4), pt2(4, 5), pt2(5, 6)],
        )
        .unwrap();
    scratch.run_datalog(&program, 32).unwrap();

    assert_eq!(
        t_display(&db),
        t_display(&scratch),
        "incremental ≢ from-scratch"
    );
    // And the closure actually grew through the new edges.
    let q = db.query("T(x, y)").unwrap();
    assert!(q.contains(&pt2(1, 6)));
    assert!(!q.contains(&pt2(6, 1)));
}

/// Retract-then-query: retraction takes the destructive path (full
/// recompute from head snapshots + cache invalidation) and the derived
/// closure loses exactly the conclusions that depended on the retracted
/// edge.
#[test]
fn retract_then_query_recomputes_closure() {
    let program = parse_program(tc_src()).unwrap();
    let mut db = ConstraintDb::new();
    db.insert_points("E", 2, &[pt2(1, 2), pt2(2, 3), pt2(3, 4)])
        .unwrap();
    db.run_datalog(&program, 32).unwrap();
    assert!(db.query("T(x, y)").unwrap().contains(&pt2(1, 4)));

    let report = db.retract_tuples("E", &edge_tuples(&[(2, 3)])).unwrap();
    assert_eq!(report.retracted, 1);
    assert_eq!(report.full_reruns, 1, "{report:?}");
    assert!(report.cache_invalidated);

    let q = db.query("T(x, y)").unwrap();
    assert!(q.contains(&pt2(1, 2)), "untouched edge survives");
    assert!(q.contains(&pt2(3, 4)));
    assert!(!q.contains(&pt2(2, 3)), "retracted edge gone");
    assert!(!q.contains(&pt2(1, 3)), "derived pair through it gone");
    assert!(!q.contains(&pt2(1, 4)));

    // Byte-identical to a from-scratch evaluation of the shrunken base.
    let mut scratch = ConstraintDb::new();
    scratch
        .insert_points("E", 2, &[pt2(1, 2), pt2(3, 4)])
        .unwrap();
    scratch.run_datalog(&program, 32).unwrap();
    assert_eq!(t_display(&db), t_display(&scratch));
}

/// Redefine-then-query: redefining a base relation refreshes the views
/// compiled against it, transitively.
#[test]
fn redefine_then_query_refreshes_views() {
    let mut db = ConstraintDb::new();
    db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
        .unwrap();
    db.define("Q", &["x"], "exists y (S(x, y) and y <= 0)")
        .unwrap();
    db.define("Q2", &["x"], "Q(x) or x = 100").unwrap();
    let five_halves: Rat = "5/2".parse().unwrap();
    assert!(db
        .query("Q2(x)")
        .unwrap()
        .contains(std::slice::from_ref(&five_halves)));

    // Redefine S so the old witness no longer exists.
    db.define("S", &["x", "y"], "x - 7 = 0 and y = 0").unwrap();
    let q2 = db.query("Q2(x)").unwrap();
    assert!(
        !q2.contains(&[five_halves]),
        "stale view survived the redefinition"
    );
    assert!(q2.contains(&[Rat::from(7i64)]), "view tracks the new S");
    assert!(q2.contains(&[Rat::from(100i64)]));
}

/// Views over an updated base are refreshed by tuple-level updates too,
/// and appear in the report.
#[test]
fn insert_tuples_refreshes_views() {
    let mut db = ConstraintDb::new();
    db.insert_points("P", 2, &[pt2(1, 1)]).unwrap();
    db.define("Fst", &["x"], "exists y P(x, y)").unwrap();
    assert!(!db.query("Fst(x)").unwrap().contains(&[Rat::from(9i64)]));

    let report = db.insert_tuples("P", &edge_tuples(&[(9, 9)])).unwrap();
    assert_eq!(report.refreshed_views, vec!["Fst".to_owned()]);
    assert!(db.query("Fst(x)").unwrap().contains(&[Rat::from(9i64)]));
}

/// Pins the update path on chains that mix kinds: a view over a base
/// relation, a program reading that view, and a view over the program's
/// head. Every write refreshes the three in dependency order, each equal
/// byte for byte to the same chain built over the final base; the program
/// re-runs from its base snapshot, because a refreshed view arrives as a
/// destructive change.
#[test]
fn view_program_view_chain_refreshes_in_dependency_order() {
    let chain = |p: &[i64]| {
        let mut db = ConstraintDb::new();
        let points: Vec<Vec<Rat>> = p.iter().map(|&v| vec![Rat::from(v)]).collect();
        db.insert_points("P", 1, &points).unwrap();
        db.define("V", &["x"], "P(x) and x >= 2").unwrap();
        db.run_datalog(&parse_program("H(x) :- V(x).").unwrap(), 8)
            .unwrap();
        db.define("W", &["x"], "H(x) and x <= 4").unwrap();
        db
    };
    let extents = |db: &ConstraintDb| {
        ["V", "H", "W"].map(|name| db.relation(name).unwrap().display_with(&["x"]))
    };
    let members = |db: &ConstraintDb, name: &str| -> Vec<i64> {
        let q = db.query(&format!("{name}(x)")).unwrap();
        (0..8).filter(|&v| q.contains(&[Rat::from(v)])).collect()
    };
    let point = |v: i64| GeneralizedTuple::point(&[Rat::from(v)]);
    let mut db = chain(&[1, 2, 3]);

    let grown = db.insert_tuples("P", &[point(4), point(5)]).unwrap();
    assert_eq!(grown.inserted, 2);
    assert_eq!(grown.refreshed_views, ["V", "W"]);
    assert_eq!(grown.refreshed_heads, ["H"]);
    assert_eq!((grown.incremental_reruns, grown.full_reruns), (0, 1));
    assert!(grown.cache_invalidated);
    assert_eq!(extents(&db), extents(&chain(&[1, 2, 3, 4, 5])));
    assert_eq!(members(&db, "H"), [2, 3, 4, 5]);
    assert_eq!(members(&db, "W"), [2, 3, 4]);

    let shrunk = db.retract_tuples("P", &[point(2)]).unwrap();
    assert_eq!(shrunk.retracted, 1);
    assert_eq!(shrunk.refreshed_views, ["V", "W"]);
    assert_eq!(shrunk.refreshed_heads, ["H"]);
    assert_eq!((shrunk.incremental_reruns, shrunk.full_reruns), (0, 1));
    assert_eq!(extents(&db), extents(&chain(&[1, 3, 4, 5])));
    assert_eq!(members(&db, "H"), [3, 4, 5]);
    assert_eq!(members(&db, "W"), [3, 4]);

    // A write that reaches nothing refreshes nothing.
    db.insert_points("Q", 1, &[vec![Rat::one()]]).unwrap();
    let idle = db.insert_tuples("Q", &[point(9)]).unwrap();
    assert!(idle.refreshed_views.is_empty() && idle.refreshed_heads.is_empty());
    assert_eq!((idle.incremental_reruns, idle.full_reruns), (0, 0));
}

/// Pins the incremental route: a program over a base relation and a view
/// over the program's head. An insert into the base resumes the program
/// from its saturated state and then recompiles the view; the head equals
/// a from-scratch `run_datalog` over the grown base byte for byte. A
/// retraction re-runs the program from its base snapshot.
#[test]
fn program_view_chain_takes_the_incremental_route() {
    let program = parse_program(tc_src()).unwrap();
    let mut db = ConstraintDb::new();
    db.insert_points("E", 2, &[pt2(1, 2), pt2(2, 3)]).unwrap();
    db.run_datalog(&program, 32).unwrap();
    db.define("Reach", &["y"], "exists x (T(x, y) and x = 1)")
        .unwrap();

    let grown = db.insert_tuples("E", &edge_tuples(&[(3, 4)])).unwrap();
    assert_eq!(grown.refreshed_heads, ["T"]);
    assert_eq!(grown.refreshed_views, ["Reach"]);
    assert_eq!((grown.incremental_reruns, grown.full_reruns), (1, 0));
    assert!(!grown.cache_invalidated);
    let mut scratch = ConstraintDb::new();
    scratch
        .insert_points("E", 2, &[pt2(1, 2), pt2(2, 3), pt2(3, 4)])
        .unwrap();
    scratch.run_datalog(&program, 32).unwrap();
    assert_eq!(t_display(&db), t_display(&scratch));
    assert_eq!(
        db.relation("Reach").unwrap().display_with(&["y"]),
        "(y - 2 = 0) or (y - 3 = 0) or (y - 4 = 0)"
    );

    let shrunk = db.retract_tuples("E", &edge_tuples(&[(2, 3)])).unwrap();
    assert_eq!(shrunk.refreshed_heads, ["T"]);
    assert_eq!(shrunk.refreshed_views, ["Reach"]);
    assert_eq!((shrunk.incremental_reruns, shrunk.full_reruns), (0, 1));
    let mut scratch = ConstraintDb::new();
    scratch
        .insert_points("E", 2, &[pt2(1, 2), pt2(3, 4)])
        .unwrap();
    scratch.run_datalog(&program, 32).unwrap();
    assert_eq!(t_display(&db), t_display(&scratch));
    assert_eq!(
        db.relation("Reach").unwrap().display_with(&["y"]),
        "(y - 2 = 0)"
    );
}

/// One canonical form on the update path: a point written as a scaled
/// constraint (`2x − 1 = 0`, what a compiled `CONSTRAINT 2*x = 1` row is)
/// names the stored point `x − 1/2 = 0`. Inserting it again changes
/// nothing and re-runs nothing; deleting by it removes the point.
#[test]
fn scaled_point_constraint_names_the_stored_point() {
    let half: Rat = "1/2".parse().unwrap();
    let scaled = {
        let p = &MPoly::var(0, 1).scale(&Rat::from(2i64)) - &MPoly::constant(Rat::one(), 1);
        GeneralizedTuple::new(1, vec![Atom::new(p, RelOp::Eq)])
    };
    let mut db = ConstraintDb::new();
    db.insert_points("P", 1, &[vec![half.clone()]]).unwrap();
    db.define("V", &["x"], "P(x) and x >= 0").unwrap();
    db.run_datalog(&parse_program("H(x) :- P(x).").unwrap(), 8)
        .unwrap();

    let again = db
        .insert_tuples("P", std::slice::from_ref(&scaled))
        .unwrap();
    assert_eq!(again.inserted, 0, "{again:?}");
    assert!(again.refreshed_views.is_empty() && again.refreshed_heads.is_empty());
    assert_eq!(again.incremental_reruns + again.full_reruns, 0, "{again:?}");
    assert_eq!(db.relation("P").unwrap().tuples().len(), 1);

    // Two spellings of one new point in one call are one tuple.
    let both = db
        .insert_tuples(
            "P",
            &[
                GeneralizedTuple::point(&[Rat::from(3i64)]),
                GeneralizedTuple::new(
                    1,
                    vec![Atom::new(
                        &MPoly::constant(Rat::from(6i64), 1)
                            - &MPoly::var(0, 1).scale(&Rat::from(2i64)),
                        RelOp::Eq,
                    )],
                ),
            ],
        )
        .unwrap();
    assert_eq!(both.inserted, 1, "{both:?}");

    let gone = db.retract_tuples("P", &[scaled]).unwrap();
    assert_eq!(gone.retracted, 1, "{gone:?}");
    assert!(!db
        .query("P(x)")
        .unwrap()
        .contains(std::slice::from_ref(&half)));
    assert!(!db.query("H(x)").unwrap().contains(&[half]));
    assert!(db.query("V(x)").unwrap().contains(&[Rat::from(3i64)]));
}

/// Warm ≡ cold across a destructive update. After `C` is replaced the
/// query runs twice on a cache that is asserted non-empty before the second
/// run — whether its entries survived the replacement or were recomputed by
/// the first run — and both answers are byte-identical to a fresh
/// database's, exactly and under `⊨_QE^F` on both sides of the definedness
/// threshold: the bit-budget observation runs on every result outside the
/// cache lookup, so whether a query is defined cannot depend on cache
/// temperature (§4).
#[test]
fn no_stale_cache_hits_differential() {
    const CIRCLE: &str = "x^2 + y^2 - 25 <= 0";
    const ELLIPSE: &str = "x^2 + 4*y^2 - 25 <= 0";
    // Cubic in y → CAD → resultant/discriminant/Sturm cache traffic; the
    // cubic's own discriminant is shared by the queries before and after.
    const QUERY: &str = "exists y (C(x, y) and y^3 - x >= 0)";

    let mut db = ConstraintDb::new();
    db.define("C", &["x", "y"], CIRCLE).unwrap();
    db.query(QUERY).unwrap();
    assert!(db.cache().misses() > 0, "workload must exercise the cache");

    db.define("C", &["x", "y"], ELLIPSE).unwrap();
    // A database that never held the old C, with a cold cache per query.
    let cold = || {
        let mut fresh = ConstraintDb::new();
        fresh.define("C", &["x", "y"], ELLIPSE).unwrap();
        fresh
    };
    let expected = cold().query(QUERY).unwrap().display();
    assert_eq!(db.query(QUERY).unwrap().display(), expected);

    assert!(!db.cache().is_empty(), "nothing to be warm with");
    let hits_before = db.cache().hits();
    assert_eq!(
        db.query(QUERY).unwrap().display(),
        expected,
        "a warm cache must answer like a cold one"
    );
    assert!(
        db.cache().hits() > hits_before,
        "the differential is vacuous: the warm run hit nothing"
    );

    // The smallest budget QUERY is defined under, found on the cold side;
    // every lookup of the budgeted runs is a hit on the warm side.
    let threshold = (1..=128u64)
        .find(|&k| cold().query_fp(QUERY, k).unwrap().is_some())
        .expect("QUERY is defined at some budget");
    assert!(threshold > 1, "no budget leaves QUERY undefined");
    for k in [threshold - 1, threshold] {
        let warm = db.query_fp(QUERY, k).unwrap().map(|q| q.display());
        let fresh = cold().query_fp(QUERY, k).unwrap().map(|q| q.display());
        assert_eq!(warm, fresh, "definedness at k = {k} depends on the cache");
        assert_eq!(warm.is_some(), k == threshold);
    }
}

/// A write whose propagation fails changes nothing: the base relation keeps
/// its old extent and its materialized head stays the closure of *that*
/// extent, not a stale one beside a half-applied `E`.
#[test]
fn failed_propagation_leaves_database_untouched() {
    let program = parse_program(tc_src()).unwrap();
    let mut db = ConstraintDb::new();
    db.insert_points("E", 2, &[pt2(1, 2), pt2(2, 3), pt2(3, 4)])
        .unwrap();
    // Cap 5 saturates a 3-edge chain but not a 10-edge one.
    db.run_datalog(&program, 5).unwrap();
    let (e_before, t_before) = (db.relation("E").unwrap().clone(), t_display(&db));

    let more: Vec<(i64, i64)> = (4..11).map(|i| (i, i + 1)).collect();
    let err = db.insert_tuples("E", &edge_tuples(&more)).unwrap_err();
    assert!(matches!(err, DbError::Datalog(_)), "{err}");
    assert_eq!(db.relation("E").unwrap(), &e_before, "E half-applied");
    assert_eq!(t_display(&db), t_before);

    // The destructive paths too: a replacement of E that T cannot follow.
    let chain: Vec<Vec<Rat>> = (1..11).map(|i| pt2(i, i + 1)).collect();
    assert!(db.insert_points("E", 2, &chain).is_err());
    assert_eq!(db.relation("E").unwrap(), &e_before, "E half-replaced");
    assert_eq!(t_display(&db), t_before);

    // And the database still works: a write T can follow goes through.
    let report = db.insert_tuples("E", &edge_tuples(&[(4, 5)])).unwrap();
    assert_eq!(report.refreshed_heads, vec!["T".to_owned()]);
    assert!(db.query("T(x, y)").unwrap().contains(&pt2(1, 5)));
}

/// Variable names are cosmetic: renaming a view's variables leaves its
/// definition, and so the updates of its inputs, working.
#[test]
fn renamed_view_keeps_its_inputs_updatable() {
    let mut db = ConstraintDb::new();
    db.insert_points("P", 1, &[vec![Rat::one()]]).unwrap();
    db.define("V", &["x"], "P(x) and x >= 0").unwrap();
    db.rename_vars("V", &["a"]).unwrap();

    let report = db
        .insert_tuples("P", &[GeneralizedTuple::point(&[Rat::from(2i64)])])
        .map(|r| r.refreshed_views);
    assert_eq!(report.unwrap(), ["V"]);
    assert_eq!(db.var_names("V").unwrap(), ["a"]);
    assert!(db.query("V(a)").unwrap().contains(&[Rat::from(2i64)]));
}

/// A program run again over a head that already exists replaces that
/// head's extent: every view reading the head is refreshed with it.
#[test]
fn rerun_program_refreshes_readers_of_its_heads() {
    let mut db = ConstraintDb::new();
    db.insert_points("P", 1, &[vec![Rat::one()]]).unwrap();
    db.insert_points("Q", 1, &[vec![Rat::from(2i64)]]).unwrap();
    db.run_datalog(&parse_program("H(x) :- P(x).").unwrap(), 8)
        .unwrap();
    db.define("V", &["x"], "H(x) and x >= 0").unwrap();

    db.run_datalog(&parse_program("H(x) :- Q(x).").unwrap(), 8)
        .unwrap();
    let v = db.query("V(x)").unwrap();
    assert!(v.contains(&[Rat::one()]) && v.contains(&[Rat::from(2i64)]));
    // The new program owns H: an insert into P reaches nothing.
    let report = db
        .insert_tuples("P", &[GeneralizedTuple::point(&[Rat::from(3i64)])])
        .unwrap();
    assert!(report.refreshed_heads.is_empty() && report.refreshed_views.is_empty());
}

/// Arity and schema guards on the write path.
#[test]
fn write_path_guards() {
    let mut db = ConstraintDb::new();
    db.insert_points("P", 2, &[pt2(1, 2)]).unwrap();

    // Replacing with a different arity is rejected, relation untouched.
    let err = db.insert_points("P", 1, &[vec![Rat::one()]]).unwrap_err();
    assert!(matches!(err, DbError::ArityMismatch { .. }), "{err}");
    assert_eq!(db.relation("P").unwrap().nvars(), 2);

    // Tuple-level writes check arity per tuple.
    let err = db
        .insert_tuples("P", &[GeneralizedTuple::point(&[Rat::one()])])
        .unwrap_err();
    assert!(matches!(err, DbError::ArityMismatch { .. }), "{err}");

    // Unknown relations and reserved names are schema errors.
    assert!(matches!(
        db.insert_tuples("Nope", &edge_tuples(&[(1, 2)])),
        Err(DbError::Schema(_))
    ));
    assert!(matches!(
        db.insert_points("Δ:P", 1, &[vec![Rat::one()]]),
        Err(DbError::Schema(_))
    ));

    // Derived relations reject tuple-level writes: update their bases.
    db.define("V", &["x"], "exists y P(x, y)").unwrap();
    let err = db
        .insert_tuples("V", &[GeneralizedTuple::point(&[Rat::one()])])
        .unwrap_err();
    assert!(matches!(err, DbError::Schema(_)), "{err}");
}

/// Satellite pin: `run_datalog` threads the engine's full configuration —
/// the persistent memo-cache (a second identical run is served from it)
/// and the bit budget (a tight budget makes the run fail with precision
/// exhaustion, it is not silently dropped).
#[test]
fn run_datalog_threads_engine_configuration() {
    // Rule body cubic in the auxiliary variable y → the per-disjunct
    // planner has no substitution / FM / quadratic shortcut for y
    // (degree 3), so it dispatches CAD → algebraic cache traffic. The
    // answer stays rational: y³ = x ∧ z = y³ ⇒ z = x.
    let program = parse_program("N(z) :- M(x), y*y*y - x = 0, z - y*y*y = 0.").unwrap();
    let mut db = ConstraintDb::new();
    db.insert_points("M", 1, &[vec![Rat::from(2i64)], vec![Rat::from(3i64)]])
        .unwrap();
    db.run_datalog(&program, 8).unwrap();
    let hits_after_first = db.cache().hits();
    let misses_after_first = db.cache().misses();

    db.run_datalog(&program, 8).unwrap();
    assert!(
        db.cache().hits() > hits_after_first,
        "second run must be served by the facade's persistent cache \
         (hits {} → {})",
        hits_after_first,
        db.cache().hits()
    );
    assert_eq!(
        db.cache().misses(),
        misses_after_first,
        "second run recomputed algebra the cache already held"
    );
    let q = db.query("N(z)").unwrap();
    assert!(q.contains(&[Rat::from(2i64)]));
    assert!(q.contains(&[Rat::from(3i64)]));

    // The budget travels too: the divergent doubling program D(y) :-
    // D(x), y = 2x grows its constants without bound; under an 8-bit
    // budget the engine must report precision exhaustion rather than
    // silently evaluating exactly (the pre-fix facade dropped the budget
    // when rebuilding the context).
    let doubling = parse_program(
        "D(x) :- Init(x).\n\
         D(y) :- D(x), y - 2*x = 0.",
    )
    .unwrap();
    let mut tight = ConstraintDb::new();
    tight.insert_points("Init", 1, &[vec![Rat::one()]]).unwrap();
    tight.engine_mut().budget_bits = Some(8);
    let err = tight.run_datalog(&doubling, 64).unwrap_err();
    assert!(
        matches!(err, DbError::Datalog(_)) && err.to_string().contains("undefined"),
        "{err}"
    );
}

/// Property: save → load round-trips schema, variable names, and finite
/// extents on randomly generated databases, and save → load → save is
/// byte-identical.
#[derive(Debug, Clone)]
struct RandRel {
    name: String,
    vars: Vec<String>,
    points: Vec<Vec<i64>>,
}

fn rand_rel() -> impl Strategy<Value = RandRel> {
    (
        0usize..8,
        1usize..=3,
        prop::collection::vec(prop::collection::vec(-9i64..=9, 3), 0..5),
    )
        .prop_map(|(id, arity, raw)| RandRel {
            name: format!("R{id}"),
            vars: (0..arity).map(|i| format!("c{i}")).collect(),
            points: raw.into_iter().map(|p| p[..arity].to_vec()).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn save_load_roundtrip_random_databases(rels in prop::collection::vec(rand_rel(), 0..4)) {
        let mut db = ConstraintDb::new();
        for r in &rels {
            if db.relation(&r.name).is_some() {
                continue; // random names may collide; first writer wins
            }
            let pts: Vec<Vec<Rat>> = r
                .points
                .iter()
                .map(|p| p.iter().map(|&c| Rat::from(c)).collect())
                .collect();
            db.insert_points(&r.name, r.vars.len(), &pts).unwrap();
            let refs: Vec<&str> = r.vars.iter().map(String::as_str).collect();
            db.rename_vars(&r.name, &refs).unwrap();
        }
        let text = constraintdb::storage::save(&db).unwrap();
        let back = constraintdb::storage::load(&text).unwrap();
        prop_assert_eq!(db.schema(), back.schema());
        for (name, _) in db.schema() {
            prop_assert_eq!(
                db.var_names(&name).unwrap(),
                back.var_names(&name).unwrap(),
                "names for {}", name
            );
            let refs: Vec<&str> = db.var_names(&name).unwrap().iter().map(String::as_str).collect();
            prop_assert_eq!(
                db.relation(&name).unwrap().display_with(&refs),
                back.relation(&name).unwrap().display_with(&refs),
                "extent of {}", name
            );
        }
        let text2 = constraintdb::storage::save(&back).unwrap();
        prop_assert_eq!(text, text2);
    }
}

/// What the write scripts below expect the registry of derived relations
/// to hold: each view with its source and the relations it reads, each
/// program with its base snapshot.
#[derive(Debug, Clone)]
enum Owner {
    View {
        name: String,
        src: String,
        reads: Vec<String>,
    },
    Program {
        program: constraintdb::Program,
        base: Vec<(String, Option<constraintdb::ConstraintRelation>)>,
    },
}

impl Owner {
    fn outputs(&self) -> Vec<String> {
        match self {
            Owner::View { name, .. } => vec![name.clone()],
            Owner::Program { program, .. } => program.head_names().into_iter().collect(),
        }
    }

    fn reads(&self) -> Vec<String> {
        match self {
            Owner::View { reads, .. } => reads.clone(),
            Owner::Program { program, .. } => {
                let heads = program.head_names();
                program
                    .read_names()
                    .into_iter()
                    .filter(|r| !heads.contains(r))
                    .collect()
            }
        }
    }
}

/// Relation `R{i}`; a definition of `R{i}` reads only `R{j}` with `j < i`,
/// so the relations' dependency graph stays acyclic.
fn rel_name(i: usize) -> String {
    format!("R{i}")
}

/// Run one scripted write on `db` and record in `owners` what it
/// registers. Writes the facade rejects (an unknown or derived relation)
/// change neither.
fn apply_step(db: &mut ConstraintDb, owners: &mut Vec<Owner>, step: (usize, usize, usize, i64)) {
    let (kind, i, j, v) = step;
    let name = rel_name(i);
    let (a, b) = (rel_name(j % i.max(1)), rel_name(v as usize % i.max(1)));
    let point = |v: i64| GeneralizedTuple::point(&[Rat::from(v)]);
    let disown = |owners: &mut Vec<Owner>, names: &[String]| {
        owners.retain(|o| o.outputs().iter().all(|out| !names.contains(out)));
    };
    match kind {
        0 | 1 if i > 0 => {
            let src = match v % 3 {
                0 => format!("{a}(x) and x >= {v}"),
                1 => format!("{a}(x) or {b}(x)"),
                _ => format!("{a}(x) and not {b}(x)"),
            };
            if db.define(&name, &["x"], &src).is_ok() {
                disown(owners, std::slice::from_ref(&name));
                let reads = if v % 3 == 0 { vec![a] } else { vec![a, b] };
                owners.push(Owner::View { name, src, reads });
            }
        }
        4 => {
            db.insert_points(&name, 1, &[vec![Rat::from(v)], vec![Rat::from(v + 1)]])
                .unwrap();
            disown(owners, std::slice::from_ref(&name));
        }
        5 => {
            let _ = db.insert_tuples(&name, &[point(v), point(v + 2)]);
        }
        6 => {
            let _ = db.retract_tuples(&name, &[point(v)]);
        }
        2 | 3 if i > 0 => {
            // A positive program; a second head R{i+1} reads the first.
            let mut text = format!("{name}(x) :- {a}(x), x >= {v}.\n{name}(x) :- {b}(x), x <= 2.");
            if v % 2 == 0 && i + 1 < 4 {
                text.push_str(&format!("\n{}(x) :- {name}(x), x >= 3.", rel_name(i + 1)));
            }
            let program = parse_program(&text).unwrap();
            let base: Vec<_> = program
                .head_names()
                .into_iter()
                .map(|h| {
                    let snapshot = db.relation(&h).cloned();
                    (h, snapshot)
                })
                .collect();
            if db.run_datalog(&program, 16).is_ok() {
                let owner = Owner::Program { program, base };
                disown(owners, &owner.outputs());
                owners.push(owner);
            }
        }
        7 if db.remove(&name).is_some() => {
            owners.retain(|o| !o.outputs().contains(&name) && !o.reads().contains(&name));
        }
        8 => {
            let _ = db.rename_vars(&name, &[if v % 2 == 0 { "a" } else { "x" }]);
        }
        _ => {}
    }
}

/// Every registered view equals a fresh compile of its source byte for
/// byte, and every program's heads equal a full run from its base snapshot
/// tuple for tuple. (An incremental re-run appends its new tuples, so a
/// head's tuple order depends on the write history.)
fn check_owners(db: &ConstraintDb, owners: &[Owner]) -> Result<(), TestCaseError> {
    let tuples = |rel: &constraintdb::ConstraintRelation| {
        let mut tuples: Vec<String> = rel
            .tuples()
            .iter()
            .map(|t| t.display_with(&["x"]))
            .collect();
        tuples.sort();
        tuples
    };
    for owner in owners {
        match owner {
            Owner::View { name, src, .. } => {
                let mut fresh = db.clone();
                fresh.define("Fresh", &["x"], src).unwrap();
                prop_assert_eq!(
                    db.relation(name).unwrap().display_with(&["x"]),
                    fresh.relation("Fresh").unwrap().display_with(&["x"]),
                    "view {} = {} is stale",
                    name,
                    src
                );
            }
            Owner::Program { program, base } => {
                let mut start = db.raw().clone();
                for (head, snapshot) in base {
                    match snapshot {
                        Some(rel) => start.insert(head.clone(), rel.clone()),
                        None => {
                            start.remove(head);
                        }
                    }
                }
                let ctx = constraintdb::CalcFEngine::default().qe_context(None);
                let (full, _) = program.run(&start, &ctx, 16).unwrap();
                for head in program.head_names() {
                    prop_assert_eq!(
                        tuples(db.relation(&head).unwrap()),
                        tuples(full.get(&head).unwrap()),
                        "head {} of {:?} is stale",
                        head,
                        program
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random write scripts over four finite point relations, all base
    /// relations at the start, keep every
    /// derived relation equal to its definition, whatever the mix of
    /// `define`, `insert_points`, `insert_tuples`, `retract_tuples`,
    /// `run_datalog`, `remove` and `rename_vars`.
    #[test]
    fn derived_relations_follow_random_write_scripts(
        steps in prop::collection::vec((0usize..9, 0usize..4, 0usize..4, 0i64..6), 4..20),
    ) {
        let mut db = ConstraintDb::new();
        for i in 0..4 {
            let points = [vec![Rat::from(i as i64 + 1)], vec![Rat::from(i as i64 + 4)]];
            db.insert_points(&rel_name(i), 1, &points).unwrap();
        }
        let mut owners = Vec::new();
        for step in steps {
            apply_step(&mut db, &mut owners, step);
            check_owners(&db, &owners)?;
        }
    }
}
