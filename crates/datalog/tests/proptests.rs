//! Property tests for the semi-naive fixpoint evaluator.
//!
//! The contract under test (DESIGN.md §7): for any finite-graph transitive
//! closure program, `Program::run` produces extents semantically equal to
//! the naive reference evaluator on the whole node grid, with no more QE
//! calls; and byte for byte the extents, iteration count and per-round
//! delta sizes of the loop that rebuilt every point head from its points
//! and re-diffed it every round, which is kept below as test code.

use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, RelOp};
use cdb_datalog::{FixpointStats, Literal, Program, Rule, DELTA_PREFIX};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::{evaluate_query, QeContext, QeError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const NODES: i64 = 5;

/// T(x,y) :- E(x,y).  T(x,y) :- T(x,z), E(z,y).
fn tc_program() -> Program {
    Program {
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
    }
}

fn edge_db(edges: &[(u8, u8)]) -> Database {
    let points: Vec<Vec<Rat>> = edges
        .iter()
        .map(|&(a, b)| vec![Rat::from(i64::from(a)), Rat::from(i64::from(b))])
        .collect();
    let mut db = Database::new();
    db.insert("E", ConstraintRelation::from_points(2, &points));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Semi-naive run ≡ naive run on random graphs (including cycles and
    /// self-loops).
    #[test]
    fn semi_naive_matches_naive_reference(
        edges in prop::collection::vec((0u8..NODES as u8, 0u8..NODES as u8), 0..12),
    ) {
        let db = edge_db(&edges);
        let program = tc_program();
        let ctx = QeContext::exact();
        let (naive, naive_stats) = program.run_naive(&db, &ctx, 40).unwrap();
        let (semi, stats) = program.run(&db, &ctx, 40).unwrap();
        // Semi-naive never issues more body-QE calls than naive.
        prop_assert!(stats.qe_calls <= naive_stats.qe_calls,
            "semi-naive {} > naive {}", stats.qe_calls, naive_stats.qe_calls);
        // Semantic agreement with the reference on the full node grid.
        let t = semi.get("T").unwrap();
        let tn = naive.get("T").unwrap();
        for a in 0..NODES {
            for b in 0..NODES {
                let p = [Rat::from(a), Rat::from(b)];
                prop_assert_eq!(tn.satisfied_at(&p), t.satisfied_at(&p),
                    "T({},{}) disagrees", a, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The rebuild-everything evaluator: the semi-naive loop as it was before
// point heads merged by key. Every merge of two finite point sets rebuilds
// the whole head from its sorted points, every other merge is
// `union → simplify → canonicalized` with a QE subset test, and each round's
// delta is the new extent minus the old one's tuples.
// ---------------------------------------------------------------------------

/// The body of `rule` as a formula, the literal at `delta_pos` reading the
/// delta relation; existentials over the body variables not in the head.
fn body_formula(rule: &Rule, delta_pos: Option<usize>) -> Formula {
    let conj = rule
        .body
        .iter()
        .enumerate()
        .map(|(i, lit)| match lit {
            Literal::Rel(name, args) if delta_pos == Some(i) => {
                Formula::Rel(format!("{DELTA_PREFIX}{name}"), args.clone())
            }
            Literal::Rel(name, args) => Formula::Rel(name.clone(), args.clone()),
            Literal::NegRel(name, args) => Formula::not(Formula::Rel(name.clone(), args.clone())),
            Literal::Constraint(a) => Formula::Atom(a.clone()),
        })
        .collect();
    let mut f = Formula::And(conj);
    for v in f.free_vars() {
        if !rule.head_vars.contains(&v) {
            f = Formula::exists(v, f);
        }
    }
    f
}

fn project_to_head(rule: &Rule, derived: &ConstraintRelation) -> ConstraintRelation {
    let mut remap = vec![0usize; rule.nvars];
    for (pos, &v) in rule.head_vars.iter().enumerate() {
        remap[v] = pos;
    }
    for v in 0..rule.nvars {
        assert!(rule.head_vars.contains(&v) || !derived.uses_var(v));
    }
    derived
        .remap_vars(&remap, rule.head_vars.len().max(1))
        .simplify()
}

fn sentence_is_empty(diff: Formula, nvars: usize, ctx: &QeContext) -> Result<bool, QeError> {
    let mut diff = diff;
    for v in 0..nvars {
        diff = Formula::exists(v, diff);
    }
    let out = evaluate_query(&Database::new(), &diff, nvars, ctx)?;
    Ok(out.relation.is_syntactically_empty()
        || !out.relation.satisfied_at(&vec![Rat::zero(); nvars]))
}

fn tuple_contained_in(
    ta: &GeneralizedTuple,
    tb: &GeneralizedTuple,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    if tb.is_top() {
        return Ok(true);
    }
    let fa = if ta.is_top() {
        Formula::True
    } else {
        Formula::And(ta.atoms().iter().cloned().map(Formula::Atom).collect())
    };
    let not_tb = Formula::Or(
        tb.atoms()
            .iter()
            .map(|a| Formula::Atom(a.negated()))
            .collect(),
    );
    sentence_is_empty(Formula::and(fa, not_tb), ta.nvars(), ctx)
}

fn subset_of(
    a: &ConstraintRelation,
    b: &ConstraintRelation,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    let remaining = a.without_tuples(b.tuples());
    if remaining.is_syntactically_empty() {
        return Ok(true);
    }
    let expansion = b
        .tuples()
        .iter()
        .map(|t| t.atoms().len().max(1))
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if b.tuples().len() > 8 || expansion > 512 {
        'tuples: for ta in remaining.tuples() {
            for tb in b.tuples() {
                if tuple_contained_in(ta, tb, ctx)? {
                    continue 'tuples;
                }
            }
            return Ok(false);
        }
        return Ok(true);
    }
    let fa = relation_to_formula(&remaining);
    let fb = relation_to_formula(b);
    sentence_is_empty(Formula::and(fa, Formula::not(fb)), a.nvars(), ctx)
}

fn rebuild_merge(
    current: &ConstraintRelation,
    derived: &ConstraintRelation,
    ctx: &QeContext,
) -> Result<(ConstraintRelation, bool), QeError> {
    if let (Some(have), Some(new)) = (current.as_finite_points(), derived.as_finite_points()) {
        let mut all: BTreeSet<Vec<Rat>> = have.into_iter().collect();
        let before = all.len();
        all.extend(new);
        let grew = all.len() > before;
        let all: Vec<Vec<Rat>> = all.into_iter().collect();
        return Ok((ConstraintRelation::from_points(current.nvars(), &all), grew));
    }
    let grew = !subset_of(derived, current, ctx)?;
    Ok((current.union(derived).simplify().canonicalized(), grew))
}

/// The saturated database, the iteration count, the QE calls and every
/// round's per-head delta sizes.
type RebuildRun = (Database, usize, usize, Vec<Vec<(String, usize)>>);

fn rebuild_run(
    program: &Program,
    db: &Database,
    seed: Option<&BTreeMap<String, ConstraintRelation>>,
    ctx: &QeContext,
    max_iterations: usize,
) -> Result<RebuildRun, QeError> {
    let mut db = db.clone();
    for rule in &program.rules {
        if db.get(&rule.head).is_none() {
            db.insert(
                rule.head.clone(),
                ConstraintRelation::empty(rule.head_vars.len()),
            );
        }
    }
    let mut deltas = seed.cloned().unwrap_or_default();
    let (mut qe_calls, mut per_round) = (0, Vec::new());
    for it in 1..=max_iterations {
        let jobs: Vec<(usize, Formula)> = if it == 1 && seed.is_none() {
            program
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| (i, body_formula(r, None)))
                .collect()
        } else {
            let mut jobs = Vec::new();
            for (i, rule) in program.rules.iter().enumerate() {
                for (pos, lit) in rule.body.iter().enumerate() {
                    if let Literal::Rel(name, _) = lit {
                        if deltas
                            .get(name)
                            .is_some_and(|d| !d.is_syntactically_empty())
                        {
                            jobs.push((i, body_formula(rule, Some(pos))));
                        }
                    }
                }
            }
            jobs
        };
        if jobs.is_empty() {
            per_round.push(Vec::new());
            return Ok((db, it, qe_calls, per_round));
        }
        let mut eval_db = db.clone();
        for (name, d) in &deltas {
            eval_db.insert(format!("{DELTA_PREFIX}{name}"), d.clone());
        }
        qe_calls += jobs.len();
        let mut changed = false;
        let mut grown: BTreeMap<String, ConstraintRelation> = BTreeMap::new();
        for (i, formula) in &jobs {
            let rule = &program.rules[*i];
            let out = evaluate_query(&eval_db, formula, rule.nvars, ctx)?;
            let derived = project_to_head(rule, &out.relation);
            let current = grown
                .entry(rule.head.clone())
                .or_insert_with(|| db.get(&rule.head).unwrap().clone());
            let (merged, grew) = rebuild_merge(current, &derived, ctx)?;
            changed |= grew;
            *current = merged;
        }
        deltas = grown
            .iter()
            .map(|(name, g)| {
                (
                    name.clone(),
                    g.without_tuples(db.get(name).unwrap().tuples()),
                )
            })
            .collect();
        per_round.push(
            deltas
                .iter()
                .map(|(n, d)| (n.clone(), d.tuples().len()))
                .collect(),
        );
        for (name, g) in grown {
            db.insert(name, g);
        }
        if !changed {
            return Ok((db, it, qe_calls, per_round));
        }
    }
    panic!("rebuild-everything run hit the iteration cap");
}

/// `program.run` / `run_incremental` against the rebuild-everything loop:
/// byte-equal extents, equal iterations, QE calls and per-round deltas.
fn assert_matches_rebuild(
    program: &Program,
    db: &Database,
    seed: Option<&BTreeMap<String, ConstraintRelation>>,
    got: &(Database, FixpointStats),
) {
    let ctx = QeContext::exact();
    let (want, iterations, qe_calls, per_round) = rebuild_run(program, db, seed, &ctx, 64).unwrap();
    let (out, stats) = got;
    for (name, rel) in want.iter() {
        assert_eq!(out.get(name), Some(rel), "{name} differs from the rebuild");
    }
    assert_eq!(stats.iterations, iterations);
    assert_eq!(stats.qe_calls, qe_calls);
    let deltas: Vec<_> = stats
        .per_iteration
        .iter()
        .map(|r| r.delta_tuples.clone())
        .collect();
    assert_eq!(deltas, per_round, "per-round delta sizes");
}

fn point(a: i64, b: i64) -> Vec<Rat> {
    vec![Rat::from(a), Rat::from(b)]
}

/// `T` seeded before the run: the canonical point set of `pairs`, or — when
/// `spelled` — the same points unsorted, repeated and with the first one
/// written `2x − 2a = 0`, so that only the general merge reads it.
fn seeded_head(pairs: &[(u8, u8)], spelled: bool) -> ConstraintRelation {
    let pts: Vec<Vec<Rat>> = pairs
        .iter()
        .map(|&(a, b)| point(i64::from(a), i64::from(b)))
        .collect();
    if !spelled {
        return ConstraintRelation::from_points(2, &pts).canonicalized();
    }
    let mut tuples: Vec<GeneralizedTuple> = pts
        .iter()
        .rev()
        .map(|p| GeneralizedTuple::point(p))
        .collect();
    if let Some(first) = pts.first() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let c = |v: &Rat| MPoly::constant(v.clone(), 2);
        tuples.push(GeneralizedTuple::new(
            2,
            vec![
                Atom::new((&x - &c(&first[0])).scale(&Rat::from(2i64)), RelOp::Eq),
                Atom::cmp(y, RelOp::Eq, c(&first[1])),
            ],
        ));
    }
    ConstraintRelation::new(2, tuples)
}

/// `F(z, y) ≡ z = c ∧ 10 ≤ y ≤ 11`: once `T` reaches `c`, the rule
/// `T(x, y) :- T(x, z), F(z, y)` derives a segment, and `T` leaves the
/// point form in the middle of the run.
fn segment_from(c: u8) -> ConstraintRelation {
    let z = MPoly::var(0, 2);
    let y = MPoly::var(1, 2);
    let k = |v: i64| MPoly::constant(Rat::from(v), 2);
    ConstraintRelation::new(
        2,
        vec![GeneralizedTuple::new(
            2,
            vec![
                Atom::cmp(z, RelOp::Eq, k(i64::from(c))),
                Atom::cmp(y.clone(), RelOp::Ge, k(10)),
                Atom::cmp(y, RelOp::Le, k(11)),
            ],
        )],
    )
}

fn tc_with_segments() -> Program {
    let mut program = tc_program();
    program.rules.push(
        Rule::new(
            "T",
            vec![0, 1],
            vec![
                Literal::Rel("T".into(), vec![0, 2]),
                Literal::Rel("F".into(), vec![2, 1]),
            ],
            3,
        )
        .unwrap(),
    );
    program
}

fn edges_strategy(max: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..NODES as u8, 0u8..NODES as u8), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// From scratch, with `T` empty or seeded: the second round-1 job reads
    /// the seeded `T`, so two jobs grow one head in one round. Byte-equal to
    /// the rebuild-everything loop and (point heads) to the naive reference.
    #[test]
    fn key_merge_matches_rebuild_from_scratch(
        edges in edges_strategy(12),
        seeded in edges_strategy(4),
        spelled in any::<bool>(),
    ) {
        let mut db = edge_db(&edges);
        db.insert("T", seeded_head(&seeded, spelled));
        let program = tc_program();
        let ctx = QeContext::exact();
        let got = program.run(&db, &ctx, 64).unwrap();
        assert_matches_rebuild(&program, &db, None, &got);
        let (naive, _) = program.run_naive(&db, &ctx, 64).unwrap();
        prop_assert_eq!(got.0.get("T"), naive.get("T"));
    }

    /// Incrementally after inserting edges: round 1 runs both rules' delta
    /// variants over `E`, two jobs growing `T`.
    #[test]
    fn key_merge_matches_rebuild_after_inserts(
        edges in edges_strategy(10),
        inserted in edges_strategy(4),
    ) {
        let program = tc_program();
        let ctx = QeContext::exact();
        let (saturated, _) = program.run(&edge_db(&edges), &ctx, 64).unwrap();
        let delta = edge_db(&inserted).get("E").unwrap().without_tuples(
            saturated.get("E").unwrap().tuples(),
        );
        let mut updated = saturated.clone();
        updated.insert("E", saturated.get("E").unwrap().union(&delta).canonicalized());
        let seed = BTreeMap::from([("E".to_owned(), delta)]);
        let got = program.run_incremental(&updated, &seed, &ctx, 64).unwrap();
        assert_matches_rebuild(&program, &updated, Some(&seed), &got);
        let mut base = Database::new();
        base.insert("E", updated.get("E").unwrap().clone());
        let (naive, _) = program.run_naive(&base, &ctx, 64).unwrap();
        prop_assert_eq!(got.0.get("T"), naive.get("T"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `T` leaves the point form when it reaches the segment's start node:
    /// from then on every merge into it takes the general path and its
    /// delta is the whole-head difference, as before.
    #[test]
    fn head_leaving_point_form_matches_rebuild(
        edges in edges_strategy(6),
        start in 0u8..NODES as u8,
    ) {
        let mut db = edge_db(&edges);
        db.insert("F", segment_from(start));
        let program = tc_with_segments();
        let ctx = QeContext::exact();
        let got = program.run(&db, &ctx, 64).unwrap();
        assert_matches_rebuild(&program, &db, None, &got);
    }
}

/// Inserting `(0,3)` and `(2,3)` under `T = {(1,2)}`: round 1 grows `T`
/// by key from two jobs, `(0,3), (2,3)` and then `(1,3)`, and round 2
/// derives one segment from each through `F`, appended to `T` in the
/// delta's order — so the delta must come in key order, not job order.
#[test]
fn delta_of_two_jobs_is_in_key_order() {
    let mut db = edge_db(&[(1, 2)]);
    db.insert("F", segment_from(3));
    let program = tc_with_segments();
    let ctx = QeContext::exact();
    let (saturated, _) = program.run(&db, &ctx, 64).unwrap();
    let delta = edge_db(&[(0, 3), (2, 3)]).get("E").unwrap().clone();
    let mut updated = saturated.clone();
    updated.insert(
        "E",
        saturated.get("E").unwrap().union(&delta).canonicalized(),
    );
    let seed = BTreeMap::from([("E".to_owned(), delta)]);
    let got = program.run_incremental(&updated, &seed, &ctx, 64).unwrap();
    assert_eq!(
        got.1.per_iteration[0].delta_tuples,
        vec![("T".to_owned(), 3)]
    );
    assert_matches_rebuild(&program, &updated, Some(&seed), &got);
}

/// A head that starts with a tuple that is no point at all takes the
/// general path from its first merge.
#[test]
fn head_starting_with_a_segment_matches_rebuild() {
    let mut db = edge_db(&[(0, 1), (1, 2), (2, 0), (3, 4)]);
    let mut head = segment_from(1).union(&ConstraintRelation::from_points(2, &[point(4, 3)]));
    head = head.union(&ConstraintRelation::from_points(2, &[point(0, 4)]));
    db.insert("T", head);
    let program = tc_program();
    let ctx = QeContext::exact();
    let got = program.run(&db, &ctx, 64).unwrap();
    assert_matches_rebuild(&program, &db, None, &got);
}
