//! Property tests for the semi-naive fixpoint evaluator.
//!
//! The contract under test (DESIGN.md §7): for any finite-graph transitive
//! closure program, `Program::run` produces extents semantically equal to
//! the naive reference evaluator on the whole node grid, with no more QE
//! calls.

use cdb_constraints::{ConstraintRelation, Database};
use cdb_datalog::{Literal, Program, Rule};
use cdb_num::Rat;
use cdb_qe::QeContext;
use proptest::prelude::*;

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
