//! The lock order (DESIGN.md §13), driven for real. A write holds the
//! master database while it evaluates, so a CAD-defined `CREATE` takes
//! memo-cache shards, interner shards and — lifting on two or more
//! threads — the lift pool under it, while the pool's helpers take the
//! leaves on their own threads. With debug assertions on, every `lock`
//! checks the order, so a path that broke it would panic here; the test
//! then asserts that the three edges below the master were all taken.

use cdb_server::{Server, ServerConfig};
use std::thread;

/// One disjunct list per definition: the CAD-routed probe of the verify
/// notes, and its mirror image.
const DEFINITIONS: [&str; 2] = [
    "CREATE RELATION Up(x) AS exists y (x^2 + y^2 <= 4 and y^3 >= x);",
    "CREATE RELATION Down(x) AS exists y (x^2 + y^2 <= 4 and y^3 <= x);",
];

#[test]
fn two_sessions_writing_cad_definitions_take_every_edge_of_the_order() {
    let server = Server::new(ServerConfig::default());
    // One writer at a time, each on its own thread and session, so each
    // write runs alone and lifts at its full share of the hardware
    // threads (two or more wherever the host has them).
    for definition in DEFINITIONS {
        let mut session = server.session();
        let answer = thread::spawn(move || session.execute(definition).map(|r| r.to_string()))
            .join()
            .expect("the writer must not panic");
        assert!(answer.is_ok(), "{definition} -> {answer:?}");
    }
    let mut reader = server.session();
    for name in ["Up", "Down"] {
        let rows = reader.execute(&format!("SELECT {name}(x);")).unwrap();
        assert!(
            rows.to_string().starts_with("rows (exact=true): "),
            "{rows}"
        );
    }

    #[cfg(debug_assertions)]
    {
        use cdb_num::ranked::Rank;
        let seen = cdb_num::ranked::edges_seen();
        let mut leaves = vec![Rank::CacheShard, Rank::InternerShard];
        if cdb_qe::hardware_threads() > 1 {
            leaves.push(Rank::LiftPool);
        }
        for leaf in leaves {
            assert!(seen.contains(&(Rank::DbMaster, leaf)), "{seen:?}");
        }
    }
}
