//! Golden session transcript: `golden/session.sql` — every statement kind,
//! point and `CONSTRAINT` rows, `DATALOG` blocks with comments, decimals
//! and negation, an aggregate, an analytic function, the `SOLVE` and
//! `SET PRECISION` session commands, and malformed statements — replayed
//! through one `Session` by the `serve` loop must print
//! `golden/session.out` byte for byte.

use cdb_server::{parse_commands, Server, ServerConfig};
use proptest::prelude::*;

#[test]
fn session_transcript_is_golden() {
    let server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    server
        .session()
        .serve(include_str!("golden/session.sql").as_bytes(), &mut out)
        .unwrap();
    let got = String::from_utf8(out).unwrap();
    let want = include_str!("golden/session.out");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "transcript line {} differs", i + 1);
    }
    assert_eq!(got, want);
}

/// Commands the property below splits across lines: every statement kind
/// that needs no file, each answered without touching the host.
const COMMANDS: &[&str] = &[
    "CREATE RELATION R(x) AS x >= 0 and x <= 2;",
    "INSERT INTO R VALUES (3), (1/2);",
    "SELECT R(x) and x >= 1;",
    "SELECT x >= 0 and x <= 1 and not (x = 1/2);",
    "SOLVE x^2 = 4 and x >= 0;",
    "SET PRECISION 64;",
    "DATALOG { T(x) :- R(x), x <= 1. };",
    "SHOW RELATIONS;",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A script of valid commands, broken at word gaps into lines with a
    /// `;`-ending comment line between some of them, prints through
    /// `serve` what its commands print executed one by one: a `;` in a
    /// comment never ends a command.
    #[test]
    fn comment_semicolons_do_not_split_commands(
        picks in proptest::collection::vec((0..COMMANDS.len(), any::<u32>()), 1..6),
    ) {
        let mut script = String::new();
        for (i, breaks) in &picks {
            for (gap, word) in COMMANDS[*i].split(' ').enumerate() {
                if gap > 0 {
                    script.push_str(if breaks >> (gap % 32) & 1 == 1 {
                        " -- note;\n-- note;\n"
                    } else {
                        " "
                    });
                }
                script.push_str(word);
            }
            script.push('\n');
        }
        let mut served = Vec::new();
        Server::new(ServerConfig::default())
            .session()
            .serve(script.as_bytes(), &mut served)
            .unwrap();
        let mut session = Server::new(ServerConfig::default()).session();
        let mut executed = String::new();
        for cmd in parse_commands(&script).unwrap() {
            match session.execute_command(&cmd) {
                Ok(resp) => executed.push_str(&format!("{resp}\n")),
                Err(e) => executed.push_str(&format!("error: {e}\n")),
            }
        }
        prop_assert_eq!(String::from_utf8(served).unwrap(), executed, "script:\n{}", script);
    }
}
