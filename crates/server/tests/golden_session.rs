//! Golden session transcript: `golden/session.sql` — every statement kind,
//! point and `CONSTRAINT` rows, `DATALOG` blocks with comments, decimals
//! and negation, an aggregate, an analytic function, the `SOLVE` and
//! `SET PRECISION` session commands, and malformed statements — replayed
//! through one `Session` by the `serve` loop must print
//! `golden/session.out` byte for byte.

use cdb_server::{Server, ServerConfig};

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
