//! Who owns a derived relation, as a `serve` session sees it: each view or
//! Datalog¬ head has one definition, and a write refreshes exactly the
//! derived relations whose definitions still read what changed.

use cdb_server::{Server, ServerConfig};

/// Run `script` through one session's `serve` loop; one line per command.
fn serve(script: &str) -> Vec<String> {
    let server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    server.session().serve(script.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

/// A `DATALOG` block whose head is an existing view takes the view over:
/// a later insert refreshes the head once, through the program, and the
/// head keeps every point `V(x) :- P(x)` derives.
#[test]
fn datalog_over_a_view_takes_it_over() {
    let out = serve(
        "CREATE RELATION P(x);\n\
         INSERT INTO P VALUES (1), (2);\n\
         CREATE RELATION V(x) AS P(x) and x >= 2;\n\
         DATALOG { V(x) :- P(x). };\n\
         SOLVE V(x);\n\
         INSERT INTO P VALUES (3);\n\
         SOLVE V(x);\n",
    );
    assert_eq!(out[4], "x = 1; x = 2");
    assert_eq!(out[5], "updated P: +1 -0 (refreshed 1)");
    assert_eq!(out[6], "x = 1; x = 2; x = 3");
}

/// Dropping one input of a view detaches the view: it keeps its last
/// extent as a base relation, and its other inputs stay updatable.
#[test]
fn dropping_a_view_input_detaches_the_view() {
    let out = serve(
        "CREATE RELATION P(x);\n\
         CREATE RELATION Q(x);\n\
         INSERT INTO P VALUES (1), (2);\n\
         INSERT INTO Q VALUES (2), (3);\n\
         CREATE RELATION V(x) AS P(x) and Q(x);\n\
         DROP RELATION Q;\n\
         INSERT INTO P VALUES (3);\n\
         SOLVE V(x);\n\
         INSERT INTO V VALUES (7);\n",
    );
    assert_eq!(out[5], "dropped Q");
    assert_eq!(out[6], "updated P: +1 -0 (refreshed 0)");
    assert_eq!(out[7], "x = 2");
    assert_eq!(out[8], "updated V: +1 -0 (refreshed 0)");
}
