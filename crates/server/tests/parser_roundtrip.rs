//! Parser round-trip property tests and error-position unit tests.
//!
//! The round-trip property: for any generated [`Statement`] or
//! [`Command`], `parse(print(x)) == x` — the pretty-printer emits exactly the
//! canonical surface the parser accepts, including verbatim embedded
//! CALC_F / Datalog¬ text. The error tests pin down *positions* (1-based
//! line/col), not just messages: a parser that loses track of where it is
//! fails these even if the message text stays right.

use cdb_num::Rat;
use cdb_server::{parse_command, parse_commands, parse_statement, Command, Rows, Statement};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("R".to_owned()),
        Just("S2".to_owned()),
        Just("Edge".to_owned()),
        Just("P_1".to_owned()),
        Just("very_long_relation_name".to_owned()),
    ]
}

fn arb_var() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("x".to_owned()),
        Just("y".to_owned()),
        Just("z0".to_owned()),
        Just("w_".to_owned()),
    ]
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-999i64..=999, 1i64..=30).prop_map(|(n, d)| Rat::from_ints(n, d))
}

/// CALC_F-ish embedded text. Only has to lex under the shared tokenizer
/// and survive a trim round-trip — the CALC_F parser owns its own
/// grammar — but everything generated here is in fact valid CALC_F.
fn arb_formula_text() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("x + y <= 3".to_owned()),
        Just("4*x^2 - y - 20*x + 25 <= 0".to_owned()),
        Just("R(x, y)".to_owned()),
        Just("x = 1/2".to_owned()),
        Just("not (x >= 0)".to_owned()),
        Just("exists z (R(x, z) and z <= y)".to_owned()),
    ];
    proptest::collection::vec(atom, 1..=3).prop_map(|parts| parts.join(" and "))
}

fn arb_datalog_text() -> impl Strategy<Value = String> {
    let rule = prop_oneof![
        Just("T(x, y) :- E(x, y).".to_owned()),
        Just("T(x, y) :- T(x, z), E(z, y).".to_owned()),
        Just("Off(x) :- Dom(x), not R(x).".to_owned()),
        Just("Reach(y) :- Reach(x), x <= y, y <= x + 1.".to_owned()),
    ];
    proptest::collection::vec(rule, 1..=3).prop_map(|rules| rules.join(" "))
}

/// Point rows of one fixed arity (the devshim proptest has no
/// `prop_flat_map`, so each arity is its own strategy arm).
fn arb_points(arity: usize) -> impl Strategy<Value = Rows> {
    proptest::collection::vec(proptest::collection::vec(arb_rat(), arity..=arity), 1..=4)
        .prop_map(Rows::Points)
}

fn arb_rows() -> impl Strategy<Value = Rows> {
    prop_oneof![
        arb_points(1),
        arb_points(2),
        arb_points(3),
        arb_formula_text().prop_map(Rows::Constraint),
    ]
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        (
            arb_name(),
            proptest::collection::vec(arb_var(), 1..=3),
            prop_oneof![Just(None), arb_formula_text().prop_map(Some)],
        )
            .prop_map(|(name, vars, definition)| Statement::CreateRelation {
                name,
                vars,
                definition,
            }),
        (arb_name(), arb_rows()).prop_map(|(name, rows)| Statement::Insert { name, rows }),
        (arb_name(), arb_rows()).prop_map(|(name, rows)| Statement::Delete { name, rows }),
        arb_formula_text().prop_map(|query| Statement::Select { query }),
        arb_datalog_text().prop_map(|program| Statement::Datalog { program }),
        Just(Statement::ShowRelations),
        arb_name().prop_map(|name| Statement::DropRelation { name }),
    ]
}

/// File paths that lex under the shared tokenizer (a path is a raw span).
fn arb_path() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("db.txt".to_owned()),
        Just("/var/lib/cdb/run_1.cdb".to_owned()),
        Just("../saved/paper db".to_owned()),
    ]
}

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        arb_statement().prop_map(Command::Run),
        arb_formula_text().prop_map(|query| Command::Solve { query }),
        (0u64..=1 << 20).prop_map(|k| Command::SetPrecision(Some(k))),
        Just(Command::SetPrecision(None)),
        arb_path().prop_map(|path| Command::Save { path }),
        arb_path().prop_map(|path| Command::Load { path }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ print is the identity on commands, statements included.
    #[test]
    fn command_print_parse_roundtrip(cmd in arb_command()) {
        let printed = cmd.to_string();
        let reparsed = parse_command(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(&reparsed, &cmd, "printed as `{}`", printed);
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Scripts of several commands (statements included) split and
    /// round-trip.
    #[test]
    fn command_script_roundtrip(cmds in proptest::collection::vec(arb_command(), 1..=4)) {
        let script = cmds
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = parse_commands(&script)
            .unwrap_or_else(|e| panic!("reparse of script `{script}` failed: {e}"));
        prop_assert_eq!(reparsed, cmds);
    }

    /// parse ∘ print is the identity on statements.
    #[test]
    fn print_parse_roundtrip(stmt in arb_statement()) {
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(&reparsed, &stmt, "printed as `{}`", printed);
        // And printing is a fixpoint.
        prop_assert_eq!(reparsed.to_string(), printed);
    }
}

/// Error positions: (line, col) of the offending token, 1-based.
fn err_pos(src: &str) -> (u32, u32, String) {
    let e = parse_commands(src).expect_err("expected a parse error");
    (e.line, e.col, e.message)
}

#[test]
fn lex_error_position() {
    let (line, col, msg) = err_pos("SELECT S(x) ? 3;");
    assert_eq!((line, col), (1, 13));
    assert!(msg.contains('?'), "message: {msg}");
}

#[test]
fn wrong_keyword_position() {
    // `TABLE` sits at column 8 — the error points at it, not at `CREATE`.
    let (line, col, msg) = err_pos("CREATE TABLE x;");
    assert_eq!((line, col), (1, 8));
    assert!(msg.contains("RELATION"), "message: {msg}");
}

#[test]
fn error_on_second_line() {
    let (line, col, msg) = err_pos("CREATE RELATION P(x);\nINSERT INTO P VALUEZ (1);");
    assert_eq!((line, col), (2, 15));
    assert!(
        msg.contains("VALUES") || msg.contains("CONSTRAINT"),
        "message: {msg}"
    );
}

#[test]
fn end_of_input_position_is_after_last_token() {
    // `DROP RELATION` ends at col 14; the missing identifier is reported
    // one past the end of the last token's start (col 15 > 14 > 5).
    let (line, col, msg) = err_pos("DROP RELATION");
    assert_eq!(line, 1);
    assert!(col >= 6, "col {col} should be past `DROP`");
    assert!(msg.contains("end of input"), "message: {msg}");
}

#[test]
fn zero_denominator_points_at_denominator() {
    let (line, col, msg) = err_pos("INSERT INTO P VALUES (1, 3/0);");
    assert_eq!((line, col), (1, 28));
    assert!(msg.contains("denominator"), "message: {msg}");
}

#[test]
fn unterminated_datalog_block() {
    let (line, col, msg) = err_pos("DATALOG { T(x) :- E(x).");
    assert_eq!(line, 1);
    assert!(col >= 23, "col {col}");
    assert!(msg.contains("unterminated"), "message: {msg}");
}

#[test]
fn multiline_columns_reset() {
    // The stray `)` is at line 3, col 3.
    let (line, col, _msg) = err_pos("SHOW\nRELATIONS\n  );");
    assert_eq!((line, col), (3, 3));
}

#[test]
fn command_keywords_are_case_insensitive_but_canonicalized() {
    let cmd = parse_command("set precision unbounded;").unwrap();
    assert_eq!(cmd, Command::SetPrecision(None));
    assert_eq!(cmd.to_string(), "SET PRECISION UNBOUNDED;");
    let cmd = parse_command("solve  exists y (S(x, y) and y <= 0) ;").unwrap();
    assert_eq!(cmd.to_string(), "SOLVE exists y (S(x, y) and y <= 0);");
}

#[test]
fn set_precision_errors_point_at_the_budget() {
    for (src, col, what) in [
        ("SET PRECISION 1.5;", 15, "whole number"),
        ("SET PRECISION 99999999999999999999;", 15, "whole number"),
        ("SET PRECISION x;", 15, "UNBOUNDED"),
        ("SET EPSILON 3;", 5, "PRECISION"),
    ] {
        let e = parse_command(src).expect_err(src);
        assert_eq!((e.line, e.col), (1, col), "{src}: {e}");
        assert!(e.message.contains(what), "{src}: {e}");
    }
}

#[test]
fn unknown_first_word_lists_every_command() {
    let e = parse_command("FROB;").unwrap_err();
    assert_eq!((e.line, e.col), (1, 1), "{e}");
    assert!(e.message.starts_with("unknown statement `FROB`"), "{e}");
    assert!(e.message.contains("SELECT, DATALOG"), "{e}");
    assert!(e.message.ends_with("SOLVE, SET, SAVE, or LOAD)"), "{e}");
}

#[test]
fn keyword_case_is_insensitive_but_canonicalized() {
    let stmt = parse_statement("create relation Mixed(a, b);").unwrap();
    assert_eq!(stmt.to_string(), "CREATE RELATION Mixed(a, b);");
}

/// Point rows use the shared number grammar — the one `CONSTRAINT` rows
/// and `SELECT` bodies always had: integers of any size, decimals, and a
/// decimal on either side of `/`.
#[test]
fn point_rows_take_every_number_literal() {
    let stmt = parse_statement("INSERT INTO P VALUES (9223372036854775808, 1.5), (-0.25, 7/2.5);")
        .unwrap();
    let Statement::Insert {
        rows: Rows::Points(points),
        ..
    } = &stmt
    else {
        panic!("wrong variant: {stmt:?}");
    };
    assert_eq!(points[0][0], "9223372036854775808".parse::<Rat>().unwrap());
    assert_eq!(points[0][1], Rat::from_ints(3, 2));
    assert_eq!(
        points[1],
        vec![Rat::from_ints(-1, 4), Rat::from_ints(14, 5)]
    );
    assert_eq!(
        stmt.to_string(),
        "INSERT INTO P VALUES (9223372036854775808, 3/2), (-1/4, 14/5);"
    );
    assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
}
