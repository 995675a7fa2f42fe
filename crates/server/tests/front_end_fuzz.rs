//! No-panic fuzzing of every text front end (ROADMAP 7(c)). Token soups
//! over the shared alphabet and arbitrary strings go into `parse_statement`,
//! `parse_command`, `parse_commands`, `parse_formula`, `parse_program` and
//! `storage::load`: each call returns
//! `Ok` or `Err`, never panics, and every `ParseError` points inside its
//! input or one column past its last token.

use cdb_calcf::{parse_formula, CalcFError, ParseError};
use cdb_server::{parse_command, parse_commands, parse_statement};
use constraintdb::{parse_program, storage, DbError};
use proptest::prelude::*;

/// The shared alphabet: statement, command, storage and formula keywords, function
/// and aggregate names, identifiers, numbers, every punctuation token
/// (brackets drawn one at a time, so soups are unbalanced), comments and
/// line breaks.
const WORDS: &[&str] = &[
    "SELECT",
    "select",
    "CREATE",
    "RELATION",
    "AS",
    "INSERT",
    "INTO",
    "VALUES",
    "CONSTRAINT",
    "DELETE",
    "FROM",
    "DATALOG",
    "SHOW",
    "RELATIONS",
    "DROP",
    "SOLVE",
    "SET",
    "PRECISION",
    "UNBOUNDED",
    "SAVE",
    "LOAD",
    "relation",
    "tuple",
    "end",
    "and",
    "or",
    "not",
    "exists",
    "forall",
    "true",
    "false",
    "sin",
    "MIN",
    "EVAL",
    "x",
    "y",
    "S",
    "P",
    "E",
    "T",
    "0",
    "1",
    "2",
    "3",
    "1.5",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ".",
    ":-",
    ":=",
    "+",
    "-",
    "*",
    "/",
    "^",
    "=",
    "!=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "-- note",
    "\n",
];

/// Words joined by a space, a tab, a newline or nothing (which glues
/// neighbours into new tokens: `x` `1` is `x1`, `-` `-` a comment).
fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..WORDS.len(), 0usize..4), 0..24).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(w, sep)| format!("{}{}", WORDS[w], [" ", "", "\t", "\n"][sep]))
            .collect()
    })
}

/// Well-formed pieces of each grammar, mostly formula atoms (polynomial
/// only, so whatever compiles stays cheap to evaluate).
const FRAGMENTS: &[&str] = &[
    "x <= 1",
    "S(x, y)",
    "(x + 1)^2 = y",
    "not P(x)",
    "not(E(x, y))",
    "exists y x >= y",
    "forall x (x^2 >= 0)",
    "z = MIN[x]{ P(x) }",
    "EVAL[x]{ x = 1 }",
    "x - -1 > 0",
    "1.5 * y >= x / 3",
    "true",
    "(x <= 2 or y > 1)",
    "(",
    ")",
    "T(x) :- E(x)",
    "INSERT INTO P VALUES (1, -3/4)",
    "CREATE RELATION R(x, y)",
];

/// Fragments joined by connectives, commas, terminators or a stray word.
fn fragments() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..FRAGMENTS.len(), 0..WORDS.len(), 0usize..11), 1..6).prop_map(
        |parts| {
            let mut out = String::new();
            for (i, (f, w, glue)) in parts.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(match glue {
                        0..=4 => " and ",
                        5 => " or ",
                        6 => ", ",
                        7 => ". ",
                        8 => "; ",
                        9 => WORDS[w],
                        _ => " ",
                    });
                }
                out.push_str(FRAGMENTS[f]);
            }
            out
        },
    )
}

/// Mostly printable ASCII, some of it any Unicode scalar.
fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..48).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| match c % 4 {
                0 => char::from_u32(c % 0x11_0000),
                _ => char::from_u32(32 + c % 96).map(|ch| if ch == '\x7f' { '\n' } else { ch }),
            })
            .collect()
    })
}

/// Some input: a soup, arbitrary text, fragments, or a soup inside each
/// grammar's frame so the deeper rules are reached too.
fn input() -> impl Strategy<Value = String> {
    prop_oneof![
        soup(),
        arbitrary_text(),
        fragments(),
        fragments().prop_map(|s| format!("SELECT {s};")),
        fragments().prop_map(|s| format!("T(x, y) :- {s}.")),
        fragments().prop_map(|s| format!("relation S(x, y)\ntuple {s}\nend\n")),
        soup().prop_map(|s| format!("SELECT {s};")),
        fragments().prop_map(|s| format!("SOLVE {s};")),
        soup().prop_map(|s| format!("SET PRECISION {s};")),
        soup().prop_map(|s| format!("T(x) :- {s}.")),
        soup().prop_map(|s| format!("relation S(x, y)\ntuple {s}\nend\n")),
    ]
}

/// `(line, col)` lies inside `src`, or one column past the end of a line.
fn check_position(src: &str, line: u32, col: u32, what: &str) -> TestCaseResult {
    let lines: Vec<&str> = src.split('\n').collect();
    let width = (line as usize)
        .checked_sub(1)
        .and_then(|i| lines.get(i))
        .map(|l| l.chars().count());
    prop_assert!(
        width.is_some_and(|w| col >= 1 && col as usize <= w + 1),
        "{what}: position {line}:{col} outside {src:?}"
    );
    Ok(())
}

fn check_parse_error(src: &str, e: &ParseError, what: &str) -> TestCaseResult {
    check_position(src, e.line, e.col, &format!("{what}: {e}"))
}

/// The position a storage error reports against the whole file, if any.
fn storage_position(message: &str) -> Option<(u32, u32)> {
    let rest = message.strip_prefix("line ")?;
    let (line, rest) = rest.split_once(", col ")?;
    let (col, _) = rest.split_once(':')?;
    Some((line.parse().ok()?, col.parse().ok()?))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn statements_never_panic(src in input()) {
        if let Err(e) = parse_statement(&src) {
            check_parse_error(&src, &e, "parse_statement")?;
        }
    }

    #[test]
    fn commands_never_panic(src in input()) {
        if let Err(e) = parse_command(&src) {
            check_parse_error(&src, &e, "parse_command")?;
        }
        if let Err(e) = parse_commands(&src) {
            check_parse_error(&src, &e, "parse_commands")?;
        }
    }

    #[test]
    fn formulas_never_panic(src in input()) {
        if let Err(e) = parse_formula(&src) {
            check_parse_error(&src, &e, "parse_formula")?;
        }
    }

    #[test]
    fn programs_never_panic(src in input()) {
        if let Err(DbError::CalcF(CalcFError::Parse(e))) = parse_program(&src) {
            check_parse_error(&src, &e, "parse_program")?;
        }
    }

    #[test]
    fn storage_never_panics(src in input()) {
        if let Err(DbError::Storage(m)) = storage::load(&src) {
            if let Some((line, col)) = storage_position(&m) {
                check_position(&src, line, col, &format!("storage::load: {m}"))?;
            }
        }
    }
}
