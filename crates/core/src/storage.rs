//! Text storage format for constraint databases.
//!
//! The format is deliberately human-readable and round-trips through the
//! CALC_F parser (generalized tuples are conjunctions of polynomial
//! constraints, which is exactly the language's quantifier-free fragment):
//!
//! ```text
//! # constraintdb v1
//! relation S(x, y)
//! tuple 4*x^2 - 20*x - y + 25 <= 0
//! end
//! relation P(t)
//! tuple t - 1 = 0
//! tuple t - 2 = 0
//! end
//! ```
//!
//! The format holds extents and variable names only, not definitions: a
//! `define`d view or a materialized Datalog¬ head is written as its current
//! extent, so after [`load`] every relation is a base relation and no
//! update refreshes it.

use crate::facade::{ConstraintDb, DbError};
use cdb_calcf::{CFormula, ParseError, Parser};
use cdb_constraints::{ConstraintRelation, Database};

/// Serialize the database to the text format. Declared variable names are
/// written as-is (and round-trip through [`load`]). A relation the format
/// cannot represent is rejected with [`DbError::Storage`] rather than
/// written to a file [`load`] refuses: a nullary one (it would load back at
/// a different arity), and one whose name or variable names do not read
/// back through the head rule — a keyword such as `not`, a non-ASCII or
/// punctuated name.
pub fn save(db: &ConstraintDb) -> Result<String, DbError> {
    let mut out = String::from("# constraintdb v1\n");
    for (name, rel) in db.raw().iter() {
        if rel.nvars() == 0 {
            return Err(DbError::Storage(format!(
                "relation {name} has arity 0, which the text format cannot represent"
            )));
        }
        let names: Vec<String> = match db.var_names(name) {
            Some(declared) if declared.len() == rel.nvars() => declared.to_vec(),
            _ => (0..rel.nvars()).map(|i| format!("v{i}")).collect(),
        };
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let head = format!("relation {name}({})", names.join(", "));
        if !relation_line(&head).is_ok_and(|(n, vs)| n == name && vs == refs) {
            return Err(DbError::Storage(format!(
                "`{head}` would not load back: relation and variable names must be identifiers"
            )));
        }
        out.push_str(&head);
        out.push('\n');
        for t in rel.tuples() {
            out.push_str("tuple ");
            if t.atoms().is_empty() {
                out.push_str("true");
            } else {
                let parts: Vec<String> = t.atoms().iter().map(|a| a.display_with(&refs)).collect();
                out.push_str(&parts.join(" and "));
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
    Ok(out)
}

/// Parse the text format into a database (using the default engine).
/// Variable names from the relation heads are recorded in the catalog, so
/// save → load → save is byte-identical. Every line is lexed by the shared
/// tokenizer and parsed once: heads through the shared `Name(v, …)` rule
/// ([`Parser::head`]), tuples as CALC_F formulas compiled from their AST. A
/// syntax error, a malformed or a nullary head is a [`DbError::Storage`]
/// with its line and column (the seed implementation loaded `relation X()`
/// at arity 1 and `relation S(x))` with a column named `x)`); a head that
/// repeats a variable is rejected with the facade's [`DbError::Schema`].
pub fn load(text: &str) -> Result<ConstraintDb, DbError> {
    let mut db = ConstraintDb::new();
    // Tuples are quantifier-free over their own head: no stored relation
    // is read while compiling one.
    let scratch = Database::new();
    let mut lines = text
        .lines()
        .zip(1u32..)
        .filter(|(l, _)| !l.trim().is_empty() && !l.trim_start().starts_with('#'));
    let at_line = |number: u32| {
        move |e: ParseError| DbError::Storage(ParseError { line: number, ..e }.to_string())
    };
    while let Some((line, number)) = lines.next() {
        let (name, vars) = relation_line(line).map_err(at_line(number))?;
        ConstraintDb::check_distinct_vars(name, &vars)?;
        let mut rel = ConstraintRelation::empty(vars.len());
        loop {
            let Some((line, number)) = lines.next() else {
                return Err(DbError::Storage(format!("unterminated relation {name}")));
            };
            let Some((tuple, src)) = tuple_line(line).map_err(at_line(number))? else {
                break;
            };
            let tuple_rel = db
                .engine
                .compile_relation_ast(&scratch, &vars, &tuple)
                .map_err(|e| DbError::Storage(format!("in tuple '{src}': {e}")))?;
            rel = rel.union(&tuple_rel.canonicalized());
        }
        db.insert(name, rel)?;
        db.rename_vars(name, &vars)?;
    }
    Ok(db)
}

/// `relation Name(v, …)`, through the shared head rule.
fn relation_line(line: &str) -> Result<(&str, Vec<&str>), ParseError> {
    let mut p = Parser::new(line)?;
    p.keyword("relation")?;
    let head = p.head()?;
    p.finish()?;
    Ok(head)
}

/// `tuple <formula>` → the formula and its text; `end` → `None`.
fn tuple_line(line: &str) -> Result<Option<(CFormula, &str)>, ParseError> {
    let mut p = Parser::new(line)?;
    if p.at_keyword("end") {
        p.advance();
        p.finish()?;
        return Ok(None);
    }
    p.keyword("tuple")?;
    let src = p.rest();
    let tuple = p.formula()?;
    p.finish()?;
    Ok(Some((tuple, src)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_num::Rat;

    #[test]
    fn roundtrip_paper_relation() {
        let mut db = ConstraintDb::new();
        db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
            .unwrap();
        db.insert_points("P", 1, &[vec![Rat::one()], vec!["5/2".parse().unwrap()]])
            .unwrap();
        let text = save(&db).unwrap();
        // Declared names are persisted, not rewritten to v0, v1.
        assert!(text.contains("relation S(x, y)"), "{text}");
        assert!(text.contains("relation P(v0)"), "{text}");
        let back = load(&text).unwrap();
        // Semantics preserved: spot-check membership.
        for (x, y, expect) in [("5/2", "0", true), ("0", "0", false), ("0", "30", true)] {
            let p = [x.parse::<Rat>().unwrap(), y.parse().unwrap()];
            assert_eq!(
                back.relation("S").unwrap().satisfied_at(&p),
                expect,
                "S({x},{y})"
            );
        }
        let pq = back.relation("P").unwrap();
        assert!(pq.satisfied_at(&[Rat::one()]));
        assert!(pq.satisfied_at(&["5/2".parse().unwrap()]));
        assert!(!pq.satisfied_at(&[Rat::zero()]));
    }

    #[test]
    fn rational_coefficients_roundtrip() {
        let mut db = ConstraintDb::new();
        db.define("R", &["t"], "t/2 - 1/3 <= 0").unwrap();
        let text = save(&db).unwrap();
        let back = load(&text).unwrap();
        let r = back.relation("R").unwrap();
        assert!(r.satisfied_at(&["2/3".parse().unwrap()]));
        assert!(!r.satisfied_at(&[Rat::one()]));
    }

    /// Regression (seed bug): `relation X()` used to load silently at
    /// arity 1. Both directions now reject nullary relations with a clear
    /// storage error, so save→load can never drift the schema.
    #[test]
    fn nullary_relations_rejected_both_ways() {
        let err = load("relation X()\nend\n").unwrap_err();
        assert!(
            matches!(&err, DbError::Storage(m) if m.contains("nullary")),
            "{err}"
        );
        // The facade refuses to create arity-0 relations at all, so `save`
        // can only meet one through the raw database; the schema check
        // lives in the facade.
        let mut db = ConstraintDb::new();
        let err = db.insert("X", ConstraintRelation::empty(0)).unwrap_err();
        assert!(matches!(err, DbError::Schema(_)), "{err}");
    }

    /// Declared variable names round-trip: save → load → save is
    /// byte-identical.
    #[test]
    fn var_names_roundtrip_byte_identical() {
        let mut db = ConstraintDb::new();
        db.define("S", &["lat", "lon"], "lat^2 + lon^2 - 1 <= 0")
            .unwrap();
        db.insert_points("Stops", 1, &[vec![Rat::one()]]).unwrap();
        db.rename_vars("Stops", &["t"]).unwrap();
        let text = save(&db).unwrap();
        assert!(text.contains("relation S(lat, lon)"), "{text}");
        assert!(text.contains("relation Stops(t)"), "{text}");
        let back = load(&text).unwrap();
        assert_eq!(
            back.var_names("S").unwrap(),
            &["lat".to_owned(), "lon".to_owned()]
        );
        let text2 = save(&back).unwrap();
        assert_eq!(text, text2, "save → load → save must be byte-identical");
    }

    #[test]
    fn malformed_inputs() {
        assert!(load("relation X(").is_err());
        assert!(load("relation X(a)\ntuple a <= 1").is_err()); // no end
        assert!(load("tuple a <= 1").is_err());
        assert!(load("relation X(a)\nnonsense\nend").is_err());
        // A repeated column name, with and without tuples.
        for text in [
            "relation X(a, a)\ntuple a <= 1\nend",
            "relation X(a, a)\nend",
        ] {
            let err = load(text).unwrap_err();
            assert!(
                matches!(&err, DbError::Schema(m) if m.contains("relation X has repeated variable a")),
                "{err}"
            );
        }
        // Malformed heads are rejected, not loaded (and saved back); every
        // line's syntax error carries its position.
        for (text, line, col) in [
            ("relation S(x))\nend", 1, 14),
            ("relation S(a b)\nend", 1, 14),
            ("relation S(x, )\nend", 1, 15),
            ("# header\n\n relation 1(x)\nend", 3, 11),
            ("relation S(x)\n\ntuple x <= 1 # 2\nend", 3, 14),
            ("relation S(x)\nend x", 2, 5),
        ] {
            let err = load(text).unwrap_err();
            assert!(
                matches!(&err, DbError::Storage(m) if m.starts_with(&format!("line {line}, col {col}:"))),
                "{text:?}: {err}"
            );
        }
        // Empty DB round trip.
        let db = load("# constraintdb v1\n").unwrap();
        assert!(db.schema().is_empty());
    }

    /// `save` refuses a name that `load`'s head rule would reject, so every
    /// file it writes loads back.
    #[test]
    fn unloadable_names_rejected_by_save() {
        for (name, var) in [
            ("not", "x"),
            ("true", "x"),
            ("my-rel", "x"),
            ("Café", "x"),
            ("S", "and"),
            ("S", "a b"),
            ("S", " x"),
        ] {
            let mut db = ConstraintDb::new();
            db.insert_points(name, 1, &[vec![Rat::one()]]).unwrap();
            db.rename_vars(name, &[var]).unwrap();
            let err = save(&db).unwrap_err();
            assert!(
                matches!(&err, DbError::Storage(m) if m.contains("would not load back")),
                "{name}({var}): {err}"
            );
        }
        // Keywords are lowercase: `Not` is an identifier, and so is `end`.
        let mut db = ConstraintDb::new();
        db.insert_points("Not", 1, &[vec![Rat::one()]]).unwrap();
        db.rename_vars("Not", &["end"]).unwrap();
        let text = save(&db).unwrap();
        assert!(text.contains("relation Not(end)"), "{text}");
        assert_eq!(save(&load(&text).unwrap()).unwrap(), text);
    }

    #[test]
    fn empty_relation_roundtrip() {
        let mut db = ConstraintDb::new();
        db.insert("E", ConstraintRelation::empty(2)).unwrap();
        let text = save(&db).unwrap();
        let back = load(&text).unwrap();
        assert_eq!(back.relation("E").unwrap().tuples().len(), 0);
    }
}
