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

use crate::facade::{ConstraintDb, DbError};
use cdb_constraints::ConstraintRelation;

/// Serialize the database to the text format. Declared variable names are
/// written as-is (and round-trip through [`load`]); a nullary relation is
/// rejected with [`DbError::Storage`] — the format cannot represent one,
/// and silently writing it would load back at a different arity.
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
        out.push_str(&format!("relation {name}({})\n", names.join(", ")));
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
/// save → load → save is byte-identical. A nullary head `relation X()` is
/// rejected with [`DbError::Storage`] (the seed implementation silently
/// loaded it at arity 1 — schema drift); a head that repeats a variable
/// is rejected with the facade's [`DbError::Schema`].
pub fn load(text: &str) -> Result<ConstraintDb, DbError> {
    let mut db = ConstraintDb::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(head) = line.strip_prefix("relation ") else {
            return Err(DbError::Storage(format!(
                "expected 'relation', got: {line}"
            )));
        };
        let (name, vars) = parse_relation_head(head)?;
        let mut tuples_src: Vec<String> = Vec::new();
        loop {
            match lines.next().map(str::trim) {
                Some("end") => break,
                Some(t) if t.starts_with("tuple ") => {
                    tuples_src.push(t["tuple ".len()..].to_owned());
                }
                Some(other) => {
                    return Err(DbError::Storage(format!(
                        "expected 'tuple' or 'end', got: {other}"
                    )))
                }
                None => return Err(DbError::Storage(format!("unterminated relation {name}"))),
            }
        }
        if vars.is_empty() {
            return Err(DbError::Storage(format!(
                "relation {name} has no variables; nullary relations are not supported"
            )));
        }
        let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        ConstraintDb::check_distinct_vars(&name, &refs)?;
        let mut rel = ConstraintRelation::empty(vars.len());
        for src in &tuples_src {
            let tuple_rel = db
                .query_compile(&refs, src)
                .map_err(|e| DbError::Storage(format!("in tuple '{src}': {e}")))?;
            rel = rel.union(&tuple_rel);
        }
        db.insert(&name, rel)?;
        db.rename_vars(&name, &refs)?;
    }
    Ok(db)
}

impl ConstraintDb {
    /// Compile a quantifier-free source fragment over named variables
    /// (storage helper; uses the engine but not the stored relations).
    fn query_compile(&self, vars: &[&str], src: &str) -> Result<ConstraintRelation, DbError> {
        let mut scratch = ConstraintDb::new();
        scratch.define("__tmp", vars, src)?;
        scratch
            .remove("__tmp")
            .ok_or_else(|| DbError::Storage("scratch relation vanished after define".to_owned()))
    }
}

fn parse_relation_head(head: &str) -> Result<(String, Vec<String>), DbError> {
    let Some(open) = head.find('(') else {
        return Err(DbError::Storage(format!("missing '(' in: {head}")));
    };
    let name = head[..open].trim().to_owned();
    let Some(rest) = head[open + 1..].strip_suffix(')') else {
        return Err(DbError::Storage(format!("missing ')' in: {head}")));
    };
    let vars: Vec<String> = rest
        .split(',')
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .collect();
    if name.is_empty() {
        return Err(DbError::Storage(format!("empty relation name in: {head}")));
    }
    Ok((name, vars))
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
        // Empty DB round trip.
        let db = load("# constraintdb v1\n").unwrap();
        assert!(db.schema().is_empty());
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
