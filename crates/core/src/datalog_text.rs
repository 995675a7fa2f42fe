//! Text syntax for Datalog¬ programs.
//!
//! ```text
//! T(x, y) :- E(x, y).
//! T(x, y) :- T(x, z), E(z, y).
//! Reach(y) :- Reach(x), x <= y, y <= x + 1.
//! Unmarked(x) :- Domain(x), not Marked(x).
//! ```
//!
//! Body literals are positive/negated relation atoms or polynomial
//! constraints (compiled through the CALC_F term grammar). Variables are
//! scoped per rule, in first-appearance order.

use crate::facade::DbError;
use cdb_calcf::CalcFEngine;
use cdb_constraints::Database;
use cdb_datalog::{Literal, Program, Rule};

/// Parse a Datalog¬ program from text. Rules are terminated by `.` (a `.`
/// between two digits is a decimal point); `--` starts a comment to end
/// of line.
pub fn parse_program(src: &str) -> Result<Program, DbError> {
    let cleaned: String = src
        .lines()
        .map(|l| match l.find("--") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut rules = Vec::new();
    for rule_src in split_rules(&cleaned) {
        let rule_src = rule_src.trim();
        if rule_src.is_empty() {
            continue;
        }
        rules.push(parse_rule(rule_src)?);
    }
    Ok(Program { rules })
}

/// Split on every `.` that is not a decimal point (one with an ASCII digit
/// on both sides, as in `x <= 1.5`).
fn split_rules(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut prev_is_digit = false;
    let mut chars = src.char_indices().peekable();
    while let Some((i, ch)) = chars.next() {
        let decimal_point =
            prev_is_digit && chars.peek().is_some_and(|&(_, next)| next.is_ascii_digit());
        if ch == '.' && !decimal_point {
            out.push(&src[start..i]);
            start = i + 1;
        }
        prev_is_digit = ch.is_ascii_digit();
    }
    out.push(&src[start..]);
    out
}

fn parse_rule(src: &str) -> Result<Rule, DbError> {
    let (head_src, body_src) = match src.split_once(":-") {
        Some((h, b)) => (h.trim(), b.trim()),
        None => (src.trim(), ""),
    };
    let (head_name, head_vars) = parse_atom_shape(head_src)
        .ok_or_else(|| DbError::Storage(format!("bad rule head: {head_src}")))?;
    // Variable table, head first.
    let mut vars: Vec<String> = Vec::new();
    let var_index = |name: &str, vars: &mut Vec<String>| -> usize {
        if let Some(i) = vars.iter().position(|v| v == name) {
            i
        } else {
            vars.push(name.to_owned());
            vars.len() - 1
        }
    };
    let head_idx: Vec<usize> = head_vars.iter().map(|v| var_index(v, &mut vars)).collect();
    // Pass 1: split body literals and register relation-atom variables so
    // the ring is known before compiling constraints.
    let body_parts = split_literals(body_src);
    #[derive(Debug)]
    enum Raw<'a> {
        Rel(String, Vec<String>),
        NegRel(String, Vec<String>),
        Constraint(&'a str),
    }
    let mut raw = Vec::new();
    for part in &body_parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(rest) = part.strip_prefix("not ") {
            let (name, args) = parse_atom_shape(rest.trim())
                .ok_or_else(|| DbError::Storage(format!("bad negated literal: {part}")))?;
            for a in &args {
                var_index(a, &mut vars);
            }
            raw.push(Raw::NegRel(name, args));
        } else if let Some((name, args)) = parse_atom_shape(part) {
            for a in &args {
                var_index(a, &mut vars);
            }
            raw.push(Raw::Rel(name, args));
        } else {
            raw.push(Raw::Constraint(part));
        }
    }
    // Constraints may introduce further variables: collect them by parsing.
    for part in &raw {
        if let Raw::Constraint(src) = part {
            let ast = cdb_calcf::parse_formula(src)
                .map_err(|e| DbError::Storage(format!("in constraint '{src}': {e}")))?;
            for v in ast.free_vars() {
                var_index(&v, &mut vars);
            }
        }
    }
    let nvars = vars.len().max(1);
    // Pass 2: build literals.
    let engine = CalcFEngine::default();
    let scratch = Database::new();
    let mut body = Vec::new();
    for part in raw {
        match part {
            Raw::Rel(name, args) => {
                let idx = args.iter().map(|a| var_index(a, &mut vars)).collect();
                body.push(Literal::Rel(name, idx));
            }
            Raw::NegRel(name, args) => {
                let idx = args.iter().map(|a| var_index(a, &mut vars)).collect();
                body.push(Literal::NegRel(name, idx));
            }
            Raw::Constraint(src) => {
                // Compile over the full rule ring; a conjunction of atoms
                // comes back as a single generalized tuple.
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                let rel = engine
                    .compile_relation(&scratch, &refs, src)
                    .map_err(|e| DbError::Storage(format!("in constraint '{src}': {e}")))?;
                let tuples = rel.tuples();
                let [tuple] = tuples else {
                    return Err(DbError::Storage(format!(
                        "constraint '{src}' must be a conjunction (one tuple), got {}",
                        tuples.len()
                    )));
                };
                for atom in tuple.atoms() {
                    body.push(Literal::Constraint(atom.clone()));
                }
            }
        }
    }
    Rule::new(head_name, head_idx, body, nvars).map_err(|e| DbError::Storage(e.to_string()))
}

/// Parse `Name(v1, v2, …)`; `None` if the string is not of that shape.
fn parse_atom_shape(src: &str) -> Option<(String, Vec<String>)> {
    let open = src.find('(')?;
    let name = src[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let rest = src[open + 1..].trim().strip_suffix(')')?;
    let args: Vec<String> = rest
        .split(',')
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .collect();
    if args.is_empty()
        || !args
            .iter()
            .all(|a| a.chars().all(|c| c.is_alphanumeric() || c == '_'))
    {
        return None;
    }
    Some((name.to_owned(), args))
}

/// Split on commas at parenthesis depth zero.
fn split_literals(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for ch in src.chars() {
        match ch {
            '(' | '[' | '{' => {
                depth += 1;
                cur.push(ch);
            }
            ')' | ']' | '}' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintDb;
    use cdb_num::Rat;
    use cdb_qe::QeContext;

    /// Regression (panic-surface triage): a textual rule with a repeated
    /// head variable used to panic inside `Rule::new`; it must surface as a
    /// parse-stage error instead.
    #[test]
    fn repeated_head_variable_is_an_error_not_a_panic() {
        let err = parse_program("T(x, x) :- E(x, y).").unwrap_err();
        assert!(err.to_string().contains("repeated head variable"), "{err}");
    }

    #[test]
    fn parse_transitive_closure() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, y) :- T(x, z), E(z, y).",
        )
        .unwrap();
        assert_eq!(program.rules.len(), 2);
        assert_eq!(program.rules[1].nvars, 3);
        assert_eq!(program.rules[1].head_vars, vec![0, 1]);
        // Run it.
        let mut db = ConstraintDb::new();
        db.insert_points(
            "E",
            2,
            &[
                vec![Rat::one(), Rat::from(2i64)],
                vec![Rat::from(2i64), Rat::from(3i64)],
            ],
        )
        .unwrap();
        let ctx = QeContext::exact();
        let (out, _) = program.run(db.raw(), &ctx, 8).unwrap();
        let t = out.get("T").unwrap();
        assert!(t.satisfied_at(&[Rat::one(), Rat::from(3i64)]));
        assert!(!t.satisfied_at(&[Rat::from(3i64), Rat::one()]));
    }

    #[test]
    fn parse_constraints_and_negation() {
        let program = parse_program(
            "-- reachability with a step bound\n\
             R(x) :- Start(x).\n\
             R(y) :- R(x), x <= y, y <= x + 1, y <= 3.\n\
             Off(x) :- Dom(x), not R(x).\n\
             Frac(x) :- Dom(x), x <= 3/2.\n\
             Dec(x) :- Dom(x), x <= 1.5.",
        )
        .unwrap();
        assert_eq!(program.rules.len(), 5);
        let mut db = ConstraintDb::new();
        db.insert_points("Start", 1, &[vec![Rat::zero()]]).unwrap();
        db.insert_points("Dom", 1, &[vec![Rat::one()], vec![Rat::from(5i64)]])
            .unwrap();
        let ctx = QeContext::exact();
        let (out, _) = program.run(db.raw(), &ctx, 16).unwrap();
        let r = out.get("R").unwrap();
        assert!(r.satisfied_at(&[Rat::from(3i64)]));
        assert!(!r.satisfied_at(&["7/2".parse().unwrap()]));
        // Inflationary negation evaluates `not R(x)` against the *current*
        // extent at each iteration: at iteration 1, R is still empty, so
        // both domain points enter Off and stay (inflationary = no
        // retraction). Under stratified semantics Off(1) would be false —
        // the paper's Datalog¬ is the inflationary variant.
        let off = out.get("Off").unwrap();
        assert!(off.satisfied_at(&[Rat::one()]));
        assert!(off.satisfied_at(&[Rat::from(5i64)]));
        // A decimal literal's `.` is not a rule terminator: `1.5` and `3/2`
        // are two spellings of one bound.
        let dec = out.get("Dec").unwrap();
        assert!(dec.satisfied_at(&[Rat::one()]));
        assert!(!dec.satisfied_at(&[Rat::from(5i64)]));
        assert_eq!(dec, out.get("Frac").unwrap());
    }

    #[test]
    fn malformed_rules_rejected() {
        assert!(parse_program("T(x y) :- E(x, y).").is_err());
        assert!(parse_program(":- E(x, y).").is_err());
        assert!(parse_program("T(x) :- x <=.").is_err());
    }
}
