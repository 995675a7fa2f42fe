//! Text syntax for Datalog¬ programs.
//!
//! ```text
//! T(x, y) :- E(x, y).
//! T(x, y) :- T(x, z), E(z, y).
//! Reach(y) :- Reach(x), x <= y, y <= x + 1.
//! Unmarked(x) :- Domain(x), not Marked(x).
//! ```
//!
//! A token-driven grammar over `cdb_calcf`'s tokenizer and [`Parser`]:
//!
//! ```text
//! program := rule*
//! rule    := head (":-" literal ("," literal)*)? "."
//! literal := conjunction                       -- CALC_F's `and` level
//! ```
//!
//! Each literal is parsed once and classified from its AST: `R(v, …)`,
//! `not R(v, …)`, or a relation-free constraint compiled from that AST.
//! Variables are scoped per rule, in first-appearance order: head, then
//! relation atoms, then constraints.

use crate::facade::DbError;
use cdb_calcf::{CFormula, CalcFEngine, CalcFError, ParseError, Parser, Token};
use cdb_constraints::Database;
use cdb_datalog::{Literal, Program, Rule};

/// Parse a Datalog¬ program from text. Syntax errors are
/// [`CalcFError::Parse`] with their line and column.
pub fn parse_program(src: &str) -> Result<Program, DbError> {
    let syntax = |e: ParseError| DbError::CalcF(CalcFError::Parse(e));
    let mut p = Parser::new(src).map_err(syntax)?;
    let engine = CalcFEngine::default();
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(RuleSyntax::parse(&mut p).map_err(syntax)?.build(&engine)?);
    }
    Ok(Program { rules })
}

/// One rule as written: its head, and each body literal with its source
/// text (for error messages).
struct RuleSyntax<'a> {
    head: &'a str,
    head_vars: Vec<&'a str>,
    body: Vec<(CFormula, &'a str)>,
}

/// `R(v, …)` or `not R(v, …)`: (negated, name, arguments).
fn relation_literal(literal: &CFormula) -> Option<(bool, &str, &[String])> {
    match literal {
        CFormula::Rel(name, args) => Some((false, name, args)),
        CFormula::Not(inner) => match inner.as_ref() {
            CFormula::Rel(name, args) => Some((true, name, args)),
            _ => None,
        },
        _ => None,
    }
}

impl<'a> RuleSyntax<'a> {
    fn parse(p: &mut Parser<'a>) -> Result<RuleSyntax<'a>, ParseError> {
        let (head, head_vars) = p.head()?;
        let mut body = Vec::new();
        if p.eat(Token::ColonDash) {
            loop {
                let from = p.mark();
                let literal = p.conjunction()?;
                body.push((literal, p.text(from, p.mark())));
                if !p.eat(Token::Comma) {
                    break;
                }
            }
        }
        p.require(Token::Dot)?;
        Ok(RuleSyntax {
            head,
            head_vars,
            body,
        })
    }

    fn build(self, engine: &CalcFEngine) -> Result<Rule, DbError> {
        // Variable table: head, relation-atom arguments, then constraint
        // variables, so the ring is known before constraints compile.
        let mut vars: Vec<String> = Vec::new();
        let mut var_index = |name: &str| match vars.iter().position(|v| v == name) {
            Some(i) => i,
            None => {
                vars.push(name.to_owned());
                vars.len() - 1
            }
        };
        let head_idx: Vec<usize> = self.head_vars.iter().map(|v| var_index(v)).collect();
        let relations: Vec<Option<Literal>> = self
            .body
            .iter()
            .map(|(literal, _)| {
                relation_literal(literal).map(|(negated, name, args)| {
                    let idx = args.iter().map(|a| var_index(a)).collect();
                    if negated {
                        Literal::NegRel(name.to_owned(), idx)
                    } else {
                        Literal::Rel(name.to_owned(), idx)
                    }
                })
            })
            .collect();
        for ((literal, _), relation) in self.body.iter().zip(&relations) {
            if relation.is_none() {
                for v in literal.free_vars() {
                    var_index(&v);
                }
            }
        }
        let nvars = vars.len().max(1);
        let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        let scratch = Database::new();
        let mut body = Vec::new();
        for ((literal, text), relation) in self.body.iter().zip(relations) {
            if let Some(relation) = relation {
                body.push(relation);
                continue;
            }
            // Compile over the full rule ring; a conjunction of atoms comes
            // back as a single generalized tuple.
            let rel = engine
                .compile_relation_ast(&scratch, &refs, literal)
                .map_err(|e| DbError::Storage(format!("in constraint '{text}': {e}")))?;
            let [tuple] = rel.tuples() else {
                return Err(DbError::Storage(format!(
                    "constraint '{text}' must be a conjunction (one tuple), got {}",
                    rel.tuples().len()
                )));
            };
            body.extend(tuple.atoms().iter().cloned().map(Literal::Constraint));
        }
        Rule::new(self.head, head_idx, body, nvars).map_err(|e| DbError::Storage(e.to_string()))
    }
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

    /// `not` is a token, not a string prefix: every spelling of a negated
    /// atom is the same literal.
    #[test]
    fn negation_spellings_agree() {
        let want = format!("{:?}", parse_program("B(x) :- D(x), not P(x).").unwrap());
        assert!(want.contains("NegRel(\"P\""), "{want}");
        for spelling in [
            "B(x) :- D(x), not(P(x)).",
            "B(x) :- D(x), not\tP(x).",
            "B(x) :- D(x),\n  not -- negated\n  P(x).",
        ] {
            let got = format!("{:?}", parse_program(spelling).unwrap());
            assert_eq!(got, want, "{spelling:?}");
        }
    }

    /// Syntax errors are parse errors positioned in the program text.
    #[test]
    fn syntax_errors_carry_positions() {
        for (src, at) in [
            ("T(x) :- x <=.", "line 1, col 13"),
            ("T(x) :- E(x)\nT(y) :- E(y).", "line 2, col 1"),
            ("T(x) :- E(x),, F(x).", "line 1, col 14"),
            ("T(x) :- E(x) # F(x).", "line 1, col 14"),
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(
                matches!(err, DbError::CalcF(CalcFError::Parse(_)))
                    && err.to_string().starts_with(&format!("parse error: {at}:")),
                "{src:?}: {err}"
            );
        }
    }

    #[test]
    fn malformed_rules_rejected() {
        assert!(parse_program("T(x y) :- E(x, y).").is_err());
        assert!(parse_program(":- E(x, y).").is_err());
        assert!(parse_program("T(x) :- x <=.").is_err());
    }
}
