//! Recursive-descent / Pratt parser for CALC_F.
//!
//! Grammar (precedence ascending):
//!
//! ```text
//! formula   := or
//! or        := and ("or" and)*
//! and       := unary ("and" unary)*
//! unary     := "not" unary | quantifier | primary
//! quantifier:= ("exists" | "forall") IDENT unary
//! primary   := "(" formula ")" | "true" | "false" | atom
//! atom      := term (("="|"!="|"<"|"<="|">"|">=") term)?   -- must compare
//!            | REL "(" vars ")"
//! term      := sum;  sum := product (("+"|"-") product)*
//! product   := factor (("*"|"/") factor)*
//! factor    := "-" factor | power
//! power     := atom_term ("^" NAT)?
//! atom_term := NUMBER | IDENT | IDENT "(" term ")"      -- analytic fn
//!            | AGG "[" vars "]" "{" formula "}" | "(" term ")"
//! ```
//!
//! An identifier followed by `(` is a relation symbol inside formulas and
//! an analytic function inside terms; aggregates are recognized by name.
//!
//! The descent recurses once per nested construct (parentheses, `not`,
//! quantifier, unary minus, function argument, aggregate body), so input
//! text controls the stack depth; [`MAX_NESTING`] bounds it and deeper
//! input is a [`ParseError`], not a stack overflow.

use crate::ast::{CFormula, CTerm};
use crate::lexer::{tokenize, LexError, Token};
use cdb_agg::Aggregate;
use cdb_approx::AnalyticFn;
use cdb_constraints::RelOp;
use cdb_num::Rat;
use std::fmt;

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// How many constructs may be open at once (parentheses, `not`,
/// quantifiers, unary minus, function arguments, aggregate bodies, counted
/// together). A level costs a few KiB of stack here and in the passes that
/// later walk the tree, so this keeps a hostile statement far inside a
/// 2 MiB thread stack while no hand-written query comes near it.
const MAX_NESTING: usize = 256;

/// Parse a CALC_F formula from source text.
pub fn parse_formula(src: &str) -> Result<CFormula, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("unexpected trailing token: {}", p.tokens[p.pos]),
        });
    }
    Ok(f)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Constructs currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Run `inner` one nesting level down; every recursive arm of the
    /// grammar goes through here.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_NESTING} levels"),
            });
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(ref got) if got == t => Ok(()),
            Some(got) => Err(ParseError {
                message: format!("expected {t}, got {got}"),
            }),
            None => Err(ParseError {
                message: format!("expected {t}, got end of input"),
            }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(got) => Err(ParseError {
                message: format!("expected identifier, got {got}"),
            }),
            None => Err(ParseError {
                message: "expected identifier, got end of input".into(),
            }),
        }
    }

    fn formula(&mut self) -> Result<CFormula, ParseError> {
        let mut parts = vec![self.and_formula()?];
        while self.peek() == Some(&Token::Or) {
            self.next();
            parts.push(self.and_formula()?);
        }
        Ok(match parts.pop() {
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                CFormula::Or(parts)
            }
            None => CFormula::Or(parts),
        })
    }

    fn and_formula(&mut self) -> Result<CFormula, ParseError> {
        let mut parts = vec![self.unary_formula()?];
        while self.peek() == Some(&Token::And) {
            self.next();
            parts.push(self.unary_formula()?);
        }
        Ok(match parts.pop() {
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                CFormula::And(parts)
            }
            None => CFormula::And(parts),
        })
    }

    fn unary_formula(&mut self) -> Result<CFormula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.next();
                Ok(CFormula::Not(Box::new(self.nested(Parser::unary_formula)?)))
            }
            Some(Token::Exists) => {
                self.next();
                let v = self.ident()?;
                Ok(CFormula::Exists(
                    v,
                    Box::new(self.nested(Parser::unary_formula)?),
                ))
            }
            Some(Token::Forall) => {
                self.next();
                let v = self.ident()?;
                Ok(CFormula::Forall(
                    v,
                    Box::new(self.nested(Parser::unary_formula)?),
                ))
            }
            Some(Token::True) => {
                self.next();
                Ok(CFormula::True)
            }
            Some(Token::False) => {
                self.next();
                Ok(CFormula::False)
            }
            Some(Token::LParen) => {
                // Could be a parenthesized formula OR a parenthesized term
                // beginning an atom; try formula first with backtracking.
                let save = self.pos;
                self.next();
                if let Ok(f) = self.nested(Parser::formula) {
                    if self.peek() == Some(&Token::RParen) {
                        self.next();
                        // If a comparison operator follows, it was a term.
                        if self.peek_cmp().is_none() {
                            return Ok(f);
                        }
                    }
                }
                self.pos = save;
                self.atom()
            }
            _ => self.atom(),
        }
    }

    fn peek_cmp(&self) -> Option<RelOp> {
        match self.peek() {
            Some(Token::Eq) => Some(RelOp::Eq),
            Some(Token::Ne) => Some(RelOp::Ne),
            Some(Token::Lt) => Some(RelOp::Lt),
            Some(Token::Le) => Some(RelOp::Le),
            Some(Token::Gt) => Some(RelOp::Gt),
            Some(Token::Ge) => Some(RelOp::Ge),
            _ => None,
        }
    }

    /// Relation atom, EVAL predicate, or term comparison.
    fn atom(&mut self) -> Result<CFormula, ParseError> {
        // EVAL in predicate position: EVAL[vars]{φ} not followed by a
        // comparison operator.
        if let Some(Token::Ident(name)) = self.peek() {
            if Aggregate::by_name(name) == Some(Aggregate::Eval)
                && self.tokens.get(self.pos + 1) == Some(&Token::LBracket)
            {
                let save = self.pos;
                self.next(); // EVAL
                self.next(); // [
                let mut vars = vec![self.ident()?];
                while self.peek() == Some(&Token::Comma) {
                    self.next();
                    vars.push(self.ident()?);
                }
                self.expect(&Token::RBracket)?;
                self.expect(&Token::LBrace)?;
                let body = self.nested(Parser::formula)?;
                self.expect(&Token::RBrace)?;
                if self.peek_cmp().is_none() {
                    return Ok(CFormula::EvalPred(vars, Box::new(body)));
                }
                self.pos = save;
            }
        }
        // Relation atom: IDENT ( vars ) not followed by an operator, where
        // IDENT is not an analytic function or aggregate name.
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            let is_fn = AnalyticFn::by_name(&name).is_some() || Aggregate::by_name(&name).is_some();
            if !is_fn && self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                let save = self.pos;
                self.next(); // name
                self.next(); // (
                let mut args = Vec::new();
                let ok = loop {
                    match self.next() {
                        Some(Token::Ident(v)) => args.push(v),
                        _ => break false,
                    }
                    match self.next() {
                        Some(Token::Comma) => {}
                        Some(Token::RParen) => break true,
                        _ => break false,
                    }
                };
                if ok && self.peek_cmp().is_none() {
                    return Ok(CFormula::Rel(name, args));
                }
                self.pos = save;
            }
        }
        let lhs = self.term()?;
        let Some(op) = self.peek_cmp() else {
            return Err(ParseError {
                message: "expected comparison operator after term".into(),
            });
        };
        self.next();
        let rhs = self.term()?;
        Ok(CFormula::Cmp(lhs, op, rhs))
    }

    fn term(&mut self) -> Result<CTerm, ParseError> {
        let mut acc = self.product()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.next();
                    acc = CTerm::Add(Box::new(acc), Box::new(self.product()?));
                }
                Some(Token::Minus) => {
                    self.next();
                    acc = CTerm::Sub(Box::new(acc), Box::new(self.product()?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn product(&mut self) -> Result<CTerm, ParseError> {
        let mut acc = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.next();
                    acc = CTerm::Mul(Box::new(acc), Box::new(self.factor()?));
                }
                Some(Token::Slash) => {
                    // Only division by a constant is polynomial.
                    self.next();
                    let rhs = self.factor()?;
                    let CTerm::Const(c) = rhs else {
                        return Err(ParseError {
                            message: "division only by rational constants".into(),
                        });
                    };
                    if c.is_zero() {
                        return Err(ParseError {
                            message: "division by zero".into(),
                        });
                    }
                    acc = CTerm::Mul(Box::new(acc), Box::new(CTerm::Const(c.recip())));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self) -> Result<CTerm, ParseError> {
        if self.peek() == Some(&Token::Minus) {
            self.next();
            return Ok(CTerm::Neg(Box::new(self.nested(Parser::factor)?)));
        }
        self.power()
    }

    fn power(&mut self) -> Result<CTerm, ParseError> {
        let mut base = self.atom_term()?;
        // Left-associative chains: a^2^3 = (a^2)^3 (matching Display of
        // nested Pow nodes).
        while self.peek() == Some(&Token::Caret) {
            self.next();
            match self.next() {
                Some(Token::Number(n)) if !n.contains('.') => {
                    let e: u32 = n.parse().map_err(|_| ParseError {
                        message: format!("bad exponent {n}"),
                    })?;
                    base = CTerm::Pow(Box::new(base), e);
                }
                other => {
                    return Err(ParseError {
                        message: format!("expected natural exponent, got {other:?}"),
                    })
                }
            }
        }
        Ok(base)
    }

    fn atom_term(&mut self) -> Result<CTerm, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => {
                let r: Rat = n.parse().map_err(|_| ParseError {
                    message: format!("bad number {n}"),
                })?;
                Ok(CTerm::Const(r))
            }
            Some(Token::LParen) => {
                let t = self.nested(Parser::term)?;
                self.expect(&Token::RParen)?;
                Ok(t)
            }
            Some(Token::Ident(name)) => {
                // Aggregate?
                if let Some(agg) = Aggregate::by_name(&name) {
                    if self.peek() == Some(&Token::LBracket) {
                        self.next();
                        let mut vars = vec![self.ident()?];
                        while self.peek() == Some(&Token::Comma) {
                            self.next();
                            vars.push(self.ident()?);
                        }
                        self.expect(&Token::RBracket)?;
                        self.expect(&Token::LBrace)?;
                        let body = self.nested(Parser::formula)?;
                        self.expect(&Token::RBrace)?;
                        return Ok(CTerm::Agg(agg, vars, Box::new(body)));
                    }
                }
                // Analytic function?
                if let Some(f) = AnalyticFn::by_name(&name) {
                    if self.peek() == Some(&Token::LParen) {
                        self.next();
                        let arg = self.nested(Parser::term)?;
                        self.expect(&Token::RParen)?;
                        return Ok(CTerm::Apply(f, Box::new(arg)));
                    }
                }
                Ok(CTerm::Var(name))
            }
            other => Err(ParseError {
                message: format!("unexpected token in term: {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_query_parses() {
        let f = parse_formula("exists y (S(x, y) and y <= 0)").unwrap();
        match &f {
            CFormula::Exists(v, body) => {
                assert_eq!(v, "y");
                match body.as_ref() {
                    CFormula::And(parts) => {
                        assert_eq!(parts.len(), 2);
                        assert!(matches!(&parts[0], CFormula::Rel(name, args)
                            if name == "S" && args == &vec!["x".to_owned(), "y".to_owned()]));
                    }
                    other => panic!("expected and, got {other}"),
                }
            }
            other => panic!("expected exists, got {other}"),
        }
    }

    #[test]
    fn example_51_parses() {
        let f = parse_formula("z = SURFACE[x, y]{ S(x, y) and y <= 9 }").unwrap();
        assert_eq!(f.free_vars(), vec!["z".to_owned()]);
        assert_eq!(f.aggregate_depth(), 1);
    }

    #[test]
    fn polynomial_atom() {
        let f = parse_formula("4*x^2 - y - 20*x + 25 <= 0").unwrap();
        assert!(matches!(f, CFormula::Cmp(_, RelOp::Le, _)));
    }

    #[test]
    fn analytic_functions() {
        let f = parse_formula("sin(x) <= 1/2 and x >= 0").unwrap();
        match &f {
            CFormula::And(parts) => match &parts[0] {
                CFormula::Cmp(CTerm::Apply(g, _), RelOp::Le, _) => {
                    assert_eq!(*g, AnalyticFn::Sin);
                }
                other => panic!("expected sin comparison, got {other}"),
            },
            other => panic!("expected and, got {other}"),
        }
    }

    #[test]
    fn precedence() {
        // 1 + 2*x^2 parses as 1 + (2*(x^2)).
        let f = parse_formula("1 + 2*x^2 = 0").unwrap();
        let CFormula::Cmp(lhs, _, _) = f else {
            panic!()
        };
        assert_eq!(lhs.to_string(), "(1 + (2 * x^2))");
    }

    #[test]
    fn nested_parens_and_quantifiers() {
        let f = parse_formula("forall x (exists y (x < y) or (x = 0))").unwrap();
        assert!(matches!(f, CFormula::Forall(_, _)));
        // Parenthesized comparison of a parenthesized term.
        let g = parse_formula("(x + 1) * 2 <= 4").unwrap();
        assert!(matches!(g, CFormula::Cmp(..)));
    }

    #[test]
    fn division_by_constant_only() {
        assert!(parse_formula("x / 2 <= 1").is_ok());
        assert!(parse_formula("1 / x <= 1").is_err());
        assert!(parse_formula("x / 0 <= 1").is_err());
    }

    /// Regression (panic-surface triage): the single-element `And`/`Or`
    /// folds were rewritten without `pop().expect`; parse shapes must be
    /// unchanged on both the one-element and many-element paths.
    #[test]
    fn single_element_folds_keep_shape() {
        assert!(matches!(
            parse_formula("x <= 1").unwrap(),
            CFormula::Cmp(..)
        ));
        assert!(matches!(
            parse_formula("x <= 1 or x >= 2").unwrap(),
            CFormula::Or(_)
        ));
        assert!(matches!(
            parse_formula("x <= 1 and x >= 0").unwrap(),
            CFormula::And(_)
        ));
    }

    #[test]
    fn error_messages() {
        assert!(parse_formula("exists (x)").is_err());
        assert!(parse_formula("x <=").is_err());
        assert!(parse_formula("x <= 1 garbage").is_err());
        assert!(parse_formula("S(x,) <= 1").is_err());
    }

    /// Each recursive construct parses at [`MAX_NESTING`] levels and is a
    /// typed error one level deeper — and at sizes an unbounded descent
    /// cannot survive (test threads have the 2 MiB a session thread has).
    #[test]
    fn nesting_is_bounded_per_construct() {
        type Wrap = fn(usize) -> String;
        let constructs: [(&str, Wrap, usize); 6] = [
            (
                "formula parens",
                |n| format!("{}x <= 0{}", "(".repeat(n), ")".repeat(n)),
                5_000,
            ),
            (
                "term parens",
                |n| format!("{}x{} <= 0", "(".repeat(n), ")".repeat(n)),
                5_000,
            ),
            ("not", |n| format!("{}x <= 0", "not ".repeat(n)), 10_000),
            (
                "unary minus",
                |n| format!("0 <= {}x", "- ".repeat(n)),
                10_000,
            ),
            (
                "quantifier",
                |n| format!("{}x <= 0", "exists v ".repeat(n)),
                10_000,
            ),
            (
                "function argument",
                |n| format!("{}x{} <= 0", "sin(".repeat(n), ")".repeat(n)),
                5_000,
            ),
        ];
        for (what, wrap, hostile) in constructs {
            assert!(parse_formula(&wrap(MAX_NESTING)).is_ok(), "{what} at limit");
            for n in [MAX_NESTING + 1, hostile] {
                let err = parse_formula(&wrap(n)).expect_err(what);
                assert!(err.message.contains("nesting deeper"), "{what}: {err}");
            }
        }
        // Aggregate bodies count too, and levels of different kinds add up.
        let agg = |n: usize| format!("z = {}0{}", "MIN[v]{ v = ".repeat(n), " }".repeat(n));
        assert!(parse_formula(&agg(MAX_NESTING)).is_ok());
        assert!(parse_formula(&agg(MAX_NESTING + 1)).is_err());
        let mixed = format!("{}(x <= 0)", "not ".repeat(MAX_NESTING));
        assert!(parse_formula(&mixed).is_err());
    }

    #[test]
    fn nested_aggregates() {
        let f = parse_formula("w = MAX[v]{ v = SURFACE[x, y]{ S(x, y) and y <= 9 } or v = 0 }")
            .unwrap();
        assert_eq!(f.aggregate_depth(), 2);
    }

    #[test]
    fn relation_vs_function_disambiguation() {
        // `S(x, y)` is a relation; `sin(x)` is a function; both in one query.
        let f = parse_formula("S(x, y) and sin(x) <= y").unwrap();
        let CFormula::And(parts) = &f else { panic!() };
        assert!(matches!(&parts[0], CFormula::Rel(..)));
        assert!(matches!(&parts[1], CFormula::Cmp(CTerm::Apply(..), _, _)));
    }
}
