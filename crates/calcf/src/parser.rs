//! Recursive-descent parser for CALC_F, and the token cursor every other
//! front end of the language family parses with.
//!
//! Grammar (precedence ascending):
//!
//! ```text
//! formula   := or
//! or        := and ("or" and)*
//! and       := unary ("and" unary)*                 -- Parser::conjunction
//! unary     := "not" unary | quantifier | primary
//! quantifier:= ("exists" | "forall") IDENT unary
//! primary   := "(" formula ")" | "true" | "false" | atom
//! atom      := term (("="|"!="|"<"|"<="|">"|">=") term)?   -- must compare
//!            | head
//! head      := IDENT "(" IDENT ("," IDENT)* ")"      -- Parser::head
//! term      := sum;  sum := product (("+"|"-") product)*
//! product   := factor (("*"|"/") factor)*
//! factor    := "-" factor | power
//! power     := atom_term ("^" NAT)?
//! atom_term := NUMBER | IDENT | IDENT "(" term ")"      -- analytic fn
//!            | AGG "[" vars "]" "{" formula "}" | "(" term ")"
//! number    := "-"? NUMBER ("/" NUMBER)?               -- Parser::number
//! ```
//!
//! An identifier followed by `(` is a relation symbol inside formulas and
//! an analytic function inside terms; aggregates are recognized by name.
//! A `(` in formula position opens a term when an operator follows its
//! matching `)` (`(x - 1)^2 <= 4`), and a parenthesized formula otherwise.
//!
//! The statement and command parser (`cdb-server`), the Datalog¬ rule
//! parser and the storage format drive the same [`Parser`]: its `head` rule
//! is their `Name(v, …)`, its `conjunction` their constraint, its
//! `number` their literal, and [`Parser::text`] slices raw source by span.
//!
//! The descent recurses once per nested construct (parentheses, `not`,
//! quantifier, unary minus, function argument, aggregate body), so input
//! text controls the stack depth; `MAX_NESTING` bounds it and deeper
//! input is a [`ParseError`], not a stack overflow.

use crate::ast::{CFormula, CTerm};
use crate::lexer::{tokenize, Spanned, Token};
use cdb_agg::Aggregate;
use cdb_approx::AnalyticFn;
use cdb_constraints::RelOp;
use cdb_num::Rat;

pub use crate::lexer::ParseError;

/// How many constructs may be open at once (parentheses, `not`,
/// quantifiers, unary minus, function arguments, aggregate bodies, counted
/// together). A level costs a few KiB of stack here and in the passes that
/// later walk the tree, so this keeps a hostile statement far inside a
/// 2 MiB thread stack while no hand-written query comes near it.
const MAX_NESTING: usize = 256;

/// Parse a CALC_F formula from source text.
pub fn parse_formula(src: &str) -> Result<CFormula, ParseError> {
    let mut p = Parser::new(src)?;
    let f = p.formula()?;
    p.finish()?;
    Ok(f)
}

/// A cursor over the tokens of one source text.
pub struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    /// Constructs currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Tokenize `src` and stand before its first token.
    pub fn new(src: &'a str) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            src,
            tokens: tokenize(src)?,
            pos: 0,
            depth: 0,
        })
    }

    /// The current token, if any.
    #[must_use]
    pub fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|t| t.token)
    }

    /// Step past the current token (none at end of input).
    pub fn advance(&mut self) {
        self.pos = (self.pos + 1).min(self.tokens.len());
    }

    /// Whether every token has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.tokens.len()
    }

    /// Index of the current token (a mark for [`Parser::text`]).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// The source text of tokens `from..to` (marks), verbatim — interior
    /// whitespace and comments included, none at either end.
    #[must_use]
    pub fn text(&self, from: usize, to: usize) -> &'a str {
        match (
            self.tokens.get(from),
            to.checked_sub(1).and_then(|l| self.tokens.get(l)),
        ) {
            (Some(first), Some(last)) if from < to => &self.src[first.start..last.end],
            _ => "",
        }
    }

    /// The source from the current token to the end.
    #[must_use]
    pub fn rest(&self) -> &'a str {
        self.text(self.pos, self.tokens.len())
    }

    /// An error at the current token, or just past the last token at end
    /// of input.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        self.error_at(self.pos, message)
    }

    /// An error at the token marked `at` (see [`Parser::error`]).
    fn error_at(&self, at: usize, message: impl Into<String>) -> ParseError {
        let offset = match self.tokens.get(at) {
            Some(t) => t.start,
            None => self.tokens.last().map_or(0, |t| t.end),
        };
        ParseError::at(self.src, offset, message)
    }

    /// The current token as an error message names it.
    fn found(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of input".to_owned(),
        }
    }

    /// Consume the current token if it is `t`.
    pub fn eat(&mut self, t: Token<'_>) -> bool {
        let hit = self.peek() == Some(t);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consume `t` or fail.
    pub fn require(&mut self, t: Token<'_>) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{t}`, got {}", self.found())))
        }
    }

    /// Fail unless every token has been consumed.
    pub fn finish(&self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.error(format!("unexpected trailing token `{t}`"))),
        }
    }

    /// Consume an identifier.
    pub fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected identifier, got {}", self.found()))),
        }
    }

    /// Whether the current token is the identifier `kw`, in any case.
    #[must_use]
    pub fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the identifier `kw`, in any case, or fail.
    pub fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_keyword(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, got {}", self.found())))
        }
    }

    /// `Name "(" var ("," var)* ")"`: the head of a relation — `CREATE
    /// RELATION`, a Datalog¬ head or body atom, a storage `relation` line,
    /// a CALC_F relation atom.
    pub fn head(&mut self) -> Result<(&'a str, Vec<&'a str>), ParseError> {
        let name = self.ident()?;
        self.require(Token::LParen)?;
        if self.peek() == Some(Token::RParen) {
            return Err(self.error("expected a variable: nullary relations are not supported"));
        }
        let mut vars = vec![self.ident()?];
        while self.eat(Token::Comma) {
            vars.push(self.ident()?);
        }
        self.require(Token::RParen)?;
        Ok((name, vars))
    }

    /// `"-"? NUMBER ("/" NUMBER)?`: an exact rational literal.
    pub fn number(&mut self) -> Result<Rat, ParseError> {
        let negative = self.eat(Token::Minus);
        let mut value = self.unsigned_number()?;
        if self.eat(Token::Slash) {
            let at = self.pos;
            let den = self.unsigned_number()?;
            if den.is_zero() {
                return Err(self.error_at(at, "zero denominator in rational literal"));
            }
            value = &value / &den;
        }
        Ok(if negative { -value } else { value })
    }

    fn unsigned_number(&mut self) -> Result<Rat, ParseError> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let r = n
                    .parse()
                    .map_err(|_| self.error(format!("bad number {n}")))?;
                self.pos += 1;
                Ok(r)
            }
            _ => Err(self.error(format!("expected a number, got {}", self.found()))),
        }
    }

    /// Run `inner` one nesting level down; every recursive arm of the
    /// grammar goes through here.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Parser<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    /// `formula := and ("or" and)*` — also a storage `tuple` line.
    pub fn formula(&mut self) -> Result<CFormula, ParseError> {
        let first = self.conjunction()?;
        if self.peek() != Some(Token::Or) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(Token::Or) {
            parts.push(self.conjunction()?);
        }
        Ok(CFormula::Or(parts))
    }

    /// `and := unary ("and" unary)*` — also a Datalog¬ body literal.
    pub fn conjunction(&mut self) -> Result<CFormula, ParseError> {
        let first = self.unary_formula()?;
        if self.peek() != Some(Token::And) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(Token::And) {
            parts.push(self.unary_formula()?);
        }
        Ok(CFormula::And(parts))
    }

    fn unary_formula(&mut self) -> Result<CFormula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(CFormula::Not(Box::new(self.nested(Parser::unary_formula)?)))
            }
            Some(q @ (Token::Exists | Token::Forall)) => {
                self.pos += 1;
                let v = self.ident()?.to_owned();
                let body = Box::new(self.nested(Parser::unary_formula)?);
                Ok(if q == Token::Exists {
                    CFormula::Exists(v, body)
                } else {
                    CFormula::Forall(v, body)
                })
            }
            Some(Token::True) => {
                self.pos += 1;
                Ok(CFormula::True)
            }
            Some(Token::False) => {
                self.pos += 1;
                Ok(CFormula::False)
            }
            Some(Token::LParen) if !self.group_is_term() => {
                self.pos += 1;
                let f = self.nested(Parser::formula)?;
                self.require(Token::RParen)?;
                Ok(f)
            }
            _ => self.atom(),
        }
    }

    /// Whether the group opened by the `(` at the cursor is followed, past
    /// its matching `)`, by an arithmetic or comparison operator. A term in
    /// formula position must be followed by one (it begins a comparison)
    /// and a formula cannot be, so this decides the group without
    /// backtracking.
    fn group_is_term(&self) -> bool {
        let mut depth = 0usize;
        for (i, t) in self.tokens[self.pos..].iter().enumerate() {
            match t.token {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return self.tokens.get(self.pos + i + 1).is_some_and(|next| {
                            matches!(
                                next.token,
                                Token::Plus
                                    | Token::Minus
                                    | Token::Star
                                    | Token::Slash
                                    | Token::Caret
                                    | Token::Eq
                                    | Token::Ne
                                    | Token::Lt
                                    | Token::Le
                                    | Token::Gt
                                    | Token::Ge
                            )
                        });
                    }
                }
                _ => {}
            }
        }
        false
    }

    fn peek_cmp(&self) -> Option<RelOp> {
        match self.peek()? {
            Token::Eq => Some(RelOp::Eq),
            Token::Ne => Some(RelOp::Ne),
            Token::Lt => Some(RelOp::Lt),
            Token::Le => Some(RelOp::Le),
            Token::Gt => Some(RelOp::Gt),
            Token::Ge => Some(RelOp::Ge),
            _ => None,
        }
    }

    /// `"[" IDENT ("," IDENT)* "]" "{" formula "}"`: an aggregate's
    /// variables and body.
    fn aggregate_body(&mut self) -> Result<(Vec<String>, Box<CFormula>), ParseError> {
        self.require(Token::LBracket)?;
        let mut vars = vec![self.ident()?.to_owned()];
        while self.eat(Token::Comma) {
            vars.push(self.ident()?.to_owned());
        }
        self.require(Token::RBracket)?;
        self.require(Token::LBrace)?;
        let body = self.nested(Parser::formula)?;
        self.require(Token::RBrace)?;
        Ok((vars, Box::new(body)))
    }

    /// Relation atom, EVAL predicate, or term comparison.
    fn atom(&mut self) -> Result<CFormula, ParseError> {
        if let Some(Token::Ident(name)) = self.peek() {
            let next = self.tokens.get(self.pos + 1).map(|t| t.token);
            // EVAL in predicate position: EVAL[vars]{φ} not followed by a
            // comparison operator.
            if next == Some(Token::LBracket) && Aggregate::by_name(name) == Some(Aggregate::Eval) {
                let save = self.pos;
                self.pos += 1;
                let (vars, body) = self.aggregate_body()?;
                if self.peek_cmp().is_none() {
                    return Ok(CFormula::EvalPred(vars, body));
                }
                self.pos = save;
            }
            // Relation atom: a name that is not an analytic function or
            // aggregate, followed by `(`, can be nothing else (no term
            // continues a variable with `(`).
            if next == Some(Token::LParen)
                && AnalyticFn::by_name(name).is_none()
                && Aggregate::by_name(name).is_none()
            {
                let (name, args) = self.head()?;
                return Ok(CFormula::Rel(
                    name.to_owned(),
                    args.into_iter().map(str::to_owned).collect(),
                ));
            }
        }
        let lhs = self.term()?;
        let Some(op) = self.peek_cmp() else {
            return Err(self.error(format!(
                "expected comparison operator after term, got {}",
                self.found()
            )));
        };
        self.pos += 1;
        let rhs = self.term()?;
        Ok(CFormula::Cmp(lhs, op, rhs))
    }

    fn term(&mut self) -> Result<CTerm, ParseError> {
        let mut acc = self.product()?;
        loop {
            if self.eat(Token::Plus) {
                acc = CTerm::Add(Box::new(acc), Box::new(self.product()?));
            } else if self.eat(Token::Minus) {
                acc = CTerm::Sub(Box::new(acc), Box::new(self.product()?));
            } else {
                return Ok(acc);
            }
        }
    }

    fn product(&mut self) -> Result<CTerm, ParseError> {
        let mut acc = self.factor()?;
        loop {
            if self.eat(Token::Star) {
                acc = CTerm::Mul(Box::new(acc), Box::new(self.factor()?));
            } else if self.eat(Token::Slash) {
                // Only division by a constant is polynomial.
                let at = self.pos;
                let CTerm::Const(c) = self.factor()? else {
                    return Err(self.error_at(at, "division only by rational constants"));
                };
                if c.is_zero() {
                    return Err(self.error_at(at, "division by zero"));
                }
                acc = CTerm::Mul(Box::new(acc), Box::new(CTerm::Const(c.recip())));
            } else {
                return Ok(acc);
            }
        }
    }

    fn factor(&mut self) -> Result<CTerm, ParseError> {
        if self.eat(Token::Minus) {
            return Ok(CTerm::Neg(Box::new(self.nested(Parser::factor)?)));
        }
        self.power()
    }

    fn power(&mut self) -> Result<CTerm, ParseError> {
        let mut base = self.atom_term()?;
        // Left-associative chains: a^2^3 = (a^2)^3 (matching Display of
        // nested Pow nodes).
        while self.eat(Token::Caret) {
            let e = match self.peek() {
                Some(Token::Number(n)) => n.parse::<u32>().ok(),
                _ => None,
            };
            let Some(e) = e else {
                return Err(self.error(format!("expected natural exponent, got {}", self.found())));
            };
            self.pos += 1;
            base = CTerm::Pow(Box::new(base), e);
        }
        Ok(base)
    }

    fn atom_term(&mut self) -> Result<CTerm, ParseError> {
        match self.peek() {
            Some(Token::Number(_)) => Ok(CTerm::Const(self.unsigned_number()?)),
            Some(Token::LParen) => {
                self.pos += 1;
                let t = self.nested(Parser::term)?;
                self.require(Token::RParen)?;
                Ok(t)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                let next = self.peek();
                if next == Some(Token::LBracket) {
                    if let Some(agg) = Aggregate::by_name(name) {
                        let (vars, body) = self.aggregate_body()?;
                        return Ok(CTerm::Agg(agg, vars, body));
                    }
                }
                if next == Some(Token::LParen) {
                    if let Some(f) = AnalyticFn::by_name(name) {
                        self.pos += 1;
                        let arg = self.nested(Parser::term)?;
                        self.require(Token::RParen)?;
                        return Ok(CTerm::Apply(f, Box::new(arg)));
                    }
                }
                Ok(CTerm::Var(name.to_owned()))
            }
            _ => Err(self.error(format!("unexpected {} in term", self.found()))),
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
        // A parenthesized term inside a parenthesized formula.
        let h = parse_formula("((x - 1)^2 + (y)^2 <= 4 and (x >= 0))").unwrap();
        let CFormula::And(parts) = &h else {
            panic!("{h}")
        };
        assert!(matches!(
            &parts[0],
            CFormula::Cmp(CTerm::Add(..), RelOp::Le, _)
        ));
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

    /// Syntax errors carry the position of the offending token.
    #[test]
    fn errors_have_positions() {
        let err = parse_formula("x <= 1 and\n  y <= / 2").unwrap_err();
        assert_eq!((err.line, err.col), (2, 8), "{err}");
        let err = parse_formula("x / y <= 1").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5), "{err}");
        let err = parse_formula("x <=").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5), "{err}");
        assert!(err.message.contains("end of input"), "{err}");
        // Inside a parenthesized formula the formula's own error surfaces.
        let err = parse_formula("(x <= 1 and y <= )").unwrap_err();
        assert_eq!((err.line, err.col), (1, 18), "{err}");
    }

    #[test]
    fn head_and_number_rules() {
        let mut p = Parser::new("Edge(x, y) -3/4 1.5 2/0").unwrap();
        assert_eq!(p.head().unwrap(), ("Edge", vec!["x", "y"]));
        assert_eq!(p.number().unwrap(), Rat::from_ints(-3, 4));
        assert_eq!(p.number().unwrap(), Rat::from_ints(3, 2));
        let err = p.number().unwrap_err();
        assert_eq!((err.col, err.message.contains("denominator")), (23, true));
        for bad in ["S()", "S(x))", "S(a b)", "S(x, )", "S(x"] {
            let mut p = Parser::new(bad).unwrap();
            assert!(p.head().and_then(|_| p.finish()).is_err(), "{bad}");
        }
        assert!(Parser::new("S()")
            .unwrap()
            .head()
            .unwrap_err()
            .message
            .contains("nullary"));
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
