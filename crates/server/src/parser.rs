//! Recursive-descent parser for the statement surface, plus the canonical
//! pretty-printer ([`fmt::Display`] on [`Statement`]).
//!
//! Grammar (keywords case-insensitive, statements `;`-terminated):
//!
//! ```text
//! script    := statement*
//! statement := "CREATE" "RELATION" IDENT "(" idents ")" ("AS" raw)? ";"
//!            | "INSERT" "INTO" IDENT rows ";"
//!            | "DELETE" "FROM" IDENT rows ";"
//!            | "SELECT" raw ";"                      -- CALC_F query text
//!            | "DATALOG" "{" raw "}" ";"             -- Datalog¬ program
//!            | "SHOW" "RELATIONS" ";"
//!            | "DROP" "RELATION" IDENT ";"
//! rows      := "VALUES" point ("," point)*
//!            | "CONSTRAINT" raw                      -- CALC_F conjunction
//! point     := "(" number ("," number)* ")"
//! number    := "-"? INT ("/" INT)?
//! ```
//!
//! `raw` spans are captured **verbatim** from the source by byte offset
//! (trimmed), never re-serialized from tokens — embedded CALC_F and
//! Datalog¬ text round-trips exactly, and their own parsers remain the
//! single source of truth for that grammar. The pretty-printer emits the
//! canonical spacing for everything else, so `parse ∘ print ∘ parse`
//! is the identity on parsed statements (property-tested).

use crate::lexer::{lex, Token, TokenKind};
use cdb_num::Rat;
use std::fmt;

/// Parse failure at a precise source position (1-based line/column; the
/// position of the offending token, or of end-of-input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Rows of an `INSERT`/`DELETE`: explicit points, or one generalized tuple
/// given as a CALC_F constraint conjunction over the relation's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rows {
    /// `VALUES (a, b), (c, d)` — finite point rows, exact rationals.
    Points(Vec<Vec<Rat>>),
    /// `CONSTRAINT <calc_f text>` — a constraint row (generalized tuple).
    Constraint(String),
}

/// One parsed statement of the server surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE RELATION name(vars)` with an optional `AS <definition>`
    /// CALC_F body; without one the relation starts empty.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Declared variable names, in column order.
        vars: Vec<String>,
        /// CALC_F definition text, if any.
        definition: Option<String>,
    },
    /// `INSERT INTO name <rows>`.
    Insert {
        /// Target base relation.
        name: String,
        /// What to insert.
        rows: Rows,
    },
    /// `DELETE FROM name <rows>` (syntactic retraction).
    Delete {
        /// Target base relation.
        name: String,
        /// What to retract.
        rows: Rows,
    },
    /// `SELECT <calc_f text>` — a read-only query.
    Select {
        /// CALC_F query text, verbatim.
        query: String,
    },
    /// `DATALOG { <program> }` — run a Datalog¬ program to fixpoint and
    /// materialize its heads.
    Datalog {
        /// Program text, verbatim.
        program: String,
    },
    /// `SHOW RELATIONS` — list the catalog.
    ShowRelations,
    /// `DROP RELATION name`.
    DropRelation {
        /// Relation to remove.
        name: String,
    },
}

impl Statement {
    /// Whether the statement only reads: it evaluates against the session's
    /// snapshot and never takes the master lock.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        matches!(self, Statement::Select { .. } | Statement::ShowRelations)
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateRelation {
                name,
                vars,
                definition,
            } => {
                write!(f, "CREATE RELATION {name}({})", vars.join(", "))?;
                if let Some(d) = definition {
                    write!(f, " AS {d}")?;
                }
                write!(f, ";")
            }
            Statement::Insert { name, rows } => write!(f, "INSERT INTO {name} {rows};"),
            Statement::Delete { name, rows } => write!(f, "DELETE FROM {name} {rows};"),
            Statement::Select { query } => write!(f, "SELECT {query};"),
            Statement::Datalog { program } => write!(f, "DATALOG {{ {program} }};"),
            Statement::ShowRelations => write!(f, "SHOW RELATIONS;"),
            Statement::DropRelation { name } => write!(f, "DROP RELATION {name};"),
        }
    }
}

impl fmt::Display for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rows::Points(points) => {
                write!(f, "VALUES ")?;
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, r) in p.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{r}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Rows::Constraint(text) => write!(f, "CONSTRAINT {text}"),
        }
    }
}

/// Parse one statement (must consume the whole input bar trailing
/// whitespace/comments).
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let mut stmts = parse_script(src)?;
    match (stmts.len(), stmts.pop()) {
        (1, Some(s)) => Ok(s),
        (0, _) => Err(ParseError {
            message: "empty input: expected a statement".to_owned(),
            line: 1,
            col: 1,
        }),
        _ => Err(ParseError {
            message: "expected a single statement, found several".to_owned(),
            line: 1,
            col: 1,
        }),
    }
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(src: &str) -> Result<Vec<Statement>, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        message: format!("unexpected character `{}`", e.ch),
        line: e.line,
        col: e.col,
    })?;
    let mut p = Parser {
        src,
        toks: &toks,
        pos: 0,
    };
    let mut out = Vec::new();
    while p.pos < p.toks.len() {
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    /// Error at the current token (or at end of input, positioned after
    /// the last token).
    fn err_here(&self, message: String) -> ParseError {
        match self.peek() {
            Some(t) => ParseError {
                message,
                line: t.span.line,
                col: t.span.col,
            },
            None => {
                let (line, col) = self
                    .toks
                    .last()
                    .map_or((1, 1), |t| (t.span.line, t.span.col + 1));
                ParseError { message, line, col }
            }
        }
    }

    /// Error at the token with index `pos` (which must exist).
    fn err_at(&self, pos: usize, message: String) -> ParseError {
        match self.toks.get(pos) {
            Some(t) => ParseError {
                message,
                line: t.span.line,
                col: t.span.col,
            },
            None => self.err_here(message),
        }
    }

    /// Consume an identifier in keyword position, matched
    /// case-insensitively.
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => Err(self.err_here(format!("expected `{kw}`, got {}", describe(k)))),
            None => Err(self.err_here(format!("expected `{kw}`, got end of input"))),
        }
    }

    /// Whether the current token is the given keyword (not consumed).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().map(|t| &t.kind),
                 Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(k) => Err(self.err_here(format!("expected identifier, got {}", describe(k)))),
            None => Err(self.err_here("expected identifier, got end of input".to_owned())),
        }
    }

    fn punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Punct(p)) if *p == c => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => Err(self.err_here(format!("expected `{c}`, got {}", describe(k)))),
            None => Err(self.err_here(format!("expected `{c}`, got end of input"))),
        }
    }

    fn at_punct(&self, c: char) -> bool {
        matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let Some(TokenKind::Ident(head)) = self.peek().map(|t| &t.kind) else {
            return Err(self.err_here("expected a statement keyword".to_owned()));
        };
        let head = head.to_ascii_uppercase();
        match head.as_str() {
            "CREATE" => self.create_relation(),
            "INSERT" => self.insert(),
            "DELETE" => self.delete(),
            "SELECT" => self.select(),
            "DATALOG" => self.datalog(),
            "SHOW" => {
                self.keyword("SHOW")?;
                self.keyword("RELATIONS")?;
                self.punct(';')?;
                Ok(Statement::ShowRelations)
            }
            "DROP" => {
                self.keyword("DROP")?;
                self.keyword("RELATION")?;
                let name = self.ident()?;
                self.punct(';')?;
                Ok(Statement::DropRelation { name })
            }
            _ => Err(self.err_here(format!(
                "unknown statement `{head}` (expected CREATE, INSERT, DELETE, SELECT, DATALOG, SHOW, or DROP)"
            ))),
        }
    }

    fn create_relation(&mut self) -> Result<Statement, ParseError> {
        self.keyword("CREATE")?;
        self.keyword("RELATION")?;
        let name = self.ident()?;
        self.punct('(')?;
        let mut vars = vec![self.ident()?];
        while self.at_punct(',') {
            self.pos += 1;
            vars.push(self.ident()?);
        }
        self.punct(')')?;
        let definition = if self.at_keyword("AS") {
            self.pos += 1;
            Some(self.raw_until_semi("CALC_F definition")?)
        } else {
            None
        };
        self.punct(';')?;
        Ok(Statement::CreateRelation {
            name,
            vars,
            definition,
        })
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.keyword("INSERT")?;
        self.keyword("INTO")?;
        let name = self.ident()?;
        let rows = self.rows()?;
        self.punct(';')?;
        Ok(Statement::Insert { name, rows })
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.keyword("DELETE")?;
        self.keyword("FROM")?;
        let name = self.ident()?;
        let rows = self.rows()?;
        self.punct(';')?;
        Ok(Statement::Delete { name, rows })
    }

    fn select(&mut self) -> Result<Statement, ParseError> {
        self.keyword("SELECT")?;
        let query = self.raw_until_semi("CALC_F query")?;
        self.punct(';')?;
        Ok(Statement::Select { query })
    }

    fn rows(&mut self) -> Result<Rows, ParseError> {
        if self.at_keyword("CONSTRAINT") {
            self.pos += 1;
            return Ok(Rows::Constraint(self.raw_until_semi("constraint body")?));
        }
        self.keyword("VALUES")?;
        let mut points = vec![self.point()?];
        while self.at_punct(',') {
            self.pos += 1;
            points.push(self.point()?);
        }
        Ok(Rows::Points(points))
    }

    fn point(&mut self) -> Result<Vec<Rat>, ParseError> {
        self.punct('(')?;
        let mut coords = vec![self.number()?];
        while self.at_punct(',') {
            self.pos += 1;
            coords.push(self.number()?);
        }
        self.punct(')')?;
        Ok(coords)
    }

    fn number(&mut self) -> Result<Rat, ParseError> {
        let neg = if self.at_punct('-') {
            self.pos += 1;
            true
        } else {
            false
        };
        let num = self.int_literal()?;
        let den = if self.at_punct('/') {
            self.pos += 1;
            let den_tok = self.pos;
            let d = self.int_literal()?;
            if d == 0 {
                return Err(self.err_at(den_tok, "zero denominator in rational literal".to_owned()));
            }
            d
        } else {
            1
        };
        let num = if neg { -num } else { num };
        Ok(Rat::from_ints(num, den))
    }

    fn int_literal(&mut self) -> Result<i64, ParseError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Int(s)) => match s.parse::<i64>() {
                Ok(v) => {
                    self.pos += 1;
                    Ok(v)
                }
                Err(_) => Err(self.err_here(format!("integer literal `{s}` out of range"))),
            },
            Some(k) => Err(self.err_here(format!("expected a number, got {}", describe(k)))),
            None => Err(self.err_here("expected a number, got end of input".to_owned())),
        }
    }

    /// Capture raw source text from the current token up to (not
    /// including) the statement-terminating `;`, which is left for the
    /// caller to consume. At least one token is required.
    fn raw_until_semi(&mut self, what: &str) -> Result<String, ParseError> {
        let start_tok = self.pos;
        let mut end_tok = self.pos;
        while self.pos < self.toks.len() && !self.at_punct(';') {
            end_tok = self.pos;
            self.pos += 1;
        }
        if self.pos == start_tok {
            return Err(self.err_here(format!("expected {what} before `;`")));
        }
        let start = self.toks[start_tok].span.start;
        let end = self.toks[end_tok].span.end;
        Ok(self.src[start..end].trim().to_owned())
    }

    fn datalog(&mut self) -> Result<Statement, ParseError> {
        self.keyword("DATALOG")?;
        self.punct('{')?;
        // Capture to the matching `}` (depth-counted: aggregate constraint
        // bodies may themselves contain braces).
        let start_tok = self.pos;
        let mut depth = 1usize;
        let mut end_tok = self.pos;
        loop {
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Punct('{')) => depth += 1,
                Some(TokenKind::Punct('}')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some(_) => {}
                None => {
                    return Err(self.err_here("unterminated DATALOG block: expected `}`".to_owned()))
                }
            }
            end_tok = self.pos;
            self.pos += 1;
        }
        if self.pos == start_tok {
            return Err(self.err_here("empty DATALOG block".to_owned()));
        }
        let start = self.toks[start_tok].span.start;
        let end = self.toks[end_tok].span.end;
        let program = self.src[start..end].trim().to_owned();
        self.punct('}')?;
        self.punct(';')?;
        Ok(Statement::Datalog { program })
    }
}

fn describe(k: &TokenKind) -> String {
    match k {
        TokenKind::Ident(s) => format!("`{s}`"),
        TokenKind::Int(s) => format!("`{s}`"),
        TokenKind::Punct(c) => format!("`{c}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_with_definition_roundtrips() {
        let src = "CREATE RELATION S(x, y) AS 4*x^2 - y - 20*x + 25 <= 0;";
        let stmt = parse_statement(src).unwrap();
        assert_eq!(
            stmt,
            Statement::CreateRelation {
                name: "S".into(),
                vars: vec!["x".into(), "y".into()],
                definition: Some("4*x^2 - y - 20*x + 25 <= 0".into()),
            }
        );
        assert_eq!(stmt.to_string(), src);
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn insert_points_parses_rationals() {
        let stmt = parse_statement("insert into P values (1, 3/2), (-2, 0);").unwrap();
        let Statement::Insert { name, rows } = &stmt else {
            panic!("wrong variant");
        };
        assert_eq!(name, "P");
        assert_eq!(
            *rows,
            Rows::Points(vec![
                vec![Rat::one(), Rat::from_ints(3, 2)],
                vec![Rat::from_ints(-2, 1), Rat::zero()],
            ])
        );
        // Pretty-print canonicalizes keyword case and spacing.
        assert_eq!(stmt.to_string(), "INSERT INTO P VALUES (1, 3/2), (-2, 0);");
    }

    #[test]
    fn datalog_block_captured_verbatim() {
        let stmt = parse_statement("DATALOG { T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y). };")
            .unwrap();
        assert_eq!(
            stmt,
            Statement::Datalog {
                program: "T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y).".into()
            }
        );
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn script_splits_statements() {
        let stmts = parse_script(
            "CREATE RELATION P(x);\nINSERT INTO P VALUES (1);\nSELECT P(x) AND x >= 0;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(stmts[2].is_read_only());
        assert!(!stmts[1].is_read_only());
    }

    #[test]
    fn select_captures_query_text() {
        let stmt = parse_statement("SELECT   exists y (S(x, y) and y >= 2)  ;").unwrap();
        assert_eq!(
            stmt,
            Statement::Select {
                query: "exists y (S(x, y) and y >= 2)".into()
            }
        );
    }
}
