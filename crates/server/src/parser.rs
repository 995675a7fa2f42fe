//! The statement surface — a thin grammar over `cdb_calcf`'s tokenizer
//! and [`Parser`] — plus the canonical pretty-printer ([`fmt::Display`] on
//! [`Statement`] and [`Command`]).
//!
//! Grammar (keywords case-insensitive, statements `;`-terminated):
//!
//! ```text
//! commands  := command*
//! command   := "SOLVE" raw ";"                       -- CALC_F query text
//!            | "SET" "PRECISION" (NUMBER | "UNBOUNDED") ";"
//!            | "SAVE" raw ";"                        -- file path
//!            | "LOAD" raw ";"                        -- file path
//!            | statement
//! statement := "CREATE" "RELATION" head ("AS" raw)? ";"
//!            | "INSERT" "INTO" IDENT rows ";"
//!            | "DELETE" "FROM" IDENT rows ";"
//!            | "SELECT" raw ";"                      -- CALC_F query text
//!            | "DATALOG" "{" raw "}" ";"             -- Datalog¬ program
//!            | "SHOW" "RELATIONS" ";"
//!            | "DROP" "RELATION" IDENT ";"
//! rows      := "VALUES" point ("," point)*
//!            | "CONSTRAINT" raw                      -- CALC_F conjunction
//! point     := "(" number ("," number)* ")"
//! ```
//!
//! `head` (`Name(v, …)`) and `number` (`"-"? NUMBER ("/" NUMBER)?`) are
//! the shared rules of [`Parser`]. `raw` spans are captured **verbatim**
//! from the source by byte offset, never re-serialized from tokens —
//! embedded CALC_F and Datalog¬ text round-trips exactly, and is parsed by
//! its own grammar when the statement executes. The pretty-printer emits
//! the canonical spacing for everything else, so `parse ∘ print ∘ parse`
//! is the identity on parsed statements and commands (property-tested).
//!
//! A [`Command`] is what a session executes: a [`Statement`], or one of
//! the session commands that reach the paper's NUMERICAL EVALUATION
//! (`SOLVE`), its finite precision semantics `⊨_QE^F` (`SET PRECISION`)
//! and the text storage format (`SAVE`, `LOAD`). The command grammar looks
//! at the first keyword only and hands anything else to the statement
//! grammar, on the same tokens. A file path is a raw span, so it must lex
//! under the shared tokenizer (no `;`, `#`, quotes or `--`).

use cdb_calcf::{ParseError, Parser, Token};
use cdb_num::Rat;
use std::fmt;

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

/// One parsed command of a session: a statement, or a session command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// A statement of the server surface.
    Run(Statement),
    /// `SOLVE <calc_f text>` — NUMERICAL EVALUATION (§2, step 3) of a
    /// query's finite answer.
    Solve {
        /// CALC_F query text, verbatim.
        query: String,
    },
    /// `SET PRECISION k` (`Some(k)`) or `SET PRECISION UNBOUNDED`
    /// (`None`): the session's `⊨_QE^F` bit budget for reads.
    SetPrecision(Option<u64>),
    /// `SAVE <path>` — write the session's snapshot in the text format:
    /// extents and variable names only, so after `LOAD` every view and
    /// Datalog¬ head is a base relation holding its saved extent. The path
    /// resolves on the server host and the file is created (or
    /// truncated) with the server process's privileges, so a remote front
    /// end must restrict which paths it passes through.
    Save {
        /// File path, verbatim.
        path: String,
    },
    /// `LOAD <path>` — replace the database with the one in a file, read
    /// on the server host with the server process's privileges (its parse
    /// errors quote the file); the same restriction applies as for `SAVE`.
    Load {
        /// File path, verbatim.
        path: String,
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

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Run(stmt) => write!(f, "{stmt}"),
            Command::Solve { query } => write!(f, "SOLVE {query};"),
            Command::SetPrecision(Some(k)) => write!(f, "SET PRECISION {k};"),
            Command::SetPrecision(None) => write!(f, "SET PRECISION UNBOUNDED;"),
            Command::Save { path } => write!(f, "SAVE {path};"),
            Command::Load { path } => write!(f, "LOAD {path};"),
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
    single(src, each(src, statement)?, "statement")
}

/// Parse one command (must consume the whole input bar trailing
/// whitespace/comments).
pub fn parse_command(src: &str) -> Result<Command, ParseError> {
    single(src, parse_commands(src)?, "command")
}

/// Parse a `;`-separated script into commands.
pub fn parse_commands(src: &str) -> Result<Vec<Command>, ParseError> {
    each(src, command)
}

/// `item*` over the whole of `src`.
fn each<T>(
    src: &str,
    mut item: impl FnMut(&mut Parser<'_>) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while !p.at_end() {
        out.push(item(&mut p)?);
    }
    Ok(out)
}

/// The one `what` that `items`, parsed from `src`, must hold.
fn single<T>(src: &str, mut items: Vec<T>, what: &str) -> Result<T, ParseError> {
    let msg = match (items.len(), items.pop()) {
        (1, Some(item)) => return Ok(item),
        (0, _) => format!("empty input: expected a {what}"),
        _ => format!("expected a single {what}, found several"),
    };
    Err(ParseError::at(src, 0, msg))
}

fn command(p: &mut Parser<'_>) -> Result<Command, ParseError> {
    let cmd = if p.at_keyword("SOLVE") {
        p.advance();
        Command::Solve {
            query: raw_until_semi(p, "CALC_F query")?,
        }
    } else if p.at_keyword("SET") {
        p.advance();
        p.keyword("PRECISION")?;
        Command::SetPrecision(precision(p)?)
    } else if p.at_keyword("SAVE") {
        p.advance();
        Command::Save {
            path: raw_until_semi(p, "file path")?,
        }
    } else if p.at_keyword("LOAD") {
        p.advance();
        Command::Load {
            path: raw_until_semi(p, "file path")?,
        }
    } else {
        return Ok(Command::Run(statement(p)?));
    };
    p.require(Token::Semi)?;
    Ok(cmd)
}

/// `NUMBER | "UNBOUNDED"`: a bit budget, or none.
fn precision(p: &mut Parser<'_>) -> Result<Option<u64>, ParseError> {
    let budget = match p.peek() {
        Some(Token::Number(digits)) => digits.parse::<u64>().ok().map(Some),
        _ if p.at_keyword("UNBOUNDED") => Some(None),
        _ => None,
    };
    let budget = budget.ok_or_else(|| p.error("expected a whole number of bits or `UNBOUNDED`"))?;
    p.advance();
    Ok(budget)
}

fn statement(p: &mut Parser<'_>) -> Result<Statement, ParseError> {
    let stmt = if p.at_keyword("SELECT") {
        p.advance();
        Statement::Select {
            query: raw_until_semi(p, "CALC_F query")?,
        }
    } else if p.at_keyword("INSERT") {
        p.advance();
        p.keyword("INTO")?;
        Statement::Insert {
            name: p.ident()?.to_owned(),
            rows: rows(p)?,
        }
    } else if p.at_keyword("DELETE") {
        p.advance();
        p.keyword("FROM")?;
        Statement::Delete {
            name: p.ident()?.to_owned(),
            rows: rows(p)?,
        }
    } else if p.at_keyword("CREATE") {
        p.advance();
        p.keyword("RELATION")?;
        let (name, vars) = p.head()?;
        let definition = if p.at_keyword("AS") {
            p.advance();
            Some(raw_until_semi(p, "CALC_F definition")?)
        } else {
            None
        };
        Statement::CreateRelation {
            name: name.to_owned(),
            vars: vars.into_iter().map(str::to_owned).collect(),
            definition,
        }
    } else if p.at_keyword("DATALOG") {
        p.advance();
        Statement::Datalog {
            program: datalog_block(p)?,
        }
    } else if p.at_keyword("SHOW") {
        p.advance();
        p.keyword("RELATIONS")?;
        Statement::ShowRelations
    } else if p.at_keyword("DROP") {
        p.advance();
        p.keyword("RELATION")?;
        Statement::DropRelation {
            name: p.ident()?.to_owned(),
        }
    } else {
        let head = match p.peek() {
            Some(Token::Ident(word)) => {
                format!("unknown statement `{}`", word.to_ascii_uppercase())
            }
            Some(t) => format!("expected a statement keyword, got `{t}`"),
            None => "expected a statement keyword".to_owned(),
        };
        return Err(p.error(format!(
            "{head} (expected CREATE, INSERT, DELETE, SELECT, DATALOG, SHOW, DROP, SOLVE, SET, \
             SAVE, or LOAD)"
        )));
    };
    p.require(Token::Semi)?;
    Ok(stmt)
}

fn rows(p: &mut Parser<'_>) -> Result<Rows, ParseError> {
    if p.at_keyword("CONSTRAINT") {
        p.advance();
        return Ok(Rows::Constraint(raw_until_semi(p, "constraint body")?));
    }
    p.keyword("VALUES")?;
    let mut points = vec![point(p)?];
    while p.eat(Token::Comma) {
        points.push(point(p)?);
    }
    Ok(Rows::Points(points))
}

fn point(p: &mut Parser<'_>) -> Result<Vec<Rat>, ParseError> {
    p.require(Token::LParen)?;
    let mut coords = vec![p.number()?];
    while p.eat(Token::Comma) {
        coords.push(p.number()?);
    }
    p.require(Token::RParen)?;
    Ok(coords)
}

/// Capture raw source text from the current token up to (not including)
/// the statement-terminating `;`, which is left for the caller to consume.
/// At least one token is required.
fn raw_until_semi(p: &mut Parser<'_>, what: &str) -> Result<String, ParseError> {
    let start = p.mark();
    while !matches!(p.peek(), None | Some(Token::Semi)) {
        p.advance();
    }
    if p.mark() == start {
        return Err(p.error(format!("expected {what} before `;`")));
    }
    Ok(p.text(start, p.mark()).to_owned())
}

/// `"{" raw "}"`, captured to the matching `}` (depth-counted: aggregate
/// constraint bodies may themselves contain braces).
fn datalog_block(p: &mut Parser<'_>) -> Result<String, ParseError> {
    p.require(Token::LBrace)?;
    let start = p.mark();
    let mut depth = 1usize;
    loop {
        match p.peek() {
            Some(Token::LBrace) => depth += 1,
            Some(Token::RBrace) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some(_) => {}
            None => return Err(p.error("unterminated DATALOG block: expected `}`")),
        }
        p.advance();
    }
    if p.mark() == start {
        return Err(p.error("empty DATALOG block"));
    }
    let program = p.text(start, p.mark()).to_owned();
    p.advance();
    Ok(program)
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
        let cmds = parse_commands(
            "CREATE RELATION P(x);\nINSERT INTO P VALUES (1);\nSELECT P(x) AND x >= 0;",
        )
        .unwrap();
        let stmts: Vec<&Statement> = cmds
            .iter()
            .map(|c| match c {
                Command::Run(stmt) => stmt,
                other => panic!("not a statement: {other}"),
            })
            .collect();
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
