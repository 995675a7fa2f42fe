#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-server`: the serving layer over the `constraintdb` facade —
//! a textual statement surface and concurrent snapshot sessions
//! (DESIGN.md §13).
//!
//! The paper's setting ("heavy traffic from millions of users", §1) makes
//! query evaluation a *repeated* elimination task; following
//! Giusti–Heintz–Kuijpers, the win is amortization across queries. Here
//! that is **one shared algebraic memo-cache**: every session snapshot
//! clones the master [`constraintdb::ConstraintDb`], whose cache handle is
//! `Arc`-backed, so resultants and discriminants computed for one user's
//! query answer every user's later queries. Reads evaluate on the
//! calling session's thread; there is no admission layer between a
//! session and the engine (DESIGN.md §13 says why).
//!
//! Two layers, one module each: [`parser`] (statements and session
//! commands over `cdb_calcf`'s tokenizer and parser, plus the canonical
//! pretty-printer) and [`session`] (server, sessions, snapshots).

pub mod parser;
pub mod session;

pub use cdb_calcf::ParseError;
pub use parser::{parse_command, parse_commands, parse_statement, Command, Rows, Statement};
pub use session::{Server, ServerConfig, ServerStats, Session};

use std::fmt;

/// What a statement returned. [`fmt::Display`] renders every variant as
/// one deterministic line — the unit of the byte-identity transcripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `CREATE RELATION` succeeded.
    Created {
        /// The new relation.
        name: String,
        /// Its arity.
        arity: usize,
    },
    /// `INSERT`/`DELETE` applied through the update path.
    Updated {
        /// The relation written.
        relation: String,
        /// Tuples actually added.
        inserted: usize,
        /// Tuples actually removed.
        retracted: usize,
        /// Derived relations (views + materialized heads) refreshed by
        /// propagation.
        refreshed: usize,
    },
    /// `SELECT` result: the closed-form answer relation.
    Rows {
        /// Canonical display of the answer relation.
        text: String,
        /// Whether the answer is exact (no analytic-function
        /// approximation entered the evaluation).
        exact: bool,
    },
    /// `SHOW RELATIONS` result.
    Relations {
        /// `(name, arity)` pairs, sorted by name.
        schema: Vec<(String, usize)>,
    },
    /// `DATALOG` program ran to its inflationary fixpoint.
    Fixpoint {
        /// Iterations executed.
        iterations: usize,
        /// QE calls issued for rule bodies.
        qe_calls: usize,
    },
    /// `DROP RELATION` succeeded.
    Dropped {
        /// The removed relation.
        name: String,
    },
    /// `SOLVE` result: the ε-approximate solution points of a finite
    /// answer, each rendered `x = 5/2, y = 1`; `None` when the answer is
    /// infinite.
    Solutions {
        /// One rendered point per solution, or `None` for an infinite
        /// answer.
        points: Option<Vec<String>>,
    },
    /// A read under `SET PRECISION k` exceeded its bit budget: the answer
    /// is undefined under the finite precision semantics `⊨_QE^F` (§4).
    Undefined {
        /// The budget `k` that was in force.
        budget_bits: u64,
    },
    /// `SET PRECISION` took effect.
    Precision {
        /// The session's bit budget (`None` = exact semantics).
        budget_bits: Option<u64>,
    },
    /// `SAVE` wrote the snapshot.
    Saved {
        /// The file written.
        path: String,
    },
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Created { name, arity } => write!(f, "created {name}/{arity}"),
            Response::Updated {
                relation,
                inserted,
                retracted,
                refreshed,
            } => write!(
                f,
                "updated {relation}: +{inserted} -{retracted} (refreshed {refreshed})"
            ),
            Response::Rows { text, exact } => write!(f, "rows (exact={exact}): {text}"),
            Response::Relations { schema } => {
                write!(f, "relations:")?;
                for (name, arity) in schema {
                    write!(f, " {name}/{arity}")?;
                }
                Ok(())
            }
            Response::Fixpoint {
                iterations,
                qe_calls,
            } => write!(f, "fixpoint: {iterations} iterations, {qe_calls} qe calls"),
            Response::Dropped { name } => write!(f, "dropped {name}"),
            Response::Solutions { points: None } => write!(f, "infinite"),
            Response::Solutions { points: Some(p) } if p.is_empty() => {
                write!(f, "no solutions")
            }
            Response::Solutions { points: Some(p) } => write!(f, "{}", p.join("; ")),
            Response::Undefined { budget_bits } => write!(
                f,
                "undefined (finite precision semantics, k = {budget_bits})"
            ),
            Response::Precision {
                budget_bits: Some(k),
            } => write!(f, "precision {k} bits"),
            Response::Precision { budget_bits: None } => write!(f, "precision unbounded"),
            Response::Saved { path } => write!(f, "saved to {path}"),
        }
    }
}

/// Server-level errors: everything a statement can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The statement did not parse (position included).
    Parse(ParseError),
    /// The database rejected the operation (rendered
    /// [`constraintdb::DbError`]).
    Db(String),
    /// The server has shut down; the read was refused.
    Shutdown,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "parse error: {e}"),
            ServerError::Db(m) => write!(f, "{m}"),
            ServerError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}
