#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `constraintdb` — a practical constraint database, after Grumbach & Su,
//! *Towards Practical Constraint Databases* (PODS 1996).
//!
//! A constraint database stores possibly-infinite sets of real points as
//! quantifier-free polynomial formulas (generalized tuples), and answers
//! relational-calculus queries in closed form by quantifier elimination.
//! This crate is the user-facing facade over the full stack:
//!
//! * [`ConstraintDb`] — named relations, text-based definitions and queries
//!   in the CALC_F language (aggregates `MIN/MAX/AVG/LENGTH/SURFACE/VOLUME/
//!   EVAL`, analytic functions `exp/ln/sin/cos/tan/atan/sqrt`);
//! * exact and **finite precision** evaluation (§4 of the paper): a `Z_k`
//!   bit budget under which queries are *undefined* rather than wrong;
//! * ε-precise numerical evaluation of finite answers (Theorem 3.2);
//! * a text storage format ([`storage`]).
//!
//! ```
//! use constraintdb::ConstraintDb;
//!
//! let mut db = ConstraintDb::new();
//! // The paper's running example: S(x, y) ≡ 4x² − y − 20x + 25 ≤ 0.
//! db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0").unwrap();
//! // Figure 1: Q(x) ≡ ∃y (S(x, y) ∧ y ≤ 0) — answer: 2x − 5 = 0.
//! let q = db.query("exists y (S(x, y) and y <= 0)").unwrap();
//! let points = q.solve().unwrap().unwrap();
//! assert_eq!(points[0][0].to_string(), "5/2");
//! // Example 5.1: the surface aggregate — exactly 18.
//! let s = db.query("z = SURFACE[x, y]{ S(x, y) and y <= 9 }").unwrap();
//! assert_eq!(s.points().unwrap()[0][0].to_string(), "18");
//! ```

pub mod datalog_text;
pub mod facade;
pub mod storage;
pub mod update;

pub use cdb_agg::Aggregate;
pub use cdb_approx::{ABase, AnalyticFn};
pub use cdb_calcf::{CalcFEngine, CalcFError, CalcFOutput};
pub use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, GeneralizedTuple, RelOp};
pub use cdb_datalog::{DatalogError, FixpointStats, Literal, Program, Rule};
pub use cdb_num::{Int, Rat};
pub use cdb_poly::{MPoly, UPoly};
pub use cdb_qe::{QeContext, QeError};
pub use datalog_text::parse_program;
pub use facade::{ConstraintDb, DbError, Divergence, QueryResult};
pub use update::UpdateReport;
