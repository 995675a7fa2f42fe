#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-calcf`: the CALC_F constraint query language (§5).
//!
//! CALC_F extends the relational calculus with (i) analytic functions
//! (exp, ln, sin, cos, tan, atan, sqrt) and (ii) aggregate predicates
//! `AGG[vars]{φ}` for MIN, MAX, AVG, LENGTH, SURFACE, VOLUME and EVAL.
//! Because no proper extension of the real field by analytic functions
//! admits quantifier elimination \[Dr82\], evaluation is staged (§5):
//!
//! 1. aggregate predicates are evaluated innermost-first along the DAG
//!    `G_Q` (the paper's technical assumption applies: aggregate formulas
//!    carry no free parameters);
//! 2. analytic function terms are replaced by k-order polynomial
//!    approximations over the hypercubes of an a-base, each guarded by the
//!    range constraints `z ∈ e`;
//! 3. the resulting pure polynomial formula goes through the QE pipeline,
//!    yielding a closed-form constraint relation — with PTIME data
//!    complexity and polynomially many module calls (Theorem 5.5).
//!
//! The [`engine`] runs stages 1 and 2 as one recursive lowering of the AST
//! to a polynomial formula in negation normal form, atom by atom.

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod parser;

pub use ast::{CFormula, CTerm};
pub use engine::{CalcFEngine, CalcFError, CalcFOutput};
pub use lexer::{ParseError, Token};
pub use parser::{parse_formula, Parser};
