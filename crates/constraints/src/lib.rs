#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-constraints`: the constraint data model of \[KKR90\] as recalled in §3
//! of the paper.
//!
//! * An **atomic constraint** ([`Atom`]) is `p σ 0` for a polynomial `p`
//!   over the reals and `σ ∈ {=, ≠, <, ≤, >, ≥}`.
//! * A **generalized tuple** ([`GeneralizedTuple`]) is a conjunction of
//!   atomic constraints over `k` variables — e.g. the paper's filled
//!   triangle `x ≤ y ∧ x ≥ 0 ∧ y ≤ 10`.
//! * A **finitely representable relation** ([`ConstraintRelation`]) is a
//!   finite set (disjunction) of generalized tuples, denoting a possibly
//!   infinite subset of `R^k`.
//! * A **constraint database** ([`Database`]) is a finite collection of
//!   named finitely representable relations — the expansion
//!   `⟨R, ≤, +, ×, 0, 1, R̂₁, …, R̂ₙ⟩` of the real field.
//! * A **first-order formula** ([`Formula`]) over the language of the real
//!   field plus the database schema, with normalization to NNF/prenex/DNF —
//!   the input format of the QE engines in `cdb-qe`.

pub mod atom;
pub mod boxes;
pub mod database;
pub mod formula;
pub mod gtuple;
pub mod relation;
pub mod tupleset;

pub use atom::{Atom, RelOp};
pub use boxes::TupleBox;
pub use database::Database;
pub use formula::{Formula, Quantifier};
pub use gtuple::GeneralizedTuple;
pub use relation::ConstraintRelation;
pub use tupleset::TupleSet;
