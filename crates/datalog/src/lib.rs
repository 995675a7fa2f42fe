#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-datalog`: Datalog with inflationary negation over constraint
//! databases, under the finite precision semantics (§4, Theorems 4.7–4.8).
//!
//! `Datalog¬_F` evaluates rules by the inflationary fixpoint: at each
//! iteration every rule body is evaluated as a first-order query against
//! the *current* database (negated relation atoms read the complement of
//! the current extent — inflationary negation), and the derived tuples are
//! unioned into the head relation. The QE algorithm is called at each
//! iteration, under the bit-length budget: Theorem 4.7's PTIME bound
//! materializes as (a) a budget on every intermediate integer and (b) a
//! polynomial iteration cap, after which evaluation is *undefined* rather
//! than divergent (contrast `Datalog¬` under the exact semantics, which
//! "contains all Turing computable queries").
//!
//! The default evaluator ([`Program::run`]) is **semi-naive**: per-relation
//! deltas restrict each round to rule variants that consume at least one
//! newly-derived tuple, and the round's QE jobs run one after another and
//! merge in job order. The naive reference evaluator survives as
//! [`Program::run_naive`] for differential testing and benchmarking.

pub mod program;

pub use program::{
    DatalogError, FixpointStats, IterationStats, Literal, Program, Rule, DELTA_PREFIX,
};
