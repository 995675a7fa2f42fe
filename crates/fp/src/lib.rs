#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-fp`: the finite precision semantics of §4.
//!
//! The paper replaces Tarskian satisfaction over floating numbers (which
//! would validate `∃x∀y (y ≤ x)` and lose distributivity) with a semantics
//! *relative to the fixed QE algorithm*: `⟨R̂₁,…,R̂ₙ⟩ ⊨_QE^F φ` iff the QE
//! algorithm reduces φ to the tautology using only integers of bit length
//! `k`. This crate provides:
//!
//! * [`semantics`] — the input bit length `k` that budgets of the partial
//!   query semantics `FOF_QE` are measured against. The budgeted
//!   evaluation itself is `constraintdb::ConstraintDb::query_fp`: the exact
//!   QE engines under a bit-length budget, where exceeding it makes the
//!   query *undefined* (Theorem 4.1's strictness), and linear queries never
//!   exceed a `c·k` budget (Theorem 4.2 / Lemma 4.4).
//! * [`doubling`] — the Lemma 4.5 / Theorem 4.2 constructions: `Z_{2k}`
//!   arithmetic implemented *only* from `Z_k` operations (split-word
//!   `+l/+u/×l/×u`, or partial ops plus order), executable and
//!   property-tested against direct arithmetic.
//! * [`pathologies`] — the §4 counterexamples for `F_k`: a greatest
//!   element, distributivity failure, and evaluation-order sensitivity.

pub mod doubling;
pub mod pathologies;
pub mod semantics;

pub use semantics::input_bit_length;
