#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-poly`: polynomial algebra and real root machinery for the constraint
//! database.
//!
//! This crate supplies everything "Appendix I: Real Algebraic Geometry" of
//! the paper relies on:
//!
//! * dense univariate polynomials over `Q` ([`UPoly`]) with GCD, squarefree
//!   decomposition and Cauchy root bounds;
//! * real algebraic numbers ([`RealAlg`]), the one exact real-number type:
//!   a rational, or a (squarefree minimal polynomial, isolating interval)
//!   pair, held as a plain value. Real-root **isolation** and
//!   ε-**refinement** (`RealAlg::roots_of`, `refined`, `approx`) are the
//!   NUMERICAL EVALUATION step of the paper's query pipeline (Theorem 3.2):
//!   isolation counts roots with a Sturm chain private to the crate, and
//!   every refinement is one halving step that keeps the half where the
//!   sign changes. Exact sign determination `sign(q(α))` and comparison
//!   serve CAD stack construction: zero and equality are decided by whether
//!   a gcd changes sign across an isolating interval;
//! * sparse multivariate polynomials ([`MPoly`]) with exact division, and
//!   fraction-free (Bareiss) resultants/discriminants used by the CAD
//!   projection operator `PROJ` ([`resultant`]);
//! * a hash-consing **interner** ([`intern`]) behind which canonical
//!   polynomials are stored once, so handles clone by pointer bump and
//!   hash/compare in O(1) (DESIGN.md §10), with a packed monomial
//!   representation ([`mono::Mono`]) and a retained seed reference
//!   implementation ([`refimpl`]) for differential testing.

pub mod algebraic;
pub mod intern;
pub mod mgcd;
pub mod mono;
pub mod mpoly;
pub mod refimpl;
pub mod resultant;
mod roots;
pub mod upoly;

pub use algebraic::RealAlg;
pub use mgcd::{mgcd, squarefree_part};
pub use mono::Mono;
pub use mpoly::{MPoly, Partial, PolyId, Terms};
pub use upoly::UPoly;
