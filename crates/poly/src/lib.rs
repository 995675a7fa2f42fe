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
//!   decomposition, Sturm sequences and Cauchy root bounds;
//! * real-root **isolation** and ε-**refinement** ([`roots`]) — the
//!   NUMERICAL EVALUATION step of the paper's query pipeline (Theorem 3.2);
//! * real algebraic numbers ([`RealAlg`]) as (squarefree minimal polynomial,
//!   isolating interval) pairs, with exact sign determination `sign(q(α))`
//!   used for CAD stack construction;
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
pub mod roots;
pub mod sturm;
pub mod upoly;

pub use algebraic::RealAlg;
pub use mgcd::{mgcd, squarefree_part};
pub use mono::Mono;
pub use mpoly::{MPoly, Partial, PolyId, Terms};
pub use roots::{isolate_real_roots, refine_to_width, RootLocation};
pub use upoly::UPoly;
