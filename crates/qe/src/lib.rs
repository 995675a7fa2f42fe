#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-qe`: quantifier elimination engines and the query-evaluation
//! pipeline of §2 / Appendix I.
//!
//! Three engines, matching the operator hierarchy of Proposition 4.6:
//!
//! * **Dense order** `FO(≤)` and **linear** `FO(≤, +)` — Fourier–Motzkin
//!   elimination (the planner's, [`plan`]), exact and fast; the paper's
//!   Theorem 4.2 class where finite precision loses nothing.
//! * **Polynomial** `FO(≤, +, ×)` — cylindrical algebraic decomposition
//!   ([`cad`]): projection (coefficients + discriminants + pairwise
//!   resultants), base-phase root isolation, stack lifting with exact
//!   algebraic sample points, and Hong-style solution formula construction
//!   with derivative augmentation.
//!
//! The [`pipeline`] module wires the paper's steps together: INSTANTIATION →
//! QUANTIFIER ELIMINATION → NUMERICAL EVALUATION, with an optional bit-length
//! budget that realizes the finite-precision satisfaction relation `⊨_QE^F`
//! (exact arithmetic, undefined the moment any integer exceeds `k` bits).

pub mod cache;
pub mod cad;
pub mod linear;
mod par;
pub mod pipeline;
pub mod plan;
pub mod quad1;

pub use cache::AlgebraicCache;
pub use pipeline::{evaluate_query, numerical_evaluation, EvalOutput};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The host's hardware thread count (at least 1), read once per process.
/// The standard library's query re-reads cgroup files on every call, about
/// 20 µs on a 2-thread Linux host, and every default context and every CAD
/// lift asks; so the answer is cached here, the query's one caller in the
/// workspace (`clippy.toml` disallows it elsewhere).
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Errors from quantifier elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QeError {
    /// Query references an unknown relation or has an arity mismatch.
    Schema(String),
    /// The finite-precision bit budget was exceeded — the query is
    /// *undefined* under `⊨_QE^F` (Theorem 4.1's partiality in action).
    PrecisionExceeded {
        /// The budget that was in force.
        budget_bits: u64,
        /// The bit length that tripped it.
        seen_bits: u64,
    },
    /// CAD could not decide a sign at a degenerate sample point
    /// (documented limitation: repeated roots over multi-algebraic samples).
    IndeterminateSign(String),
    /// Solution formula construction failed even after augmentation.
    FormulaConstruction(String),
    /// Structural error (internal invariant broken or unsupported input).
    Unsupported(String),
}

impl fmt::Display for QeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QeError::Schema(m) => write!(f, "schema error: {m}"),
            QeError::PrecisionExceeded { budget_bits, seen_bits } => write!(
                f,
                "finite-precision semantics: undefined (needs {seen_bits} bits, budget {budget_bits})"
            ),
            QeError::IndeterminateSign(m) => write!(f, "indeterminate sign: {m}"),
            QeError::FormulaConstruction(m) => {
                write!(f, "solution formula construction failed: {m}")
            }
            QeError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for QeError {}

/// A thread-safe statistic counter.
///
/// Keeps the `get`/`set` API the old `Cell<u64>` counters exposed, so
/// observers in other crates read it unchanged, while letting CAD lifting
/// workers update it through a shared context.
/// Sequentially consistent per the determinism rule (cdb-lint `determinism`):
/// counters feed budget decisions via [`QeContext::observe_bits`], so their
/// ordering must not depend on the memory model.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Overwrite the value (single-writer use only; racing writers should
    /// use [`Counter::add`] or [`Counter::record_max`]).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst);
    }

    /// Atomically increment by `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::SeqCst);
    }

    /// Atomically raise the value to at least `v`.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::SeqCst);
    }
}

/// Execution context: optional finite-precision budget plus statistics,
/// the CAD lifting thread count, and the shared algebraic memo-cache.
///
/// The budget realizes §4's `Z_k` context: every polynomial produced during
/// elimination is checked; exceeding `k` bits aborts the whole evaluation
/// with [`QeError::PrecisionExceeded`] ("the value of terms might be
/// undefined … caused by overflow").
///
/// The context is `Sync`: a CAD lift shares one job-local copy across the
/// threads it runs on and folds its counts back.
#[derive(Debug)]
pub struct QeContext {
    /// Maximum allowed integer bit length (`None` = exact semantics).
    pub budget_bits: Option<u64>,
    /// Largest coefficient bit length observed.
    pub max_bits_seen: Counter,
    /// Number of CAD cells constructed.
    pub cells_built: Counter,
    /// Number of polynomial sign evaluations.
    pub sign_evals: Counter,
    /// Threads CAD lifting may use, the calling thread included — the only
    /// fan-out under a query (DESIGN.md §6); a lift takes up to
    /// `workers − 1` helpers from the process-wide pool. Disjuncts, Datalog
    /// rounds and aggregate stages run on the calling thread whatever this
    /// says. `1` (or `0`) lifts sequentially; the default is
    /// [`hardware_threads`]. The server sets it per statement to that
    /// statement's share of the hardware threads (DESIGN.md §13). Output
    /// bytes are the same for every value.
    pub workers: usize,
    /// Shared memo-cache for resultants and discriminants.
    pub cache: AlgebraicCache,
    /// Per-strategy planner counters (snapshot via [`QeContext::plan_stats`]).
    pub plan: PlanCounters,
}

/// Live per-strategy counters for the disjunct planner, updated through a
/// shared `&QeContext`. Unlike the resultant-dispatcher counters these are
/// per-context (the planner always holds a context, so no process-global is
/// needed); [`QeContext::plan_stats`] snapshots them.
#[derive(Debug, Default)]
pub struct PlanCounters {
    /// Disjunct-eliminations answered by linear-equality substitution.
    pub subst: Counter,
    /// Disjunct-eliminations answered by Fourier–Motzkin.
    pub fm: Counter,
    /// Disjunct-eliminations answered by the quadratic shortcut.
    pub quad: Counter,
    /// Disjunct-eliminations answered by the CAD fallback.
    pub cad: Counter,
    /// Wall-clock nanoseconds spent in substitution eliminations.
    pub subst_nanos: Counter,
    /// Wall-clock nanoseconds spent in Fourier–Motzkin eliminations.
    pub fm_nanos: Counter,
    /// Wall-clock nanoseconds spent in quadratic eliminations.
    pub quad_nanos: Counter,
    /// Wall-clock nanoseconds spent in CAD-fallback eliminations.
    pub cad_nanos: Counter,
}

/// Snapshot of the planner's per-strategy decisions for one context: how
/// many disjunct-eliminations each strategy answered and how much wall time
/// each consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Disjuncts eliminated by linear-equality substitution.
    pub subst: u64,
    /// Disjuncts eliminated by Fourier–Motzkin.
    pub fm: u64,
    /// Disjuncts eliminated by the quadratic shortcut.
    pub quad: u64,
    /// Disjuncts eliminated by the CAD fallback.
    pub cad: u64,
    /// Nanoseconds spent in substitution eliminations.
    pub subst_nanos: u64,
    /// Nanoseconds spent in Fourier–Motzkin eliminations.
    pub fm_nanos: u64,
    /// Nanoseconds spent in quadratic eliminations.
    pub quad_nanos: u64,
    /// Nanoseconds spent in CAD-fallback eliminations.
    pub cad_nanos: u64,
}

impl Default for QeContext {
    fn default() -> QeContext {
        QeContext {
            budget_bits: None,
            max_bits_seen: Counter::default(),
            cells_built: Counter::default(),
            sign_evals: Counter::default(),
            workers: hardware_threads(),
            cache: AlgebraicCache::new(),
            plan: PlanCounters::default(),
        }
    }
}

impl QeContext {
    /// Exact (unbounded) context.
    #[must_use]
    pub fn exact() -> QeContext {
        QeContext::default()
    }

    /// Finite-precision context with bit budget `k`.
    #[must_use]
    pub fn with_budget(k: u64) -> QeContext {
        QeContext {
            budget_bits: Some(k),
            ..QeContext::default()
        }
    }

    /// Same context with an explicit CAD lifting thread count (`1` =
    /// sequential).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> QeContext {
        self.workers = workers;
        self
    }

    /// Same context sharing `cache` (a cheap handle clone) instead of a
    /// fresh cold cache. A long-lived owner — the `constraintdb` facade's
    /// update path — threads one cache through every per-call context so
    /// memoized resultants and discriminants survive across calls.
    #[must_use]
    pub fn with_cache(mut self, cache: &AlgebraicCache) -> QeContext {
        self.cache = cache.clone();
        self
    }

    /// Snapshot of the per-disjunct planner's strategy counters for this
    /// context.
    #[must_use]
    pub fn plan_stats(&self) -> PlanStats {
        PlanStats {
            subst: self.plan.subst.get(),
            fm: self.plan.fm.get(),
            quad: self.plan.quad.get(),
            cad: self.plan.cad.get(),
            subst_nanos: self.plan.subst_nanos.get(),
            fm_nanos: self.plan.fm_nanos.get(),
            quad_nanos: self.plan.quad_nanos.get(),
            cad_nanos: self.plan.cad_nanos.get(),
        }
    }

    /// Threads a CAD lift actually gets: [`QeContext::workers`], at least
    /// 1, at most [`hardware_threads`] (read once per process).
    /// Oversubscribing a CPU-bound fan-out only adds scheduling overhead,
    /// and the determinism contract (byte-identical output for every worker
    /// count) makes the clamp unobservable in results.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1).min(hardware_threads())
    }

    /// A context for one CAD lift's parents, to own and share with the
    /// pool's helpers: this context's budget and cache handle, fresh
    /// counters, one worker. [`QeContext::fold`] hands its counts back.
    pub(crate) fn job_local(&self) -> QeContext {
        QeContext {
            budget_bits: self.budget_bits,
            max_bits_seen: Counter::default(),
            cells_built: Counter::default(),
            sign_evals: Counter::default(),
            workers: 1,
            cache: self.cache.clone(),
            plan: PlanCounters::default(),
        }
    }

    /// Add the sign evaluations and the largest bit length a
    /// [`QeContext::job_local`] context saw to this one's.
    pub(crate) fn fold(&self, job: &QeContext) {
        self.sign_evals.add(job.sign_evals.get());
        self.max_bits_seen.record_max(job.max_bits_seen.get());
    }

    /// Record an observed bit length; error if over budget.
    pub fn observe_bits(&self, bits: u64) -> Result<(), QeError> {
        self.max_bits_seen.record_max(bits);
        match self.budget_bits {
            Some(k) if bits > k => Err(QeError::PrecisionExceeded {
                budget_bits: k,
                seen_bits: bits,
            }),
            _ => Ok(()),
        }
    }

    /// Check a polynomial's coefficients against the budget.
    pub fn observe_poly(&self, p: &cdb_poly::MPoly) -> Result<(), QeError> {
        self.observe_bits(p.max_coeff_bits())
    }
}
