//! The staged CALC_F evaluator (§5).
//!
//! "Queries are evaluated in several stages, depending on the maximal
//! number of nesting levels of aggregate predicates used": aggregates are
//! evaluated innermost-first along the DAG `G_Q`; analytic function terms
//! are replaced by polynomial approximations over the a-base's hypercubes
//! (each guarded by range constraints `z ∈ e`); the resulting polynomial
//! formula is evaluated in closed form by the QE pipeline.
//!
//! The first two stages are one recursive pass over the AST that emits the
//! polynomial [`Formula`]. At each comparison the pass evaluates the
//! aggregates (each body is a query of its own, so nested aggregates run
//! innermost-first) and replaces them by their values, then expands the
//! analytic applications over the a-base; an `EVAL` predicate becomes the
//! formula of its relation. Negation is pushed to the atoms on the way
//! down, so the formula handed to QE is already in negation normal form.

use crate::ast::{CFormula, CTerm};
use crate::parser::{parse_formula, ParseError};
use cdb_agg::aggregate::AggOutput;
use cdb_agg::eval::EvalResult;
use cdb_agg::{apply_aggregate, eval_aggregate, AggError, Aggregate};
use cdb_approx::modules::{approximate, ApproxError, ApproxMethod};
use cdb_approx::ABase;
use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, RelOp};
use cdb_num::Rat;
use cdb_poly::{Terms, UPoly};
use cdb_qe::{evaluate_query, QeContext, QeError};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from CALC_F evaluation.
#[derive(Debug)]
pub enum CalcFError {
    /// Surface syntax error.
    Parse(ParseError),
    /// Aggregate module failure ("undefined" per the paper).
    Aggregate(AggError),
    /// Approximation module failure (domain/singularity).
    Approx(ApproxError),
    /// Quantifier elimination failure (including finite-precision
    /// undefinedness).
    Qe(QeError),
    /// Static semantic error (shadowing, parameterized aggregate, arity…).
    Semantic(String),
    /// An internal evaluator invariant was broken — never expected; returned
    /// instead of panicking so embedding applications can recover.
    Internal(String),
}

impl fmt::Display for CalcFError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcFError::Parse(e) => write!(f, "parse error: {e}"),
            CalcFError::Aggregate(e) => write!(f, "{e}"),
            CalcFError::Approx(e) => write!(f, "{e}"),
            CalcFError::Qe(e) => write!(f, "{e}"),
            CalcFError::Semantic(m) => write!(f, "semantic error: {m}"),
            CalcFError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CalcFError {}

impl From<ParseError> for CalcFError {
    fn from(e: ParseError) -> Self {
        CalcFError::Parse(e)
    }
}
impl From<AggError> for CalcFError {
    fn from(e: AggError) -> Self {
        CalcFError::Aggregate(e)
    }
}
impl From<ApproxError> for CalcFError {
    fn from(e: ApproxError) -> Self {
        CalcFError::Approx(e)
    }
}
impl From<QeError> for CalcFError {
    fn from(e: QeError) -> Self {
        CalcFError::Qe(e)
    }
}

/// Result of a CALC_F query.
#[derive(Debug, Clone)]
pub struct CalcFOutput {
    /// Closed-form answer relation over the ambient ring.
    pub relation: ConstraintRelation,
    /// Variable names of the ambient ring (index = variable).
    pub var_names: Vec<String>,
    /// Indices of the query's free variables.
    pub free_vars: Vec<usize>,
    /// True when no approximation (aggregate or analytic) was involved.
    pub exact: bool,
    /// Empirical upper bound on the sup-norm error of the analytic-function
    /// approximations used anywhere in the evaluation (0.0 when exact).
    /// The paper leaves error analysis open (§5: "Error analysis remains an
    /// interesting issue"); this is the measured bound of our modules.
    // cdb-lint: allow(float) — diagnostic-only error *bound* reported beside
    // the answer; the answer relation itself is exact (§5 leaves error
    // analysis open, so this stays instrumentation, never a result).
    pub approx_sup_error: f64,
}

impl CalcFOutput {
    /// Pretty-print the relation with the query's variable names.
    #[must_use]
    pub fn display(&self) -> String {
        let refs: Vec<&str> = self.var_names.iter().map(String::as_str).collect();
        self.relation.display_with(&refs)
    }

    /// If the answer is a finite set of points over the free variables,
    /// return them (coordinates in free-variable order). The bound/ambient
    /// variables were eliminated by QE and do not occur in the relation.
    #[must_use]
    pub fn as_points(&self) -> Option<Vec<Vec<Rat>>> {
        // Project onto the free variables: remap free var i → position.
        let mut map = vec![0usize; self.relation.nvars()];
        for (pos, &v) in self.free_vars.iter().enumerate() {
            map[v] = pos;
        }
        let projected = self.relation.remap_vars(&map, self.free_vars.len().max(1));
        projected.as_finite_points()
    }

    /// Build an ambient-ring point from free-variable coordinates (test
    /// and example helper).
    #[must_use]
    pub fn point(&self, free_coords: &[Rat]) -> Vec<Rat> {
        assert_eq!(free_coords.len(), self.free_vars.len());
        let mut p = vec![Rat::zero(); self.var_names.len().max(1)];
        for (&v, c) in self.free_vars.iter().zip(free_coords) {
            p[v] = c.clone();
        }
        p
    }
}

/// The CALC_F engine: an a-base, an approximation order `k` and method,
/// precision ε for numerical modules, and an optional finite-precision bit
/// budget for the QE stage.
#[derive(Debug, Clone)]
pub struct CalcFEngine {
    /// Approximation base for analytic functions.
    pub abase: ABase,
    /// Approximation order (degree bound of Definition 5.2).
    pub order: u32,
    /// Approximation method.
    pub method: ApproxMethod,
    /// Precision for aggregates and numerical evaluation.
    pub eps: Rat,
    /// Optional `Z_k` bit budget (finite precision semantics).
    pub budget_bits: Option<u64>,
    /// Threads CAD lifting may use inside the QE and aggregate stages
    /// ([`QeContext::workers`]; `1` = fully sequential evaluation). The
    /// stages themselves, and sibling aggregates, run one after another.
    pub workers: usize,
    /// Memo-cache for resultants and discriminants, shared by the QE stage
    /// and every aggregate stage. Cloning an engine shares the cache (it is
    /// an [`Arc`]-backed handle), so a long-lived engine amortizes algebra
    /// across queries.
    ///
    /// [`Arc`]: std::sync::Arc
    pub cache: cdb_qe::AlgebraicCache,
}

impl Default for CalcFEngine {
    fn default() -> Self {
        CalcFEngine {
            abase: ABase::uniform(Rat::from(-16i64), Rat::from(16i64), 32),
            order: 6,
            method: ApproxMethod::Chebyshev,
            eps: Rat::new(1i64.into(), cdb_num::Int::pow2(30)),
            budget_bits: None,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache: cdb_qe::AlgebraicCache::default(),
        }
    }
}

impl CalcFEngine {
    /// The context every stage evaluates in: this engine's workers and
    /// shared memo-cache, the planner's `Auto` mode, under `budget_bits`.
    /// The QE stage passes the engine's budget; aggregate stages pass
    /// `None`, because aggregate modules are Definition 5.3 numeric modules
    /// with their own precision `eps`, outside `⊨_QE^F`.
    #[must_use]
    pub fn qe_context(&self, budget_bits: Option<u64>) -> QeContext {
        let mut ctx = QeContext::exact()
            .with_workers(self.workers)
            .with_cache(&self.cache);
        ctx.budget_bits = budget_bits;
        ctx
    }

    /// Evaluate a CALC_F query given as source text.
    pub fn evaluate(&self, db: &Database, src: &str) -> Result<CalcFOutput, CalcFError> {
        let ast = parse_formula(src)?;
        self.evaluate_ast(db, &ast)
    }

    /// Evaluate a parsed CALC_F formula.
    pub fn evaluate_ast(&self, db: &Database, query: &CFormula) -> Result<CalcFOutput, CalcFError> {
        self.evaluate_with_vars(db, query, &[])
    }

    /// Compile a CALC_F formula into a stored constraint relation over the
    /// named variables (in the given order) — the way applications define
    /// relations from text, e.g.
    /// `compile_relation(db, &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")`.
    ///
    /// Note: definitions using analytic functions are *baked in* as their
    /// polynomial approximations; the stored relation carries no exactness
    /// provenance, so later queries over it report `exact = true`. Keep
    /// approximate definitions to query time when provenance matters.
    pub fn compile_relation(
        &self,
        db: &Database,
        names: &[&str],
        src: &str,
    ) -> Result<cdb_constraints::ConstraintRelation, CalcFError> {
        self.compile_relation_ast(db, names, &parse_formula(src)?)
    }

    /// [`Self::compile_relation`] for an already-parsed definition.
    pub fn compile_relation_ast(
        &self,
        db: &Database,
        names: &[&str],
        ast: &CFormula,
    ) -> Result<cdb_constraints::ConstraintRelation, CalcFError> {
        for v in ast.free_vars() {
            if !names.contains(&v.as_str()) {
                return Err(CalcFError::Semantic(format!(
                    "definition uses variable {v} outside the declared schema"
                )));
            }
        }
        let leading: Vec<String> = names.iter().map(|s| (*s).to_owned()).collect();
        let out = self.evaluate_with_vars(db, ast, &leading)?;
        // The declared variables occupy ring indices 0..names.len() by
        // construction; quantified helper variables (eliminated by QE, so
        // absent from the relation) are dropped from the ring.
        let map: Vec<usize> = (0..out.relation.nvars())
            .map(|i| if i < names.len() { i } else { 0 })
            .collect();
        Ok(out.relation.remap_vars(&map, names.len().max(1)))
    }

    /// Evaluate with a fixed leading variable order (`leading` names take
    /// ring indices `0..leading.len()`; remaining variables follow in
    /// first-appearance order).
    pub fn evaluate_with_vars(
        &self,
        db: &Database,
        query: &CFormula,
        leading: &[String],
    ) -> Result<CalcFOutput, CalcFError> {
        let mut var_names: Vec<String> = leading.to_vec();
        for v in query.all_vars_in_order() {
            if !var_names.contains(&v) {
                var_names.push(v);
            }
        }
        check_no_shadowing(query)?;
        let index: BTreeMap<String, usize> = var_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let nvars = var_names.len().max(1);
        let mut lowering = Lowering {
            engine: self,
            db,
            index: &index,
            nvars,
            exact: true,
            // cdb-lint: allow(float) — starts the diagnostic sup-norm bound
            // (see `CalcFOutput::approx_sup_error`).
            err: 0.0,
        };
        let formula = lowering.formula(query, false)?;
        let ctx = self.qe_context(self.budget_bits);
        let out = evaluate_query(db, &formula, nvars, &ctx)?;
        let free_names = query.free_vars();
        let mut free_vars = Vec::with_capacity(free_names.len());
        for n in &free_names {
            free_vars.push(index.get(n).copied().ok_or_else(|| {
                CalcFError::Internal(format!("free variable {n} missing from the ring index"))
            })?);
        }
        Ok(CalcFOutput {
            relation: out.relation,
            var_names,
            free_vars,
            exact: lowering.exact,
            approx_sup_error: lowering.err,
        })
    }
}

/// One lowering of a CALC_F formula to a polynomial [`Formula`] over the
/// query's ring: the §5 stages in a single recursive pass. Aggregates are
/// replaced by their values (EVAL by its relation) and analytic terms by
/// a-base approximations as each atom is reached; negation is pushed to
/// the atoms on the way down, so the output is in negation normal form.
struct Lowering<'a> {
    engine: &'a CalcFEngine,
    db: &'a Database,
    index: &'a BTreeMap<String, usize>,
    nvars: usize,
    /// False once an aggregate, EVAL point or analytic term approximated.
    exact: bool,
    /// Largest measured sup-norm error of an approximation used so far.
    // cdb-lint: allow(float) — diagnostic sup-norm bound (see
    // `CalcFOutput::approx_sup_error`); values stay exact.
    err: f64,
}

impl Lowering<'_> {
    /// Ring index of a variable name.
    fn var(&self, name: &str) -> Result<usize, CalcFError> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| CalcFError::Semantic(format!("unknown variable {name}")))
    }

    /// Lower `f` (its negation when `neg`).
    fn formula(&mut self, f: &CFormula, neg: bool) -> Result<Formula, CalcFError> {
        Ok(match f {
            CFormula::True if neg => Formula::False,
            CFormula::False if neg => Formula::True,
            CFormula::True => Formula::True,
            CFormula::False => Formula::False,
            CFormula::Rel(name, args) => {
                let idx = args.iter().map(|a| self.var(a)).collect::<Result<_, _>>()?;
                let rel = Formula::Rel(name.clone(), idx);
                if neg {
                    Formula::not(rel)
                } else {
                    rel
                }
            }
            CFormula::Cmp(a, op, b) => {
                let t = CTerm::Sub(Box::new(self.term(a)?), Box::new(self.term(b)?));
                self.atom(&t, if neg { op.negated() } else { *op })?
            }
            CFormula::EvalPred(vars, body) => {
                let f = relation_to_formula(&self.eval(vars, body)?);
                if neg {
                    Formula::not(f).to_nnf()
                } else {
                    f
                }
            }
            CFormula::Not(g) => self.formula(g, !neg)?,
            CFormula::And(fs) | CFormula::Or(fs) => {
                let parts = fs
                    .iter()
                    .map(|g| self.formula(g, neg))
                    .collect::<Result<_, _>>()?;
                if matches!(f, CFormula::And(_)) != neg {
                    Formula::And(parts)
                } else {
                    Formula::Or(parts)
                }
            }
            CFormula::Exists(v, g) | CFormula::Forall(v, g) => {
                let vi = self.var(v)?;
                let body = self.formula(g, neg)?;
                if matches!(f, CFormula::Exists(..)) != neg {
                    Formula::exists(vi, body)
                } else {
                    Formula::forall(vi, body)
                }
            }
        })
    }

    /// `t` with every scalar aggregate replaced by its value.
    fn term(&mut self, t: &CTerm) -> Result<CTerm, CalcFError> {
        let mut go = |u: &CTerm| self.term(u).map(Box::new);
        Ok(match t {
            CTerm::Var(_) | CTerm::Const(_) => t.clone(),
            CTerm::Add(a, b) => CTerm::Add(go(a)?, go(b)?),
            CTerm::Sub(a, b) => CTerm::Sub(go(a)?, go(b)?),
            CTerm::Mul(a, b) => CTerm::Mul(go(a)?, go(b)?),
            CTerm::Neg(a) => CTerm::Neg(go(a)?),
            CTerm::Pow(a, n) => CTerm::Pow(go(a)?, *n),
            CTerm::Apply(g, a) => CTerm::Apply(*g, go(a)?),
            CTerm::Agg(agg, vars, body) => {
                if *agg == Aggregate::Eval {
                    return Err(CalcFError::Semantic(
                        "EVAL is a predicate, not a scalar term".into(),
                    ));
                }
                let (rel, inner_vars) = self.aggregate_input(*agg, vars, body)?;
                let ctx = self.engine.qe_context(None);
                let out = apply_aggregate(*agg, &rel, &inner_vars, &self.engine.eps, &ctx)?;
                let AggOutput::Scalar(v) = out else {
                    return Err(CalcFError::Internal(
                        "non-EVAL aggregate did not yield a scalar".to_owned(),
                    ));
                };
                self.exact &= v.exact;
                CTerm::Const(v.value)
            }
        })
    }

    /// The relation `EVAL[vars]{body}` denotes, over the outer ring.
    fn eval(&mut self, vars: &[String], body: &CFormula) -> Result<ConstraintRelation, CalcFError> {
        // Evaluate the body as a standalone relation over its own ring,
        // apply EVAL, then map inner ring variable `inner_vars[pos]` to the
        // outer variable `vars[pos]`.
        let (rel, inner_vars) = self.aggregate_input(Aggregate::Eval, vars, body)?;
        let ctx = self.engine.qe_context(None);
        let result = match eval_aggregate(&rel, &inner_vars, &self.engine.eps, &ctx)? {
            EvalResult::Finite { relation, exact } => {
                self.exact &= exact;
                relation
            }
            EvalResult::Unchanged(relation) => relation,
        };
        let mut map = vec![0usize; result.nvars()];
        for (&iv, v) in inner_vars.iter().zip(vars) {
            map[iv] = self.var(v)?;
        }
        Ok(result.remap_vars(&map, self.nvars))
    }

    /// Evaluate an aggregate's body into a constraint relation over its own
    /// variable ring; return the relation and the ring indices of the
    /// aggregate's bound variables.
    fn aggregate_input(
        &mut self,
        agg: Aggregate,
        vars: &[String],
        body: &CFormula,
    ) -> Result<(ConstraintRelation, Vec<usize>), CalcFError> {
        // The paper's technical assumption: no free parameters.
        let free = body.free_vars();
        for v in &free {
            if !vars.contains(v) {
                return Err(CalcFError::Semantic(format!(
                    "aggregate {} has free parameter {v} (unsupported, §5 assumption)",
                    agg.name()
                )));
            }
        }
        let sub = self.engine.evaluate_ast(self.db, body)?;
        self.exact &= sub.exact;
        self.err = self.err.max(sub.approx_sup_error);
        let inner_vars: Vec<usize> = vars
            .iter()
            .map(|v| {
                sub.var_names.iter().position(|n| n == v).ok_or_else(|| {
                    CalcFError::Semantic(format!("aggregate variable {v} unused in its formula"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok((sub.relation, inner_vars))
    }

    /// Turn the aggregate-free `t op 0` into a pure formula, replacing
    /// analytic applications by piecewise polynomial approximations ("each
    /// tuple t containing f(z̄) is replaced by a set of tuples t_e ∧ z ∈ e").
    fn atom(&mut self, t: &CTerm, op: RelOp) -> Result<Formula, CalcFError> {
        // Find an innermost analytic application.
        let Some((func, arg)) = find_innermost_apply(t) else {
            let poly = term_to_terms(t, self.index, self.nvars)?.seal();
            return Ok(Formula::Atom(Atom::new(poly, op)));
        };
        self.exact = false;
        // The argument is analytic-free: a polynomial.
        let arg_poly = term_to_terms(&arg, self.index, self.nvars)?;
        let abase = &self.engine.abase;
        let mut branches = Vec::with_capacity(abase.num_intervals());
        let mut skipped = 0usize;
        for (lo, hi) in abase.intervals() {
            // Cells outside the function's domain contribute no points
            // (the function is undefined there — the paper's singular-
            // point caveat); skip them rather than failing the query.
            // cdb-lint: allow(float-taint) — a domain test on the cell's
            // float image; the approximation itself is exact
            if !func.interval_in_domain(lo.to_f64(), hi.to_f64()) {
                skipped += 1;
                continue;
            }
            let h_e = approximate(func, &lo, &hi, self.engine.order, self.engine.method)?;
            // Track the measured sup-norm error of this piece.
            // cdb-lint: allow(float-taint) — diagnostic sup-norm bound
            let piece_err = cdb_approx::sup_error(func, &h_e, lo.to_f64(), hi.to_f64(), 64);
            self.err = self.err.max(piece_err);
            // Substitute h_e(arg) for the application.
            let replaced = substitute_apply(t, &func, &arg, &h_e);
            // Guard: lo ≤ arg ≤ hi.
            let guard_lo = Atom::new(
                (&Terms::constant(lo, self.nvars) - &arg_poly).seal(),
                RelOp::Le,
            );
            let guard_hi = Atom::new(
                (&arg_poly - &Terms::constant(hi, self.nvars)).seal(),
                RelOp::Le,
            );
            let inner = self.atom(&replaced, op)?;
            branches.push(Formula::And(vec![
                Formula::Atom(guard_lo),
                Formula::Atom(guard_hi),
                inner,
            ]));
        }
        if branches.is_empty() && skipped > 0 {
            return Err(CalcFError::Approx(ApproxError::OutOfDomain {
                func: func.name(),
                interval: format!("the whole a-base span {:?}", abase.span()),
            }));
        }
        Ok(Formula::Or(branches))
    }
}

/// Reject quantifier shadowing (two bindings of the same name, or binding a
/// name that is also free) — variable identity is by name.
fn check_no_shadowing(f: &CFormula) -> Result<(), CalcFError> {
    fn go(f: &CFormula, bound: &mut Vec<String>) -> Result<(), CalcFError> {
        match f {
            CFormula::True | CFormula::False | CFormula::Rel(..) | CFormula::Cmp(..) => Ok(()),
            CFormula::EvalPred(_, g) => go(g, bound),
            CFormula::Not(g) => go(g, bound),
            CFormula::And(fs) | CFormula::Or(fs) => {
                for g in fs {
                    go(g, bound)?;
                }
                Ok(())
            }
            CFormula::Exists(v, g) | CFormula::Forall(v, g) => {
                if bound.contains(v) {
                    return Err(CalcFError::Semantic(format!(
                        "variable {v} is quantified twice (shadowing unsupported)"
                    )));
                }
                bound.push(v.clone());
                go(g, bound)?;
                bound.pop();
                Ok(())
            }
        }
    }
    go(f, &mut Vec::new())
}

/// Find an innermost analytic application (its argument is analytic-free).
fn find_innermost_apply(t: &CTerm) -> Option<(cdb_approx::AnalyticFn, CTerm)> {
    match t {
        CTerm::Var(_) | CTerm::Const(_) => None,
        CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
            find_innermost_apply(a).or_else(|| find_innermost_apply(b))
        }
        CTerm::Neg(a) | CTerm::Pow(a, _) => find_innermost_apply(a),
        CTerm::Apply(f, a) => find_innermost_apply(a).or_else(|| Some((*f, (**a).clone()))),
        CTerm::Agg(..) => None,
    }
}

/// Replace occurrences of `func(arg)` in `t` by the polynomial `h(arg)`.
fn substitute_apply(t: &CTerm, func: &cdb_approx::AnalyticFn, arg: &CTerm, h: &UPoly) -> CTerm {
    match t {
        CTerm::Apply(f, a) if f == func && a.as_ref() == arg => {
            // h(arg) as a term: Horner.
            let mut acc = CTerm::Const(Rat::zero());
            for c in h.coeffs().iter().rev() {
                acc = CTerm::Add(
                    Box::new(CTerm::Mul(Box::new(acc), Box::new(arg.clone()))),
                    Box::new(CTerm::Const(c.clone())),
                );
            }
            acc
        }
        CTerm::Var(_) | CTerm::Const(_) => t.clone(),
        CTerm::Add(a, b) => CTerm::Add(
            Box::new(substitute_apply(a, func, arg, h)),
            Box::new(substitute_apply(b, func, arg, h)),
        ),
        CTerm::Sub(a, b) => CTerm::Sub(
            Box::new(substitute_apply(a, func, arg, h)),
            Box::new(substitute_apply(b, func, arg, h)),
        ),
        CTerm::Mul(a, b) => CTerm::Mul(
            Box::new(substitute_apply(a, func, arg, h)),
            Box::new(substitute_apply(b, func, arg, h)),
        ),
        CTerm::Neg(a) => CTerm::Neg(Box::new(substitute_apply(a, func, arg, h))),
        CTerm::Pow(a, n) => CTerm::Pow(Box::new(substitute_apply(a, func, arg, h)), *n),
        CTerm::Apply(f, a) => CTerm::Apply(*f, Box::new(substitute_apply(a, func, arg, h))),
        CTerm::Agg(..) => t.clone(),
    }
}

/// Lower an analytic-free, aggregate-free term to an unsealed polynomial:
/// the whole tree is built in [`Terms`], so a caller seals once per atom.
fn term_to_terms(
    t: &CTerm,
    index: &BTreeMap<String, usize>,
    nvars: usize,
) -> Result<Terms, CalcFError> {
    let go = |u: &CTerm| term_to_terms(u, index, nvars);
    Ok(match t {
        CTerm::Var(v) => {
            let i = *index
                .get(v)
                .ok_or_else(|| CalcFError::Semantic(format!("unknown variable {v}")))?;
            Terms::var(i, nvars)
        }
        CTerm::Const(c) => Terms::constant(c.clone(), nvars),
        CTerm::Add(a, b) => &go(a)? + &go(b)?,
        CTerm::Sub(a, b) => &go(a)? - &go(b)?,
        CTerm::Mul(a, b) => &go(a)? * &go(b)?,
        CTerm::Neg(a) => -go(a)?,
        CTerm::Pow(a, n) => go(a)?.pow(*n),
        CTerm::Apply(f, _) => {
            return Err(CalcFError::Semantic(format!(
                "analytic function {f} not eliminated"
            )))
        }
        CTerm::Agg(agg, ..) => {
            return Err(CalcFError::Semantic(format!(
                "aggregate {} not eliminated",
                agg.name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::GeneralizedTuple;
    use cdb_poly::MPoly;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    /// Database with the paper's S(x, y).
    fn paper_db() -> Database {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&c(4, 2) * &x.pow(2)) - &y) - &(&(&c(20, 2) * &x) - &c(25, 2));
        let mut db = Database::new();
        db.insert(
            "S",
            ConstraintRelation::new(
                2,
                vec![GeneralizedTuple::new(2, vec![Atom::new(p, RelOp::Le)])],
            ),
        );
        db
    }

    /// **Example 5.1 / 5.4**: the SURFACE query answers {18}.
    #[test]
    fn example_51_surface_query() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let out = engine
            .evaluate(&db, "z = SURFACE[x, y]{ S(x, y) and y <= 9 }")
            .unwrap();
        let pts = out.as_points().expect("finite answer");
        assert_eq!(pts, vec![vec![Rat::from(18i64)]]);
        assert!(out.exact, "polynomial bounds are integrated exactly");
    }

    /// Aggregate stages evaluate in the engine's memo-cache, not a cold
    /// one of their own: the same SURFACE query a second time on one engine
    /// is answered from the cache, byte for byte.
    #[test]
    fn aggregate_stage_shares_engine_cache() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let query = "z = SURFACE[x, y]{ S(x, y) and y <= 9 }";
        let first = engine.evaluate(&db, query).unwrap().display();
        let (hits, misses) = (engine.cache.hits(), engine.cache.misses());
        assert!(misses > 0, "the aggregate stage never reached engine.cache");
        let second = engine.evaluate(&db, query).unwrap().display();
        assert_eq!(first, second);
        assert!(engine.cache.hits() > hits);
        assert_eq!(engine.cache.misses(), misses);
    }

    /// **Figure 1** through the CALC_F surface syntax.
    #[test]
    fn figure1_textual() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let out = engine
            .evaluate(&db, "exists y (S(x, y) and y <= 0)")
            .unwrap();
        assert!(out
            .relation
            .satisfied_at(&out.point(&["5/2".parse().unwrap()])));
        assert!(!out.relation.satisfied_at(&out.point(&[Rat::from(2i64)])));
        assert_eq!(out.var_names[out.free_vars[0]], "x");
    }

    /// Analytic function: sin(x) = 0 near the origin within the a-base.
    #[test]
    fn analytic_sin_roots() {
        let db = Database::new();
        let engine = CalcFEngine {
            abase: ABase::uniform(Rat::from(-4i64), Rat::from(4i64), 16),
            order: 8,
            ..CalcFEngine::default()
        };
        let out = engine
            .evaluate(&db, "sin(x) = 0 and x >= 1 and x <= 4")
            .unwrap();
        assert!(!out.exact);
        // The only true sin-root in [1, 4] is π; our approximate relation
        // must hold near π and fail away from it.
        let ctx = QeContext::exact();
        let pts = cdb_qe::pipeline::numerical_evaluation(
            &out.relation,
            &out.free_vars,
            &"1/1048576".parse().unwrap(),
            &ctx,
        )
        .unwrap()
        .expect("finite");
        assert_eq!(pts.len(), 1, "one root in [1,4]");
        let root = pts[0].coords[0].to_f64();
        assert!(
            (root - std::f64::consts::PI).abs() < 1e-3,
            "root {root} vs π"
        );
    }

    /// MIN over a derived set.
    #[test]
    fn min_aggregate() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        // MIN of { y | S(2.5, y) }: at x = 2.5 the parabola bottoms at 0…
        // but MIN needs a parameter-free formula: use exists x.
        let out = engine
            .evaluate(&db, "m = MIN[y]{ exists x (S(x, y) and x = 2) }")
            .unwrap();
        // At x = 2: 16 − y − 40 + 25 ≤ 0 ⇔ y ≥ 1: MIN = 1.
        let pts = out.as_points().expect("finite");
        assert_eq!(pts, vec![vec![Rat::one()]]);
    }

    /// EVAL as a predicate: solutions of (2x−5)² ≤ 0.
    #[test]
    fn eval_predicate() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let out = engine
            .evaluate(&db, "EVAL[x]{ exists y (S(x, y) and y <= 0) }")
            .unwrap();
        let pts = out.as_points().expect("finite");
        assert_eq!(pts.len(), 1);
        assert!((&pts[0][0] - &"5/2".parse().unwrap()).abs() < "1/1000".parse().unwrap());
    }

    /// EVAL of an irrational point set is an approximation, and the answer
    /// says so; rational points stay exact.
    #[test]
    fn eval_of_irrational_points_is_inexact() {
        let db = Database::new();
        let engine = CalcFEngine::default();
        let sqrt2 = engine.evaluate(&db, "EVAL[x]{ x^2 = 2 }").unwrap();
        assert_eq!(sqrt2.as_points().expect("finite").len(), 2);
        assert!(!sqrt2.exact);
        let rational = engine.evaluate(&db, "EVAL[x]{ x = 1 or x = 2 }").unwrap();
        assert!(rational.exact);
    }

    /// Nested aggregates: MAX over a singleton built from SURFACE.
    #[test]
    fn nested_aggregates() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let out = engine
            .evaluate(
                &db,
                "w = MAX[v]{ v = SURFACE[x, y]{ S(x, y) and y <= 9 } or v = 1 }",
            )
            .unwrap();
        let pts = out.as_points().expect("finite");
        assert_eq!(pts, vec![vec![Rat::from(18i64)]]);
    }

    /// Parameterized aggregates are rejected (the paper's assumption).
    #[test]
    fn parameterized_aggregate_rejected() {
        let db = paper_db();
        let engine = CalcFEngine::default();
        let err = engine.evaluate(&db, "z = MIN[y]{ S(x, y) }").unwrap_err();
        assert!(matches!(err, CalcFError::Semantic(_)), "{err}");
    }

    /// Shadowing is rejected.
    #[test]
    fn shadowing_rejected() {
        let db = Database::new();
        let engine = CalcFEngine::default();
        let err = engine
            .evaluate(&db, "exists x (exists x (x = 0))")
            .unwrap_err();
        assert!(matches!(err, CalcFError::Semantic(_)));
    }

    /// Undefined aggregate (unbounded region) maps to a typed error.
    #[test]
    fn undefined_aggregate() {
        let db = Database::new();
        let engine = CalcFEngine::default();
        let err = engine.evaluate(&db, "z = MAX[y]{ y >= 0 }").unwrap_err();
        assert!(matches!(err, CalcFError::Aggregate(AggError::Unbounded)));
    }

    /// Lowering is one pass, so when two atoms both fail the first in
    /// formula order reports: here `ln`, undefined on the whole a-base,
    /// before the MIN of a set with no least element.
    #[test]
    fn first_failing_atom_reports() {
        let db = Database::new();
        let engine = CalcFEngine {
            abase: ABase::uniform(Rat::from(-4i64), Rat::from(-1i64), 3),
            ..CalcFEngine::default()
        };
        let min_alone = engine.evaluate(&db, "z = MIN[y]{ y > 0 }").unwrap_err();
        assert!(matches!(min_alone, CalcFError::Aggregate(_)), "{min_alone}");
        let err = engine
            .evaluate(&db, "ln(x) > 0 and z = MIN[y]{ y > 0 }")
            .unwrap_err();
        assert!(
            matches!(err, CalcFError::Approx(ApproxError::OutOfDomain { .. })),
            "{err}"
        );
    }

    /// Finite-precision CALC_F: tiny budgets give undefined, not wrong.
    #[test]
    fn finite_precision_budget() {
        let db = paper_db();
        let engine = CalcFEngine {
            budget_bits: Some(3),
            ..CalcFEngine::default()
        };
        let err = engine
            .evaluate(&db, "exists y (S(x, y) and y <= 0)")
            .unwrap_err();
        assert!(matches!(
            err,
            CalcFError::Qe(QeError::PrecisionExceeded { .. })
        ));
    }
}
