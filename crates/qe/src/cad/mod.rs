//! Cylindrical algebraic decomposition and CAD-based quantifier
//! elimination — the `FO(≤, +, ×)` engine (Appendix I).
//!
//! A CAD of `R^n` w.r.t. the matrix polynomials is a tower of
//! decompositions `C₁, …, Cₙ`, each cell sign-invariant for every
//! projection polynomial. The fixed variable order required by the paper's
//! finite-precision semantics (§4: "the cylindrical algebraic decomposition
//! is always performed following this pre-established order") is: free
//! variables in ascending index order, then quantified variables from the
//! outermost quantifier inwards.

pub mod project;
pub mod sample;
pub mod solution;
pub mod stack;

use crate::par::fan_out;
use crate::{QeContext, QeError};
use cdb_constraints::{ConstraintRelation, Formula, Quantifier};
use cdb_num::Sign;
use cdb_poly::{MPoly, RealAlg};
use project::Registry;
use stack::{build_stack, Below, StackWalk};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Hard cap on the number of cells of one level, to fail fast instead of
/// thrashing.
const MAX_CELLS: usize = 500_000;

/// A cell of the decomposition at some level `L`, with its sample point and
/// the signs of all projection polynomials of levels ≤ `L`.
#[derive(Clone, Debug)]
pub struct CadCell {
    /// Index of the parent cell at the previous level (`None` at level 1).
    pub parent: Option<usize>,
    /// Sample coordinates for levels 1..=L, in variable-order positions.
    pub sample: Vec<RealAlg>,
    /// Stack position per level (1-based; odd = sector, even = section).
    pub index: Vec<usize>,
    /// Sign of each projection polynomial (by registry id) at the sample.
    pub signs: BTreeMap<usize, Sign>,
}

impl CadCell {
    /// Cell dimension: number of sector (odd-index) levels.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.index.iter().filter(|&&i| i % 2 == 1).count()
    }
}

/// A completed cylindrical algebraic decomposition.
///
/// What lifting a level reads is behind `Arc`s, so the jobs that lift the
/// next level own a share of it (DESIGN.md §6).
pub struct Cad {
    /// Ambient ring arity.
    pub nvars: usize,
    /// `order[l-1]` = ambient variable of level `l`.
    pub order: Vec<usize>,
    /// All projection polynomials.
    pub registry: Arc<Registry>,
    /// Per level: registry ids of that level's polynomials.
    pub level_poly_ids: Vec<Vec<usize>>,
    /// Per level: the cells.
    pub levels: Vec<Arc<[CadCell]>>,
    /// The input polynomials, each resolved against `registry` once (truth
    /// evaluation asks for their signs at every finest cell).
    inputs: Arc<[Input]>,
}

/// An input polynomial and its place in the registry.
type Input = (MPoly, Option<Resolved>);

/// A polynomial's place in the registry: the projection polynomial that is
/// its normal form, and — when it is a rational multiple of that normal form
/// rather than differing by repeated factors — whether the multiple is
/// negative.
#[derive(Clone, Copy)]
struct Resolved {
    id: usize,
    negated_multiple: Option<bool>,
}

impl Resolved {
    /// Sign of the resolved polynomial where its normal form has sign `s`;
    /// `direct` evaluates the polynomial itself, and runs only when the two
    /// differ by repeated factors and the value is nonzero.
    fn sign(
        self,
        s: Sign,
        direct: impl FnOnce() -> Result<Sign, QeError>,
    ) -> Result<Sign, QeError> {
        match (s, self.negated_multiple) {
            (Sign::Zero, _) => Ok(Sign::Zero),
            (s, Some(negated)) => Ok(if negated { s.neg() } else { s }),
            (_, None) => direct(),
        }
    }

    /// `p` against its normal form, registered as `id`.
    fn new(registry: &Registry, id: usize, p: &MPoly) -> Resolved {
        // `primitive()` flips a negative lex-leading coefficient.
        let negated_multiple = (&p.primitive() == registry.get(id))
            .then(|| p.terms().last().is_some_and(|(_, c)| c.sign() == Sign::Neg));
        Resolved {
            id,
            negated_multiple,
        }
    }
}

impl Cad {
    /// Total number of cells at the top (finest) level.
    #[must_use]
    pub fn top_cells(&self) -> usize {
        self.levels.last().map_or(0, |cells| cells.len())
    }

    /// Sign lookups at this CAD's cells.
    fn lookup(&self) -> Lookup<'_> {
        Lookup {
            order: &self.order,
            registry: &self.registry,
            inputs: &self.inputs,
        }
    }

    /// Level (1-based) of a normalized polynomial under the variable order:
    /// the position of its highest-order used variable.
    fn level_of(&self, p: &MPoly) -> usize {
        level_of(p, &self.order)
    }
}

/// What reading a polynomial's sign at a cell needs of a CAD: the variable
/// order (at least up to the cell's level), the projection polynomials and
/// the resolved inputs.
#[derive(Clone, Copy)]
struct Lookup<'a> {
    order: &'a [usize],
    registry: &'a Registry,
    inputs: &'a [Input],
}

impl Lookup<'_> {
    /// `p`'s place in the registry: looked up among the inputs (resolved
    /// once, at construction), else by normal form.
    fn resolve(self, p: &MPoly, ctx: &QeContext) -> Option<Resolved> {
        match self.inputs.iter().find(|(q, _)| q == p) {
            Some((_, r)) => *r,
            None => ctx
                .cache
                .normal_form(p)
                .and_then(|norm| self.registry.find(&norm))
                .map(|id| Resolved::new(self.registry, id, p)),
        }
    }
}

fn level_of(p: &MPoly, order: &[usize]) -> usize {
    let mut lvl = 0;
    for (pos, &v) in order.iter().enumerate() {
        if p.uses_var(v) {
            lvl = lvl.max(pos + 1);
        }
    }
    assert!(lvl >= 1, "constant polynomial has no level");
    lvl
}

/// Build a CAD of `R^order.len()` sign-invariant for (the normal forms of)
/// `input_polys`, materialising **every** level: region scans
/// (`cdb_agg::region`), [`crate::pipeline`] and [`true_cells`] enumerate the
/// finest cells, and [`solution::evaluate_truth`] is the reference the
/// partial path of [`eliminate`] is tested against.
pub fn build_cad(
    input_polys: &[MPoly],
    order: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<Cad, QeError> {
    build_levels(input_polys, order, nvars, order.len(), ctx)
}

/// Project for all of `order`, then lift levels `1..=upto` only.
fn build_levels(
    input_polys: &[MPoly],
    order: &[usize],
    nvars: usize,
    upto: usize,
    ctx: &QeContext,
) -> Result<Cad, QeError> {
    let n = order.len();
    assert!(n >= 1, "CAD needs at least one variable");
    let mut registry = Registry::default();
    let mut level_poly_ids: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Registers the normal form of `p` and returns its id.
    let add = |p: &MPoly,
               registry: &mut Registry,
               level_poly_ids: &mut Vec<Vec<usize>>|
     -> Result<Option<usize>, QeError> {
        ctx.observe_poly(p)?;
        let Some(norm) = ctx.cache.normal_form(p) else {
            return Ok(None);
        };
        let lvl = level_of(&norm, order);
        let id = registry.insert(norm);
        if !level_poly_ids[lvl - 1].contains(&id) {
            level_poly_ids[lvl - 1].push(id);
        }
        Ok(Some(id))
    };
    let mut inputs = Vec::with_capacity(input_polys.len());
    for p in input_polys {
        let id = add(p, &mut registry, &mut level_poly_ids)?;
        inputs.push((p.clone(), id.map(|id| Resolved::new(&registry, id, p))));
    }
    // Projection phase, top level downwards.
    for l in (2..=n).rev() {
        let polys: Vec<MPoly> = level_poly_ids[l - 1]
            .iter()
            .map(|&id| registry.get(id).clone())
            .collect();
        if polys.is_empty() {
            continue;
        }
        let out = project::project(&polys, order[l - 1], ctx)?;
        for p in &out {
            add(p, &mut registry, &mut level_poly_ids)?;
        }
    }
    // Base phase + lifting.
    let mut cad = Cad {
        nvars,
        order: order.to_vec(),
        registry: Arc::new(registry),
        level_poly_ids,
        levels: Vec::with_capacity(upto),
        inputs: inputs.into(),
    };
    for l in 1..=upto {
        let stacks = lift(&cad, l, ctx, lift_parent)?;
        cad.levels.push(stacks.into_iter().flatten().collect());
    }
    Ok(cad)
}

/// What every parent of one lifted level reads, owned so that the parents
/// can run on the pool's helpers: shares of the CAD's registry and resolved
/// inputs, and the level.
struct Frame {
    registry: Arc<Registry>,
    inputs: Arc<[Input]>,
    level: Level,
}

impl Frame {
    /// Sign lookups at cells of the levels below the lifted one (and of the
    /// lifted one).
    fn lookup(&self) -> Lookup<'_> {
        Lookup {
            order: &self.level.vars,
            registry: &self.registry,
            inputs: &self.inputs,
        }
    }
}

/// What lifting to one level needs of the CAD: the variables of levels
/// `1..=l` (the last is the stack variable) and the level's polynomials.
struct Level {
    vars: Vec<usize>,
    polys: Vec<(usize, MPoly)>,
    /// By level polynomial id: the registry id of its discriminant's normal
    /// form, resolved on the first fibre over an algebraic sample that asks
    /// (`None` when there is none to read a sign off).
    discs: BTreeMap<usize, OnceLock<Option<usize>>>,
}

/// Run `per_parent` (→ its result and the number of cells it cost) on every
/// cell of level `l−1` — the virtual root cell when `l == 1` — through the
/// one fan-out site, and book the cells.
///
/// The parents run on a [`QeContext::job_local`] copy of `ctx` that the
/// fan-out's threads share; its sign evaluations and largest bit length
/// fold back into `ctx` when the level is done, so the counts are the
/// sequential loop's for every worker count.
fn lift<T: Send + 'static>(
    cad: &Cad,
    l: usize,
    ctx: &QeContext,
    per_parent: impl Fn(&Frame, usize, &CadCell, &QeContext) -> Result<(T, usize), QeError>
        + Send
        + Sync
        + 'static,
) -> Result<Vec<T>, QeError> {
    let ids = &cad.level_poly_ids[l - 1];
    let frame = Frame {
        registry: Arc::clone(&cad.registry),
        inputs: Arc::clone(&cad.inputs),
        level: Level {
            vars: cad.order[..l].to_vec(),
            polys: ids
                .iter()
                .map(|&id| (id, cad.registry.get(id).clone()))
                .collect(),
            discs: ids.iter().map(|&id| (id, OnceLock::new())).collect(),
        },
    };
    let parents: Arc<[CadCell]> = match l.checked_sub(2) {
        Some(below) => Arc::clone(&cad.levels[below]),
        None => Arc::new([CadCell {
            parent: None,
            sample: Vec::new(),
            index: Vec::new(),
            signs: BTreeMap::new(),
        }]),
    };
    let job_ctx = Arc::new(ctx.job_local());
    let shared = Arc::clone(&job_ctx);
    let lifted = lift_level(
        parents,
        ctx.effective_workers(),
        MAX_CELLS,
        move |pi, parent| per_parent(&frame, pi, parent, &shared),
    );
    ctx.fold(&job_ctx);
    let (out, cells) = lifted?;
    ctx.cells_built.add(cells as u64);
    Ok(out)
}

/// Lift every parent; the results come back in parent order with the
/// level's cell count, and a level of more than `limit` cells is an error
/// for every `workers`.
///
/// `lift` returns a parent's result and the cells it cost: the stack it
/// materialised, or the cells it visited deciding the innermost quantifier.
/// Each parent's stack is independent of its siblings (it depends only on
/// the parent sample and the level polynomials), so with `workers > 1` the
/// parents fan out and the per-parent results are collected back in parent
/// order — the exact sequence the sequential loop produces. This is the
/// only fan-out under a query (DESIGN.md §6).
fn lift_level<T: Send + 'static>(
    parents: Arc<[CadCell]>,
    workers: usize,
    limit: usize,
    lift: impl Fn(usize, &CadCell) -> Result<(T, usize), QeError> + Send + Sync + 'static,
) -> Result<(Vec<T>, usize), QeError> {
    // The guard counts the cells of *finished* parents. That sum only grows
    // towards the size of the level and reaches it when the last parent
    // finishes, so some parent reports the error exactly when the level is
    // over the limit — the sequential condition, whatever the interleaving —
    // and a runaway level still fails before it is built.
    let built = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&built);
    let out = fan_out(parents.len(), workers, move |pi| {
        let (result, cells) = lift(pi, &parents[pi])?;
        if counted.fetch_add(cells, Ordering::SeqCst) + cells > limit {
            return Err(QeError::Unsupported(format!("CAD exceeded {limit} cells")));
        }
        Ok(result)
    })?;
    Ok((out, built.load(Ordering::SeqCst)))
}

/// The stack over `parent` for the polynomials of the lifted level, ready
/// to walk.
fn open_stack<'l>(
    frame: &'l Frame,
    parent: &'l CadCell,
    ctx: &QeContext,
) -> Result<StackWalk<'l>, QeError> {
    let level = &frame.level;
    let (yvar, parent_vars) = level
        .vars
        .split_last()
        .ok_or_else(|| QeError::Unsupported("CAD level without a variable".into()))?;
    let below = ParentZeros {
        frame,
        parent,
        parent_vars,
        ctx,
    };
    let stack = build_stack(
        &level.polys,
        parent_vars,
        parent.sample.clone(),
        *yvar,
        &below,
        ctx,
    )?;
    Ok(StackWalk::new(&level.polys, &level.vars, stack))
}

/// Lift one parent cell: build its stack and emit the interleaved
/// sector/section cells with their sign vectors (and their number).
fn lift_parent(
    frame: &Frame,
    pi: usize,
    parent: &CadCell,
    ctx: &QeContext,
) -> Result<(Vec<CadCell>, usize), QeError> {
    let level = &frame.level;
    let mut walk = open_stack(frame, parent, ctx)?;
    let mut out: Vec<CadCell> = Vec::with_capacity(walk.cells());
    loop {
        // The base as building and walking the stack refined it so far.
        let mut sample = walk.base().to_vec();
        sample.push(walk.coord());
        let mut index = parent.index.clone();
        index.push(out.len() + 1); // 1-based; odd = sector
        let mut signs = parent.signs.clone();
        for (id, _) in &level.polys {
            signs.insert(*id, walk.sign(*id, ctx)?);
        }
        out.push(CadCell {
            parent: (level.vars.len() > 1).then_some(pi),
            sample,
            index,
            signs,
        });
        if !walk.advance() {
            return Ok((out, walk.cells()));
        }
    }
}

/// Decide the innermost quantifier `q` over one cell of level `n−1` without
/// building its stack's cells (DESIGN.md §5 rule 4): the verdict, and the
/// number of cells looked at.
fn decide_parent(
    frame: &Frame,
    parent: &CadCell,
    matrix: &Formula,
    q: Quantifier,
    ctx: &QeContext,
) -> Result<(bool, usize), QeError> {
    let lookup = frame.lookup();
    // A parent whose own signs decide the matrix gets no stack. (The virtual
    // root of an `n = 1` sentence has no signs to try.)
    if frame.level.vars.len() > 1 {
        if let Some(v) = eval3(matrix, &mut |p| cell_sign(lookup, parent, p, ctx))? {
            return Ok((v, 1));
        }
    }
    let deciding = q == Quantifier::Exists;
    let mut walk = open_stack(frame, parent, ctx)?;
    let mut visited = 0;
    loop {
        visited += 1;
        let truth = eval3(matrix, &mut |p| match cell_sign(lookup, parent, p, ctx)? {
            Some(s) => Ok(Some(s)),
            None => {
                let r = lookup.resolve(p, ctx).ok_or_else(|| {
                    QeError::Unsupported(format!("matrix polynomial {p} is not in the CAD"))
                })?;
                let s = walk.sign(r.id, ctx)?;
                r.sign(s, || walk.sign_at_sector(p, ctx)).map(Some)
            }
        })?
        .ok_or_else(|| QeError::Unsupported("matrix undecided on a stack cell".into()))?;
        if truth == deciding || !walk.advance() {
            return Ok((truth, visited));
        }
    }
}

/// The zero tests lifting over `parent` asks of the levels below, read off
/// its sign vector.
struct ParentZeros<'a> {
    frame: &'a Frame,
    parent: &'a CadCell,
    parent_vars: &'a [usize],
    ctx: &'a QeContext,
}

impl Below for ParentZeros<'_> {
    fn is_zero(&self, p: &MPoly) -> Result<bool, QeError> {
        if let Some(c) = p.to_constant() {
            return Ok(c.is_zero());
        }
        // A coefficient is often a projection polynomial as it stands.
        let registry = &self.frame.registry;
        let registered = match registry.find(p) {
            Some(id) => Some(id),
            None => {
                let Some(norm) = self.ctx.cache.normal_form(p) else {
                    return Ok(false); // effectively a nonzero constant
                };
                registry.find(&norm)
            }
        };
        match registered.and_then(|id| self.parent.signs.get(&id)) {
            Some(s) => Ok(*s == Sign::Zero),
            // Not in the projection set (shouldn't happen for coefficients
            // and discriminants, but stay safe): exact evaluation.
            None => {
                let mut at = self.parent.sample.clone();
                let s = sample::sign_at(p, self.parent_vars, &mut at, self.ctx)?;
                Ok(s == Sign::Zero)
            }
        }
    }

    /// The discriminant's normal form is resolved once per level
    /// polynomial, so a fibre reads one sign and normalises nothing.
    fn disc_is_zero(&self, id: usize, p: &MPoly, yvar: usize) -> Result<bool, QeError> {
        let disc = || self.ctx.cache.discriminant(p, yvar);
        let registered = self.frame.level.discs.get(&id).and_then(|slot| {
            *slot.get_or_init(|| {
                let norm = self.ctx.cache.normal_form(&disc());
                norm.and_then(|n| self.frame.registry.find(&n))
            })
        });
        match registered.and_then(|r| self.parent.signs.get(&r)) {
            Some(s) => Ok(*s == Sign::Zero),
            None => self.is_zero(&disc()),
        }
    }
}

/// Exact sign of a polynomial at a cell's sample point, read off the cell's
/// sign vector where that decides it; `None` for a polynomial of a higher
/// level than the cell.
fn cell_sign(
    lookup: Lookup<'_>,
    cell: &CadCell,
    p: &MPoly,
    ctx: &QeContext,
) -> Result<Option<Sign>, QeError> {
    if let Some(c) = p.to_constant() {
        return Ok(Some(c.sign()));
    }
    // The cell is finished and shared: sign on a copy of its sample.
    let at_sample = || {
        let vars = &lookup.order[..cell.sample.len()];
        sample::sign_at(p, vars, &mut cell.sample.clone(), ctx)
    };
    match lookup.resolve(p, ctx) {
        Some(r) => match cell.signs.get(&r.id) {
            Some(&s) => r.sign(s, at_sample).map(Some),
            None => Ok(None),
        },
        None => at_sample().map(Some),
    }
}

/// Three-valued evaluation of a pure quantifier-free formula over a sign
/// oracle that may not know a polynomial's sign (`None`): `And`/`Or` still
/// short-circuit on a deciding member, and are unknown only when no member
/// decides and some member is unknown. The one formula evaluator of the CAD.
fn eval3(
    f: &Formula,
    sign: &mut impl FnMut(&MPoly) -> Result<Option<Sign>, QeError>,
) -> Result<Option<bool>, QeError> {
    match f {
        Formula::True => Ok(Some(true)),
        Formula::False => Ok(Some(false)),
        Formula::Atom(a) => Ok(sign(&a.poly)?.map(|s| a.op.accepts(s))),
        Formula::Not(b) => Ok(eval3(b, sign)?.map(|t| !t)),
        Formula::And(fs) | Formula::Or(fs) => {
            // `Or` stops at its first true member, `And` at its first false.
            let stop = matches!(f, Formula::Or(_));
            let mut unknown = false;
            for g in fs {
                match eval3(g, sign)? {
                    Some(t) if t == stop => return Ok(Some(stop)),
                    Some(_) => {}
                    None => unknown = true,
                }
            }
            Ok((!unknown).then_some(!stop))
        }
        Formula::Rel(name, _) => Err(QeError::Schema(format!(
            "uninstantiated relation {name} in CAD matrix"
        ))),
        Formula::Quant(..) => Err(QeError::Unsupported("quantifier inside CAD matrix".into())),
    }
}

/// Evaluate a pure quantifier-free formula at a cell's sample point.
pub fn eval_formula_at_cell(
    cad: &Cad,
    cell: &CadCell,
    f: &Formula,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    eval3(f, &mut |p| cell_sign(cad.lookup(), cell, p, ctx))?.ok_or_else(|| {
        QeError::Unsupported("formula uses a variable above the cell's level".into())
    })
}

/// CAD-based quantifier elimination.
///
/// `matrix` must be pure (no relation symbols) and quantifier-free, in NNF;
/// `prefix` is the quantifier block (outermost first); `free` lists the free
/// variables in ascending order. The output is a DNF relation over the free
/// variables, equivalent to `prefix. matrix` (and sign-invariant formula
/// construction is retried with derivative augmentation on collision).
///
/// Unlike [`build_cad`], this is a *partial* CAD ([`decide`]): the level of
/// the innermost quantifier is decided stack by stack, never materialised.
pub fn eliminate(
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    assert!(
        !free.is_empty() || !prefix.is_empty(),
        "eliminate with no variables"
    );
    let mut augmented = matrix_polys(matrix)?;
    for attempt in 0..3 {
        let (cad, truth) = decide(&augmented, matrix, prefix, free, nvars, ctx)?;
        match solution::construct_formula(&cad, &truth, free.len(), nvars, ctx) {
            Ok(rel) => return Ok(rel),
            Err(QeError::FormulaConstruction(_)) if attempt < 2 => {
                // Augment with derivatives of the level polynomials
                // (Hong-style) and retry with a finer decomposition.
                let mut extra = Vec::new();
                for (_, p) in cad.registry.iter() {
                    let lvl = cad.level_of(p);
                    let d = p.derivative(cad.order[lvl - 1]);
                    if !d.is_constant() {
                        extra.push(d);
                    }
                }
                augmented.extend(extra);
            }
            Err(e) => return Err(e),
        }
    }
    Err(QeError::FormulaConstruction(
        "sign vectors still collide after augmentation".into(),
    ))
}

/// The partial CAD behind [`eliminate`] and [`decide_sentence`], and the
/// truth table it yields (DESIGN.md §5 rule 4).
///
/// The variable order is `free` then `prefix`, `n` levels in all. Only
/// levels `1..n−1` of the returned CAD are materialised: for each cell of
/// level `n−1` (the virtual root when `n == 1`) the innermost quantifier is
/// *decided* — by the cell's own sign vector when the lower-level atoms
/// settle the matrix, otherwise by walking the cell's stack in order and
/// stopping at the first deciding cell — and the verdicts are folded through
/// the outer quantifiers. With an empty `prefix` there is nothing to decide
/// and every level is built. The table equals
/// [`solution::evaluate_truth`] on the full [`build_cad`].
pub fn decide(
    input_polys: &[MPoly],
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<(Cad, solution::TruthTable), QeError> {
    let mut order: Vec<usize> = free.to_vec();
    order.extend(prefix.iter().map(|(_, v)| *v));
    let Some(((q, _), outer)) = prefix.split_last() else {
        let cad = build_cad(input_polys, &order, nvars, ctx)?;
        let truth = solution::evaluate_truth(&cad, matrix, prefix, free.len(), ctx)?;
        return Ok((cad, truth));
    };
    let n = order.len();
    let cad = build_levels(input_polys, &order, nvars, n - 1, ctx)?;
    let (matrix, q) = (matrix.clone(), *q);
    let verdicts = lift(&cad, n, ctx, move |frame, _, parent, ctx| {
        decide_parent(frame, parent, &matrix, q, ctx)
    })?;
    let truth = solution::fold_prefix(&cad, verdicts, outer, free.len())?;
    Ok((cad, truth))
}

/// Distinct non-constant polynomials of a pure quantifier-free formula, in
/// first-occurrence order: the CAD's input set.
pub fn matrix_polys(f: &Formula) -> Result<Vec<MPoly>, QeError> {
    let mut out = Vec::new();
    collect_polys(f, &mut out)?;
    Ok(out)
}

fn collect_polys(f: &Formula, out: &mut Vec<MPoly>) -> Result<(), QeError> {
    match f {
        Formula::True | Formula::False => Ok(()),
        Formula::Atom(a) => {
            if !a.poly.is_constant() && !out.contains(&a.poly) {
                out.push(a.poly.clone());
            }
            Ok(())
        }
        Formula::Not(b) => collect_polys(b, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                collect_polys(g, out)?;
            }
            Ok(())
        }
        Formula::Rel(name, _) => Err(QeError::Schema(format!(
            "uninstantiated relation {name} in CAD input"
        ))),
        Formula::Quant(..) => Err(QeError::Unsupported(
            "quantified matrix in CAD input".into(),
        )),
    }
}

/// Decide a sentence (no free variables): partial CAD of the quantified
/// space ([`decide`]) plus truth propagation to the root.
pub fn decide_sentence(
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    nvars: usize,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    if prefix.is_empty() {
        // Variable-free matrix.
        return matrix.eval_at(&[]).map_err(QeError::Unsupported);
    }
    let (_, truth) = decide(&matrix_polys(matrix)?, matrix, prefix, &[], nvars, ctx)?;
    // With no free levels, `truth` holds the single root verdict.
    Ok(truth.root_truth)
}

/// Convenience: sample points of the top-level cells where `matrix` holds
/// (used by aggregate modules for region scanning).
pub fn true_cells<'c>(
    cad: &'c Cad,
    matrix: &Formula,
    ctx: &QeContext,
) -> Result<Vec<&'c CadCell>, QeError> {
    let mut out = Vec::new();
    for cell in cad.levels.last().into_iter().flat_map(|cells| cells.iter()) {
        if eval_formula_at_cell(cad, cell, matrix, ctx)? {
            out.push(cell);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, RelOp};
    use cdb_num::Rat;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn atom(p: MPoly, op: RelOp) -> Formula {
        Formula::Atom(Atom::new(p, op))
    }

    /// The three-valued evaluator over an oracle that knows `x`'s sign but
    /// not `y`'s: a deciding member wins over unknown ones on either side,
    /// `Not` keeps unknown unknown, and the oracle is not asked past a
    /// deciding member.
    #[test]
    fn eval3_short_circuits_around_unknowns() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let asked = std::cell::Cell::new(0);
        let eval = |f: &Formula| {
            eval3(f, &mut |p| {
                asked.set(asked.get() + 1);
                Ok((*p == x).then_some(Sign::Pos))
            })
            .unwrap()
        };
        let (x_pos, x_neg) = (atom(x.clone(), RelOp::Gt), atom(x.clone(), RelOp::Lt));
        let y_pos = atom(y.clone(), RelOp::Gt);
        assert_eq!(eval(&y_pos), None);
        assert_eq!(eval(&Formula::Not(Box::new(y_pos.clone()))), None);
        assert_eq!(eval(&Formula::Not(Box::new(x_neg.clone()))), Some(true));
        let and = |fs: &[&Formula]| Formula::And(fs.iter().map(|&f| f.clone()).collect());
        let or = |fs: &[&Formula]| Formula::Or(fs.iter().map(|&f| f.clone()).collect());
        assert_eq!(eval(&and(&[&y_pos, &x_neg])), Some(false));
        assert_eq!(eval(&and(&[&y_pos, &x_pos])), None);
        assert_eq!(eval(&and(&[&x_pos, &x_pos])), Some(true));
        assert_eq!(eval(&or(&[&y_pos, &x_pos])), Some(true));
        assert_eq!(eval(&or(&[&y_pos, &x_neg])), None);
        assert_eq!(eval(&or(&[&x_neg, &x_neg])), Some(false));
        assert_eq!(eval(&and(&[&or(&[&y_pos, &x_pos]), &y_pos])), None);
        assert_eq!(eval(&Formula::True), Some(true));
        asked.set(0);
        assert_eq!(eval(&and(&[&x_neg, &y_pos, &y_pos])), Some(false));
        assert_eq!(eval(&or(&[&x_pos, &y_pos, &y_pos])), Some(true));
        assert_eq!(asked.get(), 2);
    }

    /// `∃y (x ≥ 1 ∧ y² ≤ x)`: where `x < 1` the parent's own signs decide
    /// the matrix — no stack, one cell booked, no sign evaluation — and the
    /// answer and counters are the same for every worker count.
    #[test]
    fn parents_decided_by_lower_level_atoms_get_no_stack() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let matrix = Formula::and(
            atom(&x - &c(1, 2), RelOp::Ge),
            atom(&y.pow(2) - &x, RelOp::Le),
        );
        let prefix = [(Quantifier::Exists, 1)];
        let mut counters = Vec::new();
        for workers in [1usize, 4] {
            let ctx = QeContext::exact().with_workers(workers);
            let polys = matrix_polys(&matrix).unwrap();
            let (cad, truth) = decide(&polys, &matrix, &prefix, &[0], 2, &ctx).unwrap();
            // Level 1: roots of x and x − 1 → 5 cells; true from x = 1 up.
            assert_eq!(cad.levels.len(), 1);
            assert_eq!(
                truth.free_cell_truth,
                [false, false, false, true, true],
                "workers {workers}"
            );
            counters.push((ctx.cells_built.get(), ctx.sign_evals.get()));
        }
        // 5 level-1 cells, x and x − 1 each evaluated once on either side
        // of its root; then 3 trial-decided parents (1 cell each) and two walks that stop
        // on their second cell (the sector below −√x fails y² ≤ x, the
        // section holds), each taking y² − x's sign once.
        assert_eq!(counters, [(5 + 3 + 2 + 2, 4 + 2); 2]);
    }

    /// The helpers' job-local counters fold back into the caller's context:
    /// lifting `x² + y² − 4, y³ − x` over its algebraic sections sees longer
    /// coefficients than projection does, the folded maximum is the same
    /// for every worker count, and a budget that projection meets but
    /// lifting does not fails with the same error for every worker count.
    #[test]
    fn lift_counters_fold_into_the_callers_context() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let polys = [&(&x.pow(2) + &y.pow(2)) - &c(4, 2), &y.pow(3) - &x];
        let projected = QeContext::exact();
        build_levels(&polys, &[0, 1], 2, 1, &projected).unwrap();
        let budget = projected.max_bits_seen.get();
        let mut seen = Vec::new();
        for workers in [1usize, 2, 4] {
            let ctx = QeContext::exact().with_workers(workers);
            build_cad(&polys, &[0, 1], 2, &ctx).unwrap();
            seen.push((
                ctx.max_bits_seen.get(),
                ctx.sign_evals.get(),
                ctx.cells_built.get(),
            ));
            let err = build_cad(
                &polys,
                &[0, 1],
                2,
                &QeContext::with_budget(budget).with_workers(workers),
            )
            .err()
            .unwrap();
            let QeError::PrecisionExceeded {
                budget_bits,
                seen_bits,
            } = err
            else {
                panic!("{err:?}");
            };
            assert_eq!(budget_bits, budget);
            assert!(seen_bits > budget, "workers {workers}");
            seen.push((seen_bits, 0, 0));
        }
        assert!(seen[0].0 > budget, "lifting saw no longer coefficient");
        assert_eq!(seen[0..2], seen[2..4]);
        assert_eq!(seen[0..2], seen[4..6]);
    }

    /// A second identical CAD on one context finds every normal form,
    /// resultant and discriminant in the memo-cache: the same levels, and
    /// not one miss.
    #[test]
    fn warm_rebuild_computes_no_normal_form() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        // A squared input, and one with content `x − 1` in the main variable.
        let polys = [
            (&(&x.pow(2) + &y.pow(2)) - &c(4, 2)).pow(2),
            &(&x - &c(1, 2)) * &(&y.pow(3) - &x),
        ];
        let ctx = QeContext::exact();
        let cold = build_cad(&polys, &[0, 1], 2, &ctx).unwrap();
        let (misses, hits) = (ctx.cache.misses(), ctx.cache.hits());
        let warm = build_cad(&polys, &[0, 1], 2, &ctx).unwrap();
        assert_eq!(ctx.cache.misses(), misses);
        assert!(ctx.cache.hits() > hits);
        assert_eq!(
            format!("{:?}", cold.registry),
            format!("{:?}", warm.registry)
        );
        assert_eq!(cold.level_poly_ids, warm.level_poly_ids);
        assert_eq!(format!("{:?}", cold.levels), format!("{:?}", warm.levels));
    }

    /// Satellite edge cases of the partial CAD, each against the answer it
    /// must give.
    #[test]
    fn partial_cad_edge_cases() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let ctx = QeContext::exact();
        let exists_y = [(Quantifier::Exists, 1)];
        let forall_y = [(Quantifier::Forall, 1)];
        let holds_at = |rel: &ConstraintRelation, v: &str| {
            rel.satisfied_at(&[v.parse().unwrap(), Rat::zero()])
        };
        // Empty prefix: nothing to decide, every level materialised.
        let disc = atom(&(&x.pow(2) + &y.pow(2)) - &c(1, 2), RelOp::Le);
        let polys = matrix_polys(&disc).unwrap();
        let (cad, truth) = decide(&polys, &disc, &[], &[0, 1], 2, &ctx).unwrap();
        assert_eq!(cad.levels.len(), 2);
        assert_eq!(truth.free_cell_truth.len(), cad.top_cells());
        let rel = eliminate(&disc, &[], &[0, 1], 2, &ctx).unwrap();
        assert!(rel.satisfied_at(&[Rat::zero(), Rat::one()]));
        assert!(!rel.satisfied_at(&[Rat::one(), Rat::one()]));
        // Repeated factors: (x − y)² resolves to x − y only up to the square,
        // so its sign is never read off the carried sign of x − y.
        let square = (&x - &y).pow(2);
        let rel = eliminate(&atom(square.clone(), RelOp::Le), &exists_y, &[0], 2, &ctx).unwrap();
        assert!(holds_at(&rel, "-3") && holds_at(&rel, "1/2"));
        let rel = eliminate(&atom(square.clone(), RelOp::Gt), &forall_y, &[0], 2, &ctx).unwrap();
        assert!(!holds_at(&rel, "-3") && !holds_at(&rel, "1/2"));
        let rel = eliminate(&atom(-&square, RelOp::Le), &forall_y, &[0], 2, &ctx).unwrap();
        assert!(holds_at(&rel, "-3") && holds_at(&rel, "1/2"));
        let pinned = Formula::and(atom(square, RelOp::Le), atom(&y - &c(1, 2), RelOp::Ge));
        let rel = eliminate(&pinned, &exists_y, &[0], 2, &ctx).unwrap();
        assert!(holds_at(&rel, "1") && holds_at(&rel, "7") && !holds_at(&rel, "1/2"));
        // Nullified: x·y − … vanishes on the whole fiber over x = 0.
        let xy = &x * &y;
        let rel = eliminate(&atom(xy.clone(), RelOp::Eq), &forall_y, &[0], 2, &ctx).unwrap();
        assert!(holds_at(&rel, "0") && !holds_at(&rel, "1") && !holds_at(&rel, "-1"));
        let rel = eliminate(&atom(&xy - &c(1, 2), RelOp::Eq), &exists_y, &[0], 2, &ctx).unwrap();
        assert!(!holds_at(&rel, "0") && holds_at(&rel, "1") && holds_at(&rel, "-1"));
        // No fiber roots: one evaluation for the whole (one-cell) stack, on
        // top of the one x² + 1 took on the one-cell level below.
        let ctx = QeContext::exact();
        let positive = atom(&(&x.pow(2) + &y.pow(2)) + &c(1, 2), RelOp::Gt);
        let rel = eliminate(&positive, &forall_y, &[0], 2, &ctx).unwrap();
        assert!(holds_at(&rel, "0") && holds_at(&rel, "-5"));
        assert_eq!((ctx.cells_built.get(), ctx.sign_evals.get()), (2, 2));
    }

    /// `n = 1` sentences: the parent is the virtual root, and the walk stops
    /// at the first deciding cell.
    #[test]
    fn one_variable_sentences_stop_at_the_deciding_cell() {
        let x = MPoly::var(0, 1);
        let p = &x.pow(2) - &c(2, 1);
        for (q, op, expect, visited) in [
            (Quantifier::Exists, RelOp::Eq, true, 2), // the section −√2
            (Quantifier::Exists, RelOp::Gt, true, 1), // the lowest sector
            (Quantifier::Forall, RelOp::Ne, false, 2),
            (Quantifier::Forall, RelOp::Ge, false, 3), // between the roots
            (Quantifier::Exists, RelOp::Ne, true, 1),
            (Quantifier::Forall, RelOp::Eq, false, 1),
        ] {
            let ctx = QeContext::exact();
            let matrix = atom(p.clone(), op);
            assert_eq!(
                decide_sentence(&matrix, &[(q, 0)], 1, &ctx).unwrap(),
                expect,
                "{q:?} {op:?}"
            );
            assert_eq!(ctx.cells_built.get(), visited, "{q:?} {op:?}");
        }
        // Undecided to the end: all five cells.
        let ctx = QeContext::exact();
        let sq = atom(x.pow(2), RelOp::Ge);
        assert!(decide_sentence(&sq, &[(Quantifier::Forall, 0)], 1, &ctx).unwrap());
        assert_eq!(ctx.cells_built.get(), 3);
    }

    /// A level two cells over the limit is the same typed error however
    /// many threads lift it, and a level exactly at the limit comes back
    /// in parent order — whether the parents' cells are materialised or, as
    /// on the innermost quantifier's level, only counted.
    #[test]
    fn cell_limit_is_worker_independent() {
        let root = CadCell {
            parent: None,
            sample: Vec::new(),
            index: Vec::new(),
            signs: BTreeMap::new(),
        };
        let parents: Arc<[CadCell]> = vec![root; 8].into();
        let materialise = |pi: usize, parent: &CadCell| {
            let cell = CadCell {
                parent: Some(pi),
                ..parent.clone()
            };
            Ok((vec![cell; 3], 3))
        };
        // A decided parent: a verdict, and 3 cells visited getting it.
        let decide = |pi: usize, _: &CadCell| Ok((pi.is_multiple_of(2), 3));
        for workers in [1usize, 2, 4] {
            let (level, cells) =
                lift_level(Arc::clone(&parents), workers, 24, materialise).unwrap();
            let from: Vec<Option<usize>> = level.iter().flatten().map(|c| c.parent).collect();
            let expect: Vec<Option<usize>> = (0..24).map(|i| Some(i / 3)).collect();
            assert_eq!((from, cells), (expect, 24), "workers {workers}");
            let (verdicts, cells) = lift_level(Arc::clone(&parents), workers, 24, decide).unwrap();
            let expect: Vec<bool> = (0..8usize).map(|pi| pi.is_multiple_of(2)).collect();
            assert_eq!((verdicts, cells), (expect, 24), "workers {workers}");
            let over = QeError::Unsupported("CAD exceeded 22 cells".into());
            assert_eq!(
                lift_level(Arc::clone(&parents), workers, 22, materialise).unwrap_err(),
                over,
                "workers {workers}"
            );
            assert_eq!(
                lift_level(Arc::clone(&parents), workers, 22, decide).unwrap_err(),
                over,
                "workers {workers}"
            );
        }
    }
}
