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

use crate::par::par_map_result;
use crate::{QeContext, QeError};
use cdb_constraints::{ConstraintRelation, Formula, Quantifier};
use cdb_num::{Rat, Sign};
use cdb_poly::MPoly;
use project::{normalize, Registry};
use sample::Coord;
use stack::{build_stack, sector_samples};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    pub sample: Vec<Coord>,
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
pub struct Cad {
    /// Ambient ring arity.
    pub nvars: usize,
    /// `order[l-1]` = ambient variable of level `l`.
    pub order: Vec<usize>,
    /// All projection polynomials.
    pub registry: Registry,
    /// Per level: registry ids of that level's polynomials.
    pub level_poly_ids: Vec<Vec<usize>>,
    /// Per level: the cells.
    pub levels: Vec<Vec<CadCell>>,
    /// The input polynomials, each resolved against `registry` once (truth
    /// evaluation asks for their signs at every finest cell).
    inputs: Vec<(MPoly, Option<Resolved>)>,
}

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
        self.levels.last().map_or(0, Vec::len)
    }

    /// Level (1-based) of a normalized polynomial under the variable order:
    /// the position of its highest-order used variable.
    fn level_of(&self, p: &MPoly) -> usize {
        level_of(p, &self.order)
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
/// `input_polys`.
pub fn build_cad(
    input_polys: &[MPoly],
    order: &[usize],
    nvars: usize,
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
        let Some(norm) = normalize(p) else {
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
        registry,
        level_poly_ids,
        levels: Vec::with_capacity(n),
        inputs,
    };
    for l in 1..=n {
        let cells = build_level(&cad, l, ctx)?;
        ctx.cells_built.add(cells.len() as u64);
        cad.levels.push(cells);
    }
    Ok(cad)
}

/// Build all cells of level `l` by lifting every cell of level `l−1`
/// (or the virtual root cell when `l == 1`).
fn build_level(cad: &Cad, l: usize, ctx: &QeContext) -> Result<Vec<CadCell>, QeError> {
    let yvar = cad.order[l - 1];
    let level_vars: Vec<usize> = cad.order[..l].to_vec();
    let parent_vars: Vec<usize> = cad.order[..l - 1].to_vec();
    let polys: Vec<(usize, MPoly)> = cad.level_poly_ids[l - 1]
        .iter()
        .map(|&id| (id, cad.registry.get(id).clone()))
        .collect();
    let root_cell = CadCell {
        parent: None,
        sample: Vec::new(),
        index: Vec::new(),
        signs: BTreeMap::new(),
    };
    let parents: &[CadCell] = if l == 1 {
        std::slice::from_ref(&root_cell)
    } else {
        &cad.levels[l - 2]
    };
    lift_level(parents, ctx.effective_workers(), MAX_CELLS, |pi, parent| {
        lift_parent(
            cad,
            l,
            pi,
            parent,
            &polys,
            &parent_vars,
            &level_vars,
            yvar,
            ctx,
        )
    })
}

/// `Err` when a level that has reached `cells` cells is over `limit`.
fn check_cell_limit(cells: usize, limit: usize) -> Result<(), QeError> {
    if cells > limit {
        return Err(QeError::Unsupported(format!("CAD exceeded {limit} cells")));
    }
    Ok(())
}

/// Lift every parent and concatenate the stacks in parent order; a level
/// of more than `limit` cells is an error for every `workers`.
///
/// Each parent's stack is independent of its siblings (it depends only on
/// the parent sample and the level polynomials), so with `workers > 1` the
/// parents fan out and the per-parent runs are concatenated back in parent
/// order — the exact sequence the sequential loop produces. This is the
/// only fan-out under a query (DESIGN.md §6).
fn lift_level(
    parents: &[CadCell],
    workers: usize,
    limit: usize,
    lift: impl Fn(usize, &CadCell) -> Result<Vec<CadCell>, QeError> + Sync,
) -> Result<Vec<CadCell>, QeError> {
    if workers <= 1 || parents.len() <= 1 {
        let mut out: Vec<CadCell> = Vec::new();
        for (pi, parent) in parents.iter().enumerate() {
            out.extend(lift(pi, parent)?);
            check_cell_limit(out.len(), limit)?;
        }
        return Ok(out);
    }
    // The guard counts the cells of *finished* stacks. That sum only grows
    // towards the length of the concatenated level and reaches it when the
    // last stack finishes, so some parent reports the error exactly when
    // the level is over the limit — the sequential condition, whatever the
    // interleaving — and a runaway level still fails before it is built.
    let built = AtomicUsize::new(0);
    let indexed: Vec<(usize, &CadCell)> = parents.iter().enumerate().collect();
    let per_parent = par_map_result(&indexed, workers, |&(pi, parent)| {
        let cells = lift(pi, parent)?;
        let so_far = built.fetch_add(cells.len(), Ordering::SeqCst) + cells.len();
        check_cell_limit(so_far, limit)?;
        Ok(cells)
    })?;
    Ok(per_parent.into_iter().flatten().collect())
}

/// Lift one parent cell: build its stack over `yvar` and emit the
/// interleaved sector/section cells.
#[allow(clippy::too_many_arguments)]
fn lift_parent(
    cad: &Cad,
    l: usize,
    pi: usize,
    parent: &CadCell,
    polys: &[(usize, MPoly)],
    parent_vars: &[usize],
    level_vars: &[usize],
    yvar: usize,
    ctx: &QeContext,
) -> Result<Vec<CadCell>, QeError> {
    let is_zero_lower = |p: &MPoly| -> Result<bool, QeError> {
        zeroness_at_parent(cad, parent, p, parent_vars, ctx)
    };
    let mut stack = build_stack(
        polys,
        parent_vars,
        &parent.sample,
        yvar,
        &is_zero_lower,
        ctx,
    )?;
    let sectors = sector_samples(&mut stack.sections);
    let parent_idx = if l == 1 { None } else { Some(pi) };
    let mut out: Vec<CadCell> = Vec::new();
    // Interleave: sector 1, section 2, sector 3, …
    for (k, sec_sample) in sectors.iter().enumerate() {
        // Sector k (1-based stack index 2k+1).
        out.push(make_cell(
            parent,
            parent_idx,
            Coord::Rat(sec_sample.clone()),
            2 * k + 1,
            polys,
            &stack,
            None,
            level_vars,
            ctx,
        )?);
        if k < stack.sections.len() {
            let section = &stack.sections[k];
            out.push(make_cell(
                parent,
                parent_idx,
                Coord::Alg(section.root.clone()),
                2 * (k + 1),
                polys,
                &stack,
                Some(k),
                level_vars,
                ctx,
            )?);
        }
    }
    Ok(out)
}

/// Zero-test of a lower-level polynomial at a parent sample via the sign
/// vector, falling back to direct evaluation.
fn zeroness_at_parent(
    cad: &Cad,
    parent: &CadCell,
    p: &MPoly,
    parent_vars: &[usize],
    ctx: &QeContext,
) -> Result<bool, QeError> {
    if let Some(c) = p.to_constant() {
        return Ok(c.is_zero());
    }
    let Some(norm) = normalize(p) else {
        return Ok(false); // effectively a nonzero constant
    };
    if let Some(id) = cad.registry.find(&norm) {
        if let Some(s) = parent.signs.get(&id) {
            return Ok(*s == Sign::Zero);
        }
    }
    // Not in the projection set (shouldn't happen for coefficients/discs,
    // but stay safe): exact evaluation where possible.
    match sample::sign_at(p, parent_vars, &parent.sample, ctx) {
        Ok(s) => Ok(s == Sign::Zero),
        Err(e) => Err(e),
    }
}

#[allow(clippy::too_many_arguments)]
fn make_cell(
    parent: &CadCell,
    parent_idx: Option<usize>,
    coord: Coord,
    stack_pos: usize,
    polys: &[(usize, MPoly)],
    stack: &stack::Stack,
    section_k: Option<usize>,
    level_vars: &[usize],
    ctx: &QeContext,
) -> Result<CadCell, QeError> {
    let mut sample = parent.sample.clone();
    sample.push(coord);
    let mut index = parent.index.clone();
    index.push(stack_pos);
    let mut signs = parent.signs.clone();
    for (id, p) in polys {
        let structurally_zero = stack.nullified.contains(id)
            || section_k.is_some_and(|k| stack.sections[k].vanish.contains(id));
        let s = if structurally_zero {
            Sign::Zero
        } else {
            // Known nonzero at this sample: refinement terminates.
            sample::sign_at(p, level_vars, &sample, ctx)?
        };
        signs.insert(*id, s);
    }
    Ok(CadCell {
        parent: parent_idx,
        sample,
        index,
        signs,
    })
}

/// Exact sign of an arbitrary polynomial at a cell's sample point, using
/// structural zero information from the cell's sign vector.
pub fn sign_of_poly_at_cell(
    cad: &Cad,
    cell: &CadCell,
    p: &MPoly,
    ctx: &QeContext,
) -> Result<Sign, QeError> {
    if let Some(c) = p.to_constant() {
        return Ok(c.sign());
    }
    let resolved = match cad.inputs.iter().find(|(q, _)| q == p) {
        Some((_, r)) => *r,
        None => normalize(p)
            .and_then(|norm| cad.registry.find(&norm))
            .map(|id| Resolved::new(&cad.registry, id, p)),
    };
    if let Some(r) = resolved {
        match (cell.signs.get(&r.id), r.negated_multiple) {
            (Some(Sign::Zero), _) => return Ok(Sign::Zero),
            (Some(s), Some(negated)) => return Ok(if negated { s.neg() } else { *s }),
            // Repeated factors (the value is nonzero), or a polynomial of
            // a higher level than the cell: evaluate directly.
            _ => {}
        }
    }
    sample::sign_at(p, &cad.order[..cell.sample.len()], &cell.sample, ctx)
}

/// Evaluate a pure quantifier-free formula at a cell's sample point.
pub fn eval_formula_at_cell(
    cad: &Cad,
    cell: &CadCell,
    f: &Formula,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(a) => {
            let s = sign_of_poly_at_cell(cad, cell, &a.poly, ctx)?;
            Ok(a.op.accepts(s))
        }
        Formula::Not(b) => Ok(!eval_formula_at_cell(cad, cell, b, ctx)?),
        Formula::And(fs) => {
            for g in fs {
                if !eval_formula_at_cell(cad, cell, g, ctx)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for g in fs {
                if eval_formula_at_cell(cad, cell, g, ctx)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Rel(name, _) => Err(QeError::Schema(format!(
            "uninstantiated relation {name} in CAD matrix"
        ))),
        Formula::Quant(..) => Err(QeError::Unsupported("quantifier inside CAD matrix".into())),
    }
}

/// CAD-based quantifier elimination.
///
/// `matrix` must be pure (no relation symbols) and quantifier-free, in NNF;
/// `prefix` is the quantifier block (outermost first); `free` lists the free
/// variables in ascending order. The output is a DNF relation over the free
/// variables, equivalent to `prefix. matrix` (and sign-invariant formula
/// construction is retried with derivative augmentation on collision).
pub fn eliminate(
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    let mut order: Vec<usize> = free.to_vec();
    order.extend(prefix.iter().map(|(_, v)| *v));
    assert!(!order.is_empty(), "eliminate with no variables");
    // Gather matrix polynomials.
    let mut polys: Vec<MPoly> = Vec::new();
    collect_polys(matrix, &mut polys)?;
    let mut augmented = polys.clone();
    for attempt in 0..3 {
        let cad = build_cad(&augmented, &order, nvars, ctx)?;
        let truth = solution::evaluate_truth(&cad, matrix, prefix, free.len(), ctx)?;
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

/// Decide a sentence (no free variables): CAD of the quantified space plus
/// truth propagation to the root.
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
    let order: Vec<usize> = prefix.iter().map(|(_, v)| *v).collect();
    let mut polys = Vec::new();
    collect_polys(matrix, &mut polys)?;
    let cad = build_cad(&polys, &order, nvars, ctx)?;
    let truth = solution::evaluate_truth(&cad, matrix, prefix, 0, ctx)?;
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
    for cell in cad.levels.last().into_iter().flatten() {
        if eval_formula_at_cell(cad, cell, matrix, ctx)? {
            out.push(cell);
        }
    }
    Ok(out)
}

/// Pick a fresh rational sample between stack neighbours (re-exported for
/// aggregate integration).
#[must_use]
pub fn cell_rational_sample(cell: &CadCell) -> Option<Vec<Rat>> {
    cell.sample
        .iter()
        .map(|c| match c {
            Coord::Rat(r) => Some(r.clone()),
            Coord::Alg(a) => a.to_rat(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A level two cells over the limit is the same typed error however
    /// many threads lift it, and a level exactly at the limit comes back
    /// in parent order.
    #[test]
    fn cell_limit_is_worker_independent() {
        let root = CadCell {
            parent: None,
            sample: Vec::new(),
            index: Vec::new(),
            signs: BTreeMap::new(),
        };
        let parents = vec![root; 8];
        let lift = |pi: usize, parent: &CadCell| {
            let cell = CadCell {
                parent: Some(pi),
                ..parent.clone()
            };
            Ok(vec![cell; 3])
        };
        for workers in [1usize, 2, 4] {
            let level = lift_level(&parents, workers, 24, lift).unwrap();
            let from: Vec<Option<usize>> = level.iter().map(|c| c.parent).collect();
            let expect: Vec<Option<usize>> = (0..24).map(|i| Some(i / 3)).collect();
            assert_eq!(from, expect, "workers {workers}");
            assert_eq!(
                lift_level(&parents, workers, 22, lift).unwrap_err(),
                QeError::Unsupported("CAD exceeded 22 cells".into()),
                "workers {workers}"
            );
        }
    }
}
