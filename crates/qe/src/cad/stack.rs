//! CAD stack construction: lifting a cell of `R^{L−1}` to a stack of
//! sections and sectors in `R^L` (Appendix I, third phase).
//!
//! Exactness strategy (DESIGN.md §5):
//!
//! * **All-rational sample** — substitute and isolate over `Q`.
//! * **One algebraic coordinate `α`** — exact Sturm sequences in `Q(α)[y]`
//!   ([`cdb_poly::algebraic::AlgUPoly`]); each root is then *promoted* to a
//!   plain `RealAlg` over `Q` via the resultant `R(y) = res_x(m_α(x), p)`,
//!   so downstream levels never see field towers.
//! * **Several algebraic coordinates** — candidate roots from iterated
//!   resultants against each coordinate's minimal polynomial; membership is
//!   decided by exact sign changes at rational separators (sound because
//!   the fiber polynomial is squarefree whenever the discriminant sign at
//!   the base sample — known from the projection set — is nonzero;
//!   otherwise a typed error is raised, never a guess).

use super::sample::{as_alg_coeff_poly, sign_at, substitute_rationals, Coord};
use crate::{QeContext, QeError};
use cdb_num::{Int, Rat, Sign};
use cdb_poly::algebraic::{AlgUPoly, NumberField};
use cdb_poly::roots::RootLocation;
use cdb_poly::sturm::SturmChain;
use cdb_poly::{MPoly, RealAlg, UPoly};
use std::collections::{BTreeMap, BTreeSet};

/// A section of a stack: a root of one or more level polynomials.
#[derive(Clone, Debug)]
pub struct StackSection {
    /// The root, as an algebraic number over `Q`.
    pub root: RealAlg,
    /// Global ids of the level polynomials vanishing at this section.
    pub vanish: BTreeSet<usize>,
}

/// Result of analysing one fiber.
pub struct Stack {
    /// Sections in ascending order.
    pub sections: Vec<StackSection>,
    /// Level polynomials that vanish identically on the whole fiber.
    pub nullified: BTreeSet<usize>,
}

/// Build the stack of level polynomials `polys` (global id, polynomial) over
/// the sample point `sample` (coordinates of ambient variables `vars`),
/// extending in variable `yvar`.
///
/// `is_zero_lower` decides exactly whether a *lower-level* polynomial
/// vanishes at the base sample (resolved from the parent cell's sign vector
/// over the projection set).
pub fn build_stack(
    polys: &[(usize, MPoly)],
    vars: &[usize],
    sample: &[Coord],
    yvar: usize,
    is_zero_lower: &dyn Fn(&MPoly) -> Result<bool, QeError>,
    ctx: &QeContext,
) -> Result<Stack, QeError> {
    let mut nullified = BTreeSet::new();
    let mut merged: Vec<StackSection> = Vec::new();
    for (id, p) in polys {
        let roots = roots_in_fiber(p, vars, sample, yvar, is_zero_lower, ctx)?;
        match roots {
            FiberRoots::Nullified => {
                nullified.insert(*id);
            }
            FiberRoots::Roots(rs) => {
                // Ascending: each root resumes above where the previous landed.
                let mut from = 0;
                for r in rs {
                    from = merge_root(&mut merged, r, *id, from) + 1;
                }
            }
        }
    }
    Ok(Stack {
        sections: merged,
        nullified,
    })
}

enum FiberRoots {
    /// The polynomial vanishes identically on the fiber.
    Nullified,
    /// Ascending distinct roots.
    Roots(Vec<RealAlg>),
}

/// Insert `root` in order among `merged[from..]` (everything below `from` is
/// known to be smaller), merging with an equal existing root (exact
/// compare). Returns the index it landed on.
fn merge_root(merged: &mut Vec<StackSection>, root: RealAlg, id: usize, from: usize) -> usize {
    let mut at = merged.len();
    for (i, s) in merged.iter_mut().enumerate().skip(from) {
        match root.cmp_alg(&s.root) {
            std::cmp::Ordering::Equal => {
                s.vanish.insert(id);
                return i;
            }
            std::cmp::Ordering::Less => {
                at = i;
                break;
            }
            std::cmp::Ordering::Greater => {}
        }
    }
    let section = StackSection {
        root,
        vanish: BTreeSet::from([id]),
    };
    merged.insert(at, section);
    at
}

/// Roots of `p` restricted to the fiber over `sample`.
fn roots_in_fiber(
    p: &MPoly,
    vars: &[usize],
    sample: &[Coord],
    yvar: usize,
    is_zero_lower: &dyn Fn(&MPoly) -> Result<bool, QeError>,
    ctx: &QeContext,
) -> Result<FiberRoots, QeError> {
    let (q, algs) = substitute_rationals(p, vars, sample);
    ctx.observe_poly(&q)?;
    match algs.as_slice() {
        [] => {
            // Purely rational fiber polynomial.
            let u = q.to_upoly_in(yvar).ok_or_else(|| {
                QeError::Unsupported(
                    "fiber polynomial kept variables besides the stack variable".into(),
                )
            })?;
            if u.is_zero() {
                return Ok(FiberRoots::Nullified);
            }
            if u.is_constant() {
                return Ok(FiberRoots::Roots(Vec::new()));
            }
            Ok(FiberRoots::Roots(RealAlg::roots_of(&u)))
        }
        [one] => {
            let (avar, alpha) = one.clone();
            if !q.uses_var(yvar) {
                // Fiber polynomial is a function of α only.
                let u = q.to_upoly_in(avar).ok_or_else(|| {
                    QeError::Unsupported("fiber polynomial kept variables besides alpha".into())
                })?;
                return Ok(if alpha.sign_of(&u) == Sign::Zero {
                    FiberRoots::Nullified
                } else {
                    FiberRoots::Roots(Vec::new())
                });
            }
            let coeffs = as_alg_coeff_poly(&q, avar, yvar)
                .ok_or_else(|| QeError::Unsupported("mixed variables in fiber".into()))?;
            let field = NumberField::new(alpha.clone());
            let ap = AlgUPoly::new(field, coeffs);
            if ap.is_zero() {
                return Ok(FiberRoots::Nullified);
            }
            if ap.degree() == Some(0) {
                return Ok(FiberRoots::Roots(Vec::new()));
            }
            // Minimal-polynomial candidates over Q via resultant.
            let m_emb = MPoly::from_upoly(alpha.poly(), avar, q.nvars());
            let r = ctx.cache.resultant(&q, &m_emb, avar);
            let ru = r
                .to_upoly_in(yvar)
                .ok_or_else(|| QeError::Unsupported("resultant kept variables".into()))?;
            if ru.is_zero() {
                return Err(QeError::Unsupported(
                    "iterated resultant vanished identically".into(),
                ));
            }
            let sf_r = ru.squarefree();
            let chain = ctx.cache.sturm(&sf_r);
            // Euclid in Q(α)[y], once: isolation and every refinement below
            // work on the squarefree part.
            let sf = ap.squarefree();
            let mut out = Vec::new();
            for loc in sf.isolate_roots() {
                out.push(promote_root(&sf, loc, &sf_r, &chain)?);
            }
            Ok(FiberRoots::Roots(out))
        }
        _ => roots_multi_alg(p, &q, &algs, yvar, is_zero_lower, ctx),
    }
}

/// Promote a root of the squarefree `Q(α)[y]` polynomial `sf` (held in a
/// rational isolating location) to a `RealAlg` over `Q` with defining
/// polynomial `sf_r`.
fn promote_root(
    sf: &AlgUPoly,
    mut loc: RootLocation,
    sf_r: &UPoly,
    chain: &SturmChain,
) -> Result<RealAlg, QeError> {
    // Refine the interval until it isolates exactly one root of sf_r with
    // non-root endpoints; the enclosed q-root is a root of sf_r, so they
    // then coincide. Each round bisects on from the interval it has.
    let mut width = loc.interval().width();
    for _ in 0..256 {
        let iv = sf.refine(&loc, &width);
        if iv.width().is_zero() {
            return Ok(RealAlg::from_rat(iv.midpoint()));
        }
        let lo_ok = sf_r.fsign_at(iv.lo()) != Sign::Zero;
        let hi_ok = sf_r.fsign_at(iv.hi()) != Sign::Zero;
        if lo_ok && hi_ok && chain.count_roots_half_open(iv.lo(), iv.hi()) == 1 {
            return Ok(RealAlg::new(sf_r.clone(), RootLocation::Isolated(iv)));
        }
        loc = RootLocation::Isolated(iv);
        width = &width * &Rat::from_ints(1, 4);
    }
    Err(QeError::IndeterminateSign(
        "could not promote algebraic root to Q".into(),
    ))
}

/// Root detection over a sample with ≥2 algebraic coordinates.
fn roots_multi_alg(
    p: &MPoly,
    q: &MPoly,
    algs: &[(usize, RealAlg)],
    yvar: usize,
    is_zero_lower: &dyn Fn(&MPoly) -> Result<bool, QeError>,
    ctx: &QeContext,
) -> Result<FiberRoots, QeError> {
    // Effective degree via coefficient zero-tests at the base sample; the
    // coefficients are lower-level polynomials whose signs are known from
    // the projection set.
    let coeffs = p.as_upoly_in(yvar);
    let mut d_eff: Option<usize> = None;
    for (j, c) in coeffs.iter().enumerate().rev() {
        let zero = if let Some(v) = c.to_constant() {
            v.is_zero()
        } else {
            is_zero_lower(c)?
        };
        if !zero {
            d_eff = Some(j);
            break;
        }
    }
    let Some(d_eff) = d_eff else {
        return Ok(FiberRoots::Nullified);
    };
    if d_eff == 0 {
        return Ok(FiberRoots::Roots(Vec::new()));
    }
    if d_eff >= 2 {
        // Squarefree-ness of the fiber polynomial: decided by the sign of
        // the discriminant at the base sample (a projection polynomial).
        let disc = ctx.cache.discriminant(p, yvar);
        let disc_zero = if let Some(v) = disc.to_constant() {
            v.is_zero()
        } else {
            is_zero_lower(&disc)?
        };
        if disc_zero {
            return Err(QeError::IndeterminateSign(
                "repeated fiber root over multi-algebraic sample".into(),
            ));
        }
    }
    // Candidates: eliminate every algebraic coordinate by resultants with
    // its minimal polynomial.
    let mut r = q.clone();
    for (v, a) in algs {
        let m_emb = MPoly::from_upoly(a.poly(), *v, q.nvars());
        r = ctx.cache.resultant(&r, &m_emb, *v);
        ctx.observe_poly(&r)?;
    }
    let ru = r
        .to_upoly_in(yvar)
        .ok_or_else(|| QeError::Unsupported("resultant kept variables".into()))?;
    if ru.is_zero() {
        return Err(QeError::Unsupported(
            "iterated resultant vanished identically".into(),
        ));
    }
    if ru.is_constant() {
        return Ok(FiberRoots::Roots(Vec::new()));
    }
    let sf_r = ru.squarefree();
    let candidates = RealAlg::roots_of(&sf_r);
    if candidates.is_empty() {
        return Ok(FiberRoots::Roots(Vec::new()));
    }
    // Rational separators around every candidate.
    let seps = separators(&candidates);
    // Sign of q at each separator (nonzero by construction).
    let mut signs = Vec::with_capacity(seps.len());
    for s in &seps {
        let qs = q.substitute(yvar, s);
        let sg = sign_nonzero_at(&qs, algs, ctx)?;
        signs.push(sg);
    }
    let mut out = Vec::new();
    for (j, cand) in candidates.iter().enumerate() {
        if signs[j] != signs[j + 1] {
            out.push(cand.clone());
        }
    }
    Ok(FiberRoots::Roots(out))
}

/// Rational points strictly interleaving the candidates: `seps[j] < root_j <
/// seps[j+1]`, and no separator is a root of the candidates' polynomial.
fn separators(candidates: &[RealAlg]) -> Vec<Rat> {
    let (Some(first), Some(last)) = (candidates.first(), candidates.last()) else {
        return Vec::new(); // no roots → no separators needed
    };
    let mut seps = Vec::with_capacity(candidates.len() + 1);
    seps.push(&first.interval().lo().clone() - &Rat::one());
    for w in candidates.windows(2) {
        let [below, above] = w else { continue };
        let b = below.interval().hi().clone();
        let a = above.interval().lo().clone();
        if b == a {
            seps.push(b);
        } else {
            seps.push(Rat::midpoint(&b, &a));
        }
    }
    seps.push(&last.interval().hi().clone() + &Rat::one());
    seps
}

/// Exact nonzero sign of a polynomial in algebraic coordinates only.
fn sign_nonzero_at(q: &MPoly, algs: &[(usize, RealAlg)], ctx: &QeContext) -> Result<Sign, QeError> {
    if let Some(c) = q.to_constant() {
        return Ok(c.sign());
    }
    let used: Vec<&(usize, RealAlg)> = algs.iter().filter(|(v, _)| q.uses_var(*v)).collect();
    if let [(v, a)] = used.as_slice() {
        if let Some(u) = q.to_upoly_in(*v) {
            return Ok(a.sign_of(&u));
        }
        // Not univariate after all — fall through to interval refinement.
    }
    // Multi-variable refinement (value is nonzero, so this terminates).
    let coords: Vec<Coord> = algs.iter().map(|(_, a)| Coord::Alg(a.clone())).collect();
    let vars: Vec<usize> = algs.iter().map(|(v, _)| *v).collect();
    sign_at(q, &vars, &coords, ctx)
}

/// Pick rational sector sample points interleaving the sections: one below,
/// one between each adjacent pair, one above. For an empty stack the single
/// sector sample is 0.
fn sector_samples(sections: &mut [StackSection]) -> Vec<Rat> {
    separate(sections);
    let (Some(first), Some(last)) = (sections.first(), sections.last()) else {
        return vec![Rat::zero()];
    };
    let mut out = Vec::with_capacity(sections.len() + 1);
    out.push(Rat::from(first.root.interval().lo().floor()) - Rat::one());
    for w in sections.windows(2) {
        let [below, above] = w else { continue };
        let b = below.root.interval().hi().clone();
        let a = above.root.interval().lo().clone();
        out.push(Rat::midpoint(&b, &a));
    }
    out.push(Rat::from(last.root.interval().hi().ceil()) + Rat::one());
    out
}

/// Refine section roots until their intervals are strictly disjoint
/// (`hi_i < lo_{i+1}`), so midpoints are valid sector samples.
fn separate(sections: &mut [StackSection]) {
    loop {
        let mut ok = true;
        for i in 0..sections.len().saturating_sub(1) {
            let b = sections[i].root.interval();
            let a = sections[i + 1].root.interval();
            // Degenerate (exact) intervals satisfy this as soon as the
            // neighbor's interval has been pushed past the point.
            let strict = b.hi() < a.lo();
            if !strict {
                ok = false;
            }
        }
        if ok {
            return;
        }
        for s in sections.iter_mut() {
            let w = &s.root.interval().width() * &Rat::from_ints(1, 4);
            let w = if w.is_zero() {
                Rat::new(Int::one(), Int::pow2(16))
            } else {
                w
            };
            s.root = s.root.refined(&w);
        }
    }
}

/// The cells of one stack in order — sector, section, sector, … — with the
/// signs of the level polynomials on them (DESIGN.md §5 rule 5).
///
/// A polynomial's sign is constant between two consecutive roots of its own
/// on the fiber, and the stack knows those roots (`vanish`), so each
/// polynomial is evaluated once per such interval, at the rational sample of
/// a sector inside it, and the sign is carried across the sections and
/// sectors other polynomials cut into that interval. A polynomial nobody
/// asks about is never evaluated.
pub struct StackWalk<'a> {
    polys: &'a [(usize, MPoly)],
    vars: &'a [usize],
    base: &'a [Coord],
    stack: Stack,
    sectors: Vec<Rat>,
    /// 0-based position of the current cell (even = sector).
    pos: usize,
    /// Signs on the current root intervals, by polynomial id.
    carried: BTreeMap<usize, Sign>,
}

impl<'a> StackWalk<'a> {
    /// Start at the lowest sector of `stack`, built for the level
    /// polynomials `polys` over `base` (coordinates of `vars[..vars.len()−1]`;
    /// the last of `vars` is the stack variable).
    #[must_use]
    pub fn new(
        polys: &'a [(usize, MPoly)],
        vars: &'a [usize],
        base: &'a [Coord],
        mut stack: Stack,
    ) -> StackWalk<'a> {
        let sectors = sector_samples(&mut stack.sections);
        StackWalk {
            polys,
            vars,
            base,
            stack,
            sectors,
            pos: 0,
            carried: BTreeMap::new(),
        }
    }

    /// Number of cells in the stack.
    #[must_use]
    pub fn cells(&self) -> usize {
        2 * self.stack.sections.len() + 1
    }

    /// The section the current cell is, if it is one.
    fn section(&self) -> Option<&StackSection> {
        (self.pos % 2 == 1).then(|| &self.stack.sections[self.pos / 2])
    }

    /// The current cell's own sample coordinate: the root on a section, the
    /// rational sector sample otherwise.
    #[must_use]
    pub fn coord(&self) -> Coord {
        match self.section() {
            Some(section) => Coord::Alg(section.root.clone()),
            None => Coord::Rat(self.sectors[self.pos / 2].clone()),
        }
    }

    /// Sign of level polynomial `id` on the current cell.
    pub fn sign(&mut self, id: usize, ctx: &QeContext) -> Result<Sign, QeError> {
        if self.stack.nullified.contains(&id)
            || self.section().is_some_and(|s| s.vanish.contains(&id))
        {
            return Ok(Sign::Zero);
        }
        if let Some(&s) = self.carried.get(&id) {
            return Ok(s);
        }
        let (_, p) =
            self.polys.iter().find(|(i, _)| *i == id).ok_or_else(|| {
                QeError::Unsupported(format!("polynomial {id} is not of this level"))
            })?;
        let s = self.sign_at_sector(p, ctx)?;
        self.carried.insert(id, s);
        Ok(s)
    }

    /// Sign at the current cell of a polynomial known to have no root
    /// between the cell and the sector sample at or just below it: all
    /// evaluation happens at that rational point.
    pub fn sign_at_sector(&self, p: &MPoly, ctx: &QeContext) -> Result<Sign, QeError> {
        let mut point = self.base.to_vec();
        point.push(Coord::Rat(self.sectors[self.pos / 2].clone()));
        sign_at(p, self.vars, &point, ctx)
    }

    /// Move to the next cell up; `false` when the stack is exhausted.
    pub fn advance(&mut self) -> bool {
        if self.pos % 2 == 1 {
            // Above one of its roots a polynomial starts a new interval.
            let vanish = &self.stack.sections[self.pos / 2].vanish;
            self.carried.retain(|id, _| !vanish.contains(id));
        }
        self.pos += 1;
        self.pos < self.cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn no_lower(_: &MPoly) -> Result<bool, QeError> {
        panic!("no lower-level zero-tests expected in this test")
    }

    #[test]
    fn rational_base_stack() {
        // Level polys in (x, y): circle x²+y²−1 and line y−x, over x = 0.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let circle = &(&x.pow(2) + &y.pow(2)) - &c(1, 2);
        let line = &y - &x;
        let ctx = QeContext::exact();
        let stack = build_stack(
            &[(0, circle), (1, line)],
            &[0],
            &[Coord::Rat(Rat::zero())],
            1,
            &no_lower,
            &ctx,
        )
        .unwrap();
        // Roots over x=0: circle: y = ±1; line: y = 0. Three sections.
        assert_eq!(stack.sections.len(), 3);
        assert!(stack.nullified.is_empty());
        assert_eq!(stack.sections[0].vanish, BTreeSet::from([0]));
        assert_eq!(stack.sections[1].vanish, BTreeSet::from([1]));
        assert_eq!(stack.sections[2].vanish, BTreeSet::from([0]));
        // Sector samples: 4 of them, interleaved.
        let mut sections = stack.sections;
        let samples = sector_samples(&mut sections);
        assert_eq!(samples.len(), 4);
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                assert_eq!(sections[i - 1].root.cmp_rat(s), std::cmp::Ordering::Less);
            }
            if i < sections.len() {
                assert_eq!(sections[i].root.cmp_rat(s), std::cmp::Ordering::Greater);
            }
        }
    }

    #[test]
    fn shared_root_merges() {
        // p = y² − 2 and q = y − x over x = √2: common root y = √2.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y.pow(2) - &c(2, 2);
        let q = &y - &x;
        let sqrt2 = RealAlg::roots_of(&UPoly::from_ints(&[-2, 0, 1]))
            .pop()
            .unwrap();
        let ctx = QeContext::exact();
        let stack = build_stack(
            &[(0, p), (1, q)],
            &[0],
            &[Coord::Alg(sqrt2)],
            1,
            &no_lower,
            &ctx,
        )
        .unwrap();
        // Sections: −√2 (p only) and √2 (both).
        assert_eq!(stack.sections.len(), 2);
        assert_eq!(stack.sections[0].vanish, BTreeSet::from([0]));
        assert_eq!(stack.sections[1].vanish, BTreeSet::from([0, 1]));
    }

    #[test]
    fn nullified_detection_rational() {
        // p = x·y over x = 0: identically zero on the fiber.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &x * &y;
        let ctx = QeContext::exact();
        let stack = build_stack(
            &[(0, p)],
            &[0],
            &[Coord::Rat(Rat::zero())],
            1,
            &no_lower,
            &ctx,
        )
        .unwrap();
        assert!(stack.sections.is_empty());
        assert_eq!(stack.nullified, BTreeSet::from([0]));
    }

    #[test]
    fn algebraic_base_parabola() {
        // p = y − x² over x = √2: root y = 2 (rational!).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y - &x.pow(2);
        let sqrt2 = RealAlg::roots_of(&UPoly::from_ints(&[-2, 0, 1]))
            .pop()
            .unwrap();
        let ctx = QeContext::exact();
        let stack = build_stack(&[(7, p)], &[0], &[Coord::Alg(sqrt2)], 1, &no_lower, &ctx).unwrap();
        assert_eq!(stack.sections.len(), 1);
        let root = &stack.sections[0].root;
        assert_eq!(root.cmp_rat(&Rat::from(2i64)), std::cmp::Ordering::Equal);
    }

    /// `promote_root` hands `RealAlg::new` the squarefree part of the
    /// resultant, never the resultant: `y² − x²` over `x = √2` eliminates to
    /// `(y² − 2)²`, and the promoted `±√2` carry `y² − 2`, refine to the same
    /// interval as the per-call reference on the raw resultant, and compare
    /// and take signs exactly.
    #[test]
    fn promoted_roots_carry_a_squarefree_polynomial() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y.pow(2) - &x.pow(2);
        let minpoly = UPoly::from_ints(&[-2, 0, 1]);
        let sqrt2 = RealAlg::roots_of(&minpoly).pop().unwrap();
        let ctx = QeContext::exact();
        let alg = [Coord::Alg(sqrt2.clone())];
        let stack = build_stack(&[(0, p)], &[0], &alg, 1, &no_lower, &ctx).unwrap();
        assert_eq!(stack.sections.len(), 2);
        let raw = minpoly.pow(2);
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(40));
        for section in &stack.sections {
            let root = &section.root;
            assert_eq!(root.poly(), &minpoly);
            let before = RootLocation::Isolated(root.interval());
            let want = cdb_poly::refine_to_width(&raw, &before, &eps);
            assert_eq!(root.approx(&eps), want.midpoint());
            assert_eq!(root.refined(&eps).interval(), want);
            assert_eq!(root.sign_of(&raw), Sign::Zero);
        }
        let [below, above] = stack.sections.as_slice() else {
            unreachable!("two sections")
        };
        assert_eq!(below.root.cmp_alg(&above.root), std::cmp::Ordering::Less);
        assert!(above.root.eq_alg(&sqrt2));
        assert_eq!(above.root.sign_of(&UPoly::from_ints(&[-1, 1])), Sign::Pos);
    }

    /// Sign by interval against brute force: over a rational and an
    /// algebraic base, every level polynomial's sign on every cell of the
    /// stack equals `sign_at` at the cell's own sample — with one evaluation
    /// per interval between the polynomial's own roots (none for a nullified
    /// one, one for one without roots) — and a walk that is only asked now
    /// and then, first on a section as often as not, reads the same signs.
    #[test]
    fn walk_signs_match_direct_evaluation_on_every_cell() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let polys = vec![
            (3, &(&x.pow(2) + &y.pow(2)) - &c(4, 2)), // roots ±√(4 − x²)
            (5, &y - &x),                             // shares y = √2 over x = √2
            (6, &x * &y),                             // nullified over x = 0
            (8, &y.pow(2) + &c(1, 2)),                // no roots
            (9, &y.pow(3) - &y),                      // −1, 0, 1
        ];
        let sqrt2 = RealAlg::roots_of(&UPoly::from_ints(&[-2, 0, 1]))
            .pop()
            .unwrap();
        for base in [
            Coord::Rat(Rat::zero()),
            Coord::Rat(Rat::one()),
            Coord::Alg(sqrt2),
        ] {
            let ctx = QeContext::exact();
            let base = [base];
            let build = || build_stack(&polys, &[0], &base, 1, &no_lower, &ctx).unwrap();
            let stack = build();
            let roots_of = |id| {
                stack
                    .sections
                    .iter()
                    .filter(|s| s.vanish.contains(id))
                    .count()
            };
            let expected_evals: usize = polys
                .iter()
                .filter(|(id, _)| !stack.nullified.contains(id))
                .map(|(id, _)| roots_of(id) + 1)
                .sum();
            let before = ctx.sign_evals.get();
            let mut walk = StackWalk::new(&polys, &[0, 1], &base, stack);
            let mut table: Vec<(Coord, Vec<Sign>)> = Vec::new();
            loop {
                let signs = polys.iter().map(|(id, _)| walk.sign(*id, &ctx).unwrap());
                let signs: Vec<Sign> = signs.collect();
                table.push((walk.coord(), signs));
                if !walk.advance() {
                    break;
                }
            }
            assert_eq!(ctx.sign_evals.get() - before, expected_evals as u64);
            assert_eq!(table.len(), walk.cells());
            for (coord, signs) in &table {
                let cell = [base[0].clone(), coord.clone()];
                for ((_, p), s) in polys.iter().zip(signs) {
                    match sign_at(p, &[0, 1], &cell, &ctx) {
                        Ok(direct) => assert_eq!(direct, *s, "{p} at {cell:?}"),
                        // Two algebraic coordinates: refinement cannot
                        // prove a zero, it can only fail to refute it.
                        Err(QeError::IndeterminateSign(_)) => assert_eq!(*s, Sign::Zero),
                        Err(e) => panic!("{p} at {cell:?}: {e}"),
                    }
                }
            }
            let mut lazy = StackWalk::new(&polys, &[0, 1], &base, build());
            for (k, (_, signs)) in table.iter().enumerate() {
                for (j, (id, _)) in polys.iter().enumerate() {
                    if (k + j) % 3 == 1 {
                        assert_eq!(lazy.sign(*id, &ctx).unwrap(), signs[j], "cell {k}");
                    }
                }
                lazy.advance();
            }
        }
    }

    /// The merge cursor lands every root where a scan from the bottom
    /// would: interleaved and shared roots of three polynomials.
    #[test]
    fn merge_resumes_above_the_previous_root() {
        // Over x = 0: y³ − y → {−1, 0, 1}; y² − 2 → {−√2, √2}; y² − y → {0, 1}.
        let y = MPoly::var(1, 2);
        let polys = [
            (0, &y.pow(3) - &y),
            (1, &y.pow(2) - &c(2, 2)),
            (2, &y.pow(2) - &y),
        ];
        let ctx = QeContext::exact();
        let base = [Coord::Rat(Rat::zero())];
        let stack = build_stack(&polys, &[0], &base, 1, &no_lower, &ctx).unwrap();
        let vanish: Vec<Vec<usize>> = stack
            .sections
            .iter()
            .map(|s| s.vanish.iter().copied().collect())
            .collect();
        assert_eq!(vanish, [vec![1], vec![0], vec![0, 2], vec![0, 2], vec![1]]);
        for w in stack.sections.windows(2) {
            assert_eq!(w[0].root.cmp_alg(&w[1].root), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn empty_stack_sector_sample() {
        let mut sections: Vec<StackSection> = Vec::new();
        assert_eq!(sector_samples(&mut sections), vec![Rat::zero()]);
    }
}
