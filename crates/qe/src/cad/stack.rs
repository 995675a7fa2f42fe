//! CAD stack construction: lifting a cell of `R^{L−1}` to a stack of
//! sections and sectors in `R^L` (Appendix I, third phase).
//!
//! Exactness strategy (DESIGN.md §5 rule 2):
//!
//! * **All-rational sample** — evaluate into a `UPoly` and isolate over `Q`.
//! * **Algebraic coordinates** — the candidates are the real roots over `Q`
//!   of the resultant(s) of the fibre polynomial against each coordinate's
//!   defining polynomial (squarefree, not always irreducible: a factor
//!   whose roots make the fibre vanish identically is divided out first),
//!   so every root is a plain `RealAlg` over `Q` and
//!   downstream levels never see field towers. Membership is decided by
//!   exact sign changes at rational separators of `q / S_k`, which has the
//!   fibre's distinct roots, all simple: `k` is the least `j` whose
//!   subresultant coefficient `psc_j(q, ∂q/∂y)` is nonzero at the sample,
//!   and `S_k` is then the fibre's gcd with its derivative. The zero tests
//!   of the coefficients, and of `psc_0` where it is the discriminant (no
//!   leading coefficient vanishes), read the parent cell's sign vector
//!   ([`Below`]); any other `psc_j` is signed at the sample, exactly in one
//!   coordinate and by refinement in several, where a zero is a typed
//!   error, never a guess.

use super::sample::{eval_at_rationals, sign_at, sign_of_value, write_back};
use crate::{QeContext, QeError};
use cdb_num::{Rat, Sign};
use cdb_poly::resultant::{discriminant, subresultant};
use cdb_poly::{MPoly, Partial, RealAlg, UPoly};
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
    /// The base sample the stack was built over, with the refinement its
    /// coordinates took; the walk over the stack signs at it.
    pub base: Vec<RealAlg>,
}

/// Exact zero tests, at the base sample, of polynomials of the levels below
/// — the parent cell's sign vector answers them. A closure answers both
/// tests by itself.
pub trait Below {
    /// Whether `c`, a polynomial of the levels below, vanishes at the base
    /// sample.
    fn is_zero(&self, c: &MPoly) -> Result<bool, QeError>;

    /// Whether the discriminant in `yvar` of level polynomial `id` (`p`)
    /// vanishes at the base sample.
    fn disc_is_zero(&self, _id: usize, p: &MPoly, yvar: usize) -> Result<bool, QeError> {
        self.is_zero(&discriminant(p, yvar))
    }
}

impl<F: Fn(&MPoly) -> Result<bool, QeError>> Below for F {
    fn is_zero(&self, c: &MPoly) -> Result<bool, QeError> {
        self(c)
    }
}

/// Build the stack of level polynomials `polys` (global id, polynomial) over
/// the sample point `sample` (coordinates of ambient variables `vars`),
/// extending in variable `yvar`. `below` decides exactly whether a
/// lower-level polynomial vanishes at the sample. The stack owns the
/// sample from here on, refined by the fibres' sign tests.
pub fn build_stack(
    polys: &[(usize, MPoly)],
    vars: &[usize],
    mut sample: Vec<RealAlg>,
    yvar: usize,
    below: &dyn Below,
    ctx: &QeContext,
) -> Result<Stack, QeError> {
    let mut nullified = BTreeSet::new();
    let mut merged: Vec<StackSection> = Vec::new();
    for (id, p) in polys {
        let roots = roots_in_fiber(*id, p, vars, &mut sample, yvar, below, ctx)?;
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
        base: sample,
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
/// compare, which refines both in place). Returns the index it landed on.
fn merge_root(merged: &mut Vec<StackSection>, mut root: RealAlg, id: usize, from: usize) -> usize {
    let mut at = merged.len();
    for (i, s) in merged.iter_mut().enumerate().skip(from) {
        match root.cmp_alg(&mut s.root) {
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

/// Roots of level polynomial `id` (`p`) restricted to the fiber over
/// `sample`. The fibre polynomial is evaluated once, unsealed; only a fibre
/// over algebraic coordinates is sealed, since it keys the resultant cache.
/// The sample keeps the refinement its coordinates took.
fn roots_in_fiber(
    id: usize,
    p: &MPoly,
    vars: &[usize],
    sample: &mut [RealAlg],
    yvar: usize,
    below: &dyn Below,
    ctx: &QeContext,
) -> Result<FiberRoots, QeError> {
    let (fibre, mut algs) = eval_at_rationals(p, vars, sample);
    let roots = fibre_roots(id, p, fibre, &mut algs, yvar, below, ctx);
    write_back(vars, sample, algs);
    roots
}

/// [`roots_in_fiber`] on the fibre polynomial `fibre`, whose variables left
/// are `yvar` and the algebraic coordinates `algs`, refined in place.
fn fibre_roots(
    id: usize,
    p: &MPoly,
    fibre: Partial,
    algs: &mut Vec<(usize, RealAlg)>,
    yvar: usize,
    below: &dyn Below,
    ctx: &QeContext,
) -> Result<FiberRoots, QeError> {
    ctx.observe_bits(fibre.max_coeff_bits())?;
    let q = match fibre {
        Partial::Constant(c) if c.is_zero() => return Ok(FiberRoots::Nullified),
        Partial::Constant(_) => return Ok(FiberRoots::Roots(Vec::new())),
        Partial::Univariate(v, u) if v == yvar => {
            return Ok(FiberRoots::Roots(RealAlg::roots_of(&u)));
        }
        Partial::Univariate(v, u) => {
            // Fiber polynomial is a function of one algebraic coordinate.
            let (_, alpha) = algs
                .iter_mut()
                .find(|(a, _)| *a == v)
                .ok_or_else(kept_others)?;
            return Ok(if alpha.sign_of(&u) == Sign::Zero {
                FiberRoots::Nullified
            } else {
                FiberRoots::Roots(Vec::new())
            });
        }
        // Sealed once; only the coordinates still in it matter from here.
        Partial::Terms(t) => {
            let q = t.seal();
            algs.retain(|(v, _)| q.uses_var(*v));
            q
        }
    };
    if algs.is_empty() {
        return Err(kept_others());
    }
    // Effective degree: the top coefficient that does not vanish at the
    // sample, a lower-level polynomial in the projection set.
    let degree = match p.lead_coeff_in(yvar) {
        Some(lc) if !lc.is_zero() => Some(p.degree_in(yvar) as usize),
        _ => effective_degree(p, yvar, below)?,
    };
    let Some(d) = degree else {
        return Ok(FiberRoots::Nullified);
    };
    if d == 0 {
        return Ok(FiberRoots::Roots(Vec::new()));
    }
    // Candidates: eliminate every algebraic coordinate by resultants with
    // its defining polynomial (all of them are irrational here: the
    // rational ones were substituted). The coordinate is a root of that
    // polynomial, so every real root of the fibre is a root of the last
    // resultant.
    let mut r = q.clone();
    for (v, alpha) in algs.iter_mut() {
        let Some(m) = alpha.poly().cloned() else {
            continue;
        };
        r = eliminate(&r, *v, m, alpha, ctx)?;
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
    let candidates = RealAlg::roots_of(&ru);
    if candidates.is_empty() {
        return Ok(FiberRoots::Roots(Vec::new()));
    }
    // `psc_0` is `lc ≠ 0` for `d = 1`, and `±lc·disc(p)` when `q` is not
    // truncated, a zero test the parent's signs answer.
    let whole = d == p.degree_in(yvar) as usize;
    let gcd = if d == 1 || (whole && !below.disc_is_zero(id, p, yvar)?) {
        None
    } else {
        Some(fibre_gcd(&q, d, usize::from(whole), yvar, algs, ctx)?)
    };
    // Neither `q` nor the gcd vanishes at a separator: their roots on the
    // fibre are among the candidates.
    members(candidates, |s| {
        let sign = sign_in_fibre(&q, yvar, Some(s), algs, ctx)?;
        match &gcd {
            Some(g) => Ok(sign.mul(sign_in_fibre(g, yvar, Some(s), algs, ctx)?)),
            None => Ok(sign),
        }
    })
    .map(FiberRoots::Roots)
}

/// `res_v(r, m)` for the defining polynomial `m` of the coordinate `alpha`
/// of variable `v`. The defining polynomial is squarefree but need not be
/// irreducible, so `r` may share a factor with it: then the resultant
/// vanishes identically, and `m` is replaced by `m / g` for `g` the gcd of
/// `m` and every coefficient of `r` in `Q[v]`. The roots of `g` are exactly
/// the conjugates over which `r` vanishes identically; `alpha` must not be
/// one of them (a typed error if it is), so it stays a root of `m / g`.
fn eliminate(
    r: &MPoly,
    v: usize,
    m: UPoly,
    alpha: &mut RealAlg,
    ctx: &QeContext,
) -> Result<MPoly, QeError> {
    let nvars = r.nvars();
    let res = ctx.cache.resultant(r, &MPoly::from_upoly(&m, v, nvars), v);
    if !res.is_zero() {
        return Ok(res);
    }
    let mut in_v: BTreeMap<Vec<u32>, Vec<Rat>> = BTreeMap::new();
    for (mono, c) in r.terms() {
        let mut rest = mono.to_vec();
        let e = std::mem::take(&mut rest[v]) as usize;
        let coeffs = in_v.entry(rest).or_default();
        coeffs.resize(coeffs.len().max(e + 1), Rat::zero());
        coeffs[e] = c.clone();
    }
    let g = in_v
        .into_values()
        .fold(m.clone(), |g, c| g.gcd(&UPoly::from_coeffs(c)));
    if alpha.sign_of(&g) == Sign::Zero {
        return Err(QeError::Unsupported(
            "iterated resultant vanished identically".into(),
        ));
    }
    let m = MPoly::from_upoly(&m.div_exact(&g), v, nvars);
    Ok(ctx.cache.resultant(r, &m, v))
}

/// The degree of `p` in `yvar` on the fibre: that of its top coefficient
/// not vanishing at the sample, `None` when all do.
fn effective_degree(p: &MPoly, yvar: usize, below: &dyn Below) -> Result<Option<usize>, QeError> {
    for (j, c) in p.as_upoly_in(yvar).iter().enumerate().rev() {
        let zero = match c.to_constant() {
            Some(v) => v.is_zero(),
            None => below.is_zero(c)?,
        };
        if !zero {
            return Ok(Some(j));
        }
    }
    Ok(None)
}

fn kept_others() -> QeError {
    QeError::Unsupported("fiber polynomial kept variables besides the stack variable".into())
}

/// The fibre's gcd with its derivative, up to a nonzero factor: `S_k(q_d,
/// ∂q_d/∂y)` for the fibre polynomial `q` truncated to its degree `d` on
/// the fibre, `k` the least `j ≥ from` with `psc_j` nonzero at the sample.
///
/// `q_d` keeps its degree on the fibre, so its subresultants specialise to
/// the fibre's: the gcd has degree `k` and `S_k` is a nonzero multiple of
/// it. `psc_{d−1} = d·lc` is nonzero, and `S_{d−1} = ∂q_d/∂y`. A `k = 0`
/// (a squarefree fibre) gives the constant `S_0`.
fn fibre_gcd(
    q: &MPoly,
    d: usize,
    from: usize,
    yvar: usize,
    algs: &mut [(usize, RealAlg)],
    ctx: &QeContext,
) -> Result<MPoly, QeError> {
    let qd = if q.degree_in(yvar) as usize == d {
        q.clone()
    } else {
        let coeffs = q.as_upoly_in(yvar);
        MPoly::from_upoly_in(yvar, coeffs.get(..=d).unwrap_or(&coeffs), q.nvars())
    };
    let dq = qd.derivative(yvar);
    for j in from..d - 1 {
        let s = subresultant(&qd, &dq, yvar, j);
        if let Some(psc) = s.as_upoly_in(yvar).get(j) {
            if sign_in_fibre(psc, yvar, None, algs, ctx)? != Sign::Zero {
                return Ok(s);
            }
        }
    }
    Ok(dq)
}

/// The candidates that are roots of a fibre polynomial with simple roots
/// only, every one of them among the candidates. `sign_at_separator` gives
/// the polynomial's sign at a rational separator, which is not a candidate
/// and so not a root. Each gap between consecutive separators holds exactly
/// one candidate, hence at most one root, and a simple root is where the
/// sign changes.
fn members(
    candidates: Vec<RealAlg>,
    sign_at_separator: impl FnMut(&Rat) -> Result<Sign, QeError>,
) -> Result<Vec<RealAlg>, QeError> {
    let signs = separators(&candidates)
        .iter()
        .map(sign_at_separator)
        .collect::<Result<Vec<Sign>, QeError>>()?;
    let changes = signs.windows(2).map(|w| w.first() != w.last());
    Ok(candidates
        .into_iter()
        .zip(changes)
        .filter_map(|(cand, change)| change.then_some(cand))
        .collect())
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

/// Exact sign of `f`, whose variables are the stack variable — set to `s`
/// when given — and the algebraic coordinates `algs`. A value left in
/// several coordinates is refined by intervals, which counts as a sign
/// evaluation of its own and proves a nonzero sign only.
fn sign_in_fibre(
    f: &MPoly,
    yvar: usize,
    s: Option<&Rat>,
    algs: &mut [(usize, RealAlg)],
    ctx: &QeContext,
) -> Result<Sign, QeError> {
    let mut point = vec![None; f.nvars()];
    point[yvar] = s.cloned();
    let value = f.eval_partial(&point);
    if let Partial::Terms(_) = value {
        ctx.sign_evals.add(1);
    }
    sign_of_value(value, algs)
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
        // An exact root has zero width, and `refined` returns it before
        // reading the width.
        for s in sections.iter_mut() {
            let w = &s.root.interval().width() * &Rat::from_ints(1, 4);
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
    stack: Stack,
    sectors: Vec<Rat>,
    /// 0-based position of the current cell (even = sector).
    pos: usize,
    /// Signs on the current root intervals, by polynomial id.
    carried: BTreeMap<usize, Sign>,
}

impl<'a> StackWalk<'a> {
    /// Start at the lowest sector of `stack`, built for the level
    /// polynomials `polys` over its base (coordinates of
    /// `vars[..vars.len()−1]`; the last of `vars` is the stack variable).
    #[must_use]
    pub fn new(polys: &'a [(usize, MPoly)], vars: &'a [usize], mut stack: Stack) -> StackWalk<'a> {
        let sectors = sector_samples(&mut stack.sections);
        StackWalk {
            polys,
            vars,
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

    /// The base sample, with the refinement building and walking the stack
    /// gave its coordinates.
    #[must_use]
    pub fn base(&self) -> &[RealAlg] {
        &self.stack.base
    }

    /// The current cell's own sample coordinate: the root on a section, the
    /// rational sector sample otherwise.
    #[must_use]
    pub fn coord(&self) -> RealAlg {
        match self.section() {
            Some(section) => section.root.clone(),
            None => RealAlg::from_rat(self.sectors[self.pos / 2].clone()),
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
    /// evaluation happens at that rational point, and the base keeps the
    /// refinement.
    pub fn sign_at_sector(&mut self, p: &MPoly, ctx: &QeContext) -> Result<Sign, QeError> {
        let sector = RealAlg::from_rat(self.sectors[self.pos / 2].clone());
        let point = &mut self.stack.base;
        point.push(sector);
        let sign = sign_at(p, self.vars, point, ctx);
        point.pop();
        sign
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
    use cdb_num::{Int, RatInterval};
    use cdb_poly::refimpl::{ref_sturm_chain, RefUPoly};
    use cdb_poly::UPoly;
    use proptest::prelude::*;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn no_lower(_: &MPoly) -> Result<bool, QeError> {
        panic!("no lower-level zero-tests expected in this test")
    }

    /// The exact lower-level oracle over an algebraic base: `sign_at` on a
    /// copy of it.
    fn at_base<'a>(
        vars: &'a [usize],
        base: &'a [RealAlg],
    ) -> impl Fn(&MPoly) -> Result<bool, QeError> + 'a {
        move |c| Ok(sign_at(c, vars, &mut base.to_vec(), &QeContext::exact())? == Sign::Zero)
    }

    fn sqrt2() -> RealAlg {
        RealAlg::roots_of(&UPoly::from_ints(&[-2, 0, 1]))
            .pop()
            .unwrap()
    }

    /// The stack of `polys` in `(x, y)` over the one coordinate `x`.
    fn stack_over(polys: &[(usize, MPoly)], x: RealAlg) -> Stack {
        let base = [x];
        let below = at_base(&[0], &base);
        build_stack(polys, &[0], base.to_vec(), 1, &below, &QeContext::exact()).unwrap()
    }

    #[test]
    fn fiber_roots_of_y_squared_minus_alpha() {
        // y² − x over x = √2: the sections are ±2^(1/4).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let mut stack = stack_over(&[(0, &y.pow(2) - &x)], sqrt2());
        let [below, above] = stack.sections.as_mut_slice() else {
            panic!("two sections expected")
        };
        let quartic = UPoly::from_ints(&[-2, 0, 0, 0, 1]);
        for root in [&mut below.root, &mut above.root] {
            assert_eq!(root.sign_of(&quartic), Sign::Zero);
        }
        assert_eq!(below.root.cmp_rat(&Rat::zero()), std::cmp::Ordering::Less);
        assert_eq!(
            above.root.cmp_rat(&Rat::zero()),
            std::cmp::Ordering::Greater
        );
        assert!((above.root.to_f64() - 2f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn fiber_with_a_vanishing_leading_coefficient() {
        // (x² − 2)·y² + y − 1 over x = √2 is y − 1: one section, exactly 1.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&(&x.pow(2) - &c(2, 2)) * &y.pow(2)) + &y) - &c(1, 2);
        let stack = stack_over(&[(0, p)], sqrt2());
        assert_eq!(stack.sections.len(), 1);
        assert_eq!(stack.sections[0].root.to_rat(), Some(Rat::one()));
    }

    #[test]
    fn fiber_with_a_double_root() {
        // (y − x)² over x = √2: one section, √2 itself.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let stack = stack_over(&[(0, (&y - &x).pow(2))], sqrt2());
        assert_eq!(stack.sections.len(), 1);
        let mut root = stack.sections[0].root.clone();
        assert_eq!(root.cmp_alg(&mut sqrt2()), std::cmp::Ordering::Equal);
    }

    /// Two leading coefficients vanish over the two-algebraic base `(x, z)
    /// = (√3, √2)`: `(z² − 2)·y⁴ + (x² − 3)·y³ + y² − 1` is `y² − 1` on the
    /// fibre, so its sections are exactly `±1`. The untruncated quartic's
    /// discriminant vanishes identically there; the truncated fibre's
    /// `psc_0` does not.
    #[test]
    fn two_leading_coefficients_vanish_over_two_algebraic_coordinates() {
        let n = 3;
        let (x, z, y) = (MPoly::var(0, n), MPoly::var(1, n), MPoly::var(2, n));
        let top = &(&z.pow(2) - &c(2, n)) * &y.pow(4);
        let next = &(&x.pow(2) - &c(3, n)) * &y.pow(3);
        let p = &(&(&top + &next) + &y.pow(2)) - &c(1, n);
        let sqrt3 = RealAlg::roots_of(&UPoly::from_ints(&[-3, 0, 1]))
            .pop()
            .unwrap();
        let base = [sqrt3, sqrt2()];
        let below = at_base(&[0, 1], &base);
        let mut stack = build_stack(
            &[(0, p)],
            &[0, 1],
            base.to_vec(),
            2,
            &below,
            &QeContext::exact(),
        )
        .unwrap();
        let roots: Vec<std::cmp::Ordering> = [-1i64, 1]
            .iter()
            .zip(&mut stack.sections)
            .map(|(r, s)| s.root.cmp_rat(&Rat::from(*r)))
            .collect();
        assert_eq!(stack.sections.len(), 2);
        assert_eq!(roots, [std::cmp::Ordering::Equal; 2]);
    }

    /// A cubic with a double root planted over `x = √2`: `(y − x)²·(y + 1) +
    /// (x² − 2)·y` is `(y − √2)²·(y + 1)` on the fibre, so `psc_0` (the
    /// discriminant) vanishes and `psc_1` does not: `S_1`, not the
    /// derivative `S_2`, is the fibre's gcd, and the sections are exactly
    /// `−1` and `√2`. The derivative's root `(√2 − 2)/3` is no section.
    #[test]
    fn cubic_with_a_double_root_takes_its_gcd_from_s1() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let planted = &(&y - &x).pow(2) * &(&y + &c(1, 2));
        let p = &planted + &(&(&x.pow(2) - &c(2, 2)) * &y);
        let mut stack = stack_over(&[(0, p)], sqrt2());
        let [below, above] = stack.sections.as_mut_slice() else {
            panic!("two sections expected")
        };
        assert_eq!(
            below.root.cmp_rat(&Rat::from(-1i64)),
            std::cmp::Ordering::Equal
        );
        assert_eq!(above.root.cmp_alg(&mut sqrt2()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn fiber_over_a_rational_algebraic_number() {
        // y − x over x = 3 given as a `RealAlg`: one section, exactly 3.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let three = RealAlg::from_rat(Rat::from(3i64));
        let stack = stack_over(&[(0, &y - &x)], three);
        assert_eq!(stack.sections.len(), 1);
        assert_eq!(stack.sections[0].root.to_rat(), Some(Rat::from(3i64)));
    }

    /// `a` disguised as an irrational number: the root of `(x − a)·g` in an
    /// isolating interval, `g` an irreducible quadratic (so `g(a) ≠ 0`).
    /// The interval is skewed so that no bisection midpoint lands on `a`.
    fn disguised(a: &Rat, g: &UPoly) -> RealAlg {
        let m = &UPoly::from_coeffs(vec![-a.clone(), Rat::one()]) * g;
        let chain = ref_sturm_chain(&RefUPoly::from_upoly(&m));
        // Sign variations of the chain at `x`: `m` has `V(lo) − V(hi)`
        // distinct roots in `(lo, hi]`.
        let variations = |x: &Rat| {
            let signs: Vec<Sign> = chain
                .iter()
                .map(|q| q.eval(x).sign())
                .filter(|s| *s != Sign::Zero)
                .collect();
            signs.windows(2).filter(|w| w[0] != w[1]).count()
        };
        let mut delta = Rat::one();
        loop {
            let lo = a - &delta;
            let hi = a + &(&delta * &Rat::from_ints(1, 2));
            let clear = m.sign_at(&lo) != Sign::Zero && m.sign_at(&hi) != Sign::Zero;
            if clear && variations(&lo) - variations(&hi) == 1 {
                return RealAlg::new(m, RatInterval::new(lo, hi));
            }
            delta = &delta * &Rat::from_ints(1, 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The disguised-rational oracle: a base coordinate `a` given as an
        /// irrational-looking `RealAlg` takes the algebraic rule — roots
        /// among the resultant's over `Q`, membership by the separator signs
        /// of `q·S_k` — and must lift exactly like the rational `a`. The
        /// resultant's extra candidates come from `g`'s roots. Shapes:
        /// random, nullified at `a`, a leading coefficient vanishing at `a`,
        /// and a double root; `y − x` rides along to share roots.
        #[test]
        fn disguised_rational_base_lifts_like_the_rational_one(
            coeffs in prop::collection::vec(-3i64..=3, 12),
            (an, ad) in (-4i64..=4, 1i64..=3),
            (k, l) in (-3i64..=3, -5i64..=5),
            shape in 0usize..4,
        ) {
            let disc = k * k - 4 * l;
            prop_assume!(disc < 0 || (0..=disc).all(|r| r * r != disc));
            let a = Rat::from_ints(an, ad);
            let x = MPoly::var(0, 2);
            let y = MPoly::var(1, 2);
            // Σ coeffs[4i + j]·xⁱ·yʲ over i < 3, j ≤ deg_y.
            let random = |deg_y: u32| {
                let mut sum = c(0, 2);
                for (n, &k) in coeffs.iter().enumerate() {
                    let (i, j) = ((n / 4) as u32, (n % 4) as u32);
                    if j <= deg_y {
                        sum = &sum + &(&c(k, 2) * &(&x.pow(i) * &y.pow(j)));
                    }
                }
                sum
            };
            let vanishes_at_a = &(&x * &c(ad, 2)) - &c(an, 2);
            let p = match shape {
                0 => random(3),
                1 => &vanishes_at_a * &random(2),
                2 => &(&vanishes_at_a * &y.pow(3)) + &random(2),
                _ => {
                    let line = &y - &(&c(coeffs[0], 2) + &(&c(coeffs[1], 2) * &x));
                    &line.pow(2) * &random(1)
                }
            };
            let polys = [(0, p), (1, &y - &x)];
            let alpha = disguised(&a, &UPoly::from_ints(&[l, k, 1]));
            prop_assert!(alpha.to_rat().is_none());
            let alg = stack_over(&polys, alpha);
            let mut rat = stack_over(&polys, RealAlg::from_rat(a));
            prop_assert_eq!(alg.nullified, rat.nullified);
            prop_assert_eq!(alg.sections.len(), rat.sections.len());
            for (mut s, t) in alg.sections.into_iter().zip(&mut rat.sections) {
                prop_assert_eq!(&s.vanish, &t.vanish);
                prop_assert_eq!(s.root.cmp_alg(&mut t.root), std::cmp::Ordering::Equal);
            }
        }
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
            vec![RealAlg::from_rat(Rat::zero())],
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
        let base = [sqrt2()];
        let ctx = QeContext::exact();
        let stack = build_stack(
            &[(0, p), (1, q)],
            &[0],
            base.to_vec(),
            1,
            &at_base(&[0], &base),
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
            vec![RealAlg::from_rat(Rat::zero())],
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
        let base = [sqrt2()];
        let ctx = QeContext::exact();
        let stack = build_stack(
            &[(7, p)],
            &[0],
            base.to_vec(),
            1,
            &at_base(&[0], &base),
            &ctx,
        )
        .unwrap();
        assert_eq!(stack.sections.len(), 1);
        let mut root = stack.sections[0].root.clone();
        assert_eq!(root.cmp_rat(&Rat::from(2i64)), std::cmp::Ordering::Equal);
    }

    /// Roots over an algebraic base carry the squarefree part of the
    /// resultant, never the resultant: `y² − x²` over `x = √2` eliminates to
    /// `(y² − 2)²`, and the sections `±√2` carry `y² − 2`, refine to the same
    /// interval as a number built on the raw resultant's squarefree part, and
    /// compare and take signs exactly.
    #[test]
    fn algebraic_base_roots_carry_a_squarefree_polynomial() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y.pow(2) - &x.pow(2);
        let minpoly = UPoly::from_ints(&[-2, 0, 1]);
        let sqrt2 = RealAlg::roots_of(&minpoly).pop().unwrap();
        let ctx = QeContext::exact();
        let alg = [sqrt2.clone()];
        let stack =
            build_stack(&[(0, p)], &[0], alg.to_vec(), 1, &at_base(&[0], &alg), &ctx).unwrap();
        let mut roots: Vec<RealAlg> = stack.sections.into_iter().map(|s| s.root).collect();
        assert_eq!(roots.len(), 2);
        let raw = minpoly.pow(2);
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(40));
        for root in &mut roots {
            assert_eq!(root.poly(), Some(&minpoly));
            let reference = RealAlg::new(raw.squarefree(), root.interval());
            let want = reference.refined(&eps).interval();
            assert_eq!(root.approx(&eps), want.midpoint());
            assert_eq!(root.refined(&eps).interval(), want);
            assert_eq!(root.sign_of(&raw), Sign::Zero);
        }
        let [below, above] = &mut roots[..] else {
            unreachable!("two sections")
        };
        assert_eq!(below.cmp_alg(above), std::cmp::Ordering::Less);
        assert_eq!(above.cmp_alg(&mut sqrt2.clone()), std::cmp::Ordering::Equal);
        assert_eq!(above.sign_of(&UPoly::from_ints(&[-1, 1])), Sign::Pos);
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
        let sqrt2 = sqrt2();
        for base in [
            RealAlg::from_rat(Rat::zero()),
            RealAlg::from_rat(Rat::one()),
            (sqrt2),
        ] {
            let ctx = QeContext::exact();
            let base = [base];
            let below = at_base(&[0], &base);
            let build = || build_stack(&polys, &[0], base.to_vec(), 1, &below, &ctx).unwrap();
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
            let mut walk = StackWalk::new(&polys, &[0, 1], stack);
            let mut table: Vec<(RealAlg, Vec<Sign>)> = Vec::new();
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
                let mut cell = [base[0].clone(), coord.clone()];
                for ((_, p), s) in polys.iter().zip(signs) {
                    match sign_at(p, &[0, 1], &mut cell, &ctx) {
                        Ok(direct) => assert_eq!(direct, *s, "{p} at {cell:?}"),
                        // Two algebraic coordinates: refinement cannot
                        // prove a zero, it can only fail to refute it.
                        Err(QeError::IndeterminateSign(_)) => assert_eq!(*s, Sign::Zero),
                        Err(e) => panic!("{p} at {cell:?}: {e}"),
                    }
                }
            }
            let mut lazy = StackWalk::new(&polys, &[0, 1], build());
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
        let base = [RealAlg::from_rat(Rat::zero())];
        let stack = build_stack(&polys, &[0], base.to_vec(), 1, &no_lower, &ctx).unwrap();
        let vanish: Vec<Vec<usize>> = stack
            .sections
            .iter()
            .map(|s| s.vanish.iter().copied().collect())
            .collect();
        assert_eq!(vanish, [vec![1], vec![0], vec![0, 2], vec![0, 2], vec![1]]);
        let mut roots: Vec<RealAlg> = stack.sections.into_iter().map(|s| s.root).collect();
        for i in 1..roots.len() {
            let (lower, upper) = roots.split_at_mut(i);
            assert_eq!(
                lower[i - 1].cmp_alg(&mut upper[0]),
                std::cmp::Ordering::Less
            );
        }
    }

    /// The §4 monitor reads a fibre's coefficients after substitution, on
    /// every fibre path: `y − x³` over `x = (2²⁰ + 1)/3` has the 61-bit
    /// coefficient `(2²⁰ + 1)³/27`, over the rational base and with a
    /// second, algebraic coordinate `z = √2` (`y − z·x³`) alike.
    #[test]
    fn fibre_over_budget_fails_with_its_substituted_bits() {
        let big = Rat::new(&Int::pow2(20) + &Int::one(), Int::from(3i64));
        let x3 = MPoly::var(0, 3).pow(3);
        let z = MPoly::var(1, 3);
        let y = MPoly::var(2, 3);
        let cases = [
            (&y - &x3, vec![0], vec![RealAlg::from_rat(big.clone())]),
            (
                &y - &(&z * &x3),
                vec![0, 1],
                vec![RealAlg::from_rat(big), sqrt2()],
            ),
        ];
        for (p, vars, base) in cases {
            let ctx = QeContext::with_budget(32);
            let below = at_base(&vars, &base);
            let err = build_stack(&[(0, p)], &vars, base.clone(), 2, &below, &ctx).err();
            assert!(
                matches!(
                    err,
                    Some(QeError::PrecisionExceeded {
                        budget_bits: 32,
                        seen_bits: 61
                    })
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn empty_stack_sector_sample() {
        let mut sections: Vec<StackSection> = Vec::new();
        assert_eq!(sector_samples(&mut sections), vec![Rat::zero()]);
    }
}
