//! Multivariate GCD (primitive PRS) and squarefree parts.
//!
//! CAD requires a squarefree basis: the discriminant of a polynomial with a
//! repeated factor vanishes identically, destroying the projection's
//! delineability information. Every polynomial entering a CAD level is first
//! replaced by its primitive squarefree part (same real variety, honest
//! discriminants).

use crate::mpoly::{Form, MPoly};
use cdb_num::Rat;

/// Greatest common divisor in `Q[x₀, …]`, in primitive normal form
/// (positive lex-leading coefficient). `gcd(0, q) = primitive(q)`.
#[must_use]
pub fn mgcd(p: &MPoly, q: &MPoly) -> MPoly {
    assert_eq!(p.nvars(), q.nvars());
    if p.is_zero() {
        return if q.is_zero() {
            q.clone()
        } else {
            q.primitive()
        };
    }
    if q.is_zero() {
        return p.primitive();
    }
    if p.is_constant() || q.is_constant() {
        return MPoly::constant(Rat::one(), p.nvars());
    }
    // Main variable: highest-index variable used by either.
    let Some(v) = (0..p.nvars())
        .rev()
        .find(|&i| p.uses_var(i) || q.uses_var(i))
    else {
        // Unreachable: both were checked nonconstant above, and a
        // nonconstant polynomial uses some variable. Constant gcd is inert.
        return MPoly::constant(Rat::one(), p.nvars());
    };
    if !p.uses_var(v) || !q.uses_var(v) {
        // One of them is free of v: gcd divides the content of the other.
        let (with_v, without) = if p.uses_var(v) { (p, q) } else { (q, p) };
        let c = content_wrt(with_v, v);
        return mgcd(&c, without);
    }
    let cp = content_wrt(p, v);
    let cq = content_wrt(q, v);
    let pp = p.div_exact(&cp);
    let qq = q.div_exact(&cq);
    // Primitive PRS in v.
    let (mut a, mut b) = if pp.degree_in(v) >= qq.degree_in(v) {
        (pp, qq)
    } else {
        (qq, pp)
    };
    loop {
        let r = pseudo_rem(&a, &b, v);
        if r.is_zero() {
            break;
        }
        if r.degree_in(v) == 0 {
            // Nonzero remainder free of v: the primitive parts are coprime,
            // so the gcd is the gcd of the contents.
            return mgcd(&cp, &cq);
        }
        let c = content_wrt(&r, v);
        a = b;
        b = r.div_exact(&c);
    }
    let g = b.primitive();
    &mgcd(&cp, &cq) * &g
}

/// Content of `p` with respect to variable `v`: the gcd of its coefficients
/// (polynomials in the remaining variables).
#[must_use]
pub fn content_wrt(p: &MPoly, v: usize) -> MPoly {
    let coeffs = p.as_upoly_in(v);
    let mut g = MPoly::zero(p.nvars());
    for c in coeffs {
        if c.is_zero() {
            continue;
        }
        g = mgcd(&g, &c);
        if g.to_constant().is_some_and(|x| x == Rat::one()) {
            return g;
        }
    }
    g
}

/// Pseudo-remainder of `a` by `b` in variable `v`:
/// `lc(b)^(deg a − deg b + 1) · a ≡ q·b + prem`.
#[must_use]
pub fn pseudo_rem(a: &MPoly, b: &MPoly, v: usize) -> MPoly {
    let db = b.degree_in(v) as usize;
    let bc = b.as_upoly_in(v);
    let lc_b = bc[db].clone();
    let mut rc = a.as_upoly_in(v);
    let nvars = a.nvars();
    while rc.len() > db && rc.len() > 1 {
        let dr = rc.len() - 1;
        let lead = rc[dr].clone();
        if lead.is_zero() {
            rc.pop();
            continue;
        }
        // r := lc_b * r − lead * x^{dr−db} * b
        for item in rc.iter_mut() {
            *item = &*item * &lc_b;
        }
        for (j, bcj) in bc.iter().enumerate() {
            let idx = dr - db + j;
            rc[idx] = &rc[idx] - &(&lead * bcj);
        }
        debug_assert!(rc[dr].is_zero());
        rc.pop();
        while rc.last().is_some_and(MPoly::is_zero) && rc.len() > 1 {
            rc.pop();
        }
    }
    if rc.iter().all(MPoly::is_zero) {
        return MPoly::zero(nvars);
    }
    MPoly::from_upoly_in(v, &rc, nvars)
}

/// Squarefree part of `p`, in primitive normal form: the product of the
/// distinct irreducible factors, so the real variety is unchanged and
/// discriminants are honest.
///
/// The content with respect to the main variable must be handled
/// *recursively*: `gcd(p, ∂p/∂v)` contains the whole content (it divides
/// both), so the naive `p / gcd(p, ∂p/∂v)` would silently drop factors
/// free of `v` — e.g. it would reduce `x·y` to `y`, losing the `x = 0`
/// component of the variety (a CAD soundness bug caught by the
/// `three_level_cad_structure` test).
///
/// Computed once per interned polynomial, then read off its entry
/// (DESIGN.md §10.2).
#[must_use]
pub fn squarefree_part(p: &MPoly) -> MPoly {
    p.memoised(Form::Squarefree, squarefree_uncached)
}

/// [`squarefree_part`] without the memo.
pub(crate) fn squarefree_uncached(p: &MPoly) -> MPoly {
    if p.is_zero() || p.is_constant() {
        return p.clone();
    }
    let Some(v) = (0..p.nvars()).rev().find(|&i| p.uses_var(i)) else {
        // Unreachable: `p` was checked nonconstant above.
        return p.clone();
    };
    let cont = content_wrt(p, v);
    let pp = p.div_exact(&cont);
    let sf_cont = squarefree_part(&cont);
    let dpp = pp.derivative(v);
    let sf_pp = if dpp.is_zero() {
        pp
    } else {
        let g = mgcd(&pp, &dpp);
        if g.is_constant() {
            pp
        } else {
            pp.div_exact(&g)
        }
    };
    (&sf_cont * &sf_pp).primitive()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (MPoly, MPoly) {
        (MPoly::var(0, 2), MPoly::var(1, 2))
    }

    #[test]
    fn gcd_univariate_embedded() {
        let (x, _) = xy();
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        let p = &(&x - &c(1)) * &(&x - &c(2));
        let q = &(&x - &c(1)) * &(&x - &c(3));
        assert_eq!(mgcd(&p, &q), &x - &c(1));
    }

    #[test]
    fn gcd_bivariate_common_factor() {
        let (x, y) = xy();
        let f = &x - &y; // common factor
        let p = &f * &(&x + &y);
        let q = &f * &(&x + &MPoly::constant(Rat::one(), 2));
        let g = mgcd(&p, &q);
        assert_eq!(g, f.primitive());
    }

    #[test]
    fn gcd_coprime_is_one() {
        let (x, y) = xy();
        let g = mgcd(&(&x + &y), &(&x - &y));
        assert_eq!(g.to_constant(), Some(Rat::one()));
    }

    #[test]
    fn content_extraction() {
        let (x, y) = xy();
        // p = y·x² + y² x = y·x·(x + y): content wrt x is y.
        let p = &(&y * &x.pow(2)) + &(&y.pow(2) * &x);
        let c = content_wrt(&p, 0);
        assert_eq!(c, y.primitive());
    }

    #[test]
    fn squarefree_strips_squares() {
        let (x, y) = xy();
        let f = &x - &y;
        let p = &f * &f;
        assert_eq!(squarefree_part(&p), f.primitive());
        // Mixed: (x−y)²(x+y) → (x−y)(x+y).
        let q = &p * &(&x + &y);
        let sf = squarefree_part(&q);
        assert_eq!(sf, (&f * &(&x + &y)).primitive());
    }

    #[test]
    fn squarefree_of_squarefree_is_identity() {
        let (x, y) = xy();
        let p = &(&x.pow(2) + &y.pow(2)) - &MPoly::constant(Rat::one(), 2);
        assert_eq!(squarefree_part(&p), p.primitive());
    }

    #[test]
    fn pseudo_rem_degree_drops() {
        let (x, y) = xy();
        let a = &x.pow(3) + &y;
        let b = &x.pow(2) - &y;
        let r = pseudo_rem(&a, &b, 0);
        assert!(r.degree_in(0) < 2);
        // prem(a, b) = lc^? a mod b: x³ + y mod (x² − y) = x·y + y.
        assert_eq!(r, &(&x * &y) + &y);
    }

    #[test]
    fn gcd_with_content_interaction() {
        let (x, y) = xy();
        // p = y²·(x−1), q = y·(x−1)(x+2): gcd = y(x−1).
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        let p = &y.pow(2) * &(&x - &c(1));
        let q = &(&y * &(&x - &c(1))) * &(&x + &c(2));
        let g = mgcd(&p, &q);
        assert_eq!(g, (&y * &(&x - &c(1))).primitive());
    }
}
