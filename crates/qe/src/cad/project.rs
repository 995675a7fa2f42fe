//! The CAD projection operator `PROJ` (Appendix I).
//!
//! For a set of level-`i` polynomials, `PROJ` emits, in the eliminated
//! variable `v`:
//!
//! * **all coefficients** (handles leading-coefficient vanishing / degree
//!   drop — the Collins-style safety net over McCallum's projection),
//! * the **discriminant** of each polynomial of `v`-degree ≥ 2,
//! * the **pairwise resultants**.
//!
//! Every output is normalized to its primitive squarefree part
//! ([`normalize`]); constants are dropped. Every CAD site calls
//! [`normalize`] — the one definition — and the squarefree part it reads is
//! memoised on the polynomial's interned entry
//! ([`cdb_poly::squarefree_part`]), so a polynomial is normalised once per
//! process. This is sound for well-oriented inputs (nullification over
//! positive-dimensional cells is detected during lifting and handled as
//! documented in DESIGN.md).

use crate::{QeContext, QeError};
use cdb_poly::{squarefree_part, MPoly};

/// Normalize a polynomial for membership in a CAD level set: primitive
/// squarefree part. `None` when (effectively) constant. Memoised through
/// [`squarefree_part`]: a repeat reads the form off `p`'s interned entry.
#[must_use]
pub fn normalize(p: &MPoly) -> Option<MPoly> {
    if p.is_constant() {
        return None;
    }
    let sf = squarefree_part(p);
    if sf.is_constant() {
        None
    } else {
        Some(sf)
    }
}

/// Registry of all projection polynomials across levels, keyed by identity
/// of the normalized form. Ids are stable for the lifetime of one CAD.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    polys: Vec<MPoly>,
}

impl Registry {
    /// Insert (if new) and return the id.
    pub fn insert(&mut self, p: MPoly) -> usize {
        if let Some(i) = self.find(&p) {
            return i;
        }
        self.polys.push(p);
        self.polys.len() - 1
    }

    /// Find the id of a normalized polynomial.
    #[must_use]
    pub fn find(&self, p: &MPoly) -> Option<usize> {
        self.polys.iter().position(|q| q == p)
    }

    /// Get by id.
    #[must_use]
    pub fn get(&self, id: usize) -> &MPoly {
        &self.polys[id]
    }

    /// Number of registered polynomials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.polys.len()
    }

    /// True iff empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.polys.is_empty()
    }

    /// Iterate (id, poly).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &MPoly)> {
        self.polys.iter().enumerate()
    }
}

/// One projection step: eliminate variable `v` from `polys` (all of which
/// use `v`). Returns normalized output polynomials (not yet deduplicated
/// against other levels).
pub fn project(polys: &[MPoly], v: usize, ctx: &QeContext) -> Result<Vec<MPoly>, QeError> {
    let mut out: Vec<MPoly> = Vec::new();
    let mut push = |p: MPoly, ctx: &QeContext| -> Result<(), QeError> {
        ctx.observe_poly(&p)?;
        if let Some(n) = normalize(&p) {
            ctx.observe_poly(&n)?;
            if !out.contains(&n) {
                out.push(n);
            }
        }
        Ok(())
    };
    for p in polys {
        debug_assert!(p.uses_var(v), "projection input must use the variable");
        // All coefficients.
        for c in p.as_upoly_in(v) {
            push(c, ctx)?;
        }
        // Discriminant (memoized across repeated projections).
        if p.degree_in(v) >= 2 {
            push(ctx.cache.discriminant(p, v), ctx)?;
        }
    }
    // Pairwise resultants (memoized).
    for (i, p) in polys.iter().enumerate() {
        for q in &polys[i + 1..] {
            push(ctx.cache.resultant(p, q, v), ctx)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_num::Rat;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    /// The normal form of `(x − y)²·(x + 1)` — content in the main
    /// variable `y` and a repeated factor — is `(x − y)·(x + 1)` up to
    /// its primitive sign, on the first call and on the memoised repeat.
    #[test]
    fn normal_form_is_the_same_cold_and_warm() {
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let p = &(&x - &y).pow(2) * &(&x + &c(1, 2));
        let want = (&(&x - &y) * &(&x + &c(1, 2))).primitive();
        assert_eq!(normalize(&p), Some(want.clone()));
        assert_eq!(normalize(&p), Some(want));
    }

    #[test]
    fn constants_have_no_normal_form() {
        for v in [0, 5, -3] {
            assert_eq!(normalize(&c(v, 2)), None);
        }
    }

    #[test]
    fn registry_dedup() {
        let mut r = Registry::default();
        let x = MPoly::var(0, 1);
        let a = r.insert(x.clone());
        let b = r.insert(x.clone());
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        let y = &x + &c(1, 1);
        assert_ne!(r.insert(y), a);
    }

    #[test]
    fn paper_example_projection() {
        // Project S's polynomial 4x² − y − 20x + 25, eliminating y: degree 1
        // in y, so only coefficients: −1 (constant, dropped) and the rest
        // 4x² − 20x + 25, whose squarefree part is 2x − 5.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&c(4, 2) * &x.pow(2)) - &y) - &(&(&c(20, 2) * &x) - &c(25, 2));
        let out = project(&[p], 1, &QeContext::exact()).unwrap();
        assert_eq!(out.len(), 1);
        // (2x−5)² normalizes to 2x−5.
        assert_eq!(out[0], &(&c(2, 2) * &x) - &c(5, 2));
    }

    #[test]
    fn circle_projection_gives_boundary() {
        // x² + y² − 1, eliminate y: coefficients 1 (dropped), 0, x² − 1;
        // discriminant 4 − 4x² → normalized x² − 1.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x.pow(2) + &y.pow(2)) - &c(1, 2);
        let out = project(&[p], 1, &QeContext::exact()).unwrap();
        // x²−1 appears once after dedup/normalization.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], &x.pow(2) - &c(1, 2));
    }

    #[test]
    fn resultant_of_pair_included() {
        // p = y − x, q = y + x: res_y = ... vanishes iff x = 0 ⇒ output
        // includes x.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y - &x;
        let q = &y + &x;
        let out = project(&[p, q], 1, &QeContext::exact()).unwrap();
        assert!(out.iter().any(|g| g == &MPoly::var(0, 2)));
    }

    #[test]
    fn budget_propagates() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let big = c(1 << 20, 2);
        let p = &(&y.pow(2) - &(&big * &x)) + &c(3, 2);
        let ctx = QeContext::with_budget(8);
        assert!(matches!(
            project(&[p], 1, &ctx),
            Err(QeError::PrecisionExceeded { .. })
        ));
    }
}
