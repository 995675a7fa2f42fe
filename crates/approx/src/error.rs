//! Sup-norm error estimation by dense sampling.
//!
//! The paper leaves error analysis open ("Error analysis remains an
//! interesting issue to be resolved"); we provide the empirical measure the
//! E14 experiment sweeps: `max |f(x) − g(x)|` over a sampling grid.

// cdb-lint: allow-file(float) — §5 accuracy auditing: the sup-norm error estimate is a float diagnostic by definition
use crate::funcs::AnalyticFn;
use cdb_num::Rat;
use cdb_poly::UPoly;

/// Estimated sup-norm error of `poly` against `f` on `[a, b]`, sampled at
/// `samples + 1` equispaced points.
#[must_use]
pub fn sup_error(f: AnalyticFn, poly: &UPoly, a: f64, b: f64, samples: usize) -> f64 {
    assert!(samples >= 1 && a <= b);
    // Coefficients converted once, high-to-low; the fold below is
    // `UPoly::eval_f64`'s Horner order, so every sample is the same `f64`.
    let coeffs: Vec<f64> = poly.coeffs().iter().rev().map(Rat::to_f64).collect();
    let mut worst = 0.0f64;
    for i in 0..=samples {
        let x = a + (b - a) * (i as f64) / (samples as f64);
        if !f.in_domain(x) {
            continue;
        }
        let p_x = coeffs.iter().fold(0.0, |acc, c| acc * x + c);
        let e = (f.eval(x) - p_x).abs();
        if e > worst {
            worst = e;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abase::ABase;
    use crate::modules::{approximate_on_abase, ApproxMethod};

    /// The one piece of a one-interval a-base, as `sup_error` takes it.
    fn single_piece(f: AnalyticFn, lo: i64, hi: i64, order: u32) -> UPoly {
        let abase = ABase::uniform(Rat::from(lo), Rat::from(hi), 1);
        let pw = approximate_on_abase(f, &abase, order, ApproxMethod::Chebyshev).unwrap();
        pw.pieces.into_iter().next().unwrap().2
    }

    #[test]
    fn zero_error_for_polynomial_functions() {
        // Sin vs its degree-9 Chebyshev on a small interval: error must be
        // tiny.
        let p = single_piece(AnalyticFn::Sin, 0, 1, 9);
        let e = sup_error(AnalyticFn::Sin, &p, 0.0, 1.0, 500);
        assert!(e < 1e-10, "error {e}");
    }

    /// Hoisting the coefficient conversion out of the sample loop keeps
    /// `UPoly::eval_f64`'s Horner order: the estimate is the same `f64`.
    #[test]
    fn sup_error_is_eval_f64_bit_for_bit() {
        let f = crate::funcs::AnalyticFn::Cos;
        let (lo, hi) = (Rat::from(1i64), Rat::from(2i64));
        let p = crate::modules::approximate(f, &lo, &hi, 6, ApproxMethod::Chebyshev).unwrap();
        let want = (0..=64)
            .map(|i| 1.0 + f64::from(i) / 64.0)
            .map(|x| (f.eval(x) - p.eval_f64(x)).abs())
            .fold(0.0, f64::max);
        assert_eq!(sup_error(f, &p, 1.0, 2.0, 64).to_bits(), want.to_bits());
    }

    #[test]
    fn error_monotone_in_order() {
        let mut prev = f64::INFINITY;
        for k in [2u32, 4, 8] {
            let p = single_piece(AnalyticFn::Exp, -2, 2, k);
            let e = sup_error(AnalyticFn::Exp, &p, -2.0, 2.0, 500);
            assert!(e < prev, "order {k}: {e} !< {prev}");
            prev = e;
        }
    }
}
