//! Adaptive Simpson quadrature — the "numerical computation module"
//! backing the measure aggregates when exact integration is unavailable.

// cdb-lint: allow-file(float) — §5 approximate aggregates: adaptive Simpson quadrature is the paper's sanctioned approximate integration path; results are flagged inexact
/// Adaptive Simpson integration of `f` over `[a, b]` to absolute tolerance
/// `tol`. `max_depth` bounds recursion (returns the best estimate past it).
/// A non-finite sample makes the estimate non-finite at once: every sample
/// enters some Simpson sum of the result, so halving further could not
/// make it finite.
#[must_use]
pub fn adaptive_simpson(f: &dyn Fn(f64) -> f64, a: f64, b: f64, tol: f64) -> f64 {
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    recurse(f, a, b, fa, fm, fb, whole, tol, 24)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    f: &dyn Fn(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || !delta.is_finite() || delta.abs() <= 15.0 * tol {
        return left + right + delta / 15.0;
    }
    recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        + recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_polynomials_exactly() {
        // Simpson is exact on cubics.
        let f = |x: f64| x * x * x - 2.0 * x + 1.0;
        let got = adaptive_simpson(&f, 0.0, 2.0, 1e-12);
        assert!((got - 2.0).abs() < 1e-10); // ∫₀² = 4 − 4 + 2 = 2
    }

    #[test]
    fn integrates_transcendentals() {
        let got = adaptive_simpson(&f64::sin, 0.0, std::f64::consts::PI, 1e-10);
        assert!((got - 2.0).abs() < 1e-8);
        let got2 = adaptive_simpson(&f64::exp, 0.0, 1.0, 1e-10);
        assert!((got2 - (1f64.exp() - 1.0)).abs() < 1e-8);
    }

    #[test]
    fn handles_sharp_features() {
        let f = |x: f64| 1.0 / (1e-3 + x * x);
        let exact = (1.0 / 1e-3f64.sqrt()) * ((1.0 / 1e-3f64.sqrt()).atan() * 2.0);
        let got = adaptive_simpson(&f, -1.0, 1.0, 1e-8);
        assert!((got - exact).abs() / exact < 1e-6, "{got} vs {exact}");
    }
}
