//! One-dimensional numerical integration.
//!
//! The analytical framework needs definite integrals in two places:
//!
//! * the closed-form bias/variance of *bounded* mechanisms are defined as
//!   integrals of the perturbation density over its support (Equations 14, 17
//!   and 18 of the paper) — those have analytic antiderivatives, but we also
//!   evaluate them numerically in tests as a cross-check;
//! * the Theorem 1 benchmark integrates the deviation density over a box
//!   `S = {|θ̂_j − θ̄_j| ≤ ξ_j}` (done per-dimension and multiplied because the
//!   density factorises).

use crate::MathError;

/// Composite Simpson's rule on `[a, b]` with `n` subintervals (`n` rounded up
/// to the next even number).
///
/// # Errors
/// Returns [`MathError::InvalidParameter`] when the interval is degenerate or
/// `n == 0`.
pub fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> crate::Result<f64> {
    if !(a.is_finite() && b.is_finite()) || a > b {
        return Err(MathError::InvalidParameter {
            name: "interval",
            reason: format!("require finite a <= b, got [{a}, {b}]"),
        });
    }
    if n == 0 {
        return Err(MathError::InvalidParameter {
            name: "n",
            reason: "number of subintervals must be positive".into(),
        });
    }
    if a == b {
        return Ok(0.0);
    }
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += if i % 2 == 0 { 2.0 * f(x) } else { 4.0 * f(x) };
    }
    Ok(sum * h / 3.0)
}

/// Nodes and weights of the 20-point Gauss–Legendre rule on `[-1, 1]`.
///
/// Twenty points integrate polynomials up to degree 39 exactly, which is far
/// more than needed for the smooth Gaussian / piecewise-constant densities we
/// evaluate; the rule is exposed for the framework's density moments.
const GL20_NODES: [f64; 10] = [
    0.076_526_521_133_497_33,
    0.227_785_851_141_645_08,
    0.373_706_088_715_419_56,
    0.510_867_001_950_827_1,
    0.636_053_680_726_515_1,
    0.746_331_906_460_150_8,
    0.839_116_971_822_218_8,
    0.912_234_428_251_326,
    0.963_971_927_277_913_8,
    0.993_128_599_185_094_9,
];
const GL20_WEIGHTS: [f64; 10] = [
    0.152_753_387_130_725_85,
    0.149_172_986_472_603_75,
    0.142_096_109_318_382_05,
    0.131_688_638_449_176_63,
    0.118_194_531_961_518_42,
    0.101_930_119_817_240_44,
    0.083_276_741_576_704_75,
    0.062_672_048_334_109_06,
    0.040_601_429_800_386_94,
    0.017_614_007_139_152_12,
];

/// 20-point Gauss–Legendre quadrature on `[a, b]`.
///
/// # Errors
/// Returns [`MathError::InvalidParameter`] for a degenerate interval.
pub fn gauss_legendre<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> crate::Result<f64> {
    if !(a.is_finite() && b.is_finite()) || a > b {
        return Err(MathError::InvalidParameter {
            name: "interval",
            reason: format!("require finite a <= b, got [{a}, {b}]"),
        });
    }
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut sum = 0.0;
    #[expect(clippy::indexing_slicing, reason = "i < 10, the length of both tables")]
    for i in 0..10 {
        let x = GL20_NODES[i] * half;
        sum += GL20_WEIGHTS[i] * (f(mid + x) + f(mid - x));
    }
    Ok(sum * half)
}

/// Composite Gauss–Legendre: split `[a, b]` into `segments` pieces and apply
/// the 20-point rule to each. Useful when the integrand has kinks (the
/// piecewise-constant mechanism densities).
///
/// # Errors
/// Propagates the parameter validation of [`gauss_legendre`], and rejects
/// `segments == 0`.
pub fn gauss_legendre_composite<F: Fn(f64) -> f64>(
    f: F,
    a: f64,
    b: f64,
    segments: usize,
) -> crate::Result<f64> {
    if segments == 0 {
        return Err(MathError::InvalidParameter {
            name: "segments",
            reason: "must be positive".into(),
        });
    }
    let step = (b - a) / segments as f64;
    let mut total = 0.0;
    for i in 0..segments {
        let lo = a + i as f64 * step;
        let hi = lo + step;
        total += gauss_legendre(&f, lo, hi)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_integrates_polynomials_exactly() {
        // Simpson is exact for cubics.
        let got = simpson(|x| x * x * x - 2.0 * x + 1.0, -1.0, 3.0, 2).unwrap();
        let want = |x: f64| x.powi(4) / 4.0 - x * x + x;
        assert!((got - (want(3.0) - want(-1.0))).abs() < 1e-12);
    }

    #[test]
    fn simpson_handles_odd_subinterval_counts() {
        let got = simpson(|x| x.sin(), 0.0, std::f64::consts::PI, 101).unwrap();
        assert!((got - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simpson_rejects_bad_input() {
        assert!(simpson(|x| x, 1.0, 0.0, 10).is_err());
        assert!(simpson(|x| x, 0.0, 1.0, 0).is_err());
        assert!(simpson(|x| x, f64::NEG_INFINITY, 0.0, 10).is_err());
        assert_eq!(simpson(|x| x, 2.0, 2.0, 10).unwrap(), 0.0);
    }

    #[test]
    fn gauss_legendre_matches_simpson_on_gaussian_pdf() {
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let a = gauss_legendre(pdf, -3.0, 3.0).unwrap();
        let b = simpson(pdf, -3.0, 3.0, 10_000).unwrap();
        assert!((a - b).abs() < 1e-9, "gl = {a}, simpson = {b}");
        // And both should be ~0.9973.
        assert!((a - 0.997_300_203_936_74).abs() < 1e-6);
    }

    #[test]
    fn composite_gauss_legendre_handles_kinked_integrands() {
        // |x| has a kink at 0; composite with an even number of segments puts a
        // boundary exactly on it.
        let got = gauss_legendre_composite(|x: f64| x.abs(), -1.0, 1.0, 2).unwrap();
        assert!((got - 1.0).abs() < 1e-12);
        assert!(gauss_legendre_composite(|x: f64| x, 0.0, 1.0, 0).is_err());
    }

    #[test]
    fn all_rules_agree_on_smooth_integrand() {
        let f = |x: f64| (x * x + 1.0).ln();
        let s = simpson(f, 0.0, 2.0, 4_000).unwrap();
        let g = gauss_legendre_composite(f, 0.0, 2.0, 4).unwrap();
        assert!((s - g).abs() < 1e-9);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn linearity_of_simpson(a in -5.0f64..0.0, b in 0.0f64..5.0, c in -3.0f64..3.0) {
                prop_assume!(b > a);
                let f = |x: f64| x * x;
                let base = simpson(f, a, b, 512).unwrap();
                let scaled = simpson(|x| c * f(x), a, b, 512).unwrap();
                prop_assert!((scaled - c * base).abs() < 1e-9 * (1.0 + base.abs() * c.abs()));
            }

            #[test]
            fn interval_additivity(a in -4.0f64..-1.0, m in -1.0f64..1.0, b in 1.0f64..4.0) {
                let f = |x: f64| (x.sin() + 2.0).sqrt();
                let whole = gauss_legendre_composite(f, a, b, 16).unwrap();
                let split = gauss_legendre_composite(f, a, m, 16).unwrap()
                    + gauss_legendre_composite(f, m, b, 16).unwrap();
                prop_assert!((whole - split).abs() < 1e-8);
            }
        }
    }
}
