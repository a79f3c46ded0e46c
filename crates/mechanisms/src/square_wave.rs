//! The Square Wave mechanism (Li et al., SIGMOD 2020) — Equation 5 of the paper.
//!
//! Natively defined on the input domain `[0, 1]`: the perturbed value lies in
//! `[-b, 1 + b]` with
//!
//! ```text
//! b = (ε e^ε − e^ε + 1) / (2 e^ε (e^ε − 1 − ε))
//! ```
//!
//! and the density is `e^ε/(2be^ε + 1)` within distance `b` of the true value
//! and `1/(2be^ε + 1)` elsewhere. Unlike Piecewise, the estimate is *biased*
//! (Equation 17 of the paper gives the closed form), which is exactly what
//! makes it an interesting case for the analytical framework: Lemma 3 has to
//! carry both the bias and the value-dependent variance (Equation 18).
//!
//! To use it on `[-1, 1]`-normalized data wrap it in
//! [`crate::Rescaled`] (that is what [`crate::build_mechanism`] does).

use crate::draw;
use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, perturb_in_chunks, Bound, Mechanism};
use rand::rngs::StdRng;
use rand::RngCore;

/// Square Wave mechanism on its native input domain `[0, 1]`.
#[derive(Debug, Clone)]
pub struct SquareWaveMechanism {
    epsilon: f64,
    /// Half-width `b` of the high-probability band.
    b: f64,
    /// `e^ε`.
    exp_eps: f64,
    /// [`SquareWaveMechanism::prob_in_band`] clamped to `[0, 1]`: the
    /// probability with which a report's coin picks the band.
    coin_probability: f64,
}

impl SquareWaveMechanism {
    /// Create a Square Wave mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite, and [`crate::MechanismError::InvalidParameter`]
    /// when it is so large that `e^ε` overflows or the band half-width `b`
    /// is not finite (`ε·e^ε` overflows from `ε ≈ 703`).
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        let exp_eps = epsilon.exp();
        if !exp_eps.is_finite() {
            return Err(crate::MechanismError::InvalidParameter {
                name: "epsilon",
                reason: format!("epsilon {epsilon} is too large: e^epsilon overflows"),
            });
        }
        let b = Self::band_half_width(epsilon);
        if !b.is_finite() {
            return Err(crate::MechanismError::InvalidParameter {
                name: "epsilon",
                reason: format!("epsilon {epsilon} is too large: the band half-width is {b}"),
            });
        }
        let mut mechanism = Self {
            epsilon,
            b,
            exp_eps,
            coin_probability: 0.0,
        };
        mechanism.coin_probability = mechanism.prob_in_band().clamp(0.0, 1.0);
        Ok(mechanism)
    }

    /// The band half-width `b(ε)`.
    ///
    /// For very small `ε` the direct formula suffers catastrophic cancellation
    /// (both numerator and denominator are `O(ε²)`), so below `ε = 10⁻⁴` we
    /// switch to the second-order Taylor expansion
    /// `b ≈ (1/2)·(1 + 2ε/3 + ε²/4)/(1 + 4ε/3 + 11ε²/12)`.
    pub fn band_half_width(epsilon: f64) -> f64 {
        if epsilon < 1e-4 {
            0.5 * (1.0 + 2.0 * epsilon / 3.0 + epsilon * epsilon / 4.0)
                / (1.0 + 4.0 * epsilon / 3.0 + 11.0 * epsilon * epsilon / 12.0)
        } else {
            let e = epsilon.exp();
            (epsilon * e - e + 1.0) / (2.0 * e * (e - 1.0 - epsilon))
        }
    }

    /// The band half-width `b` of this instance.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Density of outputs within distance `b` of the input, `e^ε/(2be^ε + 1)`.
    pub fn high_density(&self) -> f64 {
        self.exp_eps / (2.0 * self.b * self.exp_eps + 1.0)
    }

    /// Density of outputs further than `b` from the input, `1/(2be^ε + 1)`.
    pub fn low_density(&self) -> f64 {
        1.0 / (2.0 * self.b * self.exp_eps + 1.0)
    }

    /// Probability that the report falls in the high-probability band.
    pub fn prob_in_band(&self) -> f64 {
        2.0 * self.b * self.exp_eps / (2.0 * self.b * self.exp_eps + 1.0)
    }

    /// Perturb `t` from its two words: `coin` decides between the band and
    /// the rest, `position` places the report.
    ///
    /// Branch-free: both candidates come from the same position word, the
    /// in-band one uniform on `[t − b, t + b]` and the out-of-band one
    /// uniform over `[-b, t − b) ∪ (t + b, 1 + b]`, and the coin selects one.
    /// Each is exactly what the vendored draw would return on `position`:
    /// construction keeps `b` finite and non-negative.
    #[inline]
    pub(crate) fn report(&self, t: f64, [coin, position]: [u64; 2]) -> f64 {
        let t = clamp_to_domain(t, 0.0, 1.0);
        let inside = draw::uniform_inclusive(position, t - self.b, t + self.b);
        // The two pieces have lengths t and 1 − t (total length exactly 1).
        let u = draw::uniform_half_open(position, 0.0, 1.0);
        let outside = if u < t { -self.b + u } else { self.b + u };
        if draw::bernoulli(coin, self.coin_probability) {
            inside
        } else {
            outside
        }
    }
}

impl Mechanism for SquareWaveMechanism {
    fn name(&self) -> &'static str {
        "square_wave"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn bound(&self) -> Bound {
        // Outputs lie in [-b, 1 + b]; the magnitude bound is 1 + b.
        Bound::Bounded(1.0 + self.b)
    }

    fn input_domain(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        (-self.b, 1.0 + self.b)
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        self.report(t, [rng.next_u64(), rng.next_u64()])
    }

    fn perturb_values(&self, values: &mut [f64], rng: &mut StdRng) {
        perturb_in_chunks(values, rng, |t, words| self.report(t, words));
    }

    fn bias(&self, t: f64) -> f64 {
        // Equation 17 of the paper.
        let t = clamp_to_domain(t, 0.0, 1.0);
        let denom = 2.0 * self.b * self.exp_eps + 1.0;
        2.0 * self.b * (self.exp_eps - 1.0) * t / denom + (1.0 + 2.0 * self.b) / (2.0 * denom) - t
    }

    fn variance(&self, t: f64) -> f64 {
        // Equation 18 of the paper.
        let t = clamp_to_domain(t, 0.0, 1.0);
        let b = self.b;
        let denom = 2.0 * b * self.exp_eps + 1.0;
        let delta = self.bias(t);
        b * b / 3.0 + (2.0 * b + 1.0) * (b + 1.0 - 3.0 * t * t) / (3.0 * denom)
            - delta * delta
            - 2.0 * delta * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_moments_match_monte_carlo;
    use hdldp_math::integrate::gauss_legendre_composite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_epsilon() {
        assert!(SquareWaveMechanism::new(1.0).is_ok());
        assert!(SquareWaveMechanism::new(0.0).is_err());
        assert!(SquareWaveMechanism::new(f64::NAN).is_err());
        assert!(SquareWaveMechanism::new(1e4).is_err()); // e^10000 overflows
        assert!(SquareWaveMechanism::new(703.0).is_ok());
        assert!(SquareWaveMechanism::new(705.0).is_err()); // ε·e^ε overflows: b is NaN
    }

    #[test]
    fn band_half_width_limits_match_paper() {
        // b -> 1/2 as eps -> 0 and b -> 0 as eps -> infinity (Section VI).
        assert!((SquareWaveMechanism::band_half_width(1e-6) - 0.5).abs() < 1e-3);
        assert!(SquareWaveMechanism::band_half_width(50.0) < 1e-10);
        // Monotone decreasing in eps over a moderate grid.
        let mut prev = f64::INFINITY;
        for &eps in &[0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let b = SquareWaveMechanism::band_half_width(eps);
            assert!(b < prev, "b({eps}) = {b} not decreasing");
            prev = b;
        }
    }

    #[test]
    fn series_and_direct_formula_agree_at_the_switchover() {
        let direct = {
            let e: f64 = 1e-4f64.exp();
            (1e-4 * e - e + 1.0) / (2.0 * e * (e - 1.0 - 1e-4))
        };
        let series = SquareWaveMechanism::band_half_width(0.99999e-4);
        assert!(
            (direct - series).abs() < 1e-5,
            "direct {direct}, series {series}"
        );
    }

    #[test]
    fn density_is_normalized_and_ratio_is_e_eps() {
        for &eps in &[0.1, 1.0, 4.0] {
            let m = SquareWaveMechanism::new(eps).unwrap();
            // Total mass: 2b * high + 1 * low = 1.
            let total = 2.0 * m.b() * m.high_density() + m.low_density();
            assert!((total - 1.0).abs() < 1e-12, "eps = {eps}");
            let ratio = m.high_density() / m.low_density();
            assert!((ratio - eps.exp()).abs() / eps.exp() < 1e-12, "eps = {eps}");
        }
    }

    #[test]
    fn bias_and_variance_match_density_integrals() {
        // Cross-check Equations 17 and 18 against direct numeric integration of
        // the two-level density.
        let eps = 1.0;
        let m = SquareWaveMechanism::new(eps).unwrap();
        let b = m.b();
        for &t in &[0.0, 0.3, 0.5, 0.8, 1.0] {
            let hd = m.high_density();
            let ld = m.low_density();
            // Integrate each constant-density segment separately so the kinks
            // fall on integration boundaries and the quadrature is exact.
            let moment = |p: u32| {
                ld * gauss_legendre_composite(|x| x.powi(p as i32), -b, t - b, 4).unwrap()
                    + hd * gauss_legendre_composite(|x| x.powi(p as i32), t - b, t + b, 4).unwrap()
                    + ld * gauss_legendre_composite(|x| x.powi(p as i32), t + b, 1.0 + b, 4)
                        .unwrap()
            };
            let ex = moment(1);
            let ex2 = moment(2);
            let bias_integral = ex - t;
            let var_integral = ex2 - ex * ex;
            assert!(
                (bias_integral - m.bias(t)).abs() < 1e-4,
                "t = {t}: bias integral {bias_integral} vs closed {}",
                m.bias(t)
            );
            assert!(
                (var_integral - m.variance(t)).abs() < 1e-4,
                "t = {t}: var integral {var_integral} vs closed {}",
                m.variance(t)
            );
        }
    }

    #[test]
    fn uniform_limit_variance_is_one_third() {
        // As eps -> 0 the output is uniform on [-1/2, 3/2]: variance 1/3 for any t.
        let m = SquareWaveMechanism::new(1e-6).unwrap();
        for &t in &[0.0, 0.25, 0.5, 1.0] {
            assert!((m.variance(t) - 1.0 / 3.0).abs() < 1e-3, "t = {t}");
        }
    }

    #[test]
    fn case_study_bias_and_variance_values() {
        // Section IV-C: ε/m = 0.001, values {0.1,...,1.0} each with probability 10%,
        // r = 10,000 ⇒ δ_j ≈ −0.049 and σ² ≈ 3.365e-5.
        let m = SquareWaveMechanism::new(0.001).unwrap();
        let values: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
        let mean_bias: f64 = values.iter().map(|&t| m.bias(t)).sum::<f64>() / 10.0;
        let mean_var: f64 = values.iter().map(|&t| m.variance(t)).sum::<f64>() / 10.0;
        let sigma2 = mean_var / 10_000.0;
        assert!(
            (mean_bias - -0.049).abs() < 0.002,
            "mean bias = {mean_bias}, paper reports -0.049"
        );
        assert!(
            (sigma2 - 3.365e-5).abs() < 0.15e-5,
            "sigma^2 = {sigma2:e}, paper reports 3.365e-5"
        );
    }

    #[test]
    fn outputs_stay_in_support() {
        let m = SquareWaveMechanism::new(0.5).unwrap();
        let (lo, hi) = m.output_support();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..5000 {
            let t = (i % 100) as f64 / 99.0;
            let out = m.perturb(t, &mut rng);
            assert!(out >= lo - 1e-12 && out <= hi + 1e-12);
        }
    }

    #[test]
    fn closed_form_moments_match_monte_carlo() {
        let m = SquareWaveMechanism::new(1.0).unwrap();
        assert_moments_match_monte_carlo(&m, &[0.0, 0.2, 0.5, 0.9, 1.0], 300_000, 0.01, 0.05, 41);
    }

    #[test]
    fn metadata_is_consistent() {
        let m = SquareWaveMechanism::new(1.0).unwrap();
        assert_eq!(m.name(), "square_wave");
        assert_eq!(m.input_domain(), (0.0, 1.0));
        assert!(!m.is_unbiased());
        assert_eq!(m.bound(), Bound::Bounded(1.0 + m.b()));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn variance_positive_and_bias_bounded(eps in 0.01f64..20.0, t in 0.0f64..1.0) {
                let m = SquareWaveMechanism::new(eps).unwrap();
                prop_assert!(m.variance(t) > 0.0);
                // The expected output always lies inside the output support.
                let (lo, hi) = m.output_support();
                let e = m.expected_output(t);
                prop_assert!(e >= lo - 1e-12 && e <= hi + 1e-12);
            }

            #[test]
            fn perturbed_value_in_support(eps in 0.05f64..10.0, t in 0.0f64..1.0, seed in 0u64..300) {
                let m = SquareWaveMechanism::new(eps).unwrap();
                let (lo, hi) = m.output_support();
                let mut rng = StdRng::seed_from_u64(seed);
                let out = m.perturb(t, &mut rng);
                prop_assert!(out >= lo - 1e-12 && out <= hi + 1e-12);
            }
        }
    }
}
