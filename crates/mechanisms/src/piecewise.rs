//! The Piecewise mechanism (Wang et al., ICDE 2019) — Equation 4 of the paper.
//!
//! The perturbed value of `t ∈ [-1, 1]` lies in the bounded interval
//! `[-Q, Q]` with `Q = (e^ε + e^{ε/2})/(e^ε − e^{ε/2}) = (e^{ε/2}+1)/(e^{ε/2}−1)`,
//! following a two-level piecewise-constant density: a high-probability band
//! `[l(t), r(t)]` of width `Q − 1` centred (affinely) on `t`, and a
//! low-probability remainder. The mechanism is unbiased and its variance is
//!
//! ```text
//! Var[t*] = t² / (e^{ε/2} − 1) + (e^{ε/2} + 3) / (3 (e^{ε/2} − 1)²)
//! ```
//!
//! (the closed form used in the paper's case study, Equation 14 — the paper's
//! typeset formula writes `t*_ij` where `t²_ij` is meant; the numeric value
//! `σ² = 533.210` in Equation 15 is only reproduced with the `t²` form, which
//! is also the form in the original Piecewise-mechanism paper).

use crate::draw;
use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, perturb_in_chunks, Bound, Mechanism};
use rand::rngs::StdRng;
use rand::RngCore;

/// Piecewise mechanism on the input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct PiecewiseMechanism {
    epsilon: f64,
    /// `e^{ε/2}`.
    exp_half: f64,
    /// Output bound `Q`.
    q: f64,
    /// `(Q + 1)/2`, the slope of `l(t)`.
    half_q_plus: f64,
    /// `(Q − 1)/2`, the offset of `l(t)`.
    half_q_minus: f64,
    /// `e^{ε/2}/(e^{ε/2} + 1)`, the probability of reporting inside the band.
    prob_in_band: f64,
}

impl PiecewiseMechanism {
    /// Create a Piecewise mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite, and [`crate::MechanismError::InvalidParameter`]
    /// when it is so large that the band collapses in `f64` (`Q` rounds to
    /// 1, from `ε ≈ 73.5`) or `e^{ε/2}` overflows.
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        let exp_half = (epsilon / 2.0).exp();
        let q = (exp_half + 1.0) / (exp_half - 1.0);
        // Reject budgets whose band cannot be represented. Once e^{ε/2}
        // passes ~2⁵³, Q rounds to exactly 1: the band [l, r] has width
        // Q − 1 = 0 and r = (l + Q) − 1 rounds below l, so no report can be
        // drawn from it. For ε beyond ~1400, e^{ε/2} = inf would make every
        // derived quantity NaN. The mechanism is essentially noiseless at
        // such budgets anyway; treat them as invalid input instead of
        // returning values outside the band.
        if !exp_half.is_finite() || exp_half <= 1.0 || q <= 1.0 {
            return Err(crate::MechanismError::InvalidParameter {
                name: "epsilon",
                reason: format!("epsilon {epsilon} is too extreme for the Piecewise mechanism"),
            });
        }
        Ok(Self {
            epsilon,
            exp_half,
            q,
            half_q_plus: (q + 1.0) / 2.0,
            half_q_minus: (q - 1.0) / 2.0,
            prob_in_band: exp_half / (exp_half + 1.0),
        })
    }

    /// The output bound `Q`.
    pub fn output_bound(&self) -> f64 {
        self.q
    }

    /// Left edge `l(t)` of the high-probability band.
    pub fn band_left(&self, t: f64) -> f64 {
        let t = clamp_to_domain(t, -1.0, 1.0);
        self.half_q_plus * t - self.half_q_minus
    }

    /// Right edge `r(t) = l(t) + Q − 1` of the high-probability band.
    pub fn band_right(&self, t: f64) -> f64 {
        self.band_left(t) + self.q - 1.0
    }

    /// Density inside the high-probability band,
    /// `(e^ε − e^{ε/2}) / (2 e^{ε/2} + 2)`.
    pub fn high_density(&self) -> f64 {
        (self.exp_half * self.exp_half - self.exp_half) / (2.0 * self.exp_half + 2.0)
    }

    /// Density outside the band, `(1 − e^{−ε/2}) / (2 e^{ε/2} + 2)`.
    pub fn low_density(&self) -> f64 {
        (1.0 - 1.0 / self.exp_half) / (2.0 * self.exp_half + 2.0)
    }

    /// Probability that the report falls inside the high-probability band,
    /// `e^{ε/2} / (e^{ε/2} + 1)`.
    pub fn prob_in_band(&self) -> f64 {
        self.prob_in_band
    }

    /// Perturb `t` from its two words: `coin` decides between the band and
    /// the rest, `position` places the report.
    ///
    /// Branch-free: both candidates come from the same position word, the
    /// in-band one uniform on `[l, r]` and the out-of-band one uniform over
    /// `[-Q, l) ∪ (r, Q]` in proportion to the two pieces' lengths, and the
    /// coin selects one. Each is exactly what the vendored `gen_range` would
    /// return on `position`: `l ≤ r` because construction keeps `Q > 1`,
    /// and the pieces' total length is about `Q + 1 > 0`.
    #[inline]
    pub(crate) fn report(&self, t: f64, [coin, position]: [u64; 2]) -> f64 {
        let t = clamp_to_domain(t, -1.0, 1.0);
        let l = self.half_q_plus * t - self.half_q_minus;
        let r = l + self.q - 1.0;
        let inside = draw::uniform_inclusive(position, l, r);
        let left_len = l - (-self.q);
        let right_len = self.q - r;
        let u = draw::uniform_half_open(position, 0.0, left_len + right_len);
        let outside = if u < left_len {
            -self.q + u
        } else {
            r + (u - left_len)
        };
        if draw::bernoulli(coin, self.prob_in_band) {
            inside
        } else {
            outside
        }
    }
}

impl Mechanism for PiecewiseMechanism {
    fn name(&self) -> &'static str {
        "piecewise"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn bound(&self) -> Bound {
        Bound::Bounded(self.q)
    }

    fn input_domain(&self) -> (f64, f64) {
        (-1.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        (-self.q, self.q)
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        self.report(t, [rng.next_u64(), rng.next_u64()])
    }

    fn perturb_values(&self, values: &mut [f64], rng: &mut StdRng) {
        perturb_in_chunks(values, rng, |t, words| self.report(t, words));
    }

    fn bias(&self, _t: f64) -> f64 {
        0.0
    }

    fn variance(&self, t: f64) -> f64 {
        let t = clamp_to_domain(t, -1.0, 1.0);
        let s = self.exp_half;
        t * t / (s - 1.0) + (s + 3.0) / (3.0 * (s - 1.0) * (s - 1.0))
    }

    fn is_unbiased(&self) -> bool {
        true
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
        assert!(PiecewiseMechanism::new(1.0).is_ok());
        assert!(PiecewiseMechanism::new(0.0).is_err());
        assert!(PiecewiseMechanism::new(f64::INFINITY).is_err());
        assert!(PiecewiseMechanism::new(5000.0).is_err()); // e^{2500} overflows
    }

    #[test]
    fn output_bound_matches_paper_formula() {
        // Q = (e^ε + e^{ε/2}) / (e^ε − e^{ε/2}), equivalently (e^{ε/2}+1)/(e^{ε/2}−1).
        for &eps in &[0.1, 0.5, 1.0, 2.0, 4.0] {
            let m = PiecewiseMechanism::new(eps).unwrap();
            let direct = (eps.exp() + (eps / 2.0).exp()) / (eps.exp() - (eps / 2.0).exp());
            assert!((m.output_bound() - direct).abs() < 1e-9, "eps = {eps}");
        }
    }

    #[test]
    fn band_geometry_is_consistent() {
        let m = PiecewiseMechanism::new(1.0).unwrap();
        let q = m.output_bound();
        for &t in &[-1.0, -0.25, 0.0, 0.6, 1.0] {
            let l = m.band_left(t);
            let r = m.band_right(t);
            assert!((r - l - (q - 1.0)).abs() < 1e-12, "band width");
            assert!(l >= -q - 1e-12 && r <= q + 1e-12, "band inside [-Q, Q]");
        }
        // At the extremes the band touches the output boundary.
        assert!((m.band_left(-1.0) + q).abs() < 1e-12);
        assert!((m.band_right(1.0) - q).abs() < 1e-12);
    }

    #[test]
    fn density_is_normalized_and_respects_privacy_ratio() {
        for &eps in &[0.2, 1.0, 3.0] {
            let m = PiecewiseMechanism::new(eps).unwrap();
            let q = m.output_bound();
            // Total probability = high * (Q-1) + low * (2Q - (Q-1)) = 1.
            let total = m.high_density() * (q - 1.0) + m.low_density() * (q + 1.0);
            assert!((total - 1.0).abs() < 1e-9, "eps = {eps}, total = {total}");
            // The density ratio between the two levels is exactly e^ε.
            let ratio = m.high_density() / m.low_density();
            assert!((ratio - eps.exp()).abs() / eps.exp() < 1e-9, "eps = {eps}");
            // Probability of the high band matches e^{ε/2}/(e^{ε/2}+1).
            let want = (eps / 2.0).exp() / ((eps / 2.0).exp() + 1.0);
            assert!((m.prob_in_band() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn variance_closed_form_matches_density_integral() {
        // Var[t*] computed by integrating x^2 over the two-level density must
        // match the closed form (this is the cross-check of Equation 14).
        let eps = 0.8;
        let m = PiecewiseMechanism::new(eps).unwrap();
        let q = m.output_bound();
        for &t in &[-0.7, 0.0, 0.3, 1.0] {
            let l = m.band_left(t);
            let r = m.band_right(t);
            let hd = m.high_density();
            let ld = m.low_density();
            // Integrate each constant-density segment separately so the kinks
            // fall on integration boundaries and the quadrature is exact.
            let moment = |p: u32| {
                ld * gauss_legendre_composite(|x| x.powi(p as i32), -q, l, 8).unwrap()
                    + hd * gauss_legendre_composite(|x| x.powi(p as i32), l, r, 8).unwrap()
                    + ld * gauss_legendre_composite(|x| x.powi(p as i32), r, q, 8).unwrap()
            };
            let ex = moment(1);
            let ex2 = moment(2);
            assert!((ex - t).abs() < 1e-6, "unbiasedness via integral, t = {t}");
            let var_integral = ex2 - ex * ex;
            let var_closed = m.variance(t);
            assert!(
                (var_integral - var_closed).abs() / var_closed < 1e-6,
                "t = {t}: integral {var_integral} vs closed {var_closed}"
            );
        }
    }

    #[test]
    fn outputs_stay_in_bounds() {
        let m = PiecewiseMechanism::new(0.5).unwrap();
        let q = m.output_bound();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..5000 {
            let t = -1.0 + 2.0 * (i % 100) as f64 / 99.0;
            let out = m.perturb(t, &mut rng);
            assert!(out >= -q - 1e-12 && out <= q + 1e-12);
        }
    }

    #[test]
    fn closed_form_moments_match_monte_carlo() {
        let m = PiecewiseMechanism::new(1.0).unwrap();
        assert_moments_match_monte_carlo(&m, &[-1.0, -0.3, 0.0, 0.5, 1.0], 300_000, 0.05, 0.05, 77);
    }

    #[test]
    fn case_study_variance_value() {
        // Section IV-C: ε/m = 0.001, values {0.1, ..., 1.0} with probability 10%
        // each, r = 10,000 ⇒ σ² = Σ p Var(t) / r ≈ 533.2.
        let m = PiecewiseMechanism::new(0.001).unwrap();
        let values: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
        let mean_var: f64 = values.iter().map(|&t| m.variance(t)).sum::<f64>() / 10.0;
        let sigma2 = mean_var / 10_000.0;
        assert!(
            (sigma2 - 533.2).abs() < 1.0,
            "sigma^2 = {sigma2}, paper reports 533.210"
        );
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn band_and_variance_well_formed(eps in 0.01f64..20.0, t in -1.0f64..1.0) {
                let m = PiecewiseMechanism::new(eps).unwrap();
                prop_assert!(m.band_left(t) <= m.band_right(t));
                prop_assert!(m.variance(t) > 0.0);
                prop_assert!(m.high_density() > m.low_density());
            }

            #[test]
            fn perturbed_value_within_output_bound(
                eps in 0.05f64..10.0,
                t in -1.0f64..1.0,
                seed in 0u64..500,
            ) {
                let m = PiecewiseMechanism::new(eps).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let out = m.perturb(t, &mut rng);
                prop_assert!(out.abs() <= m.output_bound() + 1e-12);
            }
        }
    }
}
