//! The one-dimensional mechanism of Duchi, Jordan and Wainwright (JASA 2018).
//!
//! The output is binary: `t* ∈ {−B, +B}` with
//! `B = (e^ε + 1)/(e^ε − 1)`, chosen so that the estimate is unbiased:
//!
//! ```text
//! Pr[t* = +B] = 1/2 + t (e^ε − 1) / (2 (e^ε + 1))
//! ```
//!
//! It is the prototypical *bounded* mechanism in the paper's taxonomy and the
//! "binary output" baseline that Piecewise/Hybrid improve on. It is also the
//! non-Piecewise component of the [`crate::HybridMechanism`].

use crate::draw;
use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, perturb_in_chunks, Bound, Mechanism};
use rand::rngs::StdRng;
use rand::RngCore;

/// Duchi et al. binary mechanism on the input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct DuchiMechanism {
    epsilon: f64,
    /// `e^ε`.
    exp_eps: f64,
    /// Output magnitude `B = (e^ε + 1)/(e^ε − 1)`.
    b: f64,
}

impl DuchiMechanism {
    /// Create a Duchi mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite, and [`crate::MechanismError::InvalidParameter`]
    /// when it is so large that `e^ε` overflows (from `ε ≈ 709.8`).
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        let exp_eps = epsilon.exp();
        if !exp_eps.is_finite() {
            return Err(crate::MechanismError::InvalidParameter {
                name: "epsilon",
                reason: format!("epsilon {epsilon} is too large: e^epsilon overflows"),
            });
        }
        let b = (exp_eps + 1.0) / (exp_eps - 1.0);
        Ok(Self {
            epsilon,
            exp_eps,
            b,
        })
    }

    /// The output magnitude `B`.
    pub fn output_magnitude(&self) -> f64 {
        self.b
    }

    /// Probability of reporting `+B` for input `t`.
    pub fn prob_positive(&self, t: f64) -> f64 {
        let t = clamp_to_domain(t, -1.0, 1.0);
        let e = self.exp_eps;
        0.5 + t * (e - 1.0) / (2.0 * (e + 1.0))
    }

    /// Perturb `t` from the one word its coin takes, branch-free: `+B` with
    /// probability [`DuchiMechanism::prob_positive`], else `−B`.
    #[inline]
    pub(crate) fn report(&self, t: f64, [coin]: [u64; 1]) -> f64 {
        let p = self.prob_positive(t);
        if draw::bernoulli(coin, p.clamp(0.0, 1.0)) {
            self.b
        } else {
            -self.b
        }
    }
}

impl Mechanism for DuchiMechanism {
    fn name(&self) -> &'static str {
        "duchi"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn bound(&self) -> Bound {
        Bound::Bounded(self.b)
    }

    fn input_domain(&self) -> (f64, f64) {
        (-1.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        (-self.b, self.b)
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        self.report(t, [rng.next_u64()])
    }

    fn perturb_values(&self, values: &mut [f64], rng: &mut StdRng) {
        perturb_in_chunks(values, rng, |t, words| self.report(t, words));
    }

    fn bias(&self, _t: f64) -> f64 {
        // E[t*] = B (2p - 1) = B * t (e^ε−1)/(e^ε+1) = t, so the bias is zero.
        0.0
    }

    fn variance(&self, t: f64) -> f64 {
        // E[t*^2] = B^2 always, so Var = B^2 − t^2.
        let t = clamp_to_domain(t, -1.0, 1.0);
        self.b * self.b - t * t
    }

    fn is_unbiased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_moments_match_monte_carlo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_epsilon() {
        assert!(DuchiMechanism::new(1.0).is_ok());
        assert!(DuchiMechanism::new(0.0).is_err());
        assert!(DuchiMechanism::new(-3.0).is_err());
        assert!(DuchiMechanism::new(709.0).is_ok());
        assert!(DuchiMechanism::new(710.0).is_err()); // e^710 overflows
    }

    #[test]
    fn output_magnitude_matches_formula() {
        let m = DuchiMechanism::new(1.0).unwrap();
        let e = 1.0f64.exp();
        assert!((m.output_magnitude() - (e + 1.0) / (e - 1.0)).abs() < 1e-12);
        // Smaller epsilon -> larger magnitude (more noise).
        let m_small = DuchiMechanism::new(0.1).unwrap();
        assert!(m_small.output_magnitude() > m.output_magnitude());
    }

    #[test]
    fn outputs_are_exactly_plus_minus_b() {
        let m = DuchiMechanism::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let out = m.perturb(0.3, &mut rng);
            assert!(
                (out - m.output_magnitude()).abs() < 1e-12
                    || (out + m.output_magnitude()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn probability_of_positive_is_monotone_in_t() {
        let m = DuchiMechanism::new(1.0).unwrap();
        assert!(m.prob_positive(-1.0) < m.prob_positive(0.0));
        assert!(m.prob_positive(0.0) < m.prob_positive(1.0));
        assert!((m.prob_positive(0.0) - 0.5).abs() < 1e-12);
        // Clamped outside the domain.
        assert_eq!(m.prob_positive(3.0), m.prob_positive(1.0));
    }

    #[test]
    fn privacy_ratio_of_output_probabilities_is_exactly_e_eps_at_extremes() {
        // For the binary output the ratio Pr[+B | t=1] / Pr[+B | t=-1] must be e^eps.
        for &eps in &[0.1, 0.5, 1.0, 2.0] {
            let m = DuchiMechanism::new(eps).unwrap();
            let ratio = m.prob_positive(1.0) / m.prob_positive(-1.0);
            assert!(
                (ratio - eps.exp()).abs() < 1e-9,
                "eps = {eps}, ratio = {ratio}"
            );
        }
    }

    #[test]
    fn closed_form_moments_match_monte_carlo() {
        let m = DuchiMechanism::new(1.0).unwrap();
        assert_moments_match_monte_carlo(&m, &[-1.0, -0.4, 0.0, 0.7, 1.0], 200_000, 0.05, 0.05, 21);
    }

    #[test]
    fn bounded_metadata() {
        let m = DuchiMechanism::new(1.0).unwrap();
        assert!(m.bound().is_bounded());
        assert_eq!(m.bound().limit(), Some(m.output_magnitude()));
        assert!(m.is_unbiased());
        assert_eq!(m.name(), "duchi");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn probabilities_are_valid_and_variance_nonnegative(
                eps in 0.01f64..10.0,
                t in -1.0f64..1.0,
            ) {
                let m = DuchiMechanism::new(eps).unwrap();
                let p = m.prob_positive(t);
                prop_assert!((0.0..=1.0).contains(&p));
                prop_assert!(m.variance(t) >= 0.0);
                // Variance shrinks as |t| grows (outputs get more deterministic in mean).
                prop_assert!(m.variance(t) <= m.variance(0.0) + 1e-12);
            }
        }
    }
}
