//! The Laplace mechanism (Dwork et al., 2006) — the canonical *unbounded*
//! mechanism of the paper's taxonomy.
//!
//! For a value `t ∈ [-1, 1]` the sensitivity is `Δ = 2`, so the mechanism
//! reports `t* = t + Lap(2/ε)`. The noise has zero mean (unbiased estimation)
//! and variance `2·(2/ε)² = 8/ε²` independent of `t`.

use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, Bound, Mechanism};
use hdldp_math::Laplace;
use rand::rngs::StdRng;

/// Laplace mechanism on the input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct LaplaceMechanism {
    epsilon: f64,
    noise: Laplace,
}

impl LaplaceMechanism {
    /// Sensitivity of a value in `[-1, 1]`.
    pub const SENSITIVITY: f64 = 2.0;

    /// Create a Laplace mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite.
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        let scale = Self::SENSITIVITY / epsilon;
        // 2/ε overflows to +inf for subnormal ε, which `centered` rejects;
        // surface that as the invalid-parameter error instead of panicking.
        let noise =
            Laplace::centered(scale).map_err(|e| crate::MechanismError::InvalidParameter {
                name: "epsilon",
                reason: e.to_string(),
            })?;
        Ok(Self { epsilon, noise })
    }

    /// The underlying noise distribution (used by the Berry–Esseen example of
    /// Section IV-D, which needs its third absolute moment).
    pub fn noise_distribution(&self) -> Laplace {
        self.noise
    }
}

impl Mechanism for LaplaceMechanism {
    fn name(&self) -> &'static str {
        "laplace"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn bound(&self) -> Bound {
        Bound::Unbounded
    }

    fn input_domain(&self) -> (f64, f64) {
        (-1.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        (f64::NEG_INFINITY, f64::INFINITY)
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        let t = clamp_to_domain(t, -1.0, 1.0);
        t + self.noise.sample(rng)
    }

    fn bias(&self, _t: f64) -> f64 {
        0.0
    }

    fn variance(&self, _t: f64) -> f64 {
        self.noise.variance()
    }

    fn is_unbiased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{empirical_density_ratio_bound, monte_carlo_moments};

    #[test]
    fn construction_validates_epsilon() {
        assert!(LaplaceMechanism::new(1.0).is_ok());
        assert!(LaplaceMechanism::new(0.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN).is_err());
    }

    #[test]
    fn noise_scale_is_two_over_epsilon() {
        let m = LaplaceMechanism::new(0.5).unwrap();
        assert!((m.noise_distribution().scale() - 4.0).abs() < 1e-12);
        assert!((m.variance(0.3) - 32.0).abs() < 1e-12); // 2 * 4^2
    }

    #[test]
    fn metadata_is_consistent() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        assert_eq!(m.name(), "laplace");
        assert_eq!(m.bound(), Bound::Unbounded);
        assert!(m.is_unbiased());
        assert_eq!(m.input_domain(), (-1.0, 1.0));
        assert_eq!(m.output_support().0, f64::NEG_INFINITY);
        assert_eq!(m.bias(0.7), 0.0);
        assert_eq!(m.expected_output(0.7), 0.7);
    }

    #[test]
    fn monte_carlo_matches_closed_form_moments() {
        let m = LaplaceMechanism::new(2.0).unwrap();
        for &t in &[-0.8, 0.0, 0.5, 1.0] {
            let (mean, var) = monte_carlo_moments(&m, t, 200_000, 11);
            assert!((mean - t).abs() < 0.02, "t = {t}, mean = {mean}");
            let want = m.variance(t);
            assert!(
                (var - want).abs() / want < 0.05,
                "t = {t}, var = {var}, want {want}"
            );
        }
    }

    #[test]
    fn out_of_domain_inputs_are_clamped() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        let (mean_hi, _) = monte_carlo_moments(&m, 5.0, 100_000, 3);
        assert!((mean_hi - 1.0).abs() < 0.05, "mean = {mean_hi}");
    }

    #[test]
    fn empirical_privacy_ratio_is_bounded() {
        // The density ratio between the most distant inputs (-1 and 1) must be
        // at most e^eps everywhere; we check it empirically on a grid.
        let eps = 1.0;
        let m = LaplaceMechanism::new(eps).unwrap();
        let ratio = empirical_density_ratio_bound(&m, -1.0, 1.0, (-4.0, 4.0), 2_000_000, 17);
        assert!(
            ratio <= eps.exp() * 1.15,
            "empirical ratio {ratio} exceeds e^eps = {}",
            eps.exp()
        );
    }
}
