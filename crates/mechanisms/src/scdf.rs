//! The SCDF mechanism — the "optimal data-independent noise" of Soria-Comas and
//! Domingo-Ferrer (Information Sciences 2013), which the paper classifies as an
//! *unbounded* Laplace variant.
//!
//! Soria-Comas & Domingo-Ferrer show that a variance-improving
//! data-independent noise for ε-DP is piecewise constant on intervals of the
//! sensitivity width `Δ`, with the density dropping by a factor `e^{-ε}` from
//! one interval to the next and the central step centred on zero — i.e. the
//! staircase family with shape parameter `γ = 1/2` (their construction
//! predates and is subsumed by the Staircase mechanism's optimisation over
//! `γ`). We therefore implement SCDF as [`StaircaseNoise`] with `γ = 1/2`;
//! see DESIGN.md for the substitution note.

use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, Bound, Mechanism};
use crate::staircase::StaircaseNoise;
use rand::rngs::StdRng;

/// SCDF mechanism on the input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct ScdfMechanism {
    noise: StaircaseNoise,
}

impl ScdfMechanism {
    /// Sensitivity of a value in `[-1, 1]`.
    pub const SENSITIVITY: f64 = 2.0;

    /// Create an SCDF mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite.
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        Ok(Self {
            noise: StaircaseNoise::new(epsilon, Self::SENSITIVITY, 0.5)?,
        })
    }

    /// The underlying piecewise-constant noise distribution.
    pub fn noise(&self) -> &StaircaseNoise {
        &self.noise
    }
}

impl Mechanism for ScdfMechanism {
    fn name(&self) -> &'static str {
        "scdf"
    }

    fn epsilon(&self) -> f64 {
        self.noise.epsilon()
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
    use crate::testing::monte_carlo_moments;
    use crate::{LaplaceMechanism, StaircaseMechanism};

    #[test]
    fn construction_validates_epsilon() {
        assert!(ScdfMechanism::new(1.0).is_ok());
        assert!(ScdfMechanism::new(0.0).is_err());
        assert!(ScdfMechanism::new(f64::NAN).is_err());
    }

    #[test]
    fn gamma_is_fixed_at_one_half() {
        let m = ScdfMechanism::new(0.7).unwrap();
        assert_eq!(m.noise().gamma(), 0.5);
        assert_eq!(m.noise().delta(), 2.0);
    }

    #[test]
    fn unbiased_unbounded_metadata() {
        let m = ScdfMechanism::new(1.0).unwrap();
        assert_eq!(m.name(), "scdf");
        assert_eq!(m.bound(), Bound::Unbounded);
        assert!(m.is_unbiased());
        assert_eq!(m.bias(-0.4), 0.0);
        // Variance is value-independent (Lemma 1 for unbounded mechanisms).
        assert_eq!(m.variance(-1.0), m.variance(0.9));
    }

    #[test]
    fn variance_improves_over_laplace_for_moderate_budgets() {
        // In the moderate-ε regime the centred-staircase SCDF noise has lower
        // variance than Laplace noise at the same ε (for very large ε the
        // fixed central step of width Δ/2 becomes the bottleneck and Laplace
        // wins again, so we only assert the moderate range).
        for &eps in &[2.0, 3.0, 4.0] {
            let scdf = ScdfMechanism::new(eps).unwrap();
            let lap = LaplaceMechanism::new(eps).unwrap();
            assert!(
                scdf.variance(0.0) < lap.variance(0.0),
                "eps = {eps}: scdf {} vs laplace {}",
                scdf.variance(0.0),
                lap.variance(0.0)
            );
        }
    }

    #[test]
    fn optimal_staircase_is_at_least_as_good_as_scdf() {
        // Optimising over γ can only help (γ = 1 is in the feasible set).
        for &eps in &[0.5, 1.0, 3.0, 6.0] {
            let scdf = ScdfMechanism::new(eps).unwrap();
            let stair = StaircaseMechanism::new(eps).unwrap();
            assert!(
                stair.variance(0.0) <= scdf.variance(0.0) * (1.0 + 1e-9),
                "eps = {eps}"
            );
        }
    }

    #[test]
    fn monte_carlo_confirms_moments() {
        let m = ScdfMechanism::new(1.5).unwrap();
        let (mean, var) = monte_carlo_moments(&m, -0.3, 300_000, 8);
        assert!((mean - -0.3).abs() < 0.03, "mean = {mean}");
        assert!(
            (var - m.variance(-0.3)).abs() / m.variance(-0.3) < 0.05,
            "var = {var} vs {}",
            m.variance(-0.3)
        );
    }
}
