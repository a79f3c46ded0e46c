//! The Hybrid mechanism (Wang et al., ICDE 2019).
//!
//! With probability `α` the value is perturbed by the Piecewise mechanism and
//! with probability `1 − α` by the Duchi et al. mechanism, where
//!
//! ```text
//! α = 1 − e^{−ε/2}   if ε > ε₀ ≈ 0.61
//! α = 0              otherwise
//! ```
//!
//! Both components are unbiased with the same mean `t`, so the mixture is
//! unbiased and its variance is the α-weighted average of the component
//! variances. The paper lists Hybrid among the bounded mechanisms its
//! framework covers; we include it both for completeness and as an extra
//! mechanism to exercise the framework's Lemma 3 path.

use crate::duchi::DuchiMechanism;
use crate::error::check_epsilon;
use crate::mechanism::{Bound, Mechanism};
use crate::piecewise::PiecewiseMechanism;
use rand::rngs::StdRng;
use rand::Rng;

/// The budget threshold `ε₀` below which the Hybrid mechanism degenerates to
/// pure Duchi (Wang et al. give ε₀ as the positive root of a transcendental
/// equation, ≈ 0.61).
pub const HYBRID_EPSILON_THRESHOLD: f64 = 0.61;

/// Hybrid mechanism on the input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct HybridMechanism {
    epsilon: f64,
    alpha: f64,
    piecewise: PiecewiseMechanism,
    duchi: DuchiMechanism,
}

impl HybridMechanism {
    /// Create a Hybrid mechanism with per-dimension budget `epsilon`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite, and [`crate::MechanismError::InvalidParameter`]
    /// when it is too extreme for the Piecewise component (see
    /// [`PiecewiseMechanism::new`]).
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        let alpha = if epsilon > HYBRID_EPSILON_THRESHOLD {
            1.0 - (-epsilon / 2.0).exp()
        } else {
            0.0
        };
        Ok(Self {
            epsilon,
            alpha,
            piecewise: PiecewiseMechanism::new(epsilon)?,
            duchi: DuchiMechanism::new(epsilon)?,
        })
    }

    /// The mixing probability `α` of the Piecewise component.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The Piecewise component.
    pub fn piecewise(&self) -> &PiecewiseMechanism {
        &self.piecewise
    }

    /// The Duchi component.
    pub fn duchi(&self) -> &DuchiMechanism {
        &self.duchi
    }
}

impl Mechanism for HybridMechanism {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn bound(&self) -> Bound {
        // The output is bounded by the larger of the two component bounds.
        let pm = self.piecewise.output_bound();
        let duchi = self.duchi.output_magnitude();
        Bound::Bounded(pm.max(duchi))
    }

    fn input_domain(&self) -> (f64, f64) {
        (-1.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        // Computed directly (the same expression as `bound()`) so no
        // unreachable arm is needed for the Unbounded case.
        let b = self
            .piecewise
            .output_bound()
            .max(self.duchi.output_magnitude());
        (-b, b)
    }

    /// Reports go through the provided per-value `perturb_values`: a value
    /// takes one mixing coin (none when `α = 0`) and then the 2 words of a
    /// Piecewise report or the 1 word of a Duchi report, so its word count
    /// depends on the coin and a chunk's words cannot be drawn ahead.
    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        if self.alpha > 0.0 && rng.gen_bool(self.alpha) {
            self.piecewise.perturb(t, rng)
        } else {
            self.duchi.perturb(t, rng)
        }
    }

    fn bias(&self, _t: f64) -> f64 {
        0.0
    }

    fn variance(&self, t: f64) -> f64 {
        // Mixture of two unbiased estimators with identical means: the mean
        // term of the law of total variance vanishes.
        self.alpha * self.piecewise.variance(t) + (1.0 - self.alpha) * self.duchi.variance(t)
    }

    fn is_unbiased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_moments_match_monte_carlo;

    #[test]
    fn construction_validates_epsilon() {
        assert!(HybridMechanism::new(1.0).is_ok());
        assert!(HybridMechanism::new(0.0).is_err());
        assert!(HybridMechanism::new(f64::NAN).is_err());
    }

    #[test]
    fn alpha_respects_threshold() {
        let low = HybridMechanism::new(0.5).unwrap();
        assert_eq!(low.alpha(), 0.0);
        let high = HybridMechanism::new(1.0).unwrap();
        assert!((high.alpha() - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
        assert!(high.alpha() > 0.0);
    }

    #[test]
    fn below_threshold_behaves_like_duchi() {
        let m = HybridMechanism::new(0.4).unwrap();
        for &t in &[-0.8, 0.0, 0.6] {
            assert!((m.variance(t) - m.duchi().variance(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn variance_is_weighted_average_of_components() {
        let m = HybridMechanism::new(2.0).unwrap();
        for &t in &[-1.0, -0.2, 0.5, 1.0] {
            let want =
                m.alpha() * m.piecewise().variance(t) + (1.0 - m.alpha()) * m.duchi().variance(t);
            assert!((m.variance(t) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn hybrid_never_worse_than_worst_component() {
        let m = HybridMechanism::new(1.5).unwrap();
        for &t in &[-0.9, 0.0, 0.9] {
            let worst = m.piecewise().variance(t).max(m.duchi().variance(t));
            assert!(m.variance(t) <= worst + 1e-12);
        }
    }

    #[test]
    fn closed_form_moments_match_monte_carlo() {
        let m = HybridMechanism::new(1.0).unwrap();
        assert_moments_match_monte_carlo(&m, &[-0.7, 0.0, 0.4, 1.0], 300_000, 0.05, 0.05, 63);
    }

    #[test]
    fn bounded_metadata() {
        let m = HybridMechanism::new(1.0).unwrap();
        assert!(m.bound().is_bounded());
        assert!(m.is_unbiased());
        let (lo, hi) = m.output_support();
        assert_eq!(-lo, hi);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn variance_positive_and_alpha_valid(eps in 0.05f64..10.0, t in -1.0f64..1.0) {
                let m = HybridMechanism::new(eps).unwrap();
                prop_assert!((0.0..1.0).contains(&m.alpha()));
                prop_assert!(m.variance(t) > 0.0);
            }
        }
    }
}
