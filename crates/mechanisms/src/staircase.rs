//! The Staircase mechanism (Geng, Kairouz, Oh, Viswanath — IEEE JSTSP 2015)
//! and the shared staircase-shaped noise core also used by [`crate::ScdfMechanism`].
//!
//! The staircase noise density is a geometrically decaying step function: with
//! `Δ` the sensitivity (here `Δ = 2` for `[-1, 1]` inputs), `b = e^{-ε}` and a
//! shape parameter `γ ∈ (0, 1]`,
//!
//! ```text
//! f(x) = a(γ)·b^k        for |x| ∈ [kΔ, (k+γ)Δ)
//! f(x) = a(γ)·b^{k+1}    for |x| ∈ [(k+γ)Δ, (k+1)Δ)
//! a(γ) = (1 − b) / (2Δ (γ + b(1 − γ)))
//! ```
//!
//! The variance-optimal shape is `γ* = 1/(1 + e^{ε/2})`. Like Laplace noise the
//! staircase noise is zero-mean and data-independent, so the mechanism is
//! *unbounded* in the paper's taxonomy and its deviation follows Lemma 2.

use crate::error::check_epsilon;
use crate::mechanism::{clamp_to_domain, Bound, Mechanism};
use rand::rngs::StdRng;
use rand::Rng;

/// Zero-mean staircase-shaped noise with sensitivity `delta`, privacy budget
/// `epsilon` and shape parameter `gamma`.
#[derive(Debug, Clone)]
pub struct StaircaseNoise {
    epsilon: f64,
    delta: f64,
    gamma: f64,
    /// `b = e^{-ε}`.
    decay: f64,
    /// Normalisation constant `a(γ)`.
    height: f64,
    /// Pre-computed variance of the noise.
    variance: f64,
}

impl StaircaseNoise {
    /// Construct staircase noise.
    ///
    /// # Errors
    /// Returns an error if `epsilon` is not positive/finite, `delta` is not
    /// positive/finite, or `gamma` lies outside `(0, 1]`.
    pub fn new(epsilon: f64, delta: f64, gamma: f64) -> crate::Result<Self> {
        let epsilon = check_epsilon(epsilon)?;
        if !(delta.is_finite() && delta > 0.0) {
            return Err(crate::MechanismError::InvalidParameter {
                name: "delta",
                reason: format!("sensitivity must be positive and finite, got {delta}"),
            });
        }
        if !(gamma.is_finite() && gamma > 0.0 && gamma <= 1.0) {
            return Err(crate::MechanismError::InvalidParameter {
                name: "gamma",
                reason: format!("shape parameter must lie in (0, 1], got {gamma}"),
            });
        }
        let decay = (-epsilon).exp();
        let height = (1.0 - decay) / (2.0 * delta * (gamma + decay * (1.0 - gamma)));
        let variance = Self::compute_variance(delta, gamma, decay, height);
        Ok(Self {
            epsilon,
            delta,
            gamma,
            decay,
            height,
            variance,
        })
    }

    /// The variance-optimal shape parameter `γ* = 1/(1 + e^{ε/2})`.
    pub fn optimal_gamma(epsilon: f64) -> f64 {
        1.0 / (1.0 + (epsilon / 2.0).exp())
    }

    /// Variance of the noise, computed exactly from the geometric step series.
    fn compute_variance(delta: f64, gamma: f64, decay: f64, height: f64) -> f64 {
        // E[X^2] = 2 a Σ_k [ b^k ∫_{kΔ}^{(k+γ)Δ} x² dx + b^{k+1} ∫_{(k+γ)Δ}^{(k+1)Δ} x² dx ]
        let cube = |x: f64| x * x * x;
        let mut sum = 0.0;
        let mut weight = 1.0; // b^k
        let mut k = 0usize;
        // Terms decay like b^k · k²; cut off once negligible relative to the sum.
        loop {
            let lo = k as f64 * delta;
            let mid = (k as f64 + gamma) * delta;
            let hi = (k as f64 + 1.0) * delta;
            let term = weight * (cube(mid) - cube(lo)) / 3.0
                + weight * decay * (cube(hi) - cube(mid)) / 3.0;
            sum += term;
            k += 1;
            weight *= decay;
            if (term <= 1e-16 * sum.max(1e-300) && k > 4) || k > 20_000_000 {
                break;
            }
        }
        2.0 * height * sum
    }

    /// Privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Sensitivity `Δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Shape parameter `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Variance of the noise.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Density of the noise at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let ax = x.abs() / self.delta;
        let k = ax.floor();
        let within = ax - k;
        let level = if within < self.gamma { k } else { k + 1.0 };
        self.height * self.decay.powf(level)
    }

    /// Draw one noise sample (Geng et al. Algorithm 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        // Geometric G with P(G = k) = (1 - b) b^k via inverse-cdf.
        let u: f64 = rng.gen_range(0.0..1.0);
        let g = if self.decay == 0.0 {
            0.0
        } else {
            ((1.0 - u).ln() / self.decay.ln()).floor().max(0.0)
        };
        // Choose the inner (width γΔ) or outer (width (1-γ)Δ) part of the step.
        let p_inner = self.gamma / (self.gamma + (1.0 - self.gamma) * self.decay);
        let v: f64 = rng.gen_range(0.0..1.0);
        let offset = if rng.gen_bool(p_inner.clamp(0.0, 1.0)) {
            (g + self.gamma * v) * self.delta
        } else {
            (g + self.gamma + (1.0 - self.gamma) * v) * self.delta
        };
        sign * offset
    }
}

/// The Staircase mechanism with the variance-optimal shape parameter, on the
/// input domain `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct StaircaseMechanism {
    noise: StaircaseNoise,
}

impl StaircaseMechanism {
    /// Sensitivity of a value in `[-1, 1]`.
    pub const SENSITIVITY: f64 = 2.0;

    /// Create a Staircase mechanism with per-dimension budget `epsilon` and the
    /// variance-optimal `γ*`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidEpsilon`] when `epsilon` is not
    /// positive and finite.
    pub fn new(epsilon: f64) -> crate::Result<Self> {
        let gamma = StaircaseNoise::optimal_gamma(check_epsilon(epsilon)?);
        Ok(Self {
            noise: StaircaseNoise::new(epsilon, Self::SENSITIVITY, gamma)?,
        })
    }

    /// The underlying noise distribution.
    pub fn noise(&self) -> &StaircaseNoise {
        &self.noise
    }
}

impl Mechanism for StaircaseMechanism {
    fn name(&self) -> &'static str {
        "staircase"
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
    use hdldp_math::integrate::simpson;
    use hdldp_math::RunningMoments;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_parameters() {
        assert!(StaircaseNoise::new(1.0, 2.0, 0.5).is_ok());
        assert!(StaircaseNoise::new(0.0, 2.0, 0.5).is_err());
        assert!(StaircaseNoise::new(1.0, 0.0, 0.5).is_err());
        assert!(StaircaseNoise::new(1.0, 2.0, 0.0).is_err());
        assert!(StaircaseNoise::new(1.0, 2.0, 1.5).is_err());
        assert!(StaircaseMechanism::new(1.0).is_ok());
        assert!(StaircaseMechanism::new(-1.0).is_err());
    }

    #[test]
    fn optimal_gamma_matches_formula_and_limits() {
        assert!((StaircaseNoise::optimal_gamma(0.0) - 0.5).abs() < 1e-12);
        assert!(StaircaseNoise::optimal_gamma(10.0) < 0.01);
        let g = StaircaseNoise::optimal_gamma(2.0);
        assert!((g - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let n = StaircaseNoise::new(1.0, 2.0, 0.4).unwrap();
        // Integrate far enough that the geometric tail is negligible.
        let integral = simpson(|x| n.pdf(x), -80.0, 80.0, 200_000).unwrap();
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn pdf_satisfies_ldp_ratio_for_shifts_up_to_delta() {
        // For any x and any shift |s| <= Δ, f(x)/f(x+s) <= e^ε.
        let n = StaircaseNoise::new(1.2, 2.0, 0.3).unwrap();
        let e_eps = 1.2f64.exp();
        for i in 0..400 {
            let x = -10.0 + i as f64 * 0.05;
            for &s in &[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0] {
                let ratio = n.pdf(x) / n.pdf(x + s);
                assert!(
                    ratio <= e_eps * (1.0 + 1e-9),
                    "x = {x}, s = {s}, ratio = {ratio}"
                );
            }
        }
    }

    #[test]
    fn sampled_variance_matches_series_variance() {
        let n = StaircaseNoise::new(0.8, 2.0, StaircaseNoise::optimal_gamma(0.8)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut acc = RunningMoments::new();
        for _ in 0..400_000 {
            acc.push(n.sample(&mut rng));
        }
        assert!(acc.mean().abs() < 0.05, "mean = {}", acc.mean());
        assert!(
            (acc.variance() - n.variance()).abs() / n.variance() < 0.03,
            "sampled {} vs series {}",
            acc.variance(),
            n.variance()
        );
    }

    #[test]
    fn staircase_beats_laplace_variance_for_large_epsilon() {
        // The whole point of the staircase mechanism: for large ε its variance
        // is below the Laplace mechanism's 2(Δ/ε)² = 8/ε².
        for &eps in &[4.0, 6.0, 8.0] {
            let stair = StaircaseMechanism::new(eps).unwrap();
            let laplace_var = 8.0 / (eps * eps);
            assert!(
                stair.variance(0.0) < laplace_var,
                "eps = {eps}: staircase {} vs laplace {laplace_var}",
                stair.variance(0.0)
            );
        }
    }

    #[test]
    fn mechanism_is_unbiased_and_unbounded() {
        let m = StaircaseMechanism::new(1.0).unwrap();
        assert_eq!(m.bound(), Bound::Unbounded);
        assert!(m.is_unbiased());
        assert_eq!(m.bias(0.7), 0.0);
        let (mean, var) = monte_carlo_moments(&m, 0.5, 300_000, 5);
        assert!((mean - 0.5).abs() < 0.03, "mean = {mean}");
        assert!(
            (var - m.variance(0.5)).abs() / m.variance(0.5) < 0.05,
            "var = {var} vs {}",
            m.variance(0.5)
        );
    }

    #[test]
    fn small_epsilon_variance_is_finite_and_large() {
        let m = StaircaseMechanism::new(0.01).unwrap();
        let v = m.variance(0.0);
        assert!(v.is_finite());
        // Roughly comparable to Laplace 8/eps^2 = 80,000 at this budget.
        assert!(v > 10_000.0, "variance = {v}");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
            #[test]
            fn variance_positive_and_sampling_finite(eps in 0.05f64..10.0, seed in 0u64..100) {
                let m = StaircaseMechanism::new(eps).unwrap();
                prop_assert!(m.variance(0.0) > 0.0);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..50 {
                    prop_assert!(m.perturb(0.2, &mut rng).is_finite());
                }
            }
        }
    }
}
