//! The per-dimension Gaussian approximation of the deviation `θ̂_j − θ̄_j`
//! (Lemmas 2 and 3 of the paper).
//!
//! Given a mechanism `M` with per-dimension budget `ε/m`, the empirical
//! distribution of the original values in dimension `j`, and the expected
//! number of reports `r_j`, the deviation of the naive aggregate from the true
//! mean is asymptotically normal:
//!
//! * unbounded `M` (Lemma 2): `N(E[N], Var[N]/r_j)` — the noise moments are
//!   value-independent, so the value distribution is irrelevant;
//! * bounded `M` (Lemma 3): `N(E_p[δ(v)], E_p[Var(M(v))]/r_j)` — the outer
//!   expectations are over the distinct original values `v` with empirical
//!   probabilities `p`.
//!
//! Both cases are handled uniformly by taking the value-distribution
//! expectation of the mechanism's closed-form `bias`/`variance`; for unbounded
//! mechanisms those closures are constant so the expectation is a no-op.

use crate::FrameworkError;
use hdldp_data::DiscreteValueDistribution;
use hdldp_math::Normal;
use hdldp_mechanisms::Mechanism;

/// The Gaussian approximation of one dimension's deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationApproximation {
    /// Mean of the deviation, `δ_j = E[δ_ij]`.
    delta: f64,
    /// Per-sample variance `E[Var(t*_ij)]` (before dividing by `r_j`).
    per_sample_variance: f64,
    /// Expected number of reports `r_j`.
    reports: f64,
}

impl DeviationApproximation {
    /// Build the approximation for one dimension.
    ///
    /// `values` is the empirical distribution of the original values in this
    /// dimension; for unbounded mechanisms it only needs to be *a* valid
    /// distribution (its content does not affect the result).
    ///
    /// # Errors
    /// Returns [`FrameworkError::InvalidParameter`] when `reports` is not a
    /// positive finite number or the resulting per-sample variance is not
    /// positive.
    pub fn for_dimension(
        mechanism: &dyn Mechanism,
        values: &DiscreteValueDistribution,
        reports: f64,
    ) -> crate::Result<Self> {
        if !(reports.is_finite() && reports > 0.0) {
            return Err(FrameworkError::InvalidParameter {
                name: "reports",
                reason: format!("must be positive and finite, got {reports}"),
            });
        }
        // One fused pass over the support instead of two `expectation`
        // closures: same accumulation order, but a single dynamic dispatch per
        // dimension (the concrete bias/variance bodies inline into the loop).
        let (delta, per_sample_variance) =
            mechanism.expected_moments(values.values(), values.probabilities());
        if !(per_sample_variance.is_finite() && per_sample_variance > 0.0) {
            return Err(FrameworkError::InvalidParameter {
                name: "variance",
                reason: format!(
                    "mechanism `{}` produced a non-positive per-sample variance {per_sample_variance}",
                    mechanism.name()
                ),
            });
        }
        Ok(Self {
            delta,
            per_sample_variance,
            reports,
        })
    }

    /// Build the approximation directly from already-known moments (used by
    /// tests and by callers that pre-computed the moments).
    ///
    /// # Errors
    /// Returns [`FrameworkError::InvalidParameter`] for non-positive variance
    /// or report count.
    pub fn from_moments(delta: f64, per_sample_variance: f64, reports: f64) -> crate::Result<Self> {
        if !(per_sample_variance.is_finite() && per_sample_variance > 0.0) {
            return Err(FrameworkError::InvalidParameter {
                name: "per_sample_variance",
                reason: format!("must be positive, got {per_sample_variance}"),
            });
        }
        if !(reports.is_finite() && reports > 0.0) {
            return Err(FrameworkError::InvalidParameter {
                name: "reports",
                reason: format!("must be positive, got {reports}"),
            });
        }
        if !delta.is_finite() {
            return Err(FrameworkError::InvalidParameter {
                name: "delta",
                reason: format!("must be finite, got {delta}"),
            });
        }
        Ok(Self {
            delta,
            per_sample_variance,
            reports,
        })
    }

    /// The deviation mean `δ_j` (zero for unbiased mechanisms).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The deviation variance `σ_j² = E[Var(t*)]/r_j`.
    pub fn variance(&self) -> f64 {
        self.per_sample_variance / self.reports
    }

    /// The deviation standard deviation `σ_j`.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The per-sample variance `E[Var(t*)]` before dividing by `r_j`.
    pub fn per_sample_variance(&self) -> f64 {
        self.per_sample_variance
    }

    /// The expected report count `r_j` used for this approximation.
    pub fn reports(&self) -> f64 {
        self.reports
    }

    /// The approximating normal distribution `N(δ_j, σ_j²)`.
    #[expect(
        clippy::expect_used,
        reason = "the constructor validates delta finite and the variance finite and positive"
    )]
    pub fn normal(&self) -> Normal {
        Normal::from_mean_variance(self.delta, self.variance())
            .expect("variance validated at construction")
    }

    /// Density of the deviation at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.normal().pdf(x)
    }

    /// Probability that the deviation stays within the symmetric supremum
    /// `|θ̂_j − θ̄_j| ≤ ξ`.
    pub fn prob_within(&self, xi: f64) -> f64 {
        if xi <= 0.0 {
            return 0.0;
        }
        self.normal().prob_in_interval(-xi, xi)
    }

    /// A practical "supremum" of the deviation: `|δ_j| + z·σ_j`.
    ///
    /// The theoretical supremum of a Gaussian is unbounded; the paper lets the
    /// collector pick the supremum she is willing to tolerate. HDR4ME uses a
    /// high quantile of the approximation as that supremum (`z = 3` by
    /// default, covering 99.7% of the mass), which this method provides.
    pub fn supremum(&self, z: f64) -> f64 {
        self.delta.abs() + z * self.std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_mechanisms::{LaplaceMechanism, PiecewiseMechanism, SquareWaveMechanism};

    fn case_study_values() -> DiscreteValueDistribution {
        DiscreteValueDistribution::case_study()
    }

    #[test]
    fn validates_inputs() {
        let mech = LaplaceMechanism::new(1.0).unwrap();
        let vals = case_study_values();
        assert!(DeviationApproximation::for_dimension(&mech, &vals, 0.0).is_err());
        assert!(DeviationApproximation::for_dimension(&mech, &vals, -5.0).is_err());
        assert!(DeviationApproximation::for_dimension(&mech, &vals, 100.0).is_ok());
        assert!(DeviationApproximation::from_moments(0.0, 0.0, 10.0).is_err());
        assert!(DeviationApproximation::from_moments(0.0, 1.0, 0.0).is_err());
        assert!(DeviationApproximation::from_moments(f64::NAN, 1.0, 10.0).is_err());
    }

    #[test]
    fn unbounded_mechanism_is_value_independent() {
        // Lemma 2: for Laplace the approximation must not depend on the data.
        let mech = LaplaceMechanism::new(0.5).unwrap();
        let a = DeviationApproximation::for_dimension(&mech, &case_study_values(), 1000.0).unwrap();
        let other_values = DiscreteValueDistribution::new(vec![-1.0, 1.0], vec![0.5, 0.5]).unwrap();
        let b = DeviationApproximation::for_dimension(&mech, &other_values, 1000.0).unwrap();
        assert_eq!(a.delta(), 0.0);
        assert_eq!(a.delta(), b.delta());
        assert!((a.variance() - b.variance()).abs() < 1e-15);
        // Var = 2 (2/0.5)^2 / 1000 = 32 / 1000.
        assert!((a.variance() - 0.032).abs() < 1e-12);
    }

    #[test]
    fn piecewise_case_study_matches_paper_sigma() {
        // Section IV-C: ε/m = 0.001, r = 10,000 ⇒ σ² ≈ 533.2, δ = 0.
        let mech = PiecewiseMechanism::new(0.001).unwrap();
        let dev =
            DeviationApproximation::for_dimension(&mech, &case_study_values(), 10_000.0).unwrap();
        assert_eq!(dev.delta(), 0.0);
        assert!(
            (dev.variance() - 533.2).abs() < 1.0,
            "sigma^2 = {}",
            dev.variance()
        );
    }

    #[test]
    fn square_wave_case_study_matches_paper_bias_and_sigma() {
        // Section IV-C: δ ≈ −0.049 and σ² ≈ 3.365e-5 (r = 10,000).
        let mech = SquareWaveMechanism::new(0.001).unwrap();
        let dev =
            DeviationApproximation::for_dimension(&mech, &case_study_values(), 10_000.0).unwrap();
        assert!(
            (dev.delta() - -0.049).abs() < 0.002,
            "delta = {}",
            dev.delta()
        );
        assert!(
            (dev.variance() - 3.365e-5).abs() < 0.15e-5,
            "sigma^2 = {:e}",
            dev.variance()
        );
    }

    #[test]
    fn more_reports_shrink_the_deviation() {
        let mech = PiecewiseMechanism::new(0.5).unwrap();
        let small =
            DeviationApproximation::for_dimension(&mech, &case_study_values(), 100.0).unwrap();
        let large =
            DeviationApproximation::for_dimension(&mech, &case_study_values(), 10_000.0).unwrap();
        assert!(large.variance() < small.variance());
        assert_eq!(small.per_sample_variance(), large.per_sample_variance());
        assert!((small.variance() / large.variance() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn prob_within_behaves_like_a_cdf() {
        let dev = DeviationApproximation::from_moments(0.0, 1.0, 100.0).unwrap();
        assert_eq!(dev.prob_within(0.0), 0.0);
        assert_eq!(dev.prob_within(-1.0), 0.0);
        assert!(dev.prob_within(0.05) < dev.prob_within(0.2));
        assert!((dev.prob_within(100.0) - 1.0).abs() < 1e-9);
        // Symmetric zero-mean Gaussian: within one sigma ≈ 68.3%.
        assert!((dev.prob_within(dev.std_dev()) - 0.6827).abs() < 1e-3);
    }

    #[test]
    fn supremum_combines_bias_and_spread() {
        let dev = DeviationApproximation::from_moments(-0.5, 4.0, 100.0).unwrap();
        // sigma = sqrt(4/100) = 0.2; supremum(3) = 0.5 + 0.6.
        assert!((dev.supremum(3.0) - 1.1).abs() < 1e-12);
        assert!((dev.supremum(0.0) - 0.5).abs() < 1e-12);
        // pdf is centred at delta.
        assert!(dev.pdf(-0.5) > dev.pdf(0.0));
    }

    #[test]
    fn normal_accessor_is_consistent() {
        let dev = DeviationApproximation::from_moments(0.25, 9.0, 900.0).unwrap();
        let n = dev.normal();
        assert!((n.mean() - 0.25).abs() < 1e-12);
        assert!((n.std_dev() - 0.1).abs() < 1e-12);
        assert!((dev.std_dev() - 0.1).abs() < 1e-12);
        assert_eq!(dev.reports(), 900.0);
    }
}
