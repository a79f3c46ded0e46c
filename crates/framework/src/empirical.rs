//! Empirical validation of the framework's Gaussian predictions.
//!
//! Figures 2 and 3 of the paper overlay simulated deviation histograms on the
//! CLT densities. This module quantifies that visual agreement so that tests
//! and the experiment harness can assert it automatically:
//!
//! * z-scores of the empirical mean and standard deviation against the
//!   prediction, and
//! * the total-variation distance between the empirical histogram and the
//!   predicted density (0 = identical, 1 = disjoint).

use crate::{DeviationApproximation, FrameworkError};
use hdldp_math::Histogram;

/// Summary of how well a set of simulated deviations matches the framework's
/// Gaussian approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalFit {
    /// Number of simulated deviations.
    pub samples: usize,
    /// Empirical mean of the deviations.
    pub empirical_mean: f64,
    /// Empirical standard deviation of the deviations.
    pub empirical_std: f64,
    /// `(empirical_mean − δ) / (σ/√samples)`: how many standard errors the
    /// empirical mean sits from the predicted one.
    pub mean_z_score: f64,
    /// Relative error of the empirical standard deviation vs the predicted σ.
    pub std_relative_error: f64,
    /// Total-variation distance between the binned empirical density and the
    /// predicted density (integrated over the same bins).
    pub total_variation: f64,
}

impl EmpiricalFit {
    /// Compare simulated deviations against a predicted approximation, using
    /// `bins` histogram bins over the empirical range.
    ///
    /// # Errors
    /// Returns [`FrameworkError::InvalidParameter`] when fewer than two
    /// deviations are provided or `bins == 0`.
    pub fn evaluate(
        predicted: &DeviationApproximation,
        deviations: &[f64],
        bins: usize,
    ) -> crate::Result<Self> {
        if deviations.len() < 2 {
            return Err(FrameworkError::InvalidParameter {
                name: "deviations",
                reason: "need at least two simulated deviations".into(),
            });
        }
        if bins == 0 {
            return Err(FrameworkError::InvalidParameter {
                name: "bins",
                reason: "need at least one histogram bin".into(),
            });
        }
        let n = deviations.len() as f64;
        let empirical_mean = deviations.iter().sum::<f64>() / n;
        let empirical_var = deviations
            .iter()
            .map(|x| (x - empirical_mean) * (x - empirical_mean))
            .sum::<f64>()
            / n;
        let empirical_std = empirical_var.sqrt();

        let sigma = predicted.std_dev();
        let mean_z_score = (empirical_mean - predicted.delta()) / (sigma / n.sqrt());
        let std_relative_error = (empirical_std - sigma) / sigma;

        // Total variation over the histogram support: 0.5 Σ |p_emp − p_pred|,
        // with p_pred the predicted Gaussian's probability of the same bin.
        let histogram = Histogram::from_samples(deviations, bins)?;
        let normal = predicted.normal();
        let width = histogram.bin_width();
        let in_range = (histogram.total() - histogram.underflow() - histogram.overflow()).max(1);
        let mut tv = 0.0;
        for (i, &count) in histogram.counts().iter().enumerate() {
            let center = histogram.bin_center(i);
            let p_emp = count as f64 / in_range as f64;
            let p_pred = normal.prob_in_interval(center - width / 2.0, center + width / 2.0);
            tv += (p_emp - p_pred).abs();
        }

        Ok(Self {
            samples: deviations.len(),
            empirical_mean,
            empirical_std,
            mean_z_score,
            std_relative_error,
            total_variation: 0.5 * tv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approximation(delta: f64, sigma: f64) -> DeviationApproximation {
        // per-sample variance = sigma^2 * reports.
        DeviationApproximation::from_moments(delta, sigma * sigma * 100.0, 100.0).unwrap()
    }

    #[test]
    fn validates_inputs() {
        let a = approximation(0.0, 1.0);
        assert!(EmpiricalFit::evaluate(&a, &[0.1], 10).is_err());
        assert!(EmpiricalFit::evaluate(&a, &[0.1, 0.2], 0).is_err());
        assert!(EmpiricalFit::evaluate(&a, &[0.1, 0.2], 5).is_ok());
    }

    #[test]
    fn samples_from_the_predicted_distribution_fit_well() {
        let a = approximation(-0.3, 0.2);
        let normal = a.normal();
        let mut rng = StdRng::seed_from_u64(8);
        let samples = normal.sample_n(&mut rng, 5_000);
        let fit = EmpiricalFit::evaluate(&a, &samples, 30).unwrap();
        assert!(fit.mean_z_score.abs() < 3.5, "{fit:?}");
        assert!(fit.std_relative_error.abs() < 0.05, "{fit:?}");
        assert!(fit.total_variation < 0.08, "{fit:?}");
        assert_eq!(fit.samples, 5_000);
    }

    #[test]
    fn shifted_samples_are_rejected() {
        let a = approximation(0.0, 0.2);
        let mut rng = StdRng::seed_from_u64(9);
        // Samples from a distribution whose mean is 5 sigma away.
        let wrong = hdldp_math::Normal::new(1.0, 0.2).unwrap();
        let samples = wrong.sample_n(&mut rng, 2_000);
        let fit = EmpiricalFit::evaluate(&a, &samples, 30).unwrap();
        assert!(fit.mean_z_score.abs() > 10.0);
    }

    #[test]
    fn wrong_spread_is_detected_by_std_and_tv() {
        let a = approximation(0.0, 0.1);
        let mut rng = StdRng::seed_from_u64(10);
        let wide = hdldp_math::Normal::new(0.0, 0.3).unwrap();
        let samples = wide.sample_n(&mut rng, 2_000);
        let fit = EmpiricalFit::evaluate(&a, &samples, 30).unwrap();
        assert!(fit.std_relative_error > 1.0);
        assert!(fit.total_variation > 0.3);
    }
}
