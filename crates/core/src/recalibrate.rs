//! The [`Hdr4me`] re-calibrator: the protocol of Section V-B, end to end.
//!
//! Given the naive aggregate `θ̂` produced by any LDP mechanism and the
//! analytical framework's deviation model for that mechanism/dataset/budget,
//! HDR4ME:
//!
//! 1. selects the per-dimension regularization weights `λ*` (Lemmas 4/5),
//! 2. applies the one-off closed-form solver (Equation 34 for L1, Equation 42
//!    for L2) to obtain the enhanced mean `θ*`, and
//! 3. reports the Theorem 3/4 improvement guarantee so the collector can
//!    decide whether to trust the re-calibration at all.
//!
//! Nothing about the LDP mechanism or the user-side protocol changes — the
//! re-calibration is a pure post-processing step at the collector, which also
//! means it costs no additional privacy budget.

use crate::solver::{solve_l1, solve_l2};
use crate::telemetry::RecalibrationMetrics;
use crate::{CoreError, ImprovementGuarantee, LambdaSelector, Regularization};
use hdldp_framework::DeviationModel;
use hdldp_telemetry::Registry;
use serde::{Deserialize, Serialize};

/// Configuration of the HDR4ME re-calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hdr4meConfig {
    /// Which regularizer to use.
    pub regularization: Regularization,
    /// How the `λ*` weights are derived from the deviation model.
    pub lambda: LambdaSelector,
}

impl Hdr4meConfig {
    /// L1 configuration with default weight selection.
    pub fn l1() -> Self {
        Self {
            regularization: Regularization::L1,
            lambda: LambdaSelector::default(),
        }
    }

    /// L2 configuration with default weight selection.
    pub fn l2() -> Self {
        Self {
            regularization: Regularization::L2,
            lambda: LambdaSelector::default(),
        }
    }
}

/// The outcome of a re-calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct RecalibratedMean {
    /// The enhanced mean `θ*`.
    pub enhanced_means: Vec<f64>,
    /// The regularization weights `λ*` that were applied.
    pub weights: Vec<f64>,
    /// The Theorem 3/4 improvement guarantee for this setting.
    pub guarantee: ImprovementGuarantee,
}

/// The HDR4ME re-calibrator.
///
/// Re-calibrators built with [`Hdr4me::with_telemetry`] count completed
/// re-calibrations and time the weight-selection and solver phases (see the
/// metric table in [`crate::telemetry`]); by default telemetry is disabled
/// and every recording site is a single branch. Clones share the same metric
/// cells.
#[derive(Debug, Clone)]
pub struct Hdr4me {
    config: Hdr4meConfig,
    metrics: RecalibrationMetrics,
}

impl Hdr4me {
    /// Create a re-calibrator with the given configuration.
    pub fn new(config: Hdr4meConfig) -> Self {
        Self {
            config,
            metrics: RecalibrationMetrics::register(&Registry::disabled()),
        }
    }

    /// Record re-calibration metrics into `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.metrics = RecalibrationMetrics::register(registry);
        self
    }

    /// Create an L1 re-calibrator with default weight selection.
    pub fn l1() -> Self {
        Self::new(Hdr4meConfig::l1())
    }

    /// Create an L2 re-calibrator with default weight selection.
    pub fn l2() -> Self {
        Self::new(Hdr4meConfig::l2())
    }

    /// The configuration in use.
    pub fn config(&self) -> Hdr4meConfig {
        self.config
    }

    /// Re-calibrate a naive estimated mean using an already-built deviation
    /// model.
    ///
    /// # Errors
    /// Returns [`CoreError::LengthMismatch`] when the estimate's length differs
    /// from the model's dimensionality, and propagates solver errors.
    pub fn recalibrate(
        &self,
        estimated_means: &[f64],
        model: &DeviationModel,
    ) -> crate::Result<RecalibratedMean> {
        if estimated_means.len() != model.dims() {
            return Err(CoreError::LengthMismatch {
                expected: model.dims(),
                actual: estimated_means.len(),
            });
        }
        let weights_timer = self.metrics.weights_ns.start();
        let weights = self
            .config
            .lambda
            .weights(model, self.config.regularization);
        weights_timer.stop();
        let solve_timer = self.metrics.solve_ns.start();
        let enhanced_means = match self.config.regularization {
            Regularization::L1 => solve_l1(estimated_means, &weights)?,
            Regularization::L2 => solve_l2(estimated_means, &weights)?,
        };
        solve_timer.stop();
        self.metrics.recalibrations.inc();
        let guarantee = ImprovementGuarantee::evaluate(model, self.config.regularization);
        Ok(RecalibratedMean {
            enhanced_means,
            weights,
            guarantee,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_data::{DiscreteValueDistribution, GaussianDataset};
    use hdldp_math::stats;
    use hdldp_mechanisms::{LaplaceMechanism, MechanismKind};
    use hdldp_protocol::{MeanEstimationPipeline, PipelineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_model(dims: usize) -> DeviationModel {
        // Tiny per-dimension budget: deviations are huge, HDR4ME should help.
        let mech = LaplaceMechanism::new(0.002).unwrap();
        let values = DiscreteValueDistribution::case_study();
        DeviationModel::homogeneous(&mech, &values, 200.0, dims).unwrap()
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let model = noisy_model(4);
        assert!(Hdr4me::l1().recalibrate(&[0.0; 3], &model).is_err());
        assert!(Hdr4me::l1().recalibrate(&[0.0; 4], &model).is_ok());
    }

    #[test]
    fn l1_recalibration_soft_thresholds_the_estimate() {
        let model = noisy_model(3);
        let hdr = Hdr4me::l1();
        let estimate = [250.0, -0.5, -300.0];
        let result = hdr.recalibrate(&estimate, &model).unwrap();
        let lambda = result.weights[0];
        assert!(lambda > 1.0, "weights should be large in this regime");
        // Large coordinates are shrunk by lambda, small ones zeroed.
        assert!((result.enhanced_means[0] - (250.0 - lambda).max(0.0)).abs() < 1e-9);
        assert_eq!(result.enhanced_means[1], 0.0);
        assert!((result.enhanced_means[2] - (-300.0 + lambda).min(0.0)).abs() < 1e-9);
        assert_eq!(result.guarantee.regularization, Regularization::L1);
        assert!(result.guarantee.probability > 0.99);
    }

    #[test]
    fn l2_recalibration_shrinks_every_coordinate() {
        let model = noisy_model(3);
        let result = Hdr4me::l2()
            .recalibrate(&[10.0, -20.0, 0.0], &model)
            .unwrap();
        for (enhanced, original) in result.enhanced_means.iter().zip([10.0f64, -20.0, 0.0]) {
            assert!(enhanced.abs() <= original.abs());
            assert!(enhanced.signum() == original.signum() || *enhanced == 0.0);
        }
        assert_eq!(result.guarantee.regularization, Regularization::L2);
    }

    #[test]
    fn recalibration_improves_mse_in_the_high_noise_regime() {
        // Simulate the paper's core claim end-to-end: noisy naive aggregate of
        // a sparse-ish mean vector, re-calibrated with both regularizers.
        let dims = 400;
        let model = noisy_model(dims);
        let sigma = model.std_devs()[0];
        // True means: 10% at 0.9, the rest at 0 (the Gaussian dataset pattern).
        let truth: Vec<f64> = (0..dims)
            .map(|j| if j % 10 == 0 { 0.9 } else { 0.0 })
            .collect();
        // Naive estimate = truth + Gaussian noise of the predicted magnitude.
        let noise_dist = hdldp_math::Normal::new(0.0, sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let estimate: Vec<f64> = truth
            .iter()
            .map(|t| t + noise_dist.sample(&mut rng))
            .collect();

        let naive_mse = stats::mse(&estimate, &truth).unwrap();
        for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
            let result = hdr.recalibrate(&estimate, &model).unwrap();
            let enhanced_mse = stats::mse(&result.enhanced_means, &truth).unwrap();
            assert!(
                enhanced_mse < naive_mse,
                "{:?}: enhanced {enhanced_mse} vs naive {naive_mse}",
                hdr.config().regularization
            );
        }
    }

    #[test]
    fn recalibration_can_hurt_when_thresholds_are_not_met() {
        // Low noise, low dimensionality: the paper's warning case. The
        // guarantee probability should be near zero, flagging "do not apply".
        let mech = LaplaceMechanism::new(5.0).unwrap();
        let values = DiscreteValueDistribution::case_study();
        let model = DeviationModel::homogeneous(&mech, &values, 100_000.0, 2).unwrap();
        let result = Hdr4me::l1().recalibrate(&[0.5, -0.4], &model).unwrap();
        assert!(result.guarantee.probability < 0.01);
        assert!(!result.guarantee.is_recommended(0.5));
    }

    #[test]
    fn end_to_end_pipeline_recalibration() {
        // Full stack: dataset -> LDP pipeline -> deviation model -> HDR4ME.
        let mut rng = StdRng::seed_from_u64(1234);
        let dataset = GaussianDataset::new(3_000, 60).unwrap().generate(&mut rng);
        let config = PipelineConfig::new(0.5, 60, 42);
        let pipeline = MeanEstimationPipeline::new(MechanismKind::Laplace, config).unwrap();
        let estimate = pipeline.run(&dataset).unwrap();
        let naive_mse = estimate.utility().unwrap().mse;

        let avg_reports = estimate.report_counts.iter().sum::<u64>() as f64 / 60.0;
        let model =
            DeviationModel::for_dataset(pipeline.mechanism(), &dataset, avg_reports).unwrap();
        let result = Hdr4me::l1()
            .recalibrate(&estimate.estimated_means, &model)
            .unwrap();
        let enhanced_mse = stats::mse(&result.enhanced_means, &estimate.true_means).unwrap();
        assert!(
            enhanced_mse < naive_mse,
            "enhanced {enhanced_mse} vs naive {naive_mse}"
        );
        assert_eq!(result.enhanced_means.len(), 60);
        assert_eq!(result.weights.len(), 60);
    }

    #[test]
    fn config_constructors() {
        assert_eq!(Hdr4me::l1().config().regularization, Regularization::L1);
        assert_eq!(Hdr4me::l2().config().regularization, Regularization::L2);
        let custom = Hdr4me::new(Hdr4meConfig {
            regularization: Regularization::L1,
            lambda: LambdaSelector::new(2.0, 0.1).unwrap(),
        });
        assert_eq!(custom.config().lambda.supremum_z, 2.0);
    }
}
