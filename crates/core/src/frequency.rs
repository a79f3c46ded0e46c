//! HDR4ME for frequency estimation (Section V-C).
//!
//! Histogram encoding turns one categorical dimension with `v_j` categories
//! into `v_j` numeric entries in `[0, 1]` whose means are the category
//! frequencies; the collection protocol (see
//! [`hdldp_protocol::FrequencyPipeline`]) estimates those means naively, and
//! this module applies the same re-calibration as for numeric means:
//!
//! 1. build the deviation model of the per-entry mechanism over the `{0, 1}`
//!    value distribution implied by the (estimated) frequencies,
//! 2. select `λ*` and apply the one-off solver,
//! 3. clip to `[0, 1]` and renormalize so the enhanced frequencies form a
//!    distribution.

use crate::{Hdr4me, RecalibratedMean};
use hdldp_data::DiscreteValueDistribution;
use hdldp_framework::{DeviationApproximation, DeviationModel};
use hdldp_mechanisms::Mechanism;
use hdldp_protocol::{normalize_frequencies, FrequencyEstimate};

/// The outcome of re-calibrating one categorical dimension's frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct RecalibratedFrequencies {
    /// Enhanced frequencies after clipping to `[0, 1]` and renormalizing.
    pub enhanced: Vec<f64>,
    /// The raw re-calibration output before the consistency step.
    pub raw: RecalibratedMean,
}

impl Hdr4me {
    /// Re-calibrate the estimated frequencies of categorical dimension `dim`.
    ///
    /// `mechanism` must be the per-entry mechanism the estimate was produced
    /// with (available from [`hdldp_protocol::FrequencyPipeline::mechanism`]).
    ///
    /// With L2 this is the clip-and-renormalize baseline
    /// ([`FrequencyEstimate::normalized`]) up to rounding whenever the
    /// mechanism's noise does not depend on its input, as Laplace's does not:
    /// every category then gets the same `λ`, L2 divides the whole column by
    /// the same `2λ + 1`, and renormalizing undoes that uniform shrink. Only
    /// an estimate above 1 breaks the tie, because the clip at 1 binds on the
    /// raw column but not on the shrunk one.
    ///
    /// # Errors
    /// Propagates framework/model construction and solver errors, and returns a
    /// length-mismatch error when `dim` is out of range.
    pub fn recalibrate_frequencies(
        &self,
        estimate: &FrequencyEstimate,
        dim: usize,
        mechanism: &dyn Mechanism,
    ) -> crate::Result<RecalibratedFrequencies> {
        let raw_freqs = estimate
            .estimated
            .get(dim)
            .ok_or(crate::CoreError::LengthMismatch {
                expected: estimate.estimated.len(),
                actual: dim,
            })?;
        let reports = estimate
            .report_counts
            .get(dim)
            .copied()
            .ok_or(crate::CoreError::LengthMismatch {
                expected: estimate.report_counts.len(),
                actual: dim,
            })?
            .max(1) as f64;

        // Deviation model: each one-hot entry takes value 1 with (estimated)
        // probability f and 0 otherwise. Use the clipped estimate as the best
        // available stand-in for the true frequency.
        let mut dims = Vec::with_capacity(raw_freqs.len());
        for &f in raw_freqs {
            let p_one = f.clamp(0.0, 1.0);
            let values = DiscreteValueDistribution::new(vec![0.0, 1.0], vec![1.0 - p_one, p_one])
                .map_err(hdldp_framework::FrameworkError::from)?;
            dims.push(DeviationApproximation::for_dimension(
                mechanism, &values, reports,
            )?);
        }
        let model = DeviationModel::new(dims)?;
        let raw = self.recalibrate(raw_freqs, &model)?;

        // Consistency post-processing: clip and renormalize.
        let enhanced = normalize_frequencies(&raw.enhanced_means);

        Ok(RecalibratedFrequencies { enhanced, raw })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_data::CategoricalDataset;
    use hdldp_math::stats;
    use hdldp_mechanisms::MechanismKind;
    use hdldp_protocol::{FrequencyPipeline, PipelineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_pipeline(eps: f64, users: usize) -> (FrequencyEstimate, FrequencyPipeline) {
        let data =
            CategoricalDataset::generate_zipf(users, vec![8, 5], &mut StdRng::seed_from_u64(100))
                .unwrap();
        let pipeline =
            FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(eps, 2, 9))
                .unwrap();
        (pipeline.run(&data).unwrap(), pipeline)
    }

    #[test]
    fn enhanced_frequencies_form_a_distribution() {
        let (estimate, pipeline) = run_pipeline(0.4, 2_000);
        for dim in 0..2 {
            let result = Hdr4me::l1()
                .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
                .unwrap();
            let total: f64 = result.enhanced.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "dim {dim}");
            assert!(result.enhanced.iter().all(|&f| (0.0..=1.0).contains(&f)));
            assert_eq!(result.enhanced.len(), estimate.true_frequencies[dim].len());
        }
    }

    #[test]
    fn out_of_range_dimension_is_rejected() {
        let (estimate, pipeline) = run_pipeline(0.4, 500);
        assert!(Hdr4me::l1()
            .recalibrate_frequencies(&estimate, 7, pipeline.mechanism())
            .is_err());
    }

    #[test]
    fn short_report_counts_are_rejected() {
        let (mut estimate, pipeline) = run_pipeline(0.4, 500);
        estimate.report_counts.truncate(1);
        assert!(matches!(
            Hdr4me::l1().recalibrate_frequencies(&estimate, 1, pipeline.mechanism()),
            Err(crate::CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn recalibration_improves_noisy_frequency_estimates() {
        // Tight budget over many users: raw estimates are noisy; the enhanced,
        // renormalized estimate should have lower MSE against the truth.
        let (estimate, pipeline) = run_pipeline(0.2, 4_000);
        let mut improved = 0;
        for dim in 0..2 {
            let truth = &estimate.true_frequencies[dim];
            let raw_mse = stats::mse(&estimate.estimated[dim], truth).unwrap();
            let result = Hdr4me::l2()
                .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
                .unwrap();
            let enhanced_mse = stats::mse(&result.enhanced, truth).unwrap();
            if enhanced_mse < raw_mse {
                improved += 1;
            }
        }
        assert!(
            improved >= 1,
            "L2 re-calibration should help on at least one dimension"
        );
    }

    #[test]
    fn l1_and_l2_both_produce_finite_output() {
        let (estimate, pipeline) = run_pipeline(1.0, 1_000);
        for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
            let result = hdr
                .recalibrate_frequencies(&estimate, 0, pipeline.mechanism())
                .unwrap();
            assert!(result.enhanced.iter().all(|f| f.is_finite()));
            assert!(result.raw.weights.iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn laplace_l2_is_clip_and_renormalize_unless_an_estimate_exceeds_one() {
        // `freq_recalibration`'s default-scale data, seeds and budgets.
        let data = CategoricalDataset::generate_zipf(
            10_000,
            vec![10; 20],
            &mut StdRng::seed_from_u64(909),
        )
        .unwrap();
        let ulps = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs();
        let mut clipped_at_one = Vec::new();
        for epsilon in [0.5, 1.0, 2.0, 4.0] {
            let pipeline =
                FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(epsilon, 5, 55))
                    .unwrap();
            let estimate = pipeline.run(&data).unwrap();
            for dim in 0..20 {
                let l2 = Hdr4me::l2()
                    .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
                    .unwrap();
                let baseline = estimate.normalized(dim).unwrap();
                let at = format!("ε = {epsilon}, dimension {dim}");
                // One weight for the whole column, up to rounding, and a real
                // shrink: every estimate is divided by 2λ + 1 > 5.
                let weights = &l2.raw.weights;
                assert!(weights[0] > 2.0, "{at}");
                assert!(weights.iter().all(|&w| ulps(w, weights[0]) <= 4), "{at}");
                if estimate.estimated[dim].iter().any(|&f| f > 1.0) {
                    // The clip at 1 binds on the raw column but not on the
                    // shrunk one, so the two differ.
                    clipped_at_one.push(epsilon);
                    let gap = l2
                        .enhanced
                        .iter()
                        .zip(&baseline)
                        .map(|(a, b)| (a - b).abs());
                    assert!(gap.fold(0.0, f64::max) > 1e-6, "{at}");
                } else {
                    // Renormalizing undoes the uniform shrink; only the
                    // rounding of the two divisions is left.
                    let gap = l2.enhanced.iter().zip(&baseline).map(|(&a, &b)| ulps(a, b));
                    assert!(gap.max().unwrap_or(0) <= 8, "{at}");
                }
            }
        }
        assert!(!clipped_at_one.is_empty());
        assert!(clipped_at_one.iter().all(|&epsilon| epsilon == 0.5));
    }

    /// Hand-build an estimate with the given raw frequency column (bypassing
    /// the pipeline, so degenerate shapes can be exercised directly).
    fn synthetic_estimate(raw: Vec<f64>, reports: u64) -> FrequencyEstimate {
        let k = raw.len();
        FrequencyEstimate {
            estimated: vec![raw],
            true_frequencies: vec![vec![1.0 / k as f64; k]],
            report_counts: vec![reports],
            per_entry_epsilon: 0.5,
        }
    }

    fn unit_mechanism() -> impl hdldp_mechanisms::Mechanism {
        // Square wave is natively on the one-hot entry domain [0, 1].
        hdldp_mechanisms::SquareWaveMechanism::new(0.5).unwrap()
    }

    #[test]
    fn single_category_collapses_to_certainty() {
        // A dimension with one category: whatever the raw estimate says, the
        // renormalized result is the point distribution {1.0}.
        for raw in [0.3, 1.7, -0.2] {
            let estimate = synthetic_estimate(vec![raw], 500);
            for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
                let result = hdr
                    .recalibrate_frequencies(&estimate, 0, &unit_mechanism())
                    .unwrap();
                assert_eq!(result.enhanced, vec![1.0], "raw = {raw}");
            }
        }
    }

    #[test]
    fn already_consistent_input_stays_a_distribution() {
        // An input that is already a clean distribution must come back as a
        // distribution — recalibration may shrink, but the consistency step
        // restores sum-to-one and never pushes entries outside [0, 1].
        let estimate = synthetic_estimate(vec![0.5, 0.3, 0.15, 0.05], 10_000);
        for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
            let result = hdr
                .recalibrate_frequencies(&estimate, 0, &unit_mechanism())
                .unwrap();
            let total: f64 = result.enhanced.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(result.enhanced.iter().all(|&f| (0.0..=1.0).contains(&f)));
            // Ordering of a well-separated consistent input is preserved.
            assert!(result.enhanced[0] >= result.enhanced[3]);
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn recalibrated_frequencies_are_nonnegative_and_normalized(
                raw in proptest::collection::vec(-0.3f64..1.3, 1..9),
                reports in 10u64..100_000,
                l1 in proptest::bool::ANY,
            ) {
                let estimate = synthetic_estimate(raw, reports);
                let hdr = if l1 { Hdr4me::l1() } else { Hdr4me::l2() };
                let result = hdr
                    .recalibrate_frequencies(&estimate, 0, &unit_mechanism())
                    .unwrap();
                let total: f64 = result.enhanced.iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert!(result.enhanced.iter().all(|f| (0.0..=1.0).contains(f)));
                prop_assert!(result.raw.weights.iter().all(|w| w.is_finite()));
            }
        }
    }
}
