//! Cross-crate integration tests for the Section V-C frequency-estimation
//! extension: histogram encoding → LDP collection → naive frequencies →
//! HDR4ME re-calibration.

use hdldp_core::Hdr4me;
use hdldp_data::CategoricalDataset;
use hdldp_integration_tests::test_rng;
use hdldp_math::{stats, RunningMoments};
use hdldp_mechanisms::MechanismKind;
use hdldp_protocol::{user_seed, FrequencyPipeline, PipelineConfig, ProtocolError};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

fn survey(users: usize) -> CategoricalDataset {
    CategoricalDataset::generate_zipf(users, vec![6, 4, 10], &mut test_rng(55)).unwrap()
}

#[test]
fn generous_budget_recovers_frequencies_for_every_mechanism() {
    let data = survey(5_000);
    for kind in MechanismKind::PAPER_EVALUATED {
        let pipeline = FrequencyPipeline::new(kind, PipelineConfig::new(100.0, 3, 2)).unwrap();
        let estimate = pipeline.run(&data).unwrap();
        for dim in 0..3 {
            let mse = estimate.utility(dim).unwrap().mse;
            assert!(mse < 5e-3, "{kind:?} dim {dim}: mse = {mse}");
        }
    }
}

#[test]
fn recalibrated_frequencies_are_valid_distributions() {
    let data = survey(3_000);
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(0.5, 3, 9)).unwrap();
    let estimate = pipeline.run(&data).unwrap();
    for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
        for dim in 0..3 {
            let result = hdr
                .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
                .unwrap();
            let total: f64 = result.enhanced.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(result.enhanced.iter().all(|f| (0.0..=1.0).contains(f)));
        }
    }
}

#[test]
fn recalibration_helps_noisy_frequency_estimates_on_average() {
    // Tight budget: the raw one-hot means are very noisy. Average the MSE over
    // dimensions and compare raw vs HDR4ME-enhanced.
    let data = survey(8_000);
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(0.4, 3, 4)).unwrap();
    let estimate = pipeline.run(&data).unwrap();
    let mut raw_total = 0.0;
    let mut enhanced_total = 0.0;
    for dim in 0..3 {
        let truth = &estimate.true_frequencies[dim];
        raw_total += stats::mse(&estimate.estimated[dim], truth).unwrap();
        let result = Hdr4me::l1()
            .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
            .unwrap();
        enhanced_total += stats::mse(&result.enhanced, truth).unwrap();
    }
    assert!(
        enhanced_total < raw_total,
        "enhanced {enhanced_total} vs raw {raw_total}"
    );
}

#[test]
fn true_frequencies_match_encoded_column_means() {
    // Consistency between the categorical dataset and its histogram encoding:
    // this is the identity that lets frequency estimation reuse the mean
    // estimation machinery.
    let data = survey(1_000);
    let (encoded, offsets) = data.encode_all();
    let means = encoded.true_means();
    for (j, &offset) in offsets.iter().enumerate() {
        let freqs = data.true_frequencies(j).unwrap();
        for (c, &f) in freqs.iter().enumerate() {
            assert!((means[offset + c] - f).abs() < 1e-12);
        }
    }
}

/// The m-of-d dimension sample a user reports: every dimension in ascending
/// order at `m = d`, with nothing drawn, and `rand::seq::index::sample`
/// below that.
fn replay_dims(rng: &mut StdRng, d: usize, m: usize) -> Vec<usize> {
    if m == d {
        (0..d).collect()
    } else {
        sample(rng, d, m).into_vec()
    }
}

/// The collection as one serial loop: per user, the user's seed, the m-of-d
/// dimension sample ([`replay_dims`]), then one `perturb` per category of
/// each sampled dimension, folded into Welford running means. Returns the
/// per-category means and the per-dimension report counts.
fn serial_per_value_collection(
    pipeline: &FrequencyPipeline,
    data: &CategoricalDataset,
    config: PipelineConfig,
) -> (Vec<Vec<f64>>, Vec<u64>) {
    let mut moments: Vec<Vec<RunningMoments>> = data
        .categories()
        .iter()
        .map(|&c| vec![RunningMoments::new(); c])
        .collect();
    let mut counts = vec![0u64; data.dims()];
    for user in 0..data.users() {
        let mut rng = StdRng::seed_from_u64(user_seed(config.seed, user as u64));
        for j in replay_dims(&mut rng, data.dims(), config.reported_dims) {
            let value = data.value(user, j).unwrap();
            counts[j] += 1;
            for (c, acc) in moments[j].iter_mut().enumerate() {
                let raw = if c == value { 1.0 } else { 0.0 };
                acc.push(pipeline.mechanism().perturb(raw, &mut rng));
            }
        }
    }
    let means = moments
        .iter()
        .map(|dim| dim.iter().map(RunningMoments::mean).collect())
        .collect();
    (means, counts)
}

#[test]
fn engine_collection_draws_the_serial_per_value_streams() {
    // The engine perturbs each report with one `perturb_values` call and
    // sums per shard, so only the summation order may differ from the loop.
    let data =
        CategoricalDataset::generate_zipf(3_000, vec![6, 4, 10, 3, 7], &mut test_rng(19)).unwrap();
    let config = PipelineConfig::new(2.0, 3, 31);
    for kind in MechanismKind::ALL {
        let pipeline = FrequencyPipeline::new(kind, config).unwrap();
        let estimate = pipeline.run(&data).unwrap();
        let (means, counts) = serial_per_value_collection(&pipeline, &data, config);
        assert_eq!(estimate.report_counts, counts, "{kind:?}");
        assert_eq!(estimate.estimated.len(), means.len(), "{kind:?}");
        for (j, (got, want)) in estimate.estimated.iter().zip(&means).enumerate() {
            assert_eq!(got.len(), want.len(), "{kind:?} dim {j}");
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() <= 1e-12, "{kind:?} dim {j}: {g} vs {w}");
            }
        }
    }
}

#[test]
fn engine_collection_replays_sparse_samples_and_every_dimension_at_m_equal_d() {
    // m = 2 of 5 takes the sampler's sparse branch. At m = 5 no dimension is
    // drawn, so each user's first draw perturbs category 0 of dimension 0.
    let data =
        CategoricalDataset::generate_zipf(2_000, vec![6, 4, 10, 3, 7], &mut test_rng(23)).unwrap();
    for m in [2, 5] {
        let config = PipelineConfig::new(4.0, m, 47);
        for kind in MechanismKind::ALL {
            let pipeline = FrequencyPipeline::new(kind, config).unwrap();
            let estimate = pipeline.run(&data).unwrap();
            let (means, counts) = serial_per_value_collection(&pipeline, &data, config);
            assert_eq!(estimate.report_counts, counts, "{kind:?} m={m}");
            if m == 5 {
                assert_eq!(counts, vec![2_000; 5], "{kind:?}");
            }
            for (j, (got, want)) in estimate.estimated.iter().zip(&means).enumerate() {
                assert_eq!(got.len(), want.len(), "{kind:?} m={m} dim {j}");
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() <= 1e-12, "{kind:?} m={m} dim {j}: {g} vs {w}");
                }
            }
        }
    }
}

#[test]
fn a_dimension_without_reports_is_named_by_its_categorical_index() {
    // One user reporting one of three dimensions leaves two without reports.
    // With a seed whose user reports dimension 0, the first empty dimension
    // is 1, whose one-hot entries start at flat index 2.
    let data = CategoricalDataset::from_rows(1, vec![2, 3, 4], vec![1, 2, 3]).unwrap();
    let seed = (0..)
        .find(|&seed| {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, 0));
            sample(&mut rng, 3, 1).into_vec() == [0]
        })
        .unwrap();
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 1, seed)).unwrap();
    assert_eq!(
        pipeline.run(&data),
        Err(ProtocolError::EmptyDimension { dimension: 1 })
    );
}
