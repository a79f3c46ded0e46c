//! Equivalence tests for the vectorised analytical hot paths: the batched
//! deviation-model construction and the batched Theorem 1 box probabilities
//! must agree with their scalar reference implementations to within 1e-12 on
//! property-generated inputs, including degenerate zero-variance (constant)
//! columns.

use hdldp_data::Dataset;
use hdldp_framework::DeviationModel;
use hdldp_integration_tests::test_rng;
use hdldp_mechanisms::{build_mechanism, MechanismKind};
use proptest::prelude::*;
use rand::Rng;

/// Dimension sweep shared by every property below: scalar, tiny, mid-size,
/// and the d = 1000 scale the benchmarks target.
const DIMS: [usize; 4] = [1, 2, 50, 1_000];

/// Build a `users x dims` dataset where roughly `constant_fraction` of the
/// columns are degenerate (identical value in every row, i.e. zero variance)
/// and the rest are uniform over a per-column range.
fn generated_dataset(seed: u64, users: usize, dims: usize, constant_fraction: f64) -> Dataset {
    let mut rng = test_rng(seed);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(dims);
    for _ in 0..dims {
        let column = if rng.gen() < constant_fraction {
            let value = rng.gen_range(-1.0..1.0);
            vec![value; users]
        } else {
            let lo = rng.gen_range(-1.0..0.0);
            let hi = rng.gen_range(lo..1.0f64.max(lo + 1e-6));
            (0..users).map(|_| rng.gen_range(lo..hi)).collect()
        };
        columns.push(column);
    }
    let mut values = Vec::with_capacity(users * dims);
    for i in 0..users {
        for column in &columns {
            values.push(column[i]);
        }
    }
    Dataset::from_rows(users, dims, values).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched `for_dataset` construction agrees with the scalar
    /// per-column reference for every mechanism, every dimensionality, and
    /// datasets containing zero-variance columns.
    #[test]
    fn batched_deviation_model_matches_reference(
        seed in 0u64..u64::MAX,
        constant_fraction in 0.0f64..0.6,
        eps in 0.05f64..4.0,
        reports in 50.0f64..5_000.0,
    ) {
        for &dims in &DIMS {
            let data = generated_dataset(seed, 40, dims, constant_fraction);
            for kind in MechanismKind::ALL {
                let mech = build_mechanism(kind, eps).unwrap();
                let fast = DeviationModel::for_dataset(mech.as_ref(), &data, reports).unwrap();
                let reference =
                    DeviationModel::for_dataset_reference(mech.as_ref(), &data, reports).unwrap();
                let (fd, rd) = (fast.deltas(), reference.deltas());
                let (fs, rs) = (fast.std_devs(), reference.std_devs());
                prop_assert_eq!(fd.len(), dims);
                for j in 0..dims {
                    prop_assert!(
                        (fd[j] - rd[j]).abs() <= 1e-12,
                        "{kind:?} d={dims} delta[{j}]: {} vs {}", fd[j], rd[j]
                    );
                    prop_assert!(
                        (fs[j] - rs[j]).abs() <= 1e-12,
                        "{kind:?} d={dims} sigma[{j}]: {} vs {}", fs[j], rs[j]
                    );
                }
            }
        }
    }

    /// The batched box probability (erf cache + run-length reuse) agrees with
    /// the scalar product of per-dimension `prob_within` calls.
    #[test]
    fn batched_box_probability_matches_scalar_product(
        seed in 0u64..u64::MAX,
        constant_fraction in 0.0f64..0.6,
        eps in 0.05f64..4.0,
        base_xi in 0.01f64..2.0,
    ) {
        let mech = build_mechanism(MechanismKind::Piecewise, eps).unwrap();
        for &dims in &DIMS {
            let data = generated_dataset(seed, 40, dims, constant_fraction);
            let model = DeviationModel::for_dataset(mech.as_ref(), &data, 500.0).unwrap();
            let suprema: Vec<f64> = (0..dims)
                .map(|j| base_xi * (1.0 + 0.5 * ((j as f64) * 0.7).sin()))
                .collect();
            let batched = model.box_probability(&suprema).unwrap();
            let scalar: f64 = model
                .dimensions()
                .iter()
                .zip(&suprema)
                .map(|(approx, &xi)| approx.prob_within(xi))
                .product();
            prop_assert!(
                (batched - scalar).abs() <= 1e-12,
                "d={dims}: batched {batched} vs scalar {scalar}"
            );
            let uniform = model.box_probability_uniform(base_xi);
            let uniform_scalar: f64 = model
                .dimensions()
                .iter()
                .map(|approx| approx.prob_within(base_xi))
                .product();
            prop_assert!((uniform - uniform_scalar).abs() <= 1e-12);
        }
    }

}
