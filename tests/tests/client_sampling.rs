//! Oracle tests for the client's allocation-free report path.
//!
//! `Client::perturb_lazy_into` samples its `m` dimensions into the caller's
//! `Report` and perturbs the whole value column with one
//! `Mechanism::perturb_values` call. Each report is pinned bit for bit,
//! dimensions, values and final RNG state, to a per-value oracle that stays
//! here. Below `m = d` the oracle is the vendored `rand::seq::index::sample`
//! followed by one `Mechanism::perturb` per sampled dimension, and the report
//! is sent as named entries. At `m = d` every dimension is reported, so the
//! sampler draws nothing: the oracle is dimensions `0..d` in ascending order,
//! one `perturb` each, and the report is sent dense (the values alone). A
//! shuffle would report the same set there, each value perturbed once at
//! `ε/m`, so the in-order rule changes only which draws perturb which
//! dimension. Together the two oracles fix the streams behind every seeded
//! output that goes through `Client`.

use hdldp_mechanisms::{
    build_mechanism, LaplaceMechanism, Mechanism, MechanismKind, PiecewiseMechanism, Rescaled,
};
use hdldp_protocol::{BudgetSplit, Client, FrequencyPipeline, PipelineConfig, Report};
use hdldp_workloads::{CategoricalOracle, OracleKind};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// `(d, m)` shapes on both sides of each of the sampler's branch points,
/// plus the shapes the benchmarks and figure binaries run.
const SHAPES: [(usize, usize); 16] = [
    (1, 1),
    (2, 1),
    (2, 2),
    (7, 3),
    (8, 4),
    (9, 4),
    (100, 49),
    (100, 50),
    (100, 99),
    (100, 100),
    (129, 64),
    (200, 64),
    (200, 65),
    (256, 8),
    (256, 256),
    (5000, 50),
];

/// Entries a caller left in the buffer; the client must replace them.
const PREFIX: [(usize, f64); 3] = [(7, -0.5), (usize::MAX, 1e300), (0, f64::MIN_POSITIVE)];

/// A deterministic value in `[-1, 1]` for every dimension.
fn value_of(dim: usize) -> f64 {
    ((dim * 37) % 201) as f64 / 100.0 - 1.0
}

/// The `(dimension, value)` entries of a client's report over `d`
/// dimensions, and whether it was sent dense.
fn entries(report: &Report, d: usize) -> (Vec<(usize, f64)>, bool) {
    if report.dims.is_empty() && report.values.len() == d {
        (report.values.iter().copied().enumerate().collect(), true)
    } else {
        assert_eq!(report.dims.len(), report.values.len(), "named columns");
        let zipped = report
            .dims
            .iter()
            .copied()
            .zip(report.values.iter().copied());
        (zipped.collect(), false)
    }
}

fn assert_bit_identical(actual: &[(usize, f64)], expected: &[(usize, f64)], what: &str) {
    let dims = |entries: &[(usize, f64)]| entries.iter().map(|e| e.0).collect::<Vec<_>>();
    assert_eq!(dims(actual), dims(expected), "{what}: dimensions");
    let bits = |entries: &[(usize, f64)]| entries.iter().map(|e| e.1.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(actual), bits(expected), "{what}: values");
}

/// Check `perturb_lazy_into` against `oracle_dims` (the dimensions, drawn
/// from the generator it is handed) followed by one `perturb` per dimension,
/// for every mechanism kind at every shape of [`SHAPES`] that `admit`
/// accepts; returns how many shapes were checked.
fn assert_client_matches_oracle(
    admit: impl Fn(usize, usize) -> bool,
    oracle_dims: impl Fn(&mut StdRng, usize, usize) -> Vec<usize>,
) -> usize {
    let mut checked = 0;
    for (d, m) in SHAPES.into_iter().filter(|&(d, m)| admit(d, m)) {
        checked += 1;
        let budget = BudgetSplit::new(1.0, m).unwrap();
        for kind in MechanismKind::ALL {
            let mechanism = build_mechanism(kind, budget.per_dimension()).unwrap();
            let client = Client::new(mechanism.as_ref(), budget, d).unwrap();
            let seeds = if kind == MechanismKind::Laplace {
                300
            } else {
                20
            };
            let mut out = Report::default();
            for seed in 0..seeds {
                let what = format!("d={d} m={m} {} seed={seed}", kind.name());
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let expected: Vec<(usize, f64)> = oracle_dims(&mut oracle_rng, d, m)
                    .into_iter()
                    .map(|j| (j, mechanism.perturb(value_of(j), &mut oracle_rng)))
                    .collect();

                // Alternate a fresh buffer with one reused across users,
                // each holding stale entries first.
                if seed % 2 == 0 {
                    out = Report::default();
                }
                for (dim, value) in PREFIX {
                    out.push(dim, value);
                }
                let mut rng = StdRng::seed_from_u64(seed);
                client.perturb_lazy_into(value_of, &mut rng, &mut out);

                let (report, sent_dense) = entries(&out, d);
                assert_eq!(sent_dense, m == d, "{what}: dense exactly at m = d");
                assert_bit_identical(&report, &expected, &what);
                assert_eq!(rng, oracle_rng, "{what}: final RNG state");
            }
        }
    }
    checked
}

#[test]
fn client_reports_match_index_sample_then_per_value_perturb() {
    let checked =
        assert_client_matches_oracle(|d, m| m < d, |rng, d, m| sample(rng, d, m).into_vec());
    assert_eq!(checked, 12);
}

#[test]
fn client_reports_at_m_equal_d_list_every_dimension_in_order() {
    let checked = assert_client_matches_oracle(|d, m| m == d, |_, d, _| (0..d).collect());
    assert_eq!(checked, 4);
}

#[test]
fn perturb_values_matches_the_per_value_loop_for_every_mechanism() {
    let mut owned: Vec<Box<dyn Mechanism>> = MechanismKind::ALL
        .iter()
        .map(|&kind| build_mechanism(kind, 0.7).unwrap())
        .collect();
    owned.push(Box::new(
        Rescaled::new(LaplaceMechanism::new(0.7).unwrap(), 0.0, 1.0).unwrap(),
    ));
    owned.push(Box::new(
        Rescaled::new(PiecewiseMechanism::new(0.7).unwrap(), -3.0, 5.0).unwrap(),
    ));
    for kind in [OracleKind::Grr, OracleKind::Oue] {
        let oracle = CategoricalOracle::new(kind, 16, 2.0).unwrap();
        owned.push(Box::new(oracle.entry_mechanism()));
    }
    // Frequency pipelines hold the [0, 1] entry mechanisms: `Rescaled` for
    // Laplace and Piecewise, native Square Wave, and the trait-object
    // rescaling adapter for the other four kinds.
    let pipelines: Vec<FrequencyPipeline> = MechanismKind::ALL
        .iter()
        .map(|&kind| FrequencyPipeline::new(kind, PipelineConfig::new(2.0, 2, 0)).unwrap())
        .collect();
    let mechanisms = owned
        .iter()
        .map(Box::as_ref)
        .chain(pipelines.iter().map(FrequencyPipeline::mechanism));

    for (index, mechanism) in mechanisms.enumerate() {
        let (lo, hi) = mechanism.input_domain();
        for seed in 0..50u64 {
            let len = (seed % 18) as usize;
            // Inputs sweep past both ends of the domain (the clamp safety
            // net) and include a NaN (mapped to the midpoint).
            let mut values: Vec<f64> = (0..len)
                .map(|k| {
                    let u = (k as f64 + seed as f64 * 0.37) % 1.6 - 0.3;
                    lo + u * (hi - lo)
                })
                .collect();
            if let Some(value) = values.get_mut(len / 2) {
                *value = f64::NAN;
            }
            let what = format!("mechanism #{index} ({}) seed={seed}", mechanism.name());

            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let expected: Vec<(usize, f64)> = values
                .iter()
                .map(|&t| mechanism.perturb(t, &mut oracle_rng))
                .enumerate()
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            mechanism.perturb_values(&mut values, &mut rng);

            let actual: Vec<(usize, f64)> = values.into_iter().enumerate().collect();
            assert_bit_identical(&actual, &expected, &what);
            assert_eq!(rng, oracle_rng, "{what}: final RNG state");
        }
    }
}
