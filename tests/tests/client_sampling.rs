//! Oracle tests for the client's allocation-free report path.
//!
//! `Client::perturb_lazy_into` samples its `m` dimensions into the caller's
//! buffer and perturbs the whole report with one `Mechanism::perturb_entries`
//! call. Both must be bit-identical to the per-value path they replace: the
//! vendored `rand::seq::index::sample` followed by one `Mechanism::perturb`
//! per sampled dimension, which stays here as the oracle. Equality of the
//! reports and of the final RNG state is what keeps every seeded test and
//! figure output unchanged.

use hdldp_mechanisms::{
    build_mechanism, LaplaceMechanism, Mechanism, MechanismKind, PiecewiseMechanism, Rescaled,
};
use hdldp_protocol::{BudgetSplit, Client, FrequencyPipeline, PipelineConfig};
use hdldp_workloads::{CategoricalOracle, OracleKind};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// `(d, m)` shapes on both sides of each of the sampler's branch points,
/// plus the shapes the benchmarks and figure binaries run.
const SHAPES: [(usize, usize); 13] = [
    (1, 1),
    (2, 1),
    (7, 3),
    (8, 4),
    (9, 4),
    (100, 49),
    (100, 50),
    (100, 100),
    (129, 64),
    (200, 64),
    (200, 65),
    (256, 8),
    (5000, 50),
];

/// Entries a caller already buffered; the client must leave them alone.
const PREFIX: [(usize, f64); 3] = [(7, -0.5), (usize::MAX, 1e300), (0, f64::MIN_POSITIVE)];

/// A deterministic value in `[-1, 1]` for every dimension.
fn value_of(dim: usize) -> f64 {
    ((dim * 37) % 201) as f64 / 100.0 - 1.0
}

fn assert_bit_identical(actual: &[(usize, f64)], expected: &[(usize, f64)], what: &str) {
    let dims = |entries: &[(usize, f64)]| entries.iter().map(|e| e.0).collect::<Vec<_>>();
    assert_eq!(dims(actual), dims(expected), "{what}: dimensions");
    let bits = |entries: &[(usize, f64)]| entries.iter().map(|e| e.1.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(actual), bits(expected), "{what}: values");
}

#[test]
fn client_reports_match_index_sample_then_per_value_perturb() {
    for (d, m) in SHAPES {
        let budget = BudgetSplit::new(1.0, m).unwrap();
        for kind in MechanismKind::ALL {
            let mechanism = build_mechanism(kind, budget.per_dimension()).unwrap();
            let client = Client::new(mechanism.as_ref(), budget, d).unwrap();
            let seeds = if kind == MechanismKind::Laplace {
                300
            } else {
                20
            };
            let mut out = Vec::new();
            for seed in 0..seeds {
                let what = format!("d={d} m={m} {} seed={seed}", kind.name());
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let expected: Vec<(usize, f64)> = sample(&mut oracle_rng, d, m)
                    .into_iter()
                    .map(|j| (j, mechanism.perturb(value_of(j), &mut oracle_rng)))
                    .collect();

                // Alternate a fresh buffer with one reused across users.
                if seed % 2 == 0 {
                    out = Vec::new();
                } else {
                    out.clear();
                }
                out.extend_from_slice(&PREFIX);
                let mut rng = StdRng::seed_from_u64(seed);
                client.perturb_lazy_into(value_of, &mut rng, &mut out);

                let (prefix, report) = out.split_at(PREFIX.len());
                assert_bit_identical(prefix, &PREFIX, &format!("{what}: prefix"));
                assert_bit_identical(report, &expected, &what);
                assert_eq!(rng, oracle_rng, "{what}: final RNG state");
            }
        }
    }
}

#[test]
fn perturb_entries_matches_the_per_value_loop_for_every_mechanism() {
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
            let mut entries: Vec<(usize, f64)> = (0..len)
                .map(|k| {
                    let u = (k as f64 + seed as f64 * 0.37) % 1.6 - 0.3;
                    (k * 3 + 1, lo + u * (hi - lo))
                })
                .collect();
            if let Some(entry) = entries.get_mut(len / 2) {
                entry.1 = f64::NAN;
            }
            let what = format!("mechanism #{index} ({}) seed={seed}", mechanism.name());

            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let expected: Vec<(usize, f64)> = entries
                .iter()
                .map(|&(dim, t)| (dim, mechanism.perturb(t, &mut oracle_rng)))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            mechanism.perturb_entries(&mut entries, &mut rng);

            assert_bit_identical(&entries, &expected, &what);
            assert_eq!(rng, oracle_rng, "{what}: final RNG state");
        }
    }
}
