//! End-to-end integration tests for the multi-workload analytics subsystem:
//! heavy-hitter identification and hierarchical range queries over the GRR /
//! OUE categorical oracles, with fixed seeds so every run is reproducible.

use hdldp_core::Regularization;
use hdldp_telemetry::Registry;
use hdldp_workloads::{
    planted_dataset, precision_recall, true_range_frequency, HeavyHitterConfig,
    HeavyHitterDetector, OracleKind, RangeQueryConfig, RangeWorkload, SelectionRule,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acceptance check: at 100k users and ε = 4, both oracles must identify the
/// planted top-10 heavy hitters with recall ≥ 0.9, with HDR4ME re-calibration
/// applied before selection.
#[test]
fn heavy_hitters_at_100k_users_recover_planted_top10() {
    let (values, heavy_ids) = planted_dataset(100_000, 128, 10, 0.8, 404).unwrap();
    for kind in OracleKind::ALL {
        let detector = HeavyHitterDetector::new(HeavyHitterConfig {
            kind,
            categories: 128,
            epsilon: 4.0,
            seed: 808,
            rule: SelectionRule::TopK(10),
            recalibration: Some(Regularization::L1),
            supremum_z: 1.0,
        })
        .unwrap();
        let report = detector.identify(&values).unwrap();
        let pr = precision_recall(&report.selected, &heavy_ids);
        assert!(
            pr.recall >= 0.9,
            "{kind:?}: recall {} below the 0.9 acceptance bar",
            pr.recall
        );
        // Top-k selection: precision equals recall here.
        assert!(pr.precision >= 0.9, "{kind:?}: precision {}", pr.precision);
    }
}

#[test]
fn heavy_hitter_runs_are_reproducible() {
    let (values, _) = planted_dataset(20_000, 64, 5, 0.8, 12).unwrap();
    let config = HeavyHitterConfig {
        kind: OracleKind::Oue,
        categories: 64,
        epsilon: 2.0,
        seed: 34,
        rule: SelectionRule::TopK(5),
        recalibration: Some(Regularization::L1),
        supremum_z: 1.0,
    };
    let a = HeavyHitterDetector::new(config)
        .unwrap()
        .identify(&values)
        .unwrap();
    let b = HeavyHitterDetector::new(config)
        .unwrap()
        .identify(&values)
        .unwrap();
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.frequencies, b.frequencies);
}

fn skewed_values(n: usize, domain: usize, seed: u64) -> Vec<usize> {
    // Zipf mass on the low eighth of the domain over a uniform tail —
    // mirrors the range_queries figure binary.
    let hot = domain / 8;
    let weights: Vec<f64> = (0..hot).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.8) {
                let u: f64 = rng.gen_range(0.0..total);
                let mut acc = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    acc += w;
                    if u < acc {
                        return i;
                    }
                }
                hot - 1
            } else {
                rng.gen_range(0..domain)
            }
        })
        .collect()
}

fn mean_relative_error(
    tree: &hdldp_workloads::RangeTree,
    values: &[usize],
    domain: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = 0.0;
    let queries = 100;
    for _ in 0..queries {
        let a = rng.gen_range(0..domain);
        let b = rng.gen_range(0..domain);
        let range = a.min(b)..a.max(b) + 1;
        let truth = true_range_frequency(values, range.clone());
        let est = tree.query(range).unwrap();
        rel += (est - truth).abs() / truth.max(1e-3);
    }
    rel / queries as f64
}

/// Acceptance check: HDR4ME-re-calibrated range queries beat the raw
/// (clip + renormalize) per-level estimates on mean relative error, with the
/// same fixed-seed perturbations underneath both variants.
#[test]
fn recalibrated_range_queries_beat_raw_on_mean_relative_error() {
    let domain = 256;
    let values = skewed_values(60_000, domain, 505);
    for kind in OracleKind::ALL {
        for epsilon in [0.5, 1.0] {
            let base = RangeQueryConfig {
                kind,
                domain,
                epsilon,
                seed: 707,
                recalibration: None,
                supremum_z: 1.0,
            };
            let raw_tree = RangeWorkload::new(base).unwrap().build(&values).unwrap();
            let recal_tree = RangeWorkload::new(RangeQueryConfig {
                recalibration: Some(Regularization::L1),
                ..base
            })
            .unwrap()
            .build(&values)
            .unwrap();
            let raw_mre = mean_relative_error(&raw_tree, &values, domain, 606);
            let recal_mre = mean_relative_error(&recal_tree, &values, domain, 606);
            assert!(
                recal_mre < raw_mre,
                "{kind:?} eps={epsilon}: recalibrated MRE {recal_mre} not below raw {raw_mre}"
            );
        }
    }
}

#[test]
fn range_tree_is_consistent_and_reproducible() {
    let values = skewed_values(10_000, 64, 3);
    let config = RangeQueryConfig {
        kind: OracleKind::Grr,
        domain: 64,
        epsilon: 2.0,
        seed: 55,
        recalibration: Some(Regularization::L1),
        supremum_z: 1.0,
    };
    let a = RangeWorkload::new(config).unwrap().build(&values).unwrap();
    let b = RangeWorkload::new(config).unwrap().build(&values).unwrap();
    assert!(a.max_consistency_gap() < 1e-9);
    assert_eq!(a, b, "the tree differs between runs");
    // Disjoint dyadic pieces add up to the containing range.
    let whole = a.query(0..64).unwrap();
    let parts = a.query(0..32).unwrap() + a.query(32..64).unwrap();
    assert!((whole - parts).abs() < 1e-9);
}

#[test]
fn workload_telemetry_flows_through_the_shared_registry() {
    let registry = Registry::new();
    let (values, _) = planted_dataset(5_000, 32, 4, 0.8, 9).unwrap();
    let detector = HeavyHitterDetector::with_telemetry(
        HeavyHitterConfig {
            kind: OracleKind::Grr,
            categories: 32,
            epsilon: 1.0,
            seed: 2,
            rule: SelectionRule::TopK(4),
            recalibration: Some(Regularization::L1),
            supremum_z: 1.0,
        },
        &registry,
    )
    .unwrap();
    detector.identify(&values).unwrap();

    let snapshot = registry.snapshot();
    // Workload-level metrics and the ingest engine's own metrics both land
    // in the one registry.
    assert!(snapshot.counter("workload_runs_total").unwrap_or(0) >= 1);
    assert_eq!(snapshot.counter("workload_reports_total"), Some(5_000));
    assert!(snapshot.counter("ingest_reports_total").unwrap_or(0) > 0);
    let rendered = snapshot.render_table();
    assert!(rendered.contains("workload_collect_ns"));
}
