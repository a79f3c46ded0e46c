//! Criterion micro-benchmarks for the categorical frequency oracles: per-user
//! perturbation and count-based estimation for GRR vs OUE at small and large
//! category counts, and one whole collection through the ingest engine.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdldp_protocol::{IngestConfig, Report};
use hdldp_workloads::{CategoricalOracle, OracleKind, OraclePipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CATEGORY_COUNTS: [usize; 2] = [16, 256];

fn bench_perturb(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_perturb");
    for kind in OracleKind::ALL {
        for k in CATEGORY_COUNTS {
            let oracle = CategoricalOracle::new(kind, k, 2.0).expect("valid oracle");
            group.bench_with_input(BenchmarkId::new(kind.name(), k), &k, |b, &k| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut out = Report::default();
                let mut value = 0usize;
                b.iter(|| {
                    value = (value + 1) % k;
                    oracle
                        .perturb_into(black_box(value), &mut rng, &mut out)
                        .expect("value in domain");
                    black_box(out.values.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_estimate");
    for kind in OracleKind::ALL {
        for k in CATEGORY_COUNTS {
            let oracle = CategoricalOracle::new(kind, k, 2.0).expect("valid oracle");
            // A fixed batch of activation counts: the activated entries of
            // 10k perturbed reports.
            let n = 10_000u64;
            let mut counts = vec![0u64; k];
            let mut rng = StdRng::seed_from_u64(5);
            let mut report = Report::default();
            for value in (0..k).cycle().take(n as usize) {
                oracle
                    .perturb_into(value, &mut rng, &mut report)
                    .expect("value in domain");
                for (count, &entry) in counts.iter_mut().zip(&report.values) {
                    *count += u64::from(entry == oracle.calibrated_one());
                }
            }
            group.bench_with_input(BenchmarkId::new(kind.name(), k), &k, |b, _| {
                b.iter(|| {
                    black_box(
                        oracle
                            .estimate_from_counts(black_box(&counts), n)
                            .expect("valid counts"),
                    )
                })
            });
        }
    }
    group.finish();
}

/// `OraclePipeline::run` over 2,000 users at k = 256, ε = 4, the
/// `heavy_hitters` shape: every report is written into its shard worker's
/// report buffer, checked and added to the shard's sums. One shard keeps the
/// row on one thread.
fn bench_collect(c: &mut Criterion) {
    const USERS: usize = 2_000;
    const K: usize = 256;
    let mut group = c.benchmark_group("oracle_collect");
    let values: Vec<usize> = (0..USERS).map(|user| user % K).collect();
    let config = IngestConfig::new(1, 256).expect("valid ingest config");
    for kind in OracleKind::ALL {
        let pipeline = OraclePipeline::new(kind, K, 4.0, 17)
            .expect("valid oracle")
            .with_ingest_config(config);
        group.bench_with_input(BenchmarkId::new(kind.name(), K), &K, |b, _| {
            b.iter(|| black_box(pipeline.run(black_box(&values)).expect("values in domain")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_perturb, bench_estimate, bench_collect);
criterion_main!(benches);
