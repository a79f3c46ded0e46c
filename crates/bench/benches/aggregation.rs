//! Criterion micro-benchmarks: collector-side aggregation throughput
//! (ingesting reports and producing the naive per-dimension means), on
//! `IngestEngine::ingest_partitioned`, the path every pipeline runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdldp_protocol::{IngestConfig, IngestEngine};
use hdldp_telemetry::Registry;

type Reports = Vec<Vec<(usize, f64)>>;

fn make_reports(count: usize, dims: usize, entries_per_report: usize) -> Reports {
    (0..count)
        .map(|i| {
            (0..entries_per_report)
                .map(|k| (((i * 31 + k * 7) % dims), ((i + k) as f64 % 3.0) - 1.0))
                .collect()
        })
        .collect()
}

/// Bulk-ingest `reports` (user `u` sends `reports[u]`, copied into its shard
/// worker's report buffer) and read the merged per-dimension counts.
fn ingest_and_count(mut engine: IngestEngine, reports: &Reports) -> Vec<u64> {
    engine
        .ingest_partitioned(0..reports.len() as u64, |user, out| {
            out.extend_from_slice(black_box(&reports[user as usize]));
            Ok(())
        })
        .unwrap();
    engine.merged().unwrap().counts()
}

fn bench_sharded_ingest(c: &mut Criterion) {
    // Hash-route every report to its shard, add it to that shard's partial
    // sums, and merge the partials into the final counts. Shard count is the
    // swept parameter; `shards1` is the single-shard row.
    let mut group = c.benchmark_group("sharded_ingest");
    let dims = 1_000usize;
    for &count in &[10_000usize, 1_000_000] {
        let reports = make_reports(count, dims, 8);
        for &shards in &[1usize, 4, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("shards{shards}"), format!("n{count}")),
                &shards,
                |b, &shards| {
                    let config = IngestConfig::new(shards, 256).unwrap();
                    b.iter(|| {
                        let engine = IngestEngine::new(dims, config).unwrap();
                        black_box(ingest_and_count(engine, &reports))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_sharded_ingest_telemetry(c: &mut Criterion) {
    // The exact workload of `sharded_ingest` with a *live* telemetry registry
    // attached to the engine. Comparing the two group's means at matched
    // (shards, n) parameters is the observability overhead budget check:
    // recording once per shard per call must stay within 2% of the plain
    // path.
    let mut group = c.benchmark_group("sharded_ingest_telemetry");
    let dims = 1_000usize;
    for &count in &[10_000usize, 1_000_000] {
        let reports = make_reports(count, dims, 8);
        for &shards in &[1usize, 4, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("shards{shards}"), format!("n{count}")),
                &shards,
                |b, &shards| {
                    let config = IngestConfig::new(shards, 256).unwrap();
                    // One live registry per configuration, as the drivers use
                    // it: engines come and go per run, the registry persists
                    // and accumulates. Creating and populating a registry per
                    // iteration would benchmark setup, not recording.
                    let registry = Registry::new();
                    b.iter(|| {
                        let engine = IngestEngine::with_telemetry(dims, config, &registry).unwrap();
                        black_box(ingest_and_count(engine, &reports))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_ingest,
    bench_sharded_ingest_telemetry
);
criterion_main!(benches);
