//! Criterion micro-benchmarks: collector-side aggregation throughput
//! (ingesting reports and producing the naive per-dimension means), on
//! `IngestEngine::ingest_partitioned`, the path every pipeline runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdldp_protocol::{IngestConfig, IngestEngine, Report};
use hdldp_telemetry::Registry;

/// `count` named reports of `entries_per_report` entries over `dims`
/// dimensions, on scattered dimensions.
fn make_reports(count: usize, dims: usize, entries_per_report: usize) -> Vec<Report> {
    (0..count)
        .map(|i| {
            let mut report = Report::default();
            for k in 0..entries_per_report {
                report.push((i * 31 + k * 7) % dims, ((i + k) as f64 % 3.0) - 1.0);
            }
            report
        })
        .collect()
}

/// Bulk-ingest `reports` (user `u` sends `reports[u]`, copied into its shard
/// worker's report buffer) and read the merged per-dimension counts.
fn ingest_and_count(mut engine: IngestEngine, reports: &[Report]) -> Vec<u64> {
    engine
        .ingest_partitioned(0..reports.len() as u64, |user, out| {
            let report = black_box(&reports[user as usize]);
            out.dims.extend_from_slice(&report.dims);
            out.values.extend_from_slice(&report.values);
            Ok(())
        })
        .unwrap();
    engine.merged().unwrap().counts()
}

/// Bulk-ingest `users` dense reports of `dims` values, each written in
/// `fill` as a client or oracle writes its report, and read the merged
/// per-dimension counts.
fn ingest_dense_and_count(mut engine: IngestEngine, users: u64, dims: usize) -> Vec<u64> {
    engine
        .ingest_partitioned(0..users, |user, out| {
            let base = black_box((user % 3) as f64 - 1.0);
            out.values.extend((0..dims).map(|j| base + j as f64 * 1e-3));
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
    // Dense reports (every dimension's value in order, no dimension column),
    // the shape of the m = d figures and the categorical oracles at k = 256,
    // which the engine checks and adds in one pass over the sums. Each
    // report is written in the worker's buffer, as a client or an oracle
    // writes it, so the rows time the engine rather than a copy.
    let (count, dims) = (10_000usize, 256usize);
    for &shards in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("dense/shards{shards}"), format!("n{count}")),
            &shards,
            |b, &shards| {
                let config = IngestConfig::new(shards, 256).unwrap();
                b.iter(|| {
                    let engine = IngestEngine::new(dims, config).unwrap();
                    black_box(ingest_dense_and_count(engine, count as u64, dims))
                })
            },
        );
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
