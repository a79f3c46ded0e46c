//! Cross-crate tests for the telemetry subsystem: the lock-free primitives
//! under concurrent load, snapshot consistency while writers are live, the
//! zero-allocation guarantee of the disabled path, and the end-to-end metric
//! counts recorded by the instrumented ingest engine and pipeline.
//!
//! This binary installs a counting [`std::alloc::System`] wrapper as the
//! global allocator so the disabled-registry test can assert "no allocations"
//! directly rather than by inspection. The counter is thread-local, so the
//! other tests (which run concurrently on sibling threads) never perturb it.

#![expect(
    clippy::disallowed_types,
    reason = "the snapshot test stops its writer threads with a raw AtomicBool"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hdldp_data::GaussianDataset;
use hdldp_integration_tests::test_rng;
use hdldp_math::ErfCache;
use hdldp_mechanisms::MechanismKind;
use hdldp_protocol::{IngestConfig, IngestEngine, MeanEstimationPipeline, PipelineConfig};
use hdldp_telemetry::Registry;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] allocator wrapper that counts allocations per thread.
struct CountingAllocator;

// SAFETY: every method delegates to `System` with its arguments unchanged,
// so `System`'s GlobalAlloc contract carries over verbatim; the counter bump
// via `try_with` cannot allocate, unwind, or reenter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero-size
    // layout); forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: caller passes a block previously returned by this allocator
    // with its original layout; `System.dealloc` requires exactly that.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (live block,
    // matching layout, nonzero new size); forwarded to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on the current thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, result)
}

#[test]
fn concurrent_hammering_agrees_with_the_serial_tally() {
    const THREADS: u64 = 8;
    const ITERS: u64 = 10_000;

    let registry = Registry::new();
    let counter = registry.counter("hammer_total");
    let histogram = registry.histogram("hammer_ns");

    thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            scope.spawn(move || {
                for i in 0..ITERS {
                    counter.inc();
                    counter.add(2);
                    histogram.record_ns(t * ITERS + i + 1);
                }
            });
        }
    });

    // Serial tally: each thread does ITERS * (inc + add(2)) = 3 per loop.
    assert_eq!(counter.value(), THREADS * ITERS * 3);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("hammer_total"), Some(THREADS * ITERS * 3));
    let hist = snapshot.histogram("hammer_ns").unwrap();
    assert_eq!(hist.count, THREADS * ITERS);
    // Every recorded value is in 1..=THREADS*ITERS, so the exact sum is known.
    let n = THREADS * ITERS;
    assert_eq!(hist.sum_ns, n * (n + 1) / 2);
    assert_eq!(hist.max_ns, n);
}

#[test]
fn snapshot_while_writing_never_tears_or_panics() {
    const WRITER_THREADS: u64 = 4;

    let registry = Registry::new();
    let counter = registry.counter("live_total");
    let histogram = registry.histogram("live_ns");
    let stop = Arc::new(AtomicBool::new(false));

    thread::scope(|scope| {
        for _ in 0..WRITER_THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    counter.inc();
                    histogram.record_ns(7);
                }
            });
        }

        let mut last_count = 0u64;
        let mut last_hist = (0u64, 0u64, 0u64);
        for _ in 0..500 {
            let snapshot = registry.snapshot();
            let count = snapshot.counter("live_total").unwrap();
            // Counters are monotone, so a snapshot can never run backwards.
            assert!(
                count >= last_count,
                "counter went backwards: {last_count} -> {count}"
            );
            last_count = count;
            if let Some(hist) = snapshot.histogram("live_ns") {
                // Every sample is exactly 7ns: any count/sum pairing that
                // violates sum == 7 * count would be a torn read... except the
                // two loads are not one atomic unit, so the invariant that
                // MUST hold is weaker and exact: each is internally consistent
                // (sum is a multiple of 7, quantiles bracket the one bucket).
                assert_eq!(hist.sum_ns % 7, 0, "sum is not a whole number of samples");
                if hist.count > 0 {
                    assert!(hist.p50_ns >= 1, "quantile fell outside the sample bucket");
                    assert!(hist.max_ns >= 7, "max below the only recorded value");
                }
                // Each cell only grows, so a later snapshot never reads less.
                let now = (hist.count, hist.sum_ns, hist.max_ns);
                assert!(
                    now.0 >= last_hist.0 && now.1 >= last_hist.1 && now.2 >= last_hist.2,
                    "histogram (count, sum, max) went backwards: {last_hist:?} -> {now:?}"
                );
                last_hist = now;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn disabled_registry_records_nothing_and_allocates_nothing() {
    let registry = Registry::disabled();
    let counter = registry.counter("never_total");
    let gauge = registry.gauge("never_ratio");
    let histogram = registry.histogram("never_ns");

    let (allocations, ()) = allocations_during(|| {
        for i in 0..10_000 {
            counter.inc();
            counter.add(3);
            gauge.set(i as f64);
            histogram.record_ns(i);
            histogram.start().stop();
        }
    });

    assert_eq!(allocations, 0, "disabled telemetry path allocated");
    assert_eq!(counter.value(), 0);
    assert_eq!(gauge.value(), 0.0);
    assert_eq!(histogram.count(), 0);
    let snapshot = registry.snapshot();
    assert!(
        snapshot.is_empty(),
        "disabled registry produced data: {snapshot:?}"
    );
}

#[test]
fn enabled_hot_path_does_not_allocate_per_record() {
    let registry = Registry::new();
    let counter = registry.counter("hot_total");
    let gauge = registry.gauge("hot_ratio");
    let histogram = registry.histogram("hot_ns");

    // Warm-up records nothing new structurally; the recording loop itself
    // must be allocation-free.
    counter.inc();
    gauge.set(0.0);
    histogram.record_ns(1);

    let (allocations, ()) = allocations_during(|| {
        for i in 0..10_000 {
            counter.inc();
            counter.add(2);
            gauge.set(i as f64);
            histogram.record_ns(i + 1);
        }
    });

    assert_eq!(allocations, 0, "enabled record path allocated");
    assert_eq!(counter.value(), 30_001);
    assert_eq!(gauge.value(), 9_999.0);
}

#[test]
fn erf_does_not_allocate_once_warm() {
    let mut cache = ErfCache::new();
    cache.erf(0.5);
    let (allocations, ()) = allocations_during(|| {
        for i in 0..1_000 {
            cache.erf(0.5);
            cache.erf(f64::from(i) * 1e-3);
        }
    });
    assert_eq!(allocations, 0, "ErfCache::erf allocated");
    assert!(
        cache.hits() > 0 && cache.misses() > 1,
        "both lookup paths ran"
    );
}

#[test]
fn instrumented_engine_counts_match_the_workload() {
    let dims = 32usize;
    let users = 1_000u64;
    let registry = Registry::new();
    let config = IngestConfig::new(4, 64).unwrap();
    let mut engine = IngestEngine::with_telemetry(dims, config, &registry).unwrap();

    engine
        .ingest_partitioned(0..users, |user, out| {
            out.push((user as usize) % dims, 1.0);
            out.push((user as usize * 7) % dims, -1.0);
            Ok(())
        })
        .unwrap();
    let merged = engine.merged().unwrap();
    assert_eq!(merged.reports(), users as usize);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("ingest_reports_total"), Some(users));
    assert_eq!(snapshot.counter("ingest_entries_total"), Some(users * 2));
    assert_eq!(snapshot.counter("ingest_merges_total"), Some(1));

    // The per-shard counters partition the total exactly.
    let shard_sum: u64 = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("ingest_shard") && c.name.ends_with("_reports_total"))
        .map(|c| c.value)
        .sum();
    assert_eq!(shard_sum, users);

    // Every merge is timed.
    assert_eq!(snapshot.histogram("ingest_merge_ns").unwrap().count, 1);
}

#[test]
fn pipeline_run_records_phases_and_serializes_round_trip() {
    let dataset = GaussianDataset::new(600, 12)
        .unwrap()
        .generate(&mut test_rng(42));
    let registry = Registry::new();
    let pipeline =
        MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 12, 1234))
            .unwrap()
            .with_telemetry(&registry);
    pipeline.run(&dataset).unwrap();

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("pipeline_runs_total"), Some(1));
    assert_eq!(snapshot.histogram("pipeline_ingest_ns").unwrap().count, 1);
    assert_eq!(snapshot.histogram("pipeline_estimate_ns").unwrap().count, 1);
    assert_eq!(snapshot.counter("ingest_reports_total"), Some(600));

    // The snapshot round-trips through JSON, the form the drivers write it in.
    let json = serde_json::to_string_pretty(&snapshot).unwrap();
    let restored: hdldp_telemetry::TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(restored, snapshot);
}
