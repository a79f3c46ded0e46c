//! Heap allocations per user on the client path of
//! `IngestEngine::ingest_partitioned`: once a call is warmed up, every
//! further user sampled and perturbed by `Client::perturb_lazy_into`
//! straight into its shard worker's report buffer, checked there and added
//! to the shard's sums, makes zero heap allocations, at the shapes the
//! sampler keeps allocation-free
//! (see `sample_dims_into` in `crates/protocol/src/client.rs`). The same
//! holds for `FrequencyPipeline::run`, which samples through that sampler
//! and expands each sampled dimension into its one-hot block in place.
//!
//! The allocator also tracks live heap bytes, so the same test bounds the
//! collector's memory: a shard worker holds one report at a time, so the
//! peak live heap of a bulk ingest of 4,096-entry reports stays far below
//! what buffering many of them would take (256 of them are 16 MiB). Counting
//! bytes, not the resident set, keeps that bound independent of the host.
//!
//! The counters are process-wide, not thread-local: the vendored rayon runs
//! each shard on a scoped thread, and a thread-local count would miss the
//! allocations made there. This binary therefore holds a single test, so no
//! sibling test allocates while it counts.

#![expect(
    clippy::disallowed_types,
    reason = "the allocator's counter must be a const-initialised static, which a telemetry Counter is not"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use hdldp_data::CategoricalDataset;
use hdldp_mechanisms::{LaplaceMechanism, MechanismKind};
use hdldp_protocol::{
    BudgetSplit, Client, FrequencyPipeline, IngestConfig, IngestEngine, PipelineConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations (and reallocations) made by every thread of the process.
/// Relaxed: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes currently allocated by every thread of the process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The most [`LIVE_BYTES`] has held since [`peak_live_bytes_above`] last
/// reset it.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Count `bytes` more live heap and raise the peak to the new total. Each
/// `fetch_add` returns the exact prior total, so the peak is exact too.
fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Count `bytes` of live heap as freed.
fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// [`System`] allocator wrapper that counts allocations and live bytes
/// process-wide.
struct CountingAllocator;

// SAFETY: every method delegates to `System` with its arguments unchanged,
// so `System`'s GlobalAlloc contract carries over verbatim; the relaxed
// counter updates cannot allocate, unwind, or reenter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero-size
    // layout); forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: caller passes a block previously returned by this allocator
    // with its original layout; `System.dealloc` requires exactly that.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (live block,
    // matching layout, nonzero new size); forwarded to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Users every call ingests before the counted ones. Enough that every
/// shard's report buffer reaches its steady size: each worker reuses one
/// buffer, which grows to the widest report it has held.
const WARM_UP_USERS: u64 = 2_000;
/// Users whose allocations are counted on top of the warm-up.
const COUNTED_USERS: u64 = 2_000;

/// The most live heap `run` holds at any moment, in bytes above what was
/// live when it began.
fn peak_live_bytes_above(run: impl FnOnce()) -> usize {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    run();
    PEAK_BYTES.load(Ordering::Relaxed) - start
}

/// What one `ingest_partitioned` call over `0..users` does to the heap, on
/// a fresh engine built outside the count.
struct Ingest {
    /// Heap allocations the call made.
    allocations: u64,
    /// [`peak_live_bytes_above`] the call.
    peak_live_bytes: usize,
    /// The engine after the call.
    engine: IngestEngine,
}

/// Ingest `0..users` through `client` into a fresh engine and count it.
fn ingest(client: &Client<'_>, dims: usize, config: IngestConfig, users: u64) -> Ingest {
    let mut engine = IngestEngine::new(dims, config).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let peak_live_bytes = peak_live_bytes_above(|| {
        engine
            .ingest_partitioned(0..users, |user, out| {
                let mut rng = StdRng::seed_from_u64(user);
                client.perturb_lazy_into(|dim| (dim as f64 * 0.01).sin(), &mut rng, out);
                Ok(())
            })
            .unwrap();
    });
    Ingest {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        peak_live_bytes,
        engine,
    }
}

#[test]
fn ingest_partitioned_client_path_allocates_nothing_per_user() {
    // The benchmark's sparse shape, dense at m = d, and fig2's largest
    // sparse shape.
    for (dims, m) in [(256, 8), (100, 100), (5000, 50)] {
        let budget = BudgetSplit::new(1.0, m).unwrap();
        let mechanism = LaplaceMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mechanism, budget, dims).unwrap();
        // One shard runs inline; on a host with two or more CPUs, two run on
        // the shim's scoped threads.
        for shards in [1, 2] {
            let config = IngestConfig::new(shards, 256).unwrap();
            let warm = ingest(&client, dims, config, WARM_UP_USERS);
            let loads = warm.engine.shard_loads();
            assert!(
                loads.iter().all(|&load| load > 0),
                "the warm-up must reach every shard: {loads:?}"
            );
            let (warm, more) = (
                warm.allocations,
                ingest(&client, dims, config, WARM_UP_USERS + COUNTED_USERS).allocations,
            );
            assert_eq!(
                more, warm,
                "(d={dims}, m={m}, shards={shards}): {COUNTED_USERS} more users changed the \
                 allocation count"
            );
        }
    }

    // A frequency run allocates per dimension, never per user: the sparse
    // on-stack table, the dense pool below m = d, and every dimension at
    // m = d. Every dimension has four categories, so every report has the
    // same width and a worker's report buffer stops growing at its first
    // report.
    for (dims, m) in [(40, 8), (10, 7), (10, 10)] {
        let dataset = |users: u64| {
            let mut rng = StdRng::seed_from_u64(users);
            CategoricalDataset::generate_zipf(users as usize, vec![4; dims], &mut rng).unwrap()
        };
        let (warm_data, more_data) = (
            dataset(WARM_UP_USERS),
            dataset(WARM_UP_USERS + COUNTED_USERS),
        );
        let pipeline =
            FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, m, 3)).unwrap();
        let run_allocations = |data: &CategoricalDataset| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            pipeline.run(data).unwrap();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        let (warm, more) = (run_allocations(&warm_data), run_allocations(&more_data));
        assert_eq!(
            more, warm,
            "frequency (d={dims}, m={m}): {COUNTED_USERS} more users changed the allocation count"
        );
    }

    // Collector memory does not grow with the number of reports. Each of 4
    // shards holds one 4,096-entry report and one accumulator (64 KiB each)
    // where 256 buffered reports of that width would take 16 MiB.
    let dims = 4_096;
    let budget = BudgetSplit::new(1.0, dims).unwrap();
    let mechanism = LaplaceMechanism::new(budget.per_dimension()).unwrap();
    let client = Client::new(&mechanism, budget, dims).unwrap();
    let wide = ingest(&client, dims, IngestConfig::PINNED, WARM_UP_USERS);
    assert_eq!(
        wide.engine.shard_loads().iter().sum::<usize>(),
        WARM_UP_USERS as usize
    );
    assert!(
        wide.peak_live_bytes < 2 << 20,
        "ingesting {WARM_UP_USERS} reports of {dims} entries on 4 shards peaked at {} live \
         heap bytes",
        wide.peak_live_bytes
    );
}
