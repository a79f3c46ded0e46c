//! Heap allocations per user on the client path of
//! `IngestEngine::ingest_partitioned`: once a call is warmed up, every
//! further user sampled and perturbed by `Client::perturb_lazy_into` and
//! pushed into a shard batch makes zero heap allocations, at the shapes the
//! sampler keeps allocation-free (see `sample_dims_into` in
//! `crates/protocol/src/client.rs`).
//!
//! The counter is process-wide, not thread-local: the vendored rayon runs
//! each shard on a scoped thread, and a thread-local count would miss the
//! allocations made there. This binary therefore holds a single test, so no
//! sibling test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hdldp_mechanisms::LaplaceMechanism;
use hdldp_protocol::{BudgetSplit, Client, IngestConfig, IngestEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations (and reallocations) made by every thread of the process.
/// Relaxed: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] allocator wrapper that counts allocations process-wide.
struct CountingAllocator;

// SAFETY: every method delegates to `System` with its arguments unchanged,
// so `System`'s GlobalAlloc contract carries over verbatim; the relaxed
// counter bump cannot allocate, unwind, or reenter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero-size
    // layout); forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Users every call ingests before the counted ones. Enough that each
/// shard's scratch report and batch reach their steady size: the scratch
/// grows on a shard's first user, and a batch grows until its first flush.
const WARM_UP_USERS: u64 = 2_000;
/// Users whose allocations are counted on top of the warm-up.
const COUNTED_USERS: u64 = 2_000;

/// Heap allocations one `ingest_partitioned` call over `0..users` makes,
/// on a fresh engine built outside the count; the engine is returned too.
fn ingest_allocations(
    client: &Client<'_>,
    dims: usize,
    config: IngestConfig,
    users: u64,
) -> (u64, IngestEngine) {
    let mut engine = IngestEngine::new(dims, config).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine
        .ingest_partitioned(0..users, |user, out| {
            let mut rng = StdRng::seed_from_u64(user);
            client.perturb_lazy_into(|dim| (dim as f64 * 0.01).sin(), &mut rng, out);
            Ok(())
        })
        .unwrap();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, engine)
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
            let config = IngestConfig::new(shards, IngestConfig::DEFAULT_BATCH_CAPACITY).unwrap();
            let (warm, engine) = ingest_allocations(&client, dims, config, WARM_UP_USERS);
            let loads = engine.shard_loads();
            assert!(
                loads.iter().all(|&load| load > config.batch_capacity()),
                "the warm-up must fill every shard's batch: {loads:?}"
            );
            let (more, _) =
                ingest_allocations(&client, dims, config, WARM_UP_USERS + COUNTED_USERS);
            assert_eq!(
                more, warm,
                "(d={dims}, m={m}, shards={shards}): {COUNTED_USERS} more users changed the \
                 allocation count"
            );
        }
    }
}
