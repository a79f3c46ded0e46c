//! Cross-crate tests pinning the sharded ingest engine to the single-loop
//! aggregation it replaces: same sums, same counts, same estimated means.
//!
//! The bit-for-bit property tests draw report values from the dyadic grid
//! `k/16` with small `k`, where floating-point addition is exact and therefore
//! order-free — so *any* shard count, batch capacity, and batch boundary must
//! reproduce the single-loop result down to the last bit. Arbitrary-float
//! agreement (where only the summation order differs) is covered by a
//! tolerance-based test against Welford running means. On full-mantissa
//! floats, where any change of order or grouping would show, the bulk path
//! must give the same bits for every batch capacity and report width: a
//! batch flushes at its report capacity or at 4,096 entries, and where it
//! flushes never moves a sum.
//!
//! Every oracle here is test-local and shares no code with the engine: a
//! plain loop over the reports, the same loop run per shard over the users
//! `ShardRouter` sends there, and Welford running means.
//!
//! The last tests treat reports as untrusted: a report carrying NaN or ±∞
//! fails the bulk call without touching the engine, as does a `fill` that
//! clears the batch buffer it is handed, and the telemetry counts equal the
//! reports, entries and flushes of the routed workload exactly.

use hdldp_math::RunningMoments;
use hdldp_protocol::telemetry::FLUSH_SAMPLE_EVERY;
use hdldp_protocol::{IngestConfig, IngestEngine, ProtocolError, ShardRouter};
use hdldp_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plain single-loop reference: per-dimension sums and counts over `reports`.
fn single_loop_sums(dims: usize, reports: &[Vec<(usize, f64)>]) -> (Vec<f64>, Vec<u64>) {
    let mut sums = vec![0.0f64; dims];
    let mut counts = vec![0u64; dims];
    for report in reports {
        for &(dim, value) in report {
            sums[dim] += value;
            counts[dim] += 1;
        }
    }
    (sums, counts)
}

/// Strategy: a population of reports over `dims` dimensions whose values lie
/// on the dyadic grid `k/16` with `|k| <= 32`, so sums are exact in `f64`.
fn dyadic_reports(dims: usize) -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..dims, -32i32..33), 0..6),
        0..40,
    )
    .prop_map(|reports| {
        reports
            .into_iter()
            .map(|entries| {
                entries
                    .into_iter()
                    .map(|(dim, k)| (dim, f64::from(k) / 16.0))
                    .collect()
            })
            .collect()
    })
}

/// Strategy: a report width on either side of a batch's 4,096-entry bound.
/// Reports of 1–8 entries never reach it below 256 reports; a 300-entry
/// report fills a batch after 14 reports, and a 5,000-entry one on its own.
fn report_width() -> impl Strategy<Value = usize> {
    (0usize..10).prop_map(|class| match class {
        0..=7 => class + 1,
        8 => 300,
        _ => 5_000,
    })
}

/// Reports of the given widths over `dims` dimensions, with full-mantissa
/// values in `[-1000, 1000)` from a generator seeded with `seed`, so their
/// sums round and the rounding follows the summation order.
fn full_mantissa_reports(dims: usize, widths: &[usize], seed: u64) -> Vec<Vec<(usize, f64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    widths
        .iter()
        .map(|&width| {
            (0..width)
                .map(|_| (rng.gen_range(0..dims), rng.gen_range(-1.0e3..1.0e3)))
                .collect()
        })
        .collect()
}

/// Ingest `reports` into `engine` in one bulk call, user `u` sending
/// `reports[u]`.
fn ingest_all(engine: &mut IngestEngine, reports: &[Vec<(usize, f64)>]) {
    engine
        .ingest_partitioned(0..reports.len() as u64, |user, out| {
            out.extend_from_slice(&reports[user as usize]);
            Ok(())
        })
        .unwrap();
}

/// How many of `users` users `ShardRouter` sends to each of `shards` shards.
fn routed_loads(shards: usize, users: usize) -> Vec<usize> {
    let router = ShardRouter::new(shards).unwrap();
    let mut loads = vec![0usize; shards];
    for user in 0..users as u64 {
        loads[router.route(user)] += 1;
    }
    loads
}

/// Each shard's sums over its users' reports in increasing user id, then
/// added across shards in shard order: the bulk path's summation order.
fn shard_serial_sums(
    dims: usize,
    shards: usize,
    reports: &[Vec<(usize, f64)>],
) -> (Vec<f64>, Vec<u64>) {
    let router = ShardRouter::new(shards).unwrap();
    let mut sums = vec![0.0f64; dims];
    let mut counts = vec![0u64; dims];
    for shard in 0..shards {
        let own: Vec<Vec<(usize, f64)>> = (0..reports.len())
            .filter(|&user| router.route(user as u64) == shard)
            .map(|user| reports[user].clone())
            .collect();
        let (shard_sums, shard_counts) = single_loop_sums(dims, &own);
        for dim in 0..dims {
            sums[dim] += shard_sums[dim];
            counts[dim] += shard_counts[dim];
        }
    }
    (sums, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flush points never move the bulk path's bits: on full-mantissa
    /// floats, `ingest_partitioned` gives each shard's sum in user order,
    /// added across shards in shard order, at batch capacities 1, 3 and 256
    /// and for report widths that reach the 4,096-entry bound or never do.
    #[test]
    fn flush_points_never_move_the_bulk_paths_bits(
        dims in 1usize..20,
        widths in proptest::collection::vec(report_width(), 0..30),
        shards in 1usize..5,
        seed in 0..u64::MAX,
    ) {
        let reports = full_mantissa_reports(dims, &widths, seed);
        let bits = |sums: &[f64]| sums.iter().map(|sum| sum.to_bits()).collect::<Vec<_>>();
        let (sums, counts) = shard_serial_sums(dims, shards, &reports);
        for capacity in [1, 3, 256] {
            let config = IngestConfig::new(shards, capacity).unwrap();
            let mut engine = IngestEngine::new(dims, config).unwrap();
            ingest_all(&mut engine, &reports);
            let merged = engine.merged().unwrap();
            prop_assert_eq!(bits(&merged.sums()), bits(&sums), "capacity {}", capacity);
            prop_assert_eq!(merged.counts(), counts.clone(), "capacity {}", capacity);
            prop_assert_eq!(merged.reports(), reports.len());
        }
    }

    /// On exact-addition inputs, the sharded engine reproduces the
    /// single-loop sums and counts bit-for-bit for every shard count and
    /// batch capacity — including shard counts far above the report count —
    /// and each shard holds exactly the users routed to it.
    #[test]
    fn sharded_merge_equals_single_loop_bit_for_bit(
        population in (1usize..12).prop_flat_map(|dims| (Just(dims), dyadic_reports(dims))),
        shards in 1usize..20,
        batch_capacity in 1usize..5,
    ) {
        let (dims, reports) = population;
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, batch_capacity).unwrap()).unwrap();
        ingest_all(&mut engine, &reports);
        let merged = engine.merged().unwrap();
        let (sums, counts) = single_loop_sums(dims, &reports);
        prop_assert_eq!(merged.sums(), sums);
        prop_assert_eq!(merged.counts(), counts);
        prop_assert_eq!(merged.reports(), reports.len());
        prop_assert_eq!(engine.shard_loads(), routed_loads(shards, reports.len()));
    }

    /// On arbitrary floats the sharded estimate agrees with a Welford
    /// running mean per dimension up to summation-order rounding.
    #[test]
    fn sharded_means_agree_with_legacy_aggregator(
        values in proptest::collection::vec(-1.0f64..1.0, 1..120),
        dims in 1usize..8,
        shards in 1usize..7,
    ) {
        let reports: Vec<Vec<(usize, f64)>> = values
            .chunks(dims)
            .map(|chunk| chunk.iter().enumerate().map(|(dim, &v)| (dim, v)).collect())
            .collect();
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, 4).unwrap()).unwrap();
        ingest_all(&mut engine, &reports);
        let mut welford = vec![RunningMoments::new(); dims];
        for &(dim, value) in reports.iter().flatten() {
            welford[dim].push(value);
        }
        // Only the full leading chunks cover every dimension; skip configs
        // where some dimension got no reports.
        if welford.iter().all(|w| w.count() > 0) {
            let sharded = engine.estimated_means().unwrap();
            for (s, w) in sharded.iter().zip(&welford) {
                let l = w.mean();
                prop_assert!((s - l).abs() <= 1e-12, "sharded {s} vs Welford {l}");
            }
        }
    }
}

#[test]
fn empty_engine_reports_empty_dimensions() {
    let engine = IngestEngine::new(3, IngestConfig::new(4, 8).unwrap()).unwrap();
    let merged = engine.merged().unwrap();
    assert_eq!(merged.counts(), &[0, 0, 0]);
    assert_eq!(merged.reports(), 0);
    assert!(matches!(
        engine.estimated_means(),
        Err(ProtocolError::EmptyDimension { dimension: 0 })
    ));
}

#[test]
fn more_shards_than_reports_leaves_idle_shards_harmless() {
    let mut engine = IngestEngine::new(2, IngestConfig::new(16, 4).unwrap()).unwrap();
    ingest_all(&mut engine, &[vec![(0, 1.0), (1, -0.5)], vec![(0, 3.0)]]);
    let loads = engine.shard_loads();
    assert_eq!(loads.len(), 16);
    assert_eq!(loads.iter().sum::<usize>(), 2);
    let merged = engine.merged().unwrap();
    assert_eq!(merged.sums(), &[4.0, -0.5]);
    assert_eq!(merged.counts(), &[2, 1]);
}

#[test]
fn batch_capacity_one_flushes_every_report() {
    let reports: Vec<Vec<(usize, f64)>> = (0..50)
        .map(|user| vec![(0, 0.25), (user % 2, -0.5)])
        .collect();
    let registry = Registry::new();
    let mut tight =
        IngestEngine::with_telemetry(2, IngestConfig::new(3, 1).unwrap(), &registry).unwrap();
    let mut roomy = IngestEngine::new(2, IngestConfig::new(3, 64).unwrap()).unwrap();
    ingest_all(&mut tight, &reports);
    ingest_all(&mut roomy, &reports);
    let flushes = registry.snapshot().counter("ingest_batch_flushes_total");
    assert_eq!(flushes, Some(50));
    assert_eq!(tight.merged().unwrap(), roomy.merged().unwrap());
}

#[test]
fn reports_without_entries_count_as_reports_but_not_samples() {
    let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
    ingest_all(&mut engine, &[vec![], vec![(1, 1.0)]]);
    let merged = engine.merged().unwrap();
    assert_eq!(merged.reports(), 2);
    assert_eq!(merged.counts(), &[0, 1]);
}

/// 1,000 honest users' reports over 3 dimensions, of 0 to 3 entries each,
/// with full-mantissa values.
fn honest_reports() -> Vec<Vec<(usize, f64)>> {
    (0..1000usize)
        .map(|user| {
            (0..user % 4)
                .map(|j| ((user + j) % 3, (0.37 * (user * 4 + j) as f64).sin()))
                .collect()
        })
        .collect()
}

/// An engine over 3 dimensions holding the first 40 honest reports.
fn engine_with_honest_reports(honest: &[Vec<(usize, f64)>]) -> IngestEngine {
    let mut engine = IngestEngine::new(3, IngestConfig::new(3, 16).unwrap()).unwrap();
    ingest_all(&mut engine, &honest[..40]);
    engine
}

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

#[test]
fn ingest_partitioned_rejects_a_non_finite_report_and_leaves_the_engine_untouched() {
    let honest = honest_reports();
    let mut engine = engine_with_honest_reports(&honest);
    let (before, loads) = (engine.merged().unwrap(), engine.shard_loads());
    for bad in NON_FINITE {
        let result = engine.ingest_partitioned(0..honest.len() as u64, |user, out| {
            out.extend_from_slice(&honest[user as usize]);
            if user == 500 {
                out.push((2, bad));
            }
            Ok(())
        });
        assert_eq!(
            result,
            Err(ProtocolError::NonFiniteValue { dimension: 2 }),
            "{bad}"
        );
        assert_eq!(engine.merged().unwrap(), before, "{bad}");
        assert_eq!(engine.shard_loads(), loads, "{bad}");
    }
}

#[test]
fn a_fill_that_clears_its_buffer_fails_the_call_and_leaves_the_engine_untouched() {
    let honest = honest_reports();
    let mut engine = engine_with_honest_reports(&honest);
    let (before, loads) = (engine.merged().unwrap(), engine.shard_loads());
    // Earlier reports of user 500's batch are in the buffer it is handed.
    let result = engine.ingest_partitioned(0..honest.len() as u64, |user, out| {
        if user == 500 {
            out.clear();
        }
        out.extend_from_slice(&honest[user as usize]);
        Ok(())
    });
    assert!(
        matches!(
            result,
            Err(ProtocolError::InvalidConfig { name: "fill", .. })
        ),
        "{result:?}"
    );
    assert_eq!(engine.merged().unwrap(), before);
    assert_eq!(engine.shard_loads(), loads);
}

#[test]
fn ingest_partitioned_counts_every_report_entry_and_flush() {
    let honest = honest_reports();
    // Users send 0 to 3 entries in turn, so no batch nears 4,096 entries
    // and each fills at its report capacity.
    let entries: u64 = honest.iter().map(|report| report.len() as u64).sum();
    assert_eq!(entries, 1_500);
    for shards in [1, 2, 3] {
        let loads = routed_loads(shards, honest.len());
        for capacity in [1, 7, 256] {
            let config = IngestConfig::new(shards, capacity).unwrap();
            let registry = Registry::new();
            let mut engine = IngestEngine::with_telemetry(3, config, &registry).unwrap();
            ingest_all(&mut engine, &honest);

            let at = format!("{shards} shards, capacity {capacity}");
            let snapshot = registry.snapshot();
            let users = honest.len() as u64;
            assert_eq!(
                snapshot.counter("ingest_reports_total"),
                Some(users),
                "{at}"
            );
            assert_eq!(
                snapshot.counter("ingest_entries_total"),
                Some(entries),
                "{at}"
            );
            for (shard, &load) in loads.iter().enumerate() {
                let name = format!("ingest_shard{shard:03}_reports_total");
                assert_eq!(snapshot.counter(&name), Some(load as u64), "{name}, {at}");
            }
            let flushes: u64 = loads
                .iter()
                .map(|&load| load.div_ceil(capacity) as u64)
                .sum();
            assert_eq!(
                snapshot.counter("ingest_batch_flushes_total"),
                Some(flushes),
                "{at}"
            );
            let timed = snapshot
                .histogram("ingest_batch_flush_ns")
                .map_or(0, |h| h.count);
            assert_eq!(timed, flushes.div_ceil(FLUSH_SAMPLE_EVERY), "{at}");
            assert_eq!(engine.shard_loads(), loads, "{at}");
        }
    }
}
