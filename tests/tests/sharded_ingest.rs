//! Cross-crate tests pinning the sharded ingest engine to the single-loop
//! aggregation it replaces: same sums, same counts, same estimated means.
//!
//! The bit-for-bit property tests draw report values from the dyadic grid
//! `k/16` with small `k`, where floating-point addition is exact and therefore
//! order-free — so *any* shard count must reproduce the single-loop result
//! down to the last bit. Arbitrary-float agreement (where only the summation
//! order differs) is covered by a tolerance-based test against Welford
//! running means. On full-mantissa floats, where any change of order or
//! grouping would show, the bulk path must add each shard's reports in user
//! order, entry by entry, for narrow and wide reports alike.
//!
//! Every oracle here is test-local and shares no code with the engine: a
//! plain loop over the reports, the same loop run per shard over the users
//! `ShardRouter` sends there, and Welford running means.
//!
//! The last tests treat reports as untrusted: a report carrying NaN or ±∞
//! fails the bulk call without touching the engine, and only the shards
//! whose walk finished count anything; `fill` is handed an empty buffer for
//! every user; and the telemetry counts equal the reports and entries of the
//! routed workload exactly.

use hdldp_math::RunningMoments;
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

/// Strategy: a report width of 1–8 entries, or a wide one of 300 or 5,000
/// entries, so a worker's one report buffer is reused across widths far
/// apart.
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

    /// On full-mantissa floats, `ingest_partitioned` gives each shard's sum
    /// in user order, entry by entry, added across shards in shard order, for
    /// narrow reports and wide ones alike.
    #[test]
    fn bulk_sums_follow_user_order_within_each_shard(
        dims in 1usize..20,
        widths in proptest::collection::vec(report_width(), 0..30),
        shards in 1usize..5,
        seed in 0..u64::MAX,
    ) {
        let reports = full_mantissa_reports(dims, &widths, seed);
        let bits = |sums: &[f64]| sums.iter().map(|sum| sum.to_bits()).collect::<Vec<_>>();
        let (sums, counts) = shard_serial_sums(dims, shards, &reports);
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, 256).unwrap()).unwrap();
        ingest_all(&mut engine, &reports);
        let merged = engine.merged().unwrap();
        prop_assert_eq!(bits(&merged.sums()), bits(&sums));
        prop_assert_eq!(merged.counts(), counts);
        prop_assert_eq!(merged.reports(), reports.len());
    }

    /// On exact-addition inputs, the sharded engine reproduces the
    /// single-loop sums and counts bit-for-bit for every shard count —
    /// including shard counts far above the report count — and each shard
    /// holds exactly the users routed to it.
    #[test]
    fn sharded_merge_equals_single_loop_bit_for_bit(
        population in (1usize..12).prop_flat_map(|dims| (Just(dims), dyadic_reports(dims))),
        shards in 1usize..20,
    ) {
        let (dims, reports) = population;
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, 256).unwrap()).unwrap();
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
fn a_failed_call_counts_only_the_shards_that_finished() {
    // 1,000 one-entry reports; user 900's value is NaN. Its shard's walk
    // fails and records nothing, every other shard's walk finishes and
    // records its routed load, and the engine itself stays empty. On one
    // shard that leaves every `ingest_*` counter at 0.
    const BAD_USER: u64 = 900;
    let users = 1_000u64;
    for shards in [1, 3] {
        let registry = Registry::new();
        let config = IngestConfig::new(shards, 16).unwrap();
        let mut engine = IngestEngine::with_telemetry(1, config, &registry).unwrap();
        let result = engine.ingest_partitioned(0..users, |user, out| {
            out.push((0, if user == BAD_USER { f64::NAN } else { 0.5 }));
            Ok(())
        });
        assert_eq!(result, Err(ProtocolError::NonFiniteValue { dimension: 0 }));
        assert_eq!(engine.shard_loads(), vec![0; shards], "{shards} shards");

        let snapshot = registry.snapshot();
        let failed = ShardRouter::new(shards).unwrap().route(BAD_USER);
        let loads = routed_loads(shards, users as usize);
        let mut finished = 0;
        for (shard, &load) in loads.iter().enumerate() {
            let expected = if shard == failed { 0 } else { load as u64 };
            let name = format!("ingest_shard{shard:03}_reports_total");
            assert_eq!(
                snapshot.counter(&name),
                Some(expected),
                "{name} of {shards}"
            );
            finished += expected;
        }
        for name in ["ingest_reports_total", "ingest_entries_total"] {
            assert_eq!(snapshot.counter(name), Some(finished), "{name} of {shards}");
        }
        if shards == 1 {
            assert_eq!(finished, 0);
            let counters = snapshot.counters.iter();
            let ingest: Vec<_> = counters.filter(|c| c.name.starts_with("ingest_")).collect();
            assert_eq!(ingest.len(), 4, "{ingest:?}");
            assert!(ingest.iter().all(|c| c.value == 0), "{ingest:?}");
        }
    }
}

#[test]
fn fill_is_handed_an_empty_buffer_for_every_user() {
    let honest = honest_reports();
    let users = 0..honest.len() as u64;
    let config = IngestConfig::new(3, 16).unwrap();
    let mut appending = IngestEngine::new(3, config).unwrap();
    appending
        .ingest_partitioned(users.clone(), |user, out| {
            assert!(out.is_empty(), "user {user} was handed {out:?}");
            out.extend_from_slice(&honest[user as usize]);
            Ok(())
        })
        .unwrap();
    // Clearing the buffer first drops nothing, so it gives the same merge.
    let mut clearing = IngestEngine::new(3, config).unwrap();
    clearing
        .ingest_partitioned(users, |user, out| {
            out.clear();
            out.extend_from_slice(&honest[user as usize]);
            Ok(())
        })
        .unwrap();
    assert_eq!(clearing.merged().unwrap(), appending.merged().unwrap());
    assert_eq!(clearing.shard_loads(), appending.shard_loads());
    assert_eq!(appending.merged().unwrap().reports(), honest.len());
}

#[test]
fn ingest_partitioned_counts_every_report_and_entry() {
    let honest = honest_reports();
    let entries: u64 = honest.iter().map(|report| report.len() as u64).sum();
    assert_eq!(entries, 1_500);
    for shards in [1, 2, 3] {
        let loads = routed_loads(shards, honest.len());
        let registry = Registry::new();
        let config = IngestConfig::new(shards, 16).unwrap();
        let mut engine = IngestEngine::with_telemetry(3, config, &registry).unwrap();
        ingest_all(&mut engine, &honest);

        let snapshot = registry.snapshot();
        let users = honest.len() as u64;
        assert_eq!(
            snapshot.counter("ingest_reports_total"),
            Some(users),
            "{shards} shards"
        );
        assert_eq!(
            snapshot.counter("ingest_entries_total"),
            Some(entries),
            "{shards} shards"
        );
        for (shard, &load) in loads.iter().enumerate() {
            let name = format!("ingest_shard{shard:03}_reports_total");
            assert_eq!(snapshot.counter(&name), Some(load as u64), "{name}");
        }
        assert_eq!(engine.shard_loads(), loads, "{shards} shards");
    }
}
