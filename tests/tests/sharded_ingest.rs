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
//! order, entry by entry, for narrow and wide named reports alike, and for
//! full reports whether they are sent dense (values only, added as one pass
//! over the sums) or as named entries in order or reversed (scattered entry
//! by entry).
//!
//! Every oracle here is test-local and shares no code with the engine: a
//! plain loop over the `(dimension, value)` entries a report stands for, the
//! same loop run per shard over the users `ShardRouter` sends there, and
//! Welford running means.
//!
//! The last tests treat reports as untrusted: a report carrying NaN or ±∞,
//! or whose columns fit neither shape, fails the bulk call without touching
//! the engine, and only the shards whose walk finished count anything;
//! `fill` is handed an empty buffer for every user; and the telemetry counts
//! equal the reports, dense-shape reports and values of the routed workload
//! exactly.

use hdldp_math::RunningMoments;
use hdldp_protocol::{IngestConfig, IngestEngine, ProtocolError, Report, ShardRouter};
use hdldp_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named report of `(dimension, value)` entries.
fn named(entries: &[(usize, f64)]) -> Report {
    let mut report = Report::default();
    for &(dim, value) in entries {
        report.push(dim, value);
    }
    report
}

/// A dense report: value `j` for dimension `j`.
fn dense(values: Vec<f64>) -> Report {
    Report {
        dims: Vec::new(),
        values,
    }
}

/// The `(dimension, value)` entries `report` stands for in a
/// `dims`-dimensional collection: value `j` for dimension `j` when it has no
/// dimension column and one value per dimension, its columns zipped
/// otherwise.
fn entries(dims: usize, report: &Report) -> Vec<(usize, f64)> {
    if report.dims.is_empty() && report.values.len() == dims {
        report.values.iter().copied().enumerate().collect()
    } else {
        report
            .dims
            .iter()
            .copied()
            .zip(report.values.iter().copied())
            .collect()
    }
}

/// Plain single-loop reference: per-dimension sums and counts over `reports`.
fn single_loop_sums(dims: usize, reports: &[Report]) -> (Vec<f64>, Vec<u64>) {
    let mut sums = vec![0.0f64; dims];
    let mut counts = vec![0u64; dims];
    for report in reports {
        for (dim, value) in entries(dims, report) {
            sums[dim] += value;
            counts[dim] += 1;
        }
    }
    (sums, counts)
}

/// Strategy: a population of named reports over `dims` dimensions whose
/// values lie on the dyadic grid `k/16` with `|k| <= 32`, so sums are exact
/// in `f64`.
fn dyadic_reports(dims: usize) -> impl Strategy<Value = Vec<Report>> {
    proptest::collection::vec(
        proptest::collection::vec((0..dims, -32i32..33), 0..6),
        0..40,
    )
    .prop_map(|reports| {
        reports
            .into_iter()
            .map(|entries| {
                let entries: Vec<(usize, f64)> = entries
                    .into_iter()
                    .map(|(dim, k)| (dim, f64::from(k) / 16.0))
                    .collect();
                named(&entries)
            })
            .collect()
    })
}

/// The shape of one drawn report.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// This many named entries on dimensions drawn at random.
    Random(usize),
    /// Every dimension's value in dimension order, sent dense (no dimension
    /// column): the engine adds it in one pass.
    Dense,
    /// The same values as named entries in dimension order: the engine
    /// scatters it.
    InOrder,
    /// The same named entries in reverse order: scattered too.
    Reversed,
}

/// Strategy: a named report of 1–8 random entries, a wide one of 300 or
/// 5,000, so a worker's one report buffer is reused across widths far apart,
/// or a full report, dense or named in order or reversed.
fn report_shape() -> impl Strategy<Value = Shape> {
    (0usize..13).prop_map(|class| match class {
        0..=7 => Shape::Random(class + 1),
        8 => Shape::Random(300),
        9 => Shape::Random(5_000),
        10 => Shape::Dense,
        11 => Shape::InOrder,
        _ => Shape::Reversed,
    })
}

/// Reports of the given shapes over `dims` dimensions, with full-mantissa
/// values in `[-1000, 1000)` from a generator seeded with `seed`, so their
/// sums round and the rounding follows the summation order.
fn full_mantissa_reports(dims: usize, shapes: &[Shape], seed: u64) -> Vec<Report> {
    let mut rng = StdRng::seed_from_u64(seed);
    shapes
        .iter()
        .map(|&shape| {
            let order: Vec<usize> = match shape {
                Shape::Random(width) => (0..width).map(|_| rng.gen_range(0..dims)).collect(),
                Shape::Dense | Shape::InOrder => (0..dims).collect(),
                Shape::Reversed => (0..dims).rev().collect(),
            };
            let entries: Vec<(usize, f64)> = order
                .into_iter()
                .map(|dim| (dim, rng.gen_range(-1.0e3..1.0e3)))
                .collect();
            if shape == Shape::Dense {
                dense(entries.into_iter().map(|(_, value)| value).collect())
            } else {
                named(&entries)
            }
        })
        .collect()
}

/// Whether `report` is a named report that lists every one of `dims`
/// dimensions once, in order.
fn lists_every_dimension_in_order(dims: usize, report: &[(usize, f64)]) -> bool {
    report.len() == dims && report.iter().enumerate().all(|(i, &(dim, _))| dim == i)
}

/// Ingest `reports` into `engine` in one bulk call, user `u` sending
/// `reports[u]`.
fn ingest_all(engine: &mut IngestEngine, reports: &[Report]) {
    engine
        .ingest_partitioned(0..reports.len() as u64, |user, out| {
            let report = &reports[user as usize];
            out.dims.extend_from_slice(&report.dims);
            out.values.extend_from_slice(&report.values);
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
fn shard_serial_sums(dims: usize, shards: usize, reports: &[Report]) -> (Vec<f64>, Vec<u64>) {
    let router = ShardRouter::new(shards).unwrap();
    let mut sums = vec![0.0f64; dims];
    let mut counts = vec![0u64; dims];
    for shard in 0..shards {
        let own: Vec<Report> = (0..reports.len())
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
    /// narrow named reports and wide ones alike, and for full reports sent
    /// dense, named in order or named reversed, mixed in one call.
    #[test]
    fn bulk_sums_follow_user_order_within_each_shard(
        dims in 1usize..20,
        shapes in proptest::collection::vec(report_shape(), 0..30),
        shards in 1usize..5,
        seed in 0..u64::MAX,
    ) {
        let reports = full_mantissa_reports(dims, &shapes, seed);
        let bits = |sums: &[f64]| sums.iter().map(|sum| sum.to_bits()).collect::<Vec<_>>();
        let (sums, counts) = shard_serial_sums(dims, shards, &reports);
        let registry = Registry::new();
        let config = IngestConfig::new(shards, 256).unwrap();
        let mut engine = IngestEngine::with_telemetry(dims, config, &registry).unwrap();
        ingest_all(&mut engine, &reports);
        let merged = engine.merged().unwrap();
        prop_assert_eq!(bits(&merged.sums()), bits(&sums));
        prop_assert_eq!(merged.counts(), counts);
        prop_assert_eq!(merged.reports(), reports.len());
        // Exactly the reports sent dense took the dense path.
        let dense = shapes.iter().filter(|&&shape| shape == Shape::Dense).count();
        prop_assert_eq!(
            registry.snapshot().counter("ingest_dense_reports_total"),
            Some(dense as u64)
        );
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
        // Full chunks are sent dense, the short last one as named entries.
        let reports: Vec<Report> = values
            .chunks(dims)
            .map(|chunk| {
                if chunk.len() == dims {
                    dense(chunk.to_vec())
                } else {
                    let entries: Vec<(usize, f64)> = chunk.iter().copied().enumerate().collect();
                    named(&entries)
                }
            })
            .collect();
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, 4).unwrap()).unwrap();
        ingest_all(&mut engine, &reports);
        let mut welford = vec![RunningMoments::new(); dims];
        for report in &reports {
            for (dim, value) in entries(dims, report) {
                welford[dim].push(value);
            }
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
    ingest_all(
        &mut engine,
        &[named(&[(0, 1.0), (1, -0.5)]), named(&[(0, 3.0)])],
    );
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
    ingest_all(&mut engine, &[named(&[]), named(&[(1, 1.0)])]);
    let merged = engine.merged().unwrap();
    assert_eq!(merged.reports(), 2);
    assert_eq!(merged.counts(), &[0, 1]);
}

/// 1,000 honest users' named reports over 3 dimensions, of 0 to 3 entries
/// each, with full-mantissa values.
fn honest_entries() -> Vec<Vec<(usize, f64)>> {
    (0..1000usize)
        .map(|user| {
            (0..user % 4)
                .map(|j| ((user + j) % 3, (0.37 * (user * 4 + j) as f64).sin()))
                .collect()
        })
        .collect()
}

/// [`honest_entries`] as named reports.
fn honest_reports() -> Vec<Report> {
    honest_entries()
        .iter()
        .map(|entries| named(entries))
        .collect()
}

/// An engine over 3 dimensions holding the first 40 honest reports.
fn engine_with_honest_reports(honest: &[Report], shards: usize) -> IngestEngine {
    let mut engine = IngestEngine::new(3, IngestConfig::new(shards, 16).unwrap()).unwrap();
    ingest_all(&mut engine, &honest[..40]);
    engine
}

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

#[test]
fn ingest_partitioned_rejects_a_non_finite_report_and_leaves_the_engine_untouched() {
    let honest = honest_reports();
    let mut engine = engine_with_honest_reports(&honest, 3);
    let (before, loads) = (engine.merged().unwrap(), engine.shard_loads());
    for bad in NON_FINITE {
        let result = engine.ingest_partitioned(0..honest.len() as u64, |user, out| {
            let report = &honest[user as usize];
            out.dims.extend_from_slice(&report.dims);
            out.values.extend_from_slice(&report.values);
            if user == 500 {
                out.push(2, bad);
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
fn ingest_partitioned_rejects_a_bad_dense_or_malformed_report_and_leaves_the_engine_untouched() {
    // User 500 sends the bad report; every other user an honest one. A
    // dense report with a non-finite value at its first, middle or last
    // position; no dimension column and d - 1 or d + 1 values; columns of
    // different lengths.
    let honest = honest_reports();
    let mut bad_reports = Vec::new();
    for bad in NON_FINITE {
        for at in 0..3 {
            let mut values = vec![0.25, -0.5, 0.75];
            values[at] = bad;
            bad_reports.push((
                dense(values),
                ProtocolError::NonFiniteValue { dimension: at },
            ));
        }
    }
    let malformed = |dimensions, values| ProtocolError::MalformedReport {
        dimensions,
        values,
        dims: 3,
    };
    bad_reports.extend([
        (dense(vec![0.25, -0.5]), malformed(0, 2)),
        (dense(vec![0.25, -0.5, 0.75, 1.0]), malformed(0, 4)),
        (
            Report {
                dims: vec![0, 1],
                values: vec![0.25, -0.5, 0.75],
            },
            malformed(2, 3),
        ),
        (
            Report {
                dims: vec![0, 1, 2],
                values: vec![0.25],
            },
            malformed(3, 1),
        ),
    ]);
    for shards in [1, 3] {
        let mut engine = engine_with_honest_reports(&honest, shards);
        let (before, loads) = (engine.merged().unwrap(), engine.shard_loads());
        for (bad, error) in &bad_reports {
            let result = engine.ingest_partitioned(0..honest.len() as u64, |user, out| {
                let report = if user == 500 {
                    bad
                } else {
                    &honest[user as usize]
                };
                out.dims.extend_from_slice(&report.dims);
                out.values.extend_from_slice(&report.values);
                Ok(())
            });
            let what = format!("{bad:?} on {shards} shards");
            assert_eq!(result.as_ref(), Err(error), "{what}");
            assert_eq!(engine.merged().unwrap(), before, "{what}");
            assert_eq!(engine.shard_loads(), loads, "{what}");
        }
    }
}

#[test]
fn a_failed_call_counts_only_the_shards_that_finished() {
    // 1,000 one-value reports at d = 1, sent as a named entry or dense;
    // user 900's value is NaN. Its shard's walk fails and records nothing,
    // every other shard's walk finishes and records its routed load, and the
    // engine itself stays empty. On one shard that leaves every `ingest_*`
    // counter at 0.
    const BAD_USER: u64 = 900;
    let users = 1_000u64;
    for (shards, send_dense) in [(1, false), (3, false), (1, true), (3, true)] {
        let registry = Registry::new();
        let config = IngestConfig::new(shards, 16).unwrap();
        let mut engine = IngestEngine::with_telemetry(1, config, &registry).unwrap();
        let result = engine.ingest_partitioned(0..users, |user, out| {
            let value = if user == BAD_USER { f64::NAN } else { 0.5 };
            if send_dense {
                out.values.push(value);
            } else {
                out.push(0, value);
            }
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
        let dense = if send_dense { finished } else { 0 };
        for (name, expected) in [
            ("ingest_reports_total", finished),
            ("ingest_dense_reports_total", dense),
            ("ingest_entries_total", finished),
        ] {
            assert_eq!(
                snapshot.counter(name),
                Some(expected),
                "{name} of {shards}, dense {send_dense}"
            );
        }
        if shards == 1 {
            assert_eq!(finished, 0);
            let counters = snapshot.counters.iter();
            let ingest: Vec<_> = counters.filter(|c| c.name.starts_with("ingest_")).collect();
            assert_eq!(ingest.len(), 5, "{ingest:?}");
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
            assert!(
                out.dims.is_empty() && out.values.is_empty(),
                "user {user} was handed {out:?}"
            );
            let report = &honest[user as usize];
            out.dims.extend_from_slice(&report.dims);
            out.values.extend_from_slice(&report.values);
            Ok(())
        })
        .unwrap();
    // Clearing the buffer first drops nothing, so it gives the same merge.
    let mut clearing = IngestEngine::new(3, config).unwrap();
    clearing
        .ingest_partitioned(users, |user, out| {
            out.clear();
            let report = &honest[user as usize];
            out.dims.extend_from_slice(&report.dims);
            out.values.extend_from_slice(&report.values);
            Ok(())
        })
        .unwrap();
    assert_eq!(clearing.merged().unwrap(), appending.merged().unwrap());
    assert_eq!(clearing.shard_loads(), appending.shard_loads());
    assert_eq!(appending.merged().unwrap().reports(), honest.len());
}

#[test]
fn ingest_partitioned_counts_every_report_and_entry() {
    // Users 3, 15, 27, … report dimensions 0, 1, 2 in order: they send
    // their three values dense, every other user named entries.
    let honest: Vec<Report> = honest_entries()
        .iter()
        .map(|entries| {
            if lists_every_dimension_in_order(3, entries) {
                dense(entries.iter().map(|&(_, value)| value).collect())
            } else {
                named(entries)
            }
        })
        .collect();
    let entries: u64 = honest.iter().map(|report| report.values.len() as u64).sum();
    assert_eq!(entries, 1_500);
    let dense = honest
        .iter()
        .filter(|report| report.dims.is_empty() && report.values.len() == 3)
        .count();
    assert_eq!(dense, 84);
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
            snapshot.counter("ingest_dense_reports_total"),
            Some(dense as u64),
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
