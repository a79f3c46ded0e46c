//! Hash-based shard routing and per-shard partial-sum accumulators.
//!
//! The paper's setting (Section III-B) is an aggregator collecting perturbed
//! reports from a very large user population. At that scale the collector
//! cannot funnel every report through one accumulator: ingest is partitioned
//! into *shards*. Each report is routed to a shard by hashing its user id
//! ([`ShardRouter`]), every shard keeps per-dimension **partial sums and
//! counts** ([`ShardAccumulator`]), and the estimated mean
//! `θ̂_j = (1/r_j) Σ_i t*_ij` is recovered *on read* by merging the shard
//! partials — the sum of per-shard sums equals the global sum, so sharding is
//! lossless for the naive aggregation the paper analyzes.
//!
//! [`crate::IngestEngine`] combines these pieces into the collector's one
//! ingest path; this module holds the two building blocks, and the
//! accumulator's one step that checks a report and adds it.

use crate::report::{check_entries, first_non_finite, non_finite_word};
use crate::{ProtocolError, Report};

/// Routes reports to shards by hashing user ids.
///
/// The route is a pure function of `(user id, shard count)` — independent of
/// arrival order and thread scheduling — so a sharded run is exactly
/// reproducible. Mixing uses the SplitMix64 finalizer, which spreads even
/// sequential user ids uniformly across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Create a router over `shards` shards.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `shards` is zero.
    pub fn new(shards: usize) -> crate::Result<Self> {
        if shards == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "shards",
                reason: "shard count must be positive".into(),
            });
        }
        Ok(Self { shards })
    }

    /// The number of shards this router spreads reports over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a user's reports are routed to (stable across runs).
    pub fn route(&self, user_id: u64) -> usize {
        // Routing is the identity with one shard; skip the hash entirely so
        // the unsharded engine pays nothing for the routing layer.
        if self.shards == 1 {
            return 0;
        }
        // SplitMix64 finalizer: full-avalanche mixing of the user id.
        let mut z = user_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Multiply-shift range reduction: maps the mixed hash uniformly onto
        // `0..shards` with one widening multiply, keeping the per-report
        // routing cost off the hardware-divide path that `z % shards` takes.
        ((z as u128 * self.shards as u128) >> 64) as usize
    }
}

/// One shard's partial aggregation state: per-dimension sums and counts.
///
/// A shard accumulator stores only what the naive estimator needs —
/// `Σ t*_ij` and `r_j` per dimension — as two flat arrays (16 bytes per
/// dimension) and one count of **dense** reports ([`crate::Report`]: no
/// dimension column, value `j` for dimension `j`). A dense report raises
/// every `r_j` by exactly one, so it is added as one streaming pass over the
/// sums, with no count store; a named report is scattered entry by entry
/// into sums and counts. On read, [`counts`] folds the dense count into every
/// `r_j`, so each sum receives the same values in the same order, and each
/// count the same total, whichever shape a report was sent in. Reports reach
/// the accumulator only through [`crate::IngestEngine`], whose one step per
/// report checks it and adds it. Partial accumulators from different shards
/// [`merge`] exactly: per-dimension sums and counts add componentwise.
///
/// Two accumulators are equal when they hold the same sums, counts and
/// report count, whichever shape their reports were sent in.
///
/// [`counts`]: ShardAccumulator::counts
/// [`merge`]: ShardAccumulator::merge
#[derive(Debug, Clone)]
pub struct ShardAccumulator {
    sums: Vec<f64>,
    /// Per-dimension counts of the named reports' entries.
    counts: Vec<u64>,
    /// Dense reports, each counted once in every dimension.
    dense_reports: u64,
    reports: usize,
}

impl ShardAccumulator {
    /// Create an empty accumulator for `dims` dimensions.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` is zero.
    pub fn new(dims: usize) -> crate::Result<Self> {
        if dims == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: "dimensionality must be positive".into(),
            });
        }
        Ok(Self {
            sums: vec![0.0; dims],
            counts: vec![0; dims],
            dense_reports: 0,
            reports: 0,
        })
    }

    /// The configured dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.sums.len()
    }

    /// Number of reports accumulated into this shard.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Number of those reports that were sent in the dense shape.
    pub(crate) fn dense_reports(&self) -> u64 {
        self.dense_reports
    }

    /// Per-dimension partial sums `Σ t*_ij` over this shard's reports.
    pub fn sums(&self) -> Vec<f64> {
        self.sums.clone()
    }

    /// Per-dimension report counts `r_j` over this shard's reports (each
    /// dimension's named-entry count plus the dense reports; a read-path
    /// cost only).
    pub fn counts(&self) -> Vec<u64> {
        self.dim_counts().collect()
    }

    /// Each dimension's `r_j`: its named-entry count plus every dense report.
    fn dim_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter().map(|&count| count + self.dense_reports)
    }

    /// Check one report and add it: the collector's one step per report,
    /// one branch per shape.
    ///
    /// * A **dense** report (no dimension column, exactly `d` values) is one
    ///   pass `sums[j] += v_j` that also ORs each value's finiteness bit;
    ///   the dense count, which every `r_j` includes, rises by one.
    /// * A **named** report (one dimension per value) is scanned for a
    ///   dimension `>= d` or a non-finite value first, and only then
    ///   scattered: each value goes to its dimension's sum and one to its
    ///   count, in entry order.
    ///
    /// Either way the report count rises by one.
    ///
    /// The fused dense pass is sound only because of how a failed call ends.
    /// It adds a report's values before it sees their finiteness bit, so when
    /// it fails, this accumulator already holds part of the rejected report.
    /// The accumulator is an ingest worker's own partial for one call:
    /// [`crate::IngestEngine::ingest_partitioned`] drops it, merges nothing
    /// when any shard fails, and records no `ingest_*` count for that shard.
    /// So no value of a rejected report reaches an estimate. A named report
    /// is rejected before anything of it is added.
    ///
    /// # Errors
    /// [`ProtocolError::MalformedReport`] for a report of neither shape;
    /// [`ProtocolError::NonFiniteValue`] for a NaN or infinite value and
    /// [`ProtocolError::DimensionOutOfRange`] for a named dimension `>= d`,
    /// each naming the first bad entry.
    // Out of line: inlined into the engine's monomorphised worker closure,
    // the scatter loop alone once cost `heavy_hitters` about 7% of its
    // items/s. With a dense add beside it (before the check was fused into
    // the add), `heavy_hitters` read the same either way (2.190M items/s out
    // of line, 2.186M inlined: medians of 5 alternating 30-s perfbench pairs,
    // 2 vCPUs), so nothing argues for inlining the loops.
    #[inline(never)]
    pub(crate) fn add_report(&mut self, report: &Report) -> crate::Result<()> {
        let (dims, values) = (&report.dims, &report.values);
        if dims.is_empty() && values.len() == self.sums.len() {
            let mut non_finite = 0u64;
            for (sum, &value) in self.sums.iter_mut().zip(values) {
                *sum += value;
                non_finite |= non_finite_word(value);
            }
            if non_finite >> 63 != 0 {
                return first_non_finite(values);
            }
            self.dense_reports += 1;
        } else if dims.len() == values.len() {
            check_entries(dims, values, self.sums.len())?;
            // The check put every dimension below `d`, so `get_mut` never
            // misses; it keeps the loop free of a panic path.
            for (&dim, &value) in dims.iter().zip(values) {
                if let (Some(sum), Some(count)) = (self.sums.get_mut(dim), self.counts.get_mut(dim))
                {
                    *sum += value;
                    *count += 1;
                }
            }
        } else {
            return Err(ProtocolError::MalformedReport {
                dimensions: dims.len(),
                values: values.len(),
                dims: self.sums.len(),
            });
        }
        self.reports += 1;
        Ok(())
    }

    /// Merge another shard's partials into this one (exact: sums and counts
    /// add componentwise).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the dimensionalities
    /// differ.
    pub fn merge(&mut self, other: &ShardAccumulator) -> crate::Result<()> {
        if other.dims() != self.dims() {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: format!(
                    "cannot merge shard accumulators of {} and {} dims",
                    self.dims(),
                    other.dims()
                ),
            });
        }
        for (mine, theirs) in self.sums.iter_mut().zip(&other.sums) {
            *mine += theirs;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.dense_reports += other.dense_reports;
        self.reports += other.reports;
        Ok(())
    }

    /// The naive estimated mean `θ̂_j = sums[j] / counts[j]` per dimension.
    ///
    /// # Errors
    /// Returns [`ProtocolError::EmptyDimension`] if any dimension received no
    /// reports (its mean is undefined).
    pub fn means(&self) -> crate::Result<Vec<f64>> {
        self.sums
            .iter()
            .zip(self.dim_counts())
            .enumerate()
            .map(|(j, (&sum, count))| {
                if count == 0 {
                    Err(ProtocolError::EmptyDimension { dimension: j })
                } else {
                    Ok(sum / count as f64)
                }
            })
            .collect()
    }
}

impl PartialEq for ShardAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.reports == other.reports
            && self.sums == other.sums
            && self.dim_counts().eq(other.dim_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A named report of `(dimension, value)` entries.
    fn named(entries: &[(usize, f64)]) -> Report {
        let mut report = Report::default();
        for &(dim, value) in entries {
            report.push(dim, value);
        }
        report
    }

    /// A dense report of `values`.
    fn dense(values: &[f64]) -> Report {
        Report {
            dims: Vec::new(),
            values: values.to_vec(),
        }
    }

    /// An accumulator over `dims` dimensions after `add_report` on each of
    /// `reports`, with the result of each add.
    fn accumulated(dims: usize, reports: &[Report]) -> (ShardAccumulator, Vec<crate::Result<()>>) {
        let mut acc = ShardAccumulator::new(dims).unwrap();
        let checked = reports
            .iter()
            .map(|report| acc.add_report(report))
            .collect();
        (acc, checked)
    }

    #[test]
    fn router_requires_positive_shard_count() {
        assert!(ShardRouter::new(0).is_err());
        assert_eq!(ShardRouter::new(5).unwrap().shards(), 5);
    }

    #[test]
    fn router_is_stable_and_in_range() {
        let router = ShardRouter::new(7).unwrap();
        for uid in 0..1000u64 {
            let s = router.route(uid);
            assert!(s < 7);
            assert_eq!(s, router.route(uid), "route must be deterministic");
        }
    }

    #[test]
    fn router_spreads_sequential_ids_roughly_evenly() {
        let shards = 8;
        let router = ShardRouter::new(shards).unwrap();
        let mut loads = vec![0usize; shards];
        for uid in 0..8000u64 {
            loads[router.route(uid)] += 1;
        }
        for (s, &load) in loads.iter().enumerate() {
            // Perfect balance is 1000 per shard; allow a generous band.
            assert!((700..=1300).contains(&load), "shard {s} got {load}");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1).unwrap();
        assert!((0..100u64).all(|uid| router.route(uid) == 0));
    }

    #[test]
    fn accumulator_requires_positive_dims() {
        assert!(ShardAccumulator::new(0).is_err());
        let acc = ShardAccumulator::new(3).unwrap();
        assert_eq!(acc.dims(), 3);
        assert_eq!(acc.reports(), 0);
    }

    #[test]
    fn accumulate_tracks_sums_and_counts() {
        let (acc, _) = accumulated(
            3,
            &[named(&[(0, 1.0), (2, -1.0)]), named(&[(0, 3.0), (1, 0.5)])],
        );
        assert_eq!(acc.reports(), 2);
        assert_eq!(acc.sums(), &[4.0, 0.5, -1.0]);
        assert_eq!(acc.counts(), &[2, 1, 1]);
        assert_eq!(acc.means().unwrap(), vec![2.0, 0.5, -1.0]);
    }

    #[test]
    fn out_of_range_dimension_is_rejected_atomically() {
        let (acc, checked) = accumulated(2, &[named(&[(0, 1.0), (5, 1.0)])]);
        assert!(checked[0].is_err());
        assert_eq!(acc.reports(), 0);
        assert_eq!(acc.sums(), &[0.0, 0.0]);
        assert_eq!(acc.counts(), &[0, 0]);
    }

    #[test]
    fn non_finite_value_is_rejected_atomically() {
        // A named report is checked before any of it is added.
        let (before, _) = accumulated(2, &[named(&[(0, 1.0)])]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (acc, checked) =
                accumulated(2, &[named(&[(0, 1.0)]), named(&[(1, 2.0), (0, bad)])]);
            assert_eq!(
                checked[1],
                Err(ProtocolError::NonFiniteValue { dimension: 0 })
            );
            assert_eq!(acc, before);
        }
    }

    #[test]
    fn a_dense_report_with_a_non_finite_value_is_rejected_and_not_counted() {
        // The fused pass names the first bad value's dimension and counts
        // nothing; the engine drops the partial it added to.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 2, 4] {
                let mut values = vec![0.5; 5];
                values[at] = bad;
                values[4] = if at == 4 { bad } else { f64::NAN };
                let (acc, checked) = accumulated(5, &[dense(&values)]);
                assert_eq!(
                    checked[0],
                    Err(ProtocolError::NonFiniteValue { dimension: at }),
                    "{bad} at {at}"
                );
                assert_eq!(acc.reports(), 0);
                assert_eq!(acc.dense_reports(), 0);
                assert_eq!(acc.counts(), &[0; 5]);
            }
        }
    }

    #[test]
    fn every_other_shape_is_malformed() {
        let malformed = |dimensions, values| {
            Err(ProtocolError::MalformedReport {
                dimensions,
                values,
                dims: 3,
            })
        };
        // No dimension column and d - 1 or d + 1 values; columns of
        // different lengths; a dimension without a value.
        let reports = [
            dense(&[1.0, 2.0]),
            dense(&[1.0, 2.0, 3.0, 4.0]),
            Report {
                dims: vec![0, 1],
                values: vec![1.0, 2.0, 3.0],
            },
            Report {
                dims: vec![0, 1, 2],
                values: vec![1.0, 2.0],
            },
            Report {
                dims: vec![0],
                values: Vec::new(),
            },
        ];
        let expected = [
            malformed(0, 2),
            malformed(0, 4),
            malformed(2, 3),
            malformed(3, 2),
            malformed(1, 0),
        ];
        let (acc, checked) = accumulated(3, &reports);
        assert_eq!(checked, expected);
        assert_eq!(acc, ShardAccumulator::new(3).unwrap());
        // No dimension column and no value is the empty named report.
        let (empty, checked) = accumulated(3, &[Report::default()]);
        assert_eq!(checked, [Ok(())]);
        assert_eq!(empty.reports(), 1);
        assert_eq!(empty.counts(), &[0, 0, 0]);
    }

    #[test]
    fn empty_dimension_is_an_error() {
        let (acc, _) = accumulated(2, &[named(&[(0, 1.0)])]);
        assert!(matches!(
            acc.means(),
            Err(ProtocolError::EmptyDimension { dimension: 1 })
        ));
    }

    #[test]
    fn merge_adds_partials_exactly() {
        let (mut a, _) = accumulated(2, &[named(&[(0, 1.0), (1, 2.0)])]);
        let (b, _) = accumulated(2, &[named(&[(0, 3.0)]), named(&[(1, 4.0)])]);
        a.merge(&b).unwrap();
        assert_eq!(a.reports(), 3);
        assert_eq!(a.sums(), &[4.0, 6.0]);
        assert_eq!(a.counts(), &[2, 2]);
        assert_eq!(a.means().unwrap(), vec![2.0, 3.0]);
        let wrong = ShardAccumulator::new(3).unwrap();
        assert!(a.merge(&wrong).is_err());
    }

    #[test]
    fn dense_reports_count_in_every_dimension() {
        let full = dense(&[1.0, 2.0, 3.0]);
        let (dense, _) = accumulated(3, &[full.clone(), full]);
        assert_eq!(dense.dense_reports(), 2);
        assert_eq!(dense.counts(), &[2, 2, 2]);
        assert_eq!(dense.means().unwrap(), vec![1.0, 2.0, 3.0]);
        // The same values as named entries, in order or reversed, are
        // scattered and hold the same sums and counts, so the accumulators
        // are equal.
        for entries in [
            [(0, 1.0), (1, 2.0), (2, 3.0)],
            [(2, 3.0), (1, 2.0), (0, 1.0)],
        ] {
            let (sparse, _) = accumulated(3, &[named(&entries), named(&entries)]);
            assert_eq!(sparse.dense_reports(), 0);
            assert_eq!(sparse, dense);
        }

        // A dense-only and a sparse-only accumulator merge to the summed
        // counts, in either direction.
        let (scattered, _) = accumulated(3, &[named(&[(0, 4.0)]), named(&[(2, -1.0), (0, 2.0)])]);
        for (mut merged, other) in [(dense.clone(), &scattered), (scattered.clone(), &dense)] {
            merged.merge(other).unwrap();
            assert_eq!(merged.reports(), 4);
            assert_eq!(merged.dense_reports(), 2);
            assert_eq!(merged.counts(), &[4, 2, 3]);
            assert_eq!(merged.sums(), &[8.0, 4.0, 5.0]);
            assert_eq!(merged.means().unwrap(), vec![2.0, 2.0, 5.0 / 3.0]);
        }

        // Dense reports fill every dimension, so only a dimension that no
        // report touched is empty.
        let (untouched, _) = accumulated(3, &[named(&[(0, 4.0)]), named(&[(2, -1.0)])]);
        assert!(matches!(
            untouched.means(),
            Err(ProtocolError::EmptyDimension { dimension: 1 })
        ));
        let mut filled = untouched.clone();
        filled.merge(&dense).unwrap();
        assert_eq!(filled.counts(), &[3, 2, 3]);
        assert!(filled.means().is_ok());
    }
}
