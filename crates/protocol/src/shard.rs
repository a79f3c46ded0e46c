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
//! [`crate::IngestEngine`] combines these pieces with a per-report check
//! into the collector's one ingest path; this module holds the two building
//! blocks.

use crate::ProtocolError;

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

/// One dimension's partial state: `Σ t*_ij` and the report count `r_j`.
///
/// Sum and count live side by side (16 bytes) so the accumulate hot loop
/// touches a single cache line per entry instead of two parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DimPartial {
    sum: f64,
    count: u64,
}

impl DimPartial {
    const ZERO: Self = Self { sum: 0.0, count: 0 };
}

/// One shard's partial aggregation state: per-dimension sums and counts.
///
/// A shard accumulator stores only what the naive estimator needs —
/// `Σ t*_ij` and `r_j` per dimension — in one flat array of
/// sum/count pairs, so the accumulate loop is one indexed read-modify-write
/// per entry with no per-report allocation. Reports reach it only through
/// the engine, which checks each one before adding it. Partial accumulators
/// from different shards [`merge`] exactly: per-dimension sums and counts
/// add componentwise.
///
/// [`merge`]: ShardAccumulator::merge
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAccumulator {
    partials: Vec<DimPartial>,
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
            partials: vec![DimPartial::ZERO; dims],
            reports: 0,
        })
    }

    /// The configured dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.partials.len()
    }

    /// Number of reports accumulated into this shard.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Per-dimension partial sums `Σ t*_ij` over this shard's reports
    /// (materialized from the interleaved storage; a read-path cost only).
    pub fn sums(&self) -> Vec<f64> {
        self.partials.iter().map(|p| p.sum).collect()
    }

    /// Per-dimension report counts `r_j` over this shard's reports
    /// (materialized from the interleaved storage; a read-path cost only).
    pub fn counts(&self) -> Vec<u64> {
        self.partials.iter().map(|p| p.count).collect()
    }

    /// Add one report: each entry's value to its dimension's sum and one to
    /// its count, in entry order, and one to the report count. The engine
    /// checks the report against `dims` first, so every dimension is below
    /// `dims` and `get_mut` never misses; it keeps the loop free of a panic
    /// path.
    // Out of line on purpose: inlined into the engine's monomorphised worker
    // closure, this loop cost `heavy_hitters` about 7% of its items/s
    // (median of 5 alternating 30-s perfbench runs per build, 2 vCPUs).
    #[inline(never)]
    pub(crate) fn add_report(&mut self, entries: &[(usize, f64)]) {
        for &(dim, value) in entries {
            if let Some(partial) = self.partials.get_mut(dim) {
                partial.sum += value;
                partial.count += 1;
            }
        }
        self.reports += 1;
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
        for (mine, theirs) in self.partials.iter_mut().zip(&other.partials) {
            mine.sum += theirs.sum;
            mine.count += theirs.count;
        }
        self.reports += other.reports;
        Ok(())
    }

    /// The naive estimated mean `θ̂_j = sums[j] / counts[j]` per dimension.
    ///
    /// # Errors
    /// Returns [`ProtocolError::EmptyDimension`] if any dimension received no
    /// reports (its mean is undefined).
    pub fn means(&self) -> crate::Result<Vec<f64>> {
        self.partials
            .iter()
            .enumerate()
            .map(|(j, partial)| {
                if partial.count == 0 {
                    Err(ProtocolError::EmptyDimension { dimension: j })
                } else {
                    Ok(partial.sum / partial.count as f64)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::check_entries;

    /// An accumulator over `dims` dimensions holding those of `reports` that
    /// pass the engine's check, each checked and added as the engine does;
    /// returns the check results alongside.
    fn accumulated(
        dims: usize,
        reports: &[&[(usize, f64)]],
    ) -> (ShardAccumulator, Vec<crate::Result<()>>) {
        let mut acc = ShardAccumulator::new(dims).unwrap();
        let checked = reports
            .iter()
            .map(|entries| {
                check_entries(entries, dims)?;
                acc.add_report(entries);
                Ok(())
            })
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
        let (acc, _) = accumulated(3, &[&[(0, 1.0), (2, -1.0)], &[(0, 3.0), (1, 0.5)]]);
        assert_eq!(acc.reports(), 2);
        assert_eq!(acc.sums(), &[4.0, 0.5, -1.0]);
        assert_eq!(acc.counts(), &[2, 1, 1]);
        assert_eq!(acc.means().unwrap(), vec![2.0, 0.5, -1.0]);
    }

    #[test]
    fn out_of_range_dimension_is_rejected_atomically() {
        let (acc, checked) = accumulated(2, &[&[(0, 1.0), (5, 1.0)]]);
        assert!(checked[0].is_err());
        assert_eq!(acc.reports(), 0);
        assert_eq!(acc.sums(), &[0.0, 0.0]);
        assert_eq!(acc.counts(), &[0, 0]);
    }

    #[test]
    fn non_finite_value_is_rejected_atomically() {
        let (before, _) = accumulated(2, &[&[(0, 1.0)]]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (acc, checked) = accumulated(2, &[&[(0, 1.0)], &[(1, 2.0), (0, bad)]]);
            assert_eq!(
                checked[1],
                Err(ProtocolError::NonFiniteValue { dimension: 0 })
            );
            assert_eq!(acc, before);
        }
    }

    #[test]
    fn empty_dimension_is_an_error() {
        let (acc, _) = accumulated(2, &[&[(0, 1.0)]]);
        assert!(matches!(
            acc.means(),
            Err(ProtocolError::EmptyDimension { dimension: 1 })
        ));
    }

    #[test]
    fn merge_adds_partials_exactly() {
        let (mut a, _) = accumulated(2, &[&[(0, 1.0), (1, 2.0)]]);
        let (b, _) = accumulated(2, &[&[(0, 3.0)], &[(1, 4.0)]]);
        a.merge(&b).unwrap();
        assert_eq!(a.reports(), 3);
        assert_eq!(a.sums(), &[4.0, 6.0]);
        assert_eq!(a.counts(), &[2, 2]);
        assert_eq!(a.means().unwrap(), vec![2.0, 3.0]);
        let wrong = ShardAccumulator::new(3).unwrap();
        assert!(a.merge(&wrong).is_err());
    }
}
