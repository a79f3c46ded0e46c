//! The sharded ingest engine: the collector-side path that scales the
//! paper's aggregation to millions of users.
//!
//! This module is the collector's one aggregation path, the calibration +
//! aggregation phase of Section IV-B. Mean estimation
//! ([`crate::MeanEstimationPipeline`]), frequency estimation
//! ([`crate::FrequencyPipeline`], over a flat `(dimension, category)` index)
//! and the categorical workloads all run on it, and a report enters it one
//! way only, through [`IngestEngine::ingest_partitioned`]. It is built on
//! two pieces:
//!
//! * [`crate::ShardRouter`] — hash-partitions reports across shards by user
//!   id, independent of arrival order and thread count.
//! * [`crate::ShardAccumulator`] — per-shard partial sums/counts per
//!   dimension, merged **on read**.
//!
//! The collector treats every report as untrusted. Each shard worker has one
//! reusable report buffer, a flat array of `(usize dimension, f64 perturbed
//! value)` entries, the type [`crate::Client`] and `Mechanism::perturb_entries`
//! write. A user's report is written there, checked with one branch-free scan
//! that rejects an entry naming a dimension `>= d` or carrying a NaN or
//! infinite value, and added straight to the worker's shard sums; a rejected
//! report fails the call and leaves the engine untouched. A report is written
//! once, checked once and never copied, and once the buffer has grown to the
//! widest report, the walk allocates nothing.
//!
//! The resulting [`IngestEngine`] produces the same estimated means as a
//! single loop over the reports, up to the floating-point rounding of the
//! summation order (the integration tests assert bit-for-bit equality on
//! inputs where addition is exact), while the hot loop is two indexed adds
//! per entry, shard-local and allocation-free.
//!
//! ```
//! use hdldp_protocol::{IngestConfig, IngestEngine};
//!
//! let reports = [vec![(0, 0.5), (3, -1.0)], vec![(1, 1.0), (2, 0.0)]];
//! let mut engine = IngestEngine::new(4, IngestConfig::new(8, 256).unwrap()).unwrap();
//! engine
//!     .ingest_partitioned(0..2, |user, out| {
//!         out.extend_from_slice(&reports[user as usize]);
//!         Ok(())
//!     })
//!     .unwrap();
//! let merged = engine.merged().unwrap();
//! assert_eq!(merged.reports(), 2);
//! assert_eq!(merged.counts(), &[1, 1, 1, 1]);
//! ```

use crate::report::check_entries;
use crate::shard::{ShardAccumulator, ShardRouter};
use crate::telemetry::IngestMetrics;
use crate::ProtocolError;
use hdldp_telemetry::Registry;
use rayon::prelude::*;
use std::ops::Range;

/// Configuration of an [`IngestEngine`]: its shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    shards: usize,
}

impl IngestConfig {
    /// 4 shards: the one configuration of the categorical collectors,
    /// [`crate::FrequencyPipeline`] and the workloads' oracle pipeline. The
    /// floating-point sums follow the shard count, so a fixed count gives
    /// their estimates the same bits on every host, whatever its CPU count.
    /// Once the sums no longer depend on summation order, these collectors
    /// can follow the thread count like [`per_thread`](Self::per_thread).
    pub const PINNED: Self = Self { shards: 4 };

    /// Create a config with `shards` shards.
    ///
    /// `_batch_capacity` is ignored and not validated: each worker adds a
    /// report to its shard's sums as soon as the report is checked, so there
    /// is no batch to size. The argument stays because the end-to-end
    /// benchmark (`perfbench/`), which changes only in benchmark-only
    /// changes, still passes it.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `shards` is zero.
    pub fn new(shards: usize, _batch_capacity: usize) -> crate::Result<Self> {
        if shards == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "shards",
                reason: "shard count must be positive".into(),
            });
        }
        Ok(Self { shards })
    }

    /// One shard per available worker thread.
    pub fn per_thread() -> Self {
        Self {
            shards: rayon::current_num_threads().max(1),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// The sharded ingest engine.
///
/// Reports enter in bulk through
/// [`ingest_partitioned`](IngestEngine::ingest_partitioned): each shard
/// processes exactly the users that hash to it, in parallel, adding each
/// checked report straight to its own partial sums — no locks, no
/// cross-shard traffic. The engine holds only its shard accumulators, and
/// estimates are produced by **merge-on-read**:
/// [`merged`](IngestEngine::merged) folds the per-shard partials into one
/// accumulator without disturbing ingest state.
///
/// Each shard adds its reports in increasing user-id order, so for a fixed
/// shard count the engine's state is a pure function of the ingested
/// reports — independent of thread count and scheduling.
///
/// Engines built with [`IngestEngine::with_telemetry`] record runtime metrics
/// (reports, entries and per-shard load, plus merge latency) into the given
/// [`Registry`] once per shard per call, when the shard's walk finishes, so
/// the per-report path performs no atomic traffic. [`IngestEngine::new`] wires the engine to a
/// disabled registry, which reduces every recording site to one branch.
#[derive(Debug, Clone)]
pub struct IngestEngine {
    dims: usize,
    router: ShardRouter,
    shards: Vec<ShardAccumulator>,
    metrics: IngestMetrics,
}

impl IngestEngine {
    /// Create an engine for `dims`-dimensional reports with telemetry
    /// disabled (equivalent to [`IngestEngine::with_telemetry`] against
    /// [`Registry::disabled`]).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` is zero.
    pub fn new(dims: usize, config: IngestConfig) -> crate::Result<Self> {
        Self::with_telemetry(dims, config, &Registry::disabled())
    }

    /// Create an engine that records runtime metrics into `registry` (see the
    /// metric table in [`crate::telemetry`]).
    ///
    /// # Errors
    /// Same conditions as [`IngestEngine::new`].
    pub fn with_telemetry(
        dims: usize,
        config: IngestConfig,
        registry: &Registry,
    ) -> crate::Result<Self> {
        let router = ShardRouter::new(config.shards())?;
        let shards = (0..config.shards())
            .map(|_| ShardAccumulator::new(dims))
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(Self {
            dims,
            router,
            shards,
            metrics: IngestMetrics::register(registry, config.shards()),
        })
    }

    /// Reports per shard, for load inspection.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(ShardAccumulator::reports).collect()
    }

    /// Bulk-ingest the user range `users` in parallel, one worker per shard:
    /// the one way a report enters the engine.
    ///
    /// `fill` appends user `u`'s report, its `(dimension, value)` entries, to
    /// the empty buffer it is handed. Each report is then checked with one
    /// branch-free scan (every dimension below `d`, every value finite) and
    /// added to its shard's sums, entry by entry.
    ///
    /// Each shard's worker walks the whole range but generates reports only
    /// for the users that hash to it, in increasing id order, so reports stay
    /// shard-local: no locks, no cross-thread report traffic. A worker that
    /// finishes its walk records its shard's reports and entries in the
    /// telemetry counters once; a worker whose walk fails records nothing.
    ///
    /// # Errors
    /// Propagates the first error of `fill`; returns
    /// [`ProtocolError::DimensionOutOfRange`] or
    /// [`ProtocolError::NonFiniteValue`] for a rejected report. The engine's
    /// reports and sums are untouched when any shard fails.
    pub fn ingest_partitioned<F>(&mut self, users: Range<u64>, fill: F) -> crate::Result<()>
    where
        F: Fn(u64, &mut Vec<(usize, f64)>) -> crate::Result<()> + Sync,
    {
        let dims = self.dims;
        let router = self.router;
        let metrics = &self.metrics;

        let partials: Vec<crate::Result<ShardAccumulator>> = (0..self.shards.len())
            .into_par_iter()
            .map(|shard| {
                let mut acc = ShardAccumulator::new(dims)?;
                let mut report = Vec::new();
                let mut entries = 0;
                for user_id in users.clone() {
                    if router.route(user_id) != shard {
                        continue;
                    }
                    report.clear();
                    fill(user_id, &mut report)?;
                    check_entries(&report, dims)?;
                    acc.add_report(&report);
                    entries += report.len();
                }
                metrics.record_shard(shard, acc.reports(), entries);
                Ok(acc)
            })
            .collect();

        // Only merge once every shard succeeded, so a failed bulk ingest
        // leaves the engine exactly as it was.
        let partials = partials.into_iter().collect::<crate::Result<Vec<_>>>()?;
        for (shard, partial) in self.shards.iter_mut().zip(&partials) {
            shard.merge(partial)?;
        }
        Ok(())
    }

    /// Merge-on-read: fold every shard's partials into one accumulator,
    /// adding the shards in shard order, and leave ingest state untouched.
    ///
    /// # Errors
    /// Propagates accumulator errors (impossible for a well-formed engine).
    pub fn merged(&self) -> crate::Result<ShardAccumulator> {
        self.metrics.merges.inc();
        let _timer = self.metrics.merge_ns.start();
        let mut total = ShardAccumulator::new(self.dims)?;
        for shard in &self.shards {
            total.merge(shard)?;
        }
        Ok(total)
    }

    /// The naive estimated mean `θ̂` per dimension over all shards.
    ///
    /// # Errors
    /// Returns [`ProtocolError::EmptyDimension`] if any dimension received no
    /// reports.
    pub fn estimated_means(&self) -> crate::Result<Vec<f64>> {
        self.merged()?.means()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ingest `reports` into `engine`, user `u` sending `reports[u]`.
    fn ingest(engine: &mut IngestEngine, reports: &[Vec<(usize, f64)>]) -> crate::Result<()> {
        engine.ingest_partitioned(0..reports.len() as u64, |user, out| {
            out.extend_from_slice(&reports[user as usize]);
            Ok(())
        })
    }

    #[test]
    fn config_validates_and_defaults() {
        assert!(IngestConfig::new(0, 1).is_err());
        let config = IngestConfig::new(4, 16).unwrap();
        assert_eq!(config.shards(), 4);
        // The batch capacity is ignored, zero included.
        assert_eq!(IngestConfig::new(4, 0).unwrap(), config);
        assert_eq!(IngestConfig::new(4, 256).unwrap(), config);
        assert!(IngestConfig::per_thread().shards() >= 1);
    }

    #[test]
    fn engine_matches_single_loop_means() {
        let reports = [
            vec![(0, 1.0), (2, -1.0)],
            vec![(0, 3.0), (1, 0.5)],
            vec![(1, 1.5), (2, 1.0)],
            vec![(0, 2.0)],
        ];
        let mut engine = IngestEngine::new(3, IngestConfig::new(4, 2).unwrap()).unwrap();
        ingest(&mut engine, &reports).unwrap();
        let merged = engine.merged().unwrap();
        assert_eq!(merged.reports(), 4);
        assert_eq!(merged.counts(), vec![3, 2, 2]);
        assert_eq!(engine.estimated_means().unwrap(), vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn bad_report_is_rejected_without_state_change() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
        ingest(&mut engine, &[vec![(0, 1.0)]]).unwrap();
        let before = engine.merged().unwrap();
        assert!(ingest(&mut engine, &[vec![(0, 1.0)], vec![(9, 1.0)]]).is_err());
        assert_eq!(engine.merged().unwrap(), before);
        assert_eq!(before.reports(), 1);
    }

    #[test]
    fn ingest_partitioned_error_leaves_engine_untouched() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
        ingest(&mut engine, &[vec![(0, 1.0)]]).unwrap();
        let before = engine.merged().unwrap();
        let result = engine.ingest_partitioned(0..10, |uid, out| {
            if uid == 7 {
                return Err(ProtocolError::EmptyDimension { dimension: 0 });
            }
            out.push((0, 1.0));
            Ok(())
        });
        assert!(result.is_err());
        assert_eq!(engine.merged().unwrap(), before);
    }

    #[test]
    fn shard_loads_cover_all_reports() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(4, 2).unwrap()).unwrap();
        ingest(&mut engine, &vec![vec![(0, 1.0)]; 37]).unwrap();
        let router = ShardRouter::new(4).unwrap();
        let routed: Vec<usize> = (0..4)
            .map(|shard| (0..37u64).filter(|&u| router.route(u) == shard).count())
            .collect();
        assert_eq!(engine.shard_loads(), routed);
        assert_eq!(engine.merged().unwrap().reports(), 37);
    }
}
