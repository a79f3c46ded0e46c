//! The sharded, batched ingest engine: the collector-side path that scales
//! the paper's aggregation to millions of users.
//!
//! This module is the collector's one aggregation path, the calibration +
//! aggregation phase of Section IV-B. Mean estimation
//! ([`crate::MeanEstimationPipeline`]), frequency estimation
//! ([`crate::FrequencyPipeline`], over a flat `(dimension, category)` index)
//! and the categorical workloads all run on it, and a report enters it one
//! way only, through [`IngestEngine::ingest_partitioned`]. It is built on
//! three pieces:
//!
//! * a bounded flat batch per shard worker — one contiguous array of
//!   `(usize dimension, f64 perturbed value)` entries, the type
//!   [`crate::Client`] and `Mechanism::perturb_entries` write — so reports
//!   flow to shards without a per-report heap allocation.
//! * [`crate::ShardRouter`] — hash-partitions reports across shards by user
//!   id, independent of arrival order and thread count.
//! * [`crate::ShardAccumulator`] — per-shard partial sums/counts per
//!   dimension, merged **on read**.
//!
//! The collector treats every report as untrusted. Each user's report is
//! written in place at the end of its shard batch's entry buffer, and one
//! branch-free scan of that tail rejects it when an entry names a dimension
//! `>= d` or carries a NaN or infinite value; a rejected report fails the
//! call and leaves the engine untouched. A report is written once, checked
//! once and never copied.
//!
//! A full batch drains into its shard accumulator through one helper, which
//! also records the flush's telemetry. The resulting [`IngestEngine`]
//! produces the same estimated means as a single loop over the reports, up
//! to the floating-point rounding of the summation order (the integration
//! tests assert bit-for-bit equality on inputs where addition is exact),
//! while the hot loop is two indexed adds per entry, shard-local and
//! allocation-free.
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
//! assert_eq!(engine.reports(), 2);
//! let merged = engine.merged().unwrap();
//! assert_eq!(merged.counts(), &[1, 1, 1, 1]);
//! ```

use crate::report::check_entries;
use crate::shard::{ShardAccumulator, ShardRouter};
use crate::telemetry::IngestMetrics;
use crate::ProtocolError;
use hdldp_telemetry::Registry;
use rayon::prelude::*;
use std::ops::Range;

/// Entries a batch holds before it is full, whatever its report capacity:
/// 4,096 `(usize, f64)` entries are 64 KiB, so a shard buffers about that
/// plus one report however wide its reports are. Reports of at most 16
/// entries fill a 256-report batch first, and this bound never binds.
const MAX_BATCH_ENTRIES: usize = 4_096;

/// A shard worker's bounded batch of reports: their entries in one
/// contiguous array of `(dimension, perturbed value)` pairs, and how many
/// reports they make up.
///
/// [`IngestEngine::ingest_partitioned`] has each report written in place at
/// the end of the entry buffer ([`push_with`](ReportBatch::push_with)) and
/// checks only that tail, so pushing a report never copies it and, once the
/// buffer has grown, never allocates; the drain scans contiguous memory. A
/// batch is full once it holds `capacity` reports or 4,096 entries (64 KiB),
/// whichever comes first, so its memory does not grow with the report
/// width; a full batch must be drained (ingested into a [`ShardAccumulator`]
/// and [cleared](ReportBatch::clear)) before more reports are pushed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReportBatch {
    dims: usize,
    capacity: usize,
    entries: Vec<(usize, f64)>,
    reports: usize,
}

impl ReportBatch {
    /// Create an empty batch for `dims`-dimensional reports holding at most
    /// `capacity` reports.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` or `capacity` is
    /// zero.
    pub(crate) fn new(dims: usize, capacity: usize) -> crate::Result<Self> {
        if dims == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: "dimensionality must be positive".into(),
            });
        }
        if capacity == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "batch_capacity",
                reason: "batch capacity must be positive".into(),
            });
        }
        Ok(Self {
            dims,
            capacity,
            entries: Vec::new(),
            reports: 0,
        })
    }

    /// The dimensionality `d` entries are validated against.
    pub(crate) fn dims(&self) -> usize {
        self.dims
    }

    /// Number of reports currently buffered.
    pub(crate) fn reports(&self) -> usize {
        self.reports
    }

    /// Total number of `(dimension, value)` entries currently buffered.
    pub(crate) fn entries(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no report is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.reports == 0
    }

    /// `true` when the batch holds `capacity` reports or 4,096 entries and
    /// must be drained.
    pub(crate) fn is_full(&self) -> bool {
        self.reports >= self.capacity || self.entries.len() >= MAX_BATCH_ENTRIES
    }

    /// Append one report that `fill` writes in place: `fill` appends the
    /// report's entries to the batch's own entry buffer, whose entries
    /// belong to earlier reports and must be left alone.
    ///
    /// Only the appended tail is checked, with one branch-free scan. When
    /// `fill` fails or the tail is rejected, the tail is truncated and the
    /// batch holds what it held before. When `fill` shrank the buffer,
    /// entries of earlier reports are gone, so the batch is
    /// [cleared](ReportBatch::clear) and the push fails.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the batch is full or
    /// `fill` shrank the buffer, `fill`'s own error, and, for a rejected
    /// tail, [`ProtocolError::DimensionOutOfRange`] when an entry mentions a
    /// dimension `>= dims` and [`ProtocolError::NonFiniteValue`] when a value
    /// is NaN or infinite.
    // The bulk-ingest push; its errors are built out of line.
    pub(crate) fn push_with<F>(&mut self, fill: F) -> crate::Result<()>
    where
        F: FnOnce(&mut Vec<(usize, f64)>) -> crate::Result<()>,
    {
        if self.is_full() {
            return Err(self.full());
        }
        let start = self.entries.len();
        let filled = fill(&mut self.entries);
        let Some(report) = self.entries.get(start..) else {
            self.clear();
            return Err(fill_shrank_the_batch());
        };
        match filled.and_then(|()| check_entries(report, self.dims)) {
            Ok(()) => {
                self.reports += 1;
                Ok(())
            }
            Err(e) => {
                self.entries.truncate(start);
                Err(e)
            }
        }
    }

    /// The error for a push into a full batch.
    #[cold]
    fn full(&self) -> ProtocolError {
        ProtocolError::InvalidConfig {
            name: "batch",
            reason: format!(
                "batch is full (it fills at {} reports or {MAX_BATCH_ENTRIES} entries, \
                 whichever comes first)",
                self.capacity
            ),
        }
    }

    /// The flat `(dimension index, value)` entries across all buffered
    /// reports (report boundaries are irrelevant to sum/count accumulation).
    pub(crate) fn flat_entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Drop all buffered reports, keeping the allocation for reuse.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.reports = 0;
    }
}

/// The error for a `fill` that shrank the batch buffer it was handed.
#[cold]
fn fill_shrank_the_batch() -> ProtocolError {
    ProtocolError::InvalidConfig {
        name: "fill",
        reason: "fill removed entries of earlier reports from the batch buffer; \
                 it may only append"
            .into(),
    }
}

/// Drain `batch` into `acc`, the accumulator of shard `shard`, record the
/// flush in `metrics` and clear the batch: the one flush of the engine.
///
/// # Errors
/// Propagates [`ShardAccumulator::ingest_batch`]'s dimensionality check,
/// leaving the batch uncleared.
fn drain(
    metrics: &IngestMetrics,
    shard: usize,
    acc: &mut ShardAccumulator,
    batch: &mut ReportBatch,
) -> crate::Result<()> {
    let timer = metrics.claim_flush();
    acc.ingest_batch(batch)?;
    timer.stop();
    metrics.record_flush(shard, batch.reports(), batch.entries());
    batch.clear();
    Ok(())
}

/// Configuration of an [`IngestEngine`]: shard count and batch capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    shards: usize,
    batch_capacity: usize,
}

impl IngestConfig {
    /// Default number of reports buffered per shard before a flush. A batch
    /// also flushes once it holds 4,096 entries (64 KiB), whichever comes
    /// first: reports wider than 16 entries reach that bound first.
    pub const DEFAULT_BATCH_CAPACITY: usize = 256;

    /// 4 shards × [`DEFAULT_BATCH_CAPACITY`](Self::DEFAULT_BATCH_CAPACITY)
    /// reports (or 4,096 entries, whichever a batch reaches first): the one
    /// configuration of the categorical collectors,
    /// [`crate::FrequencyPipeline`] and the workloads' oracle pipeline. The
    /// floating-point sums follow the shard count, so a fixed count gives
    /// their estimates the same bits on every host, whatever its CPU count.
    /// Where a batch flushes never moves the sums, so neither batch bound
    /// moves their bits. Once the sums no longer depend on summation order,
    /// these collectors can follow the thread count like
    /// [`per_thread`](Self::per_thread).
    pub const PINNED: Self = Self {
        shards: 4,
        batch_capacity: Self::DEFAULT_BATCH_CAPACITY,
    };

    /// Create a config with `shards` shards and `batch_capacity` reports
    /// buffered per shard between flushes.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when either is zero.
    pub fn new(shards: usize, batch_capacity: usize) -> crate::Result<Self> {
        if shards == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "shards",
                reason: "shard count must be positive".into(),
            });
        }
        if batch_capacity == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "batch_capacity",
                reason: "batch capacity must be positive".into(),
            });
        }
        Ok(Self {
            shards,
            batch_capacity,
        })
    }

    /// One shard per available worker thread, default batch capacity.
    pub fn per_thread() -> Self {
        Self {
            shards: rayon::current_num_threads().max(1),
            batch_capacity: Self::DEFAULT_BATCH_CAPACITY,
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured per-shard batch capacity (in reports; a batch also
    /// flushes at 4,096 entries).
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }
}

/// The sharded, batched ingest engine.
///
/// Reports enter in bulk through
/// [`ingest_partitioned`](IngestEngine::ingest_partitioned): each shard
/// processes exactly the users that hash to it, in parallel, with
/// shard-local batching — no locks, no cross-shard traffic. The engine holds
/// only its shard accumulators, and estimates are produced by
/// **merge-on-read**: [`merged`](IngestEngine::merged) folds the per-shard
/// partials into one accumulator without disturbing ingest state.
///
/// Each shard adds its reports in increasing user-id order, so for a fixed
/// shard count the engine's state is a pure function of the ingested
/// reports — independent of thread count, scheduling and batch capacity.
///
/// Engines built with [`IngestEngine::with_telemetry`] record runtime metrics
/// (reports, entries, batch-flush and merge latency, per-shard load) into the
/// given [`Registry`] at **flush granularity** — once per
/// [`IngestConfig::batch_capacity`] reports or 4,096 entries, whichever a
/// batch reaches first — so the per-report push performs no atomic traffic.
/// [`IngestEngine::new`] wires the engine to a disabled registry, which
/// reduces every recording site to one branch.
#[derive(Debug, Clone)]
pub struct IngestEngine {
    dims: usize,
    router: ShardRouter,
    batch_capacity: usize,
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
            batch_capacity: config.batch_capacity(),
            shards,
            metrics: IngestMetrics::register(registry, config.shards()),
        })
    }

    /// Total reports ingested so far.
    pub fn reports(&self) -> usize {
        self.shards.iter().map(ShardAccumulator::reports).sum()
    }

    /// Reports per shard, for load inspection.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(ShardAccumulator::reports).collect()
    }

    /// Bulk-ingest the user range `users` in parallel, one worker per shard:
    /// the one way a report enters the engine.
    ///
    /// `fill` produces user `u`'s report by appending its `(dimension,
    /// value)` entries to the buffer it is handed, which is the shard
    /// batch's own entry buffer: the report is written in place, with no
    /// copy. The entries already in the buffer belong to earlier reports of
    /// the batch and must be left alone, and the buffer is not cleared
    /// between users, so `fill` may only append. A `fill` that shrinks the
    /// buffer fails the call. Each appended report is checked with one
    /// branch-free scan: every dimension below `d`, every value finite.
    ///
    /// Each shard's worker walks the whole range but generates reports only
    /// for the users that hash to it, so reports flow shard-locally through
    /// a bounded batch: no locks, no cross-thread report traffic. The batch
    /// drains into the worker's accumulator whenever it fills, at
    /// [`IngestConfig::batch_capacity`] reports or 4,096 entries, and once
    /// more at the end of the range. Either way the worker adds its users'
    /// entries one after another in increasing id order, so where the batch
    /// drains never moves a sum.
    ///
    /// # Errors
    /// Propagates the first error of `fill`; returns
    /// [`ProtocolError::DimensionOutOfRange`] or
    /// [`ProtocolError::NonFiniteValue`] for a rejected report, and
    /// [`ProtocolError::InvalidConfig`] when `fill` shrank the buffer. The
    /// engine's reports and sums are untouched when any shard fails.
    pub fn ingest_partitioned<F>(&mut self, users: Range<u64>, fill: F) -> crate::Result<()>
    where
        F: Fn(u64, &mut Vec<(usize, f64)>) -> crate::Result<()> + Sync,
    {
        let dims = self.dims;
        let router = self.router;
        let capacity = self.batch_capacity;
        let fill = &fill;
        let metrics = self.metrics.clone();

        let partials: Vec<crate::Result<ShardAccumulator>> = (0..self.shards.len())
            .into_par_iter()
            .map(move |shard| {
                let mut acc = ShardAccumulator::new(dims)?;
                let mut batch = ReportBatch::new(dims, capacity)?;
                for user_id in users.clone() {
                    if router.route(user_id) != shard {
                        continue;
                    }
                    batch.push_with(|entries| fill(user_id, entries))?;
                    if batch.is_full() {
                        drain(&metrics, shard, &mut acc, &mut batch)?;
                    }
                }
                if !batch.is_empty() {
                    drain(&metrics, shard, &mut acc, &mut batch)?;
                }
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

    /// Push `entries` as one report, the way `ingest_partitioned`'s `fill`
    /// writes one.
    fn push(batch: &mut ReportBatch, entries: &[(usize, f64)]) -> crate::Result<()> {
        batch.push_with(|out| {
            out.extend_from_slice(entries);
            Ok(())
        })
    }

    /// Ingest `reports` into `engine`, user `u` sending `reports[u]`.
    fn ingest(engine: &mut IngestEngine, reports: &[Vec<(usize, f64)>]) -> crate::Result<()> {
        engine.ingest_partitioned(0..reports.len() as u64, |user, out| {
            out.extend_from_slice(&reports[user as usize]);
            Ok(())
        })
    }

    #[test]
    fn batch_validates_construction() {
        assert!(ReportBatch::new(0, 4).is_err());
        assert!(ReportBatch::new(4, 0).is_err());
        let batch = ReportBatch::new(4, 2).unwrap();
        assert_eq!(batch.dims(), 4);
        assert_eq!(batch.capacity, 2);
        assert!(batch.is_empty());
        assert!(!batch.is_full());
    }

    #[test]
    fn batch_stores_reports_in_flat_arrays() {
        let mut batch = ReportBatch::new(4, 3).unwrap();
        push(&mut batch, &[(0, 1.0), (3, -1.0)]).unwrap();
        push(&mut batch, &[(1, 0.5)]).unwrap();
        push(&mut batch, &[]).unwrap();
        assert_eq!(batch.reports(), 3);
        assert_eq!(batch.entries(), 3);
        assert!(batch.is_full());
        assert_eq!(batch.flat_entries(), &[(0, 1.0), (3, -1.0), (1, 0.5)]);
    }

    #[test]
    fn batch_rejects_overflow_and_bad_dims_atomically() {
        let mut batch = ReportBatch::new(2, 1).unwrap();
        assert!(push(&mut batch, &[(0, 1.0), (7, 1.0)]).is_err());
        assert!(batch.is_empty(), "failed push must not leave partial state");
        assert_eq!(batch.entries(), 0);
        push(&mut batch, &[(0, 1.0)]).unwrap();
        assert!(push(&mut batch, &[(1, 1.0)]).is_err(), "batch is full");
        batch.clear();
        assert!(batch.is_empty());
        push(&mut batch, &[(1, 2.0)]).unwrap();
        assert_eq!(batch.entries(), 1);
    }

    #[test]
    fn batch_fills_at_4096_entries_before_its_report_capacity() {
        let wide = vec![(0, 1.0); 256];
        let mut batch = ReportBatch::new(1, 256).unwrap();
        for _ in 0..15 {
            push(&mut batch, &wide).unwrap();
        }
        assert!(!batch.is_full());
        push(&mut batch, &wide).unwrap();
        assert!(
            batch.is_full(),
            "16 reports of 256 entries are 4,096 entries"
        );
        let Err(ProtocolError::InvalidConfig { name, reason }) = push(&mut batch, &[]) else {
            panic!("a full batch must refuse a report");
        };
        assert_eq!(name, "batch");
        assert!(reason.contains("256 reports or 4096 entries"), "{reason}");
        assert_eq!(batch.reports(), 16);
        // One report wider than the bound fills an empty batch on its own.
        batch.clear();
        push(&mut batch, &vec![(0, 1.0); 5_000]).unwrap();
        assert!(batch.is_full());
        // Reports of 15 entries reach the report capacity first.
        batch.clear();
        for _ in 0..256 {
            assert!(!batch.is_full());
            push(&mut batch, &[(0, 1.0); 15]).unwrap();
        }
        assert!(batch.is_full());
        assert_eq!(batch.entries(), 3_840);
    }

    #[test]
    fn wide_reports_flush_at_the_entry_bound() {
        let wide: Vec<(usize, f64)> = (0..256).map(|j| (j % 3, j as f64)).collect();
        let registry = Registry::new();
        let config = IngestConfig::new(1, 256).unwrap();
        let mut engine = IngestEngine::with_telemetry(3, config, &registry).unwrap();
        ingest(&mut engine, &vec![wide; 40]).unwrap();
        // Batches of 16, 16 and 8 reports: the first two drain at 4,096
        // entries, the last at the end of the range.
        let flushes = registry.snapshot().counter("ingest_batch_flushes_total");
        assert_eq!(flushes, Some(3));
        assert_eq!(engine.reports(), 40);
    }

    #[test]
    fn batch_rejects_non_finite_values_atomically() {
        let mut batch = ReportBatch::new(2, 2).unwrap();
        push(&mut batch, &[(1, 0.5)]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                push(&mut batch, &[(0, 1.0), (1, bad)]),
                Err(ProtocolError::NonFiniteValue { dimension: 1 })
            );
            assert_eq!(batch.flat_entries(), &[(1, 0.5)]);
            assert_eq!(batch.reports(), 1);
        }
    }

    #[test]
    fn push_with_checks_only_the_appended_tail() {
        let mut batch = ReportBatch::new(2, 4).unwrap();
        push(&mut batch, &[(0, 1.0)]).unwrap();
        batch
            .push_with(|out| {
                out.extend_from_slice(&[(1, 2.0), (0, 3.0)]);
                Ok(())
            })
            .unwrap();
        batch.push_with(|_| Ok(())).unwrap();
        assert_eq!(batch.reports(), 3);
        assert_eq!(batch.flat_entries(), &[(0, 1.0), (1, 2.0), (0, 3.0)]);
        let filled = batch.clone();
        // A rejected tail or a failing fill is truncated away.
        let bad_tail = batch.push_with(|out| {
            out.extend_from_slice(&[(1, 1.0), (0, f64::NAN)]);
            Ok(())
        });
        assert_eq!(
            bad_tail,
            Err(ProtocolError::NonFiniteValue { dimension: 0 })
        );
        let out_of_range = batch.push_with(|out| {
            out.push((2, 1.0));
            Ok(())
        });
        assert!(matches!(
            out_of_range,
            Err(ProtocolError::DimensionOutOfRange { dimension: 2, .. })
        ));
        let failed = batch.push_with(|out| {
            out.push((0, 1.0));
            Err(ProtocolError::EmptyDimension { dimension: 1 })
        });
        assert_eq!(failed, Err(ProtocolError::EmptyDimension { dimension: 1 }));
        assert_eq!(batch, filled);
        batch
            .push_with(|out| {
                out.push((1, 4.0));
                Ok(())
            })
            .unwrap();
        assert!(batch.is_full());
        assert!(batch.push_with(|_| Ok(())).is_err(), "batch is full");
    }

    #[test]
    fn push_with_clears_the_batch_when_fill_shrinks_it() {
        let mut batch = ReportBatch::new(2, 4).unwrap();
        push(&mut batch, &[(0, 1.0), (1, 1.0)]).unwrap();
        let shrunk = batch.push_with(|out| {
            out.truncate(1);
            Ok(())
        });
        assert!(matches!(
            shrunk,
            Err(ProtocolError::InvalidConfig { name: "fill", .. })
        ));
        assert!(batch.is_empty());
        assert_eq!(batch.entries(), 0);
    }

    #[test]
    fn config_validates_and_defaults() {
        assert!(IngestConfig::new(0, 1).is_err());
        assert!(IngestConfig::new(1, 0).is_err());
        let config = IngestConfig::new(4, 16).unwrap();
        assert_eq!(config.shards(), 4);
        assert_eq!(config.batch_capacity(), 16);
        let per_thread = IngestConfig::per_thread();
        assert!(per_thread.shards() >= 1);
        assert_eq!(
            per_thread.batch_capacity(),
            IngestConfig::DEFAULT_BATCH_CAPACITY
        );
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
        assert_eq!(engine.reports(), 4);
        assert_eq!(engine.merged().unwrap().counts(), vec![3, 2, 2]);
        assert_eq!(engine.estimated_means().unwrap(), vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn bad_report_is_rejected_without_state_change() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
        ingest(&mut engine, &[vec![(0, 1.0)]]).unwrap();
        let before = engine.merged().unwrap();
        assert!(ingest(&mut engine, &[vec![(0, 1.0)], vec![(9, 1.0)]]).is_err());
        assert_eq!(engine.reports(), 1);
        assert_eq!(engine.merged().unwrap(), before);
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
        assert_eq!(engine.reports(), 37);
    }
}
