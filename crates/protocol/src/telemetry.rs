//! Metric bundles instrumenting the collection protocol.
//!
//! Components take a [`Registry`] at construction and register their metrics
//! once; the bundles below are the pre-registered handles they record into.
//! All handles are cheap clones sharing atomic cells, so instrumented engines
//! stay `Clone` and worker threads record into the same metrics. Bundles
//! registered against [`Registry::disabled`] carry only no-op handles: every
//! recording call is a single branch, nothing allocates, and the per-report
//! push is untouched (ingest counters are recorded at batch-flush
//! granularity, not per report: a batch flushes at 256 reports or 64 KiB of
//! entries, whichever comes first, that is at
//! [`crate::IngestConfig::batch_capacity`] reports or 4,096 `(usize, f64)`
//! entries).
//!
//! Metric names are stable and documented in `docs/OBSERVABILITY.md`:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `ingest_reports_total` | counter | reports flushed into shard accumulators |
//! | `ingest_entries_total` | counter | `(dimension, value)` entries flushed |
//! | `ingest_batch_flushes_total` | counter | batch drains into an accumulator |
//! | `ingest_batch_flush_ns` | histogram | latency of one batch drain (sampled) |
//! | `ingest_merges_total` | counter | merge-on-read operations |
//! | `ingest_merge_ns` | histogram | latency of one full merge-on-read |
//! | `ingest_shardNNN_reports_total` | counter | reports flushed by shard `NNN` |
//! | `pipeline_runs_total` | counter | end-to-end pipeline runs |
//! | `pipeline_perturb_ns` | histogram | per-user perturbation (sampled) |
//! | `pipeline_ingest_ns` | histogram | collection phase of one run |
//! | `pipeline_estimate_ns` | histogram | estimation phase of one run |

use hdldp_telemetry::{Counter, LatencyHistogram, Registry, SpanTimer};

/// How often [`PipelineMetrics::perturb_ns`] samples a user's perturbation
/// latency: every `PERTURB_SAMPLE_EVERY`-th user reads the clock, the rest
/// skip it, bounding timer overhead on million-user runs.
pub const PERTURB_SAMPLE_EVERY: u64 = 64;

/// How often [`IngestMetrics::flush_ns`] samples a batch drain's latency:
/// counters advance on every flush, but only the flushes whose ordinal in
/// `ingest_batch_flushes_total` (counting from 0) is a multiple of
/// `FLUSH_SAMPLE_EVERY` read the clock, so `n` flushes record exactly
/// `⌈n / FLUSH_SAMPLE_EVERY⌉` latencies on any number of threads. Clock reads
/// dominate the per-flush recording cost on hosts with a slow time source, so
/// the latency distribution is sampled while the counts stay exact.
pub const FLUSH_SAMPLE_EVERY: u64 = 8;

/// Pre-registered handles for the sharded ingest engine.
///
/// Counters advance when a batch drains into its shard accumulator (flush
/// granularity), so the per-report push performs no atomic traffic.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Reports flushed into shard accumulators (`ingest_reports_total`).
    pub reports: Counter,
    /// Entries flushed into shard accumulators (`ingest_entries_total`).
    pub entries: Counter,
    /// Batch drains into an accumulator (`ingest_batch_flushes_total`).
    pub batch_flushes: Counter,
    /// Latency of one batch drain (`ingest_batch_flush_ns`).
    pub flush_ns: LatencyHistogram,
    /// Merge-on-read operations (`ingest_merges_total`).
    pub merges: Counter,
    /// Latency of one full merge-on-read (`ingest_merge_ns`).
    pub merge_ns: LatencyHistogram,
    /// Reports flushed per shard (`ingest_shardNNN_reports_total`).
    pub shard_reports: Vec<Counter>,
}

impl IngestMetrics {
    /// Register the engine's metrics (one per-shard counter per shard) in
    /// `registry`. Against a disabled registry every handle is a no-op.
    pub fn register(registry: &Registry, shards: usize) -> Self {
        Self {
            reports: registry.counter("ingest_reports_total"),
            entries: registry.counter("ingest_entries_total"),
            batch_flushes: registry.counter("ingest_batch_flushes_total"),
            flush_ns: registry.histogram("ingest_batch_flush_ns"),
            merges: registry.counter("ingest_merges_total"),
            merge_ns: registry.histogram("ingest_merge_ns"),
            shard_reports: (0..shards)
                .map(|i| registry.counter(&format!("ingest_shard{i:03}_reports_total")))
                .collect(),
        }
    }

    /// Claim the next batch drain: count it in `ingest_batch_flushes_total`
    /// and return a span timer for it, live when the count before the claim
    /// is a multiple of [`FLUSH_SAMPLE_EVERY`] and inert otherwise (always
    /// inert, without reading the clock, when telemetry is disabled). The
    /// ordinal comes from the same atomic add that counts the drain, so
    /// concurrent workers each take a distinct one and exactly one drain in
    /// every `FLUSH_SAMPLE_EVERY` is timed.
    #[inline]
    pub(crate) fn claim_flush(&self) -> SpanTimer {
        if self.batch_flushes.add(1).is_multiple_of(FLUSH_SAMPLE_EVERY) {
            self.flush_ns.start()
        } else {
            LatencyHistogram::noop().start()
        }
    }

    /// Record the reports and entries one claimed drain flushed into shard
    /// `shard` (the drain itself is counted by
    /// [`claim_flush`](IngestMetrics::claim_flush)).
    #[inline]
    pub(crate) fn record_flush(&self, shard: usize, reports: usize, entries: usize) {
        self.reports.add(reports as u64);
        self.entries.add(entries as u64);
        if let Some(counter) = self.shard_reports.get(shard) {
            counter.add(reports as u64);
        }
    }
}

/// Pre-registered handles for the end-to-end mean-estimation pipeline.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// End-to-end pipeline runs (`pipeline_runs_total`).
    pub runs: Counter,
    /// Per-user perturbation latency, sampled every
    /// [`PERTURB_SAMPLE_EVERY`]-th user (`pipeline_perturb_ns`).
    pub perturb_ns: LatencyHistogram,
    /// Collection (perturb + ingest) phase of one run (`pipeline_ingest_ns`).
    pub ingest_ns: LatencyHistogram,
    /// Estimation (merge + means) phase of one run (`pipeline_estimate_ns`).
    pub estimate_ns: LatencyHistogram,
}

impl PipelineMetrics {
    /// Register the pipeline's metrics in `registry`. Against a disabled
    /// registry every handle is a no-op.
    pub fn register(registry: &Registry) -> Self {
        Self {
            runs: registry.counter("pipeline_runs_total"),
            perturb_ns: registry.histogram("pipeline_perturb_ns"),
            ingest_ns: registry.histogram("pipeline_ingest_ns"),
            estimate_ns: registry.histogram("pipeline_estimate_ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_against_disabled_registry_is_inert() {
        let m = IngestMetrics::register(&Registry::disabled(), 4);
        assert!(!m.reports.is_enabled());
        assert_eq!(m.shard_reports.len(), 4);
        m.record_flush(2, 10, 20);
        assert_eq!(m.reports.value(), 0);
        let p = PipelineMetrics::register(&Registry::disabled());
        assert!(!p.runs.is_enabled());
    }

    #[test]
    fn record_flush_advances_all_counters() {
        let registry = Registry::new();
        let m = IngestMetrics::register(&registry, 2);
        for (shard, reports, entries) in [(1, 3, 6), (1, 2, 4), (0, 1, 2)] {
            m.claim_flush().stop();
            m.record_flush(shard, reports, entries);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("ingest_batch_flushes_total"), Some(3));
        assert_eq!(snapshot.counter("ingest_reports_total"), Some(6));
        assert_eq!(snapshot.counter("ingest_entries_total"), Some(12));
        assert_eq!(snapshot.counter("ingest_shard000_reports_total"), Some(1));
        assert_eq!(snapshot.counter("ingest_shard001_reports_total"), Some(5));
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let registry = Registry::new();
        let m = IngestMetrics::register(&registry, 1);
        m.record_flush(5, 1, 1);
        assert_eq!(registry.snapshot().counter("ingest_reports_total"), Some(1));
    }
}
