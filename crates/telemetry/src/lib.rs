//! # hdldp-telemetry
//!
//! Lock-free runtime metrics for the million-user ingest path.
//!
//! The collection protocol runs at millions of reports per second, so the
//! instrumentation layer has two non-negotiable properties:
//!
//! * **Lock-free, allocation-free recording.** Every hot-path operation —
//!   [`Counter::inc`], [`Gauge::set`], [`LatencyHistogram::record_ns`] — is a
//!   handful of relaxed atomic read-modify-writes on pre-allocated cells.
//!   Locks exist only on the *registration* path (naming a metric) and the
//!   *snapshot* path (reading everything out), both of which run a handful of
//!   times per process, not per report.
//! * **Zero cost when disabled.** A [`Registry::disabled`] registry hands out
//!   no-op handles (`Option::None` inside), so a disabled counter increment is
//!   one predictable branch and no memory traffic, and registering against a
//!   disabled registry allocates nothing.
//!
//! The building blocks:
//!
//! * [`Counter`] — monotonically increasing `u64` (reports ingested, batches
//!   flushed, merges, ...).
//! * [`Gauge`] — an instantaneous `f64` (phase durations, shard skew, ...).
//! * [`LatencyHistogram`] — log₂-bucketed duration distribution with
//!   p50/p95/p99/max readout; feed it via [`LatencyHistogram::record_ns`] or
//!   the RAII [`SpanTimer`] guard from [`LatencyHistogram::start`].
//! * [`Registry`] — names and owns the metric cells, and snapshots everything
//!   into a serializable [`TelemetrySnapshot`].
//! * [`TelemetrySnapshot`] — a point-in-time copy with JSON
//!   ([`TelemetrySnapshot::to_json`]), Prometheus-style text exposition
//!   ([`TelemetrySnapshot::to_prometheus`]), and a human-readable table
//!   ([`TelemetrySnapshot::render_table`]).
//!
//! ```
//! use hdldp_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let reports = registry.counter("ingest_reports_total");
//! let latency = registry.histogram("ingest_batch_flush_ns");
//!
//! reports.add(256);
//! {
//!     let _timer = latency.start(); // records on drop
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("ingest_reports_total"), Some(256));
//! assert!(snapshot.to_prometheus().contains("ingest_reports_total 256"));
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the metric cells are the workspace's one home for atomics"
)]

pub mod histogram;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use histogram::{LatencyHistogram, SpanTimer};
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot};
