//! Point-in-time metric snapshots.
//!
//! A [`TelemetrySnapshot`] is a plain serializable value detached from the
//! live atomics: safe to ship across threads, write to disk, or diff between
//! two points of a run. It derives `Serialize`/`Deserialize`, so the bench
//! binaries write it as JSON (the `results/telemetry_*.json` files) with
//! their other results, and [`TelemetrySnapshot::render_table`] renders an
//! aligned human-readable table for terminal output.

use serde::{Deserialize, Serialize};

/// One counter's point-in-time value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge's point-in-time value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One latency histogram's point-in-time summary.
///
/// Quantiles are read off the log₂ buckets, so they carry at most 2×
/// resolution error and are clamped to the exact observed maximum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_ns: u64,
    /// Mean recorded duration, in nanoseconds (0 when empty).
    pub mean_ns: f64,
    /// Median duration estimate, in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration estimate, in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile duration estimate, in nanoseconds.
    pub p99_ns: u64,
    /// Exact largest recorded duration, in nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of every metric in a [`crate::Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All latency histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Format a nanosecond quantity with a human-friendly unit.
pub fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl TelemetrySnapshot {
    /// The snapshot with no metrics (what disabled registries produce).
    pub fn empty() -> Self {
        Self {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// `true` when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render an aligned, human-readable table of every metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let name_width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.gauges.iter().map(|g| g.name.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(6)
            .max("metric".len());

        if !self.counters.is_empty() {
            out.push_str(&format!("{:<name_width$}  {:>14}\n", "counter", "value"));
            out.push_str(&"-".repeat(name_width + 16));
            out.push('\n');
            for c in &self.counters {
                out.push_str(&format!("{:<name_width$}  {:>14}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("{:<name_width$}  {:>14}\n", "gauge", "value"));
            out.push_str(&"-".repeat(name_width + 16));
            out.push('\n');
            for g in &self.gauges {
                out.push_str(&format!("{:<name_width$}  {:>14.6}\n", g.name, g.value));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<name_width$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "histogram", "count", "mean", "p50", "p95", "p99", "max"
            ));
            out.push_str(&"-".repeat(name_width + 74));
            out.push('\n');
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<name_width$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    h.name,
                    h.count,
                    format_ns(h.mean_ns),
                    format_ns(h.p50_ns as f64),
                    format_ns(h.p95_ns as f64),
                    format_ns(h.p99_ns as f64),
                    format_ns(h.max_ns as f64),
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![CounterSnapshot {
                name: "ingest_reports_total".into(),
                value: 1_000_000,
            }],
            gauges: vec![GaugeSnapshot {
                name: "phase_ingest_seconds".into(),
                value: 0.53,
            }],
            histograms: vec![HistogramSnapshot {
                name: "ingest_merge_ns".into(),
                count: 3906,
                sum_ns: 3_906_000,
                mean_ns: 1000.0,
                p50_ns: 1023,
                p95_ns: 2047,
                p99_ns: 4095,
                max_ns: 3200,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let snapshot = sample();
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn lookup_helpers_find_by_name() {
        let snapshot = sample();
        assert_eq!(snapshot.counter("ingest_reports_total"), Some(1_000_000));
        assert_eq!(snapshot.counter("missing"), None);
        assert_eq!(snapshot.gauge("phase_ingest_seconds"), Some(0.53));
        assert_eq!(snapshot.histogram("ingest_merge_ns").unwrap().count, 3906);
        assert!(!snapshot.is_empty());
        assert!(TelemetrySnapshot::empty().is_empty());
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample().render_table();
        assert!(table.contains("ingest_reports_total"));
        assert!(table.contains("phase_ingest_seconds"));
        assert!(table.contains("ingest_merge_ns"));
        assert!(table.contains("p95"));
        assert!(table.contains("1.00us"), "{table}");
        assert!(TelemetrySnapshot::empty()
            .render_table()
            .contains("no metrics"));
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(12.0), "12ns");
        assert_eq!(format_ns(1_500.0), "1.50us");
        assert_eq!(format_ns(2_500_000.0), "2.50ms");
        assert_eq!(format_ns(3_200_000_000.0), "3.20s");
    }
}
