//! Log₂-bucketed latency histograms and the RAII span timer.
//!
//! A [`LatencyHistogram`] sorts every recorded nanosecond value into one of 64
//! power-of-two buckets (bucket `i` holds values whose bit length is `i`, so
//! bucket boundaries double: 1, 2–3, 4–7, 8–15 ns, ...). Recording is two
//! relaxed atomic adds plus one atomic max — lock-free and allocation-free —
//! and quantiles are recovered at snapshot time from the bucket counts with at
//! most 2× resolution error, which is ample for "where does the time go"
//! telemetry.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ buckets (one per possible `u64` bit length, plus zero).
pub(crate) const BUCKETS: usize = 64;

/// The shared storage behind a [`LatencyHistogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket a value falls into: its bit length, capped at `BUCKETS - 1`.
fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The largest value bucket `i` can hold (used as the quantile estimate).
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl HistogramCell {
    #[expect(clippy::indexing_slicing, reason = "bucket_index caps at BUCKETS - 1")]
    fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Produce a consistent point-in-time summary.
    ///
    /// Bucket counts are individually atomic; the count used for quantiles is
    /// the sum of the loaded buckets, so a snapshot taken mid-write is simply
    /// a valid snapshot of slightly fewer (or more) events — never torn.
    pub(crate) fn summarize(&self, name: &str) -> HistogramSnapshot {
        let buckets = self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed));
        let count: u64 = buckets.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_upper_bound(i).min(max_ns);
                }
            }
            max_ns
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum_ns,
            mean_ns: if count == 0 {
                0.0
            } else {
                sum_ns as f64 / count as f64
            },
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns,
        }
    }
}

/// A log₂-bucketed distribution of durations in nanoseconds.
///
/// Clones share one cell (hand them to worker threads freely); a handle from a
/// disabled registry records nothing and costs one branch per call.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    cell: Option<Arc<HistogramCell>>,
}

impl LatencyHistogram {
    /// A handle that records nothing (what disabled registries hand out).
    pub fn noop() -> Self {
        Self { cell: None }
    }

    pub(crate) fn live(cell: Arc<HistogramCell>) -> Self {
        Self { cell: Some(cell) }
    }

    /// `true` when recordings actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Record one duration, in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            cell.record(ns);
        }
    }

    /// Start an RAII span: the elapsed wall time is recorded when the returned
    /// [`SpanTimer`] is dropped. On a disabled histogram the timer is inert
    /// and never reads the clock.
    #[must_use = "the span is recorded when the returned timer is dropped"]
    pub fn start(&self) -> SpanTimer {
        SpanTimer {
            span: self
                .cell
                .as_ref()
                .map(|cell| (Arc::clone(cell), Instant::now())),
        }
    }

    /// Total number of recorded durations (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| {
            cell.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
        })
    }
}

/// RAII guard that records the elapsed wall time into its histogram on drop.
///
/// Obtained from [`LatencyHistogram::start`]; bind it to a named local
/// (`let _timer = ...`) so it lives until the end of the span being measured.
#[derive(Debug)]
#[must_use = "the span is recorded when the timer is dropped"]
pub struct SpanTimer {
    span: Option<(Arc<HistogramCell>, Instant)>,
}

impl SpanTimer {
    /// Stop the span now (equivalent to dropping the timer).
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((cell, started)) = self.span.take() {
            cell.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn live() -> LatencyHistogram {
        LatencyHistogram::live(Arc::new(HistogramCell::default()))
    }

    #[test]
    fn bucket_index_is_the_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_range() {
        for i in 1..BUCKETS - 1 {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i);
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_are_ordered_and_max_is_exact() {
        let h = live();
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5_000] {
            h.record_ns(ns);
        }
        let snap = h.cell.as_ref().unwrap().summarize("t");
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum_ns, 450 + 5_000);
        assert_eq!(snap.max_ns, 5_000);
        assert!(snap.p50_ns <= snap.p95_ns);
        assert!(snap.p95_ns <= snap.p99_ns);
        assert!(snap.p99_ns <= snap.max_ns);
        // p50 of values 10..90 lands in the 32..63 bucket (resolution 2x).
        assert!(
            snap.p50_ns >= 50 && snap.p50_ns <= 63,
            "p50 = {}",
            snap.p50_ns
        );
        // p99 falls in the bucket of the outlier; clamped to the exact max.
        assert_eq!(snap.p99_ns, 5_000);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let h = live();
        let snap = h.cell.as_ref().unwrap().summarize("empty");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_ns, 0);
        assert_eq!(snap.max_ns, 0);
        assert_eq!(snap.mean_ns, 0.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = live();
        {
            let _timer = h.start();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        let snap = h.cell.as_ref().unwrap().summarize("span");
        assert!(snap.max_ns >= 1_000_000, "max = {}", snap.max_ns);
    }

    #[test]
    fn noop_histogram_and_timer_record_nothing() {
        let h = LatencyHistogram::noop();
        h.record_ns(100);
        let timer = h.start();
        timer.stop();
        assert_eq!(h.count(), 0);
        assert!(!h.is_enabled());
    }
}
