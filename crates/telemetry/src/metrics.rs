//! Scalar metric primitives: atomic counters and gauges.
//!
//! Both types are cheap cloneable *handles*: clones share one atomic cell, so
//! an instrumented component can hand copies to worker threads freely. A
//! handle obtained from a [`crate::Registry::disabled`] registry carries no
//! cell at all — every operation on it is a single predictable branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared storage behind a [`Counter`] handle.
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    pub(crate) fn load(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomic adds: lock-free, allocation-free, and safe to
/// call from any number of threads concurrently. The counter saturates only at
/// `u64::MAX` (wrap-around is never a practical concern for event counts).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A handle that records nothing (what disabled registries hand out).
    pub fn noop() -> Self {
        Self { cell: None }
    }

    pub(crate) fn live(cell: Arc<CounterCell>) -> Self {
        Self { cell: Some(cell) }
    }

    /// `true` when increments are actually recorded somewhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n` and return the count before it (0 for a no-op
    /// handle). Concurrent adds each see a distinct prior count, so the
    /// return value can number events across threads.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.value.fetch_add(n, Ordering::Relaxed))
    }

    /// The current count (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.load())
    }
}

/// The shared storage behind a [`Gauge`] handle ( `f64` bits in an atomic ).
#[derive(Debug)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
}

impl Default for GaugeCell {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl GaugeCell {
    pub(crate) fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An instantaneous `f64` value: phase durations, shard skew, queue depths.
///
/// Stores the value's bit pattern in one atomic word, so a concurrent
/// [`Gauge::set`] / read pair can never observe a torn value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A handle that records nothing (what disabled registries hand out).
    pub fn noop() -> Self {
        Self { cell: None }
    }

    pub(crate) fn live(cell: Arc<GaugeCell>) -> Self {
        Self { cell: Some(cell) }
    }

    /// `true` when sets are actually recorded somewhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Overwrite the gauge with `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (0.0 for a no-op handle).
    pub fn value(&self) -> f64 {
        self.cell.as_ref().map_or(0.0, |cell| cell.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_counter_records_nothing() {
        let c = Counter::noop();
        assert!(!c.is_enabled());
        c.inc();
        assert_eq!(c.add(100), 0);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn live_counter_accumulates_across_clones() {
        let c = Counter::live(Arc::new(CounterCell::default()));
        assert!(c.is_enabled());
        let c2 = c.clone();
        c.inc();
        assert_eq!(c2.add(9), 1, "add returns the count before it");
        assert_eq!(c.value(), 10);
        assert_eq!(c2.value(), 10);
    }

    #[test]
    fn noop_gauge_records_nothing() {
        let g = Gauge::noop();
        assert!(!g.is_enabled());
        g.set(3.5);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn live_gauge_overwrites() {
        let g = Gauge::live(Arc::new(GaugeCell::default()));
        assert_eq!(g.value(), 0.0);
        g.set(-2.25);
        assert_eq!(g.value(), -2.25);
        g.clone().set(7.0);
        assert_eq!(g.value(), 7.0);
    }
}
