//! Streaming (single-pass) moment accumulation via Welford's algorithm.
//!
//! Welford accumulation maintains numerically stable running means and
//! variances without storing the samples. The mechanisms' Monte Carlo checks
//! use it, and the sharded-ingest tests use it as an order-independent
//! oracle for the collector's means.

/// Numerically stable running mean / variance / extrema accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every observation from a slice.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by `n`); `0.0` when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (divide by `n − 1`); `0.0` when fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn matches_batch_statistics() {
        let xs = [2.0, -1.0, 0.5, 3.25, -0.75, 1.0];
        let mut acc = RunningMoments::new();
        acc.extend_from_slice(&xs);
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean() - stats::mean(&xs).unwrap()).abs() < 1e-12);
        assert!((acc.variance() - stats::population_variance(&xs).unwrap()).abs() < 1e-12);
        assert!((acc.sample_variance() - stats::sample_variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(acc.min(), -1.0);
        assert_eq!(acc.max(), 3.25);
    }

    #[test]
    fn empty_and_single_value_edge_cases() {
        let acc = RunningMoments::new();
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);

        let mut acc = RunningMoments::new();
        acc.push(7.0);
        assert_eq!(acc.mean(), 7.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.min(), 7.0);
        assert_eq!(acc.max(), 7.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let mut whole = RunningMoments::new();
        whole.extend_from_slice(&xs);

        let mut left = RunningMoments::new();
        left.extend_from_slice(&xs[..37]);
        let mut right = RunningMoments::new();
        right.extend_from_slice(&xs[37..]);
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMoments::new();
        a.extend_from_slice(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&RunningMoments::new());
        assert_eq!(a, before);

        let mut empty = RunningMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: tiny variance on a huge offset.
        let offset = 1e9;
        let xs: Vec<f64> = (0..1000).map(|i| offset + (i % 2) as f64).collect();
        let mut acc = RunningMoments::new();
        acc.extend_from_slice(&xs);
        assert!((acc.variance() - 0.25).abs() < 1e-6, "{}", acc.variance());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn variance_nonnegative_and_mean_bounded(
                xs in proptest::collection::vec(-100.0f64..100.0, 1..200)
            ) {
                let mut acc = RunningMoments::new();
                acc.extend_from_slice(&xs);
                prop_assert!(acc.variance() >= 0.0);
                prop_assert!(acc.mean() >= acc.min() - 1e-9);
                prop_assert!(acc.mean() <= acc.max() + 1e-9);
            }

            #[test]
            fn merge_is_order_independent(
                xs in proptest::collection::vec(-10.0f64..10.0, 1..100),
                ys in proptest::collection::vec(-10.0f64..10.0, 1..100),
            ) {
                let mut a1 = RunningMoments::new();
                a1.extend_from_slice(&xs);
                let mut b1 = RunningMoments::new();
                b1.extend_from_slice(&ys);
                a1.merge(&b1);

                let mut b2 = RunningMoments::new();
                b2.extend_from_slice(&ys);
                let mut a2 = RunningMoments::new();
                a2.extend_from_slice(&xs);
                b2.merge(&a2);

                prop_assert!((a1.mean() - b2.mean()).abs() < 1e-9);
                prop_assert!((a1.variance() - b2.variance()).abs() < 1e-9);
                prop_assert_eq!(a1.count(), b2.count());
            }
        }
    }
}
