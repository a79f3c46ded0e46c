//! Fixed-bin histograms and empirical densities.
//!
//! Figures 2 and 3 of the paper overlay the *empirical* probability density of
//! the simulated deviation `θ̂_j − θ̄_j` (over many repeated trials) on the
//! Gaussian density predicted by the analytical framework. This module builds
//! that empirical density.

use crate::MathError;

/// A fixed-width histogram over `[lo, hi)` with equally sized bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Create a histogram spanning `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Errors
    /// Returns [`MathError::InvalidParameter`] when the range is degenerate or
    /// `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> crate::Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || hi <= lo {
            return Err(MathError::InvalidParameter {
                name: "range",
                reason: format!("require finite lo < hi, got [{lo}, {hi})"),
            });
        }
        if bins == 0 {
            return Err(MathError::InvalidParameter {
                name: "bins",
                reason: "must be positive".into(),
            });
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            below: 0,
            above: 0,
        })
    }

    /// Build a histogram directly from samples, spanning their observed range
    /// (expanded by 1% on each side so the maximum lands in the last bin).
    ///
    /// # Errors
    /// Returns [`MathError::EmptyInput`] when `samples` is empty, and
    /// [`MathError::InvalidParameter`] when all samples are identical (the
    /// range would be degenerate) or `bins == 0`.
    pub fn from_samples(samples: &[f64], bins: usize) -> crate::Result<Self> {
        if samples.is_empty() {
            return Err(MathError::EmptyInput("Histogram::from_samples"));
        }
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pad = (hi - lo).abs().max(1e-12) * 0.01;
        let mut h = Self::new(lo - pad, hi + pad, bins)?;
        h.extend_from_slice(samples);
        Ok(h)
    }

    /// Record one observation. Values outside `[lo, hi)` are counted in the
    /// overflow/underflow tallies and excluded from the density; a NaN is
    /// counted as overflow.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx is clamped to counts.len() - 1, and new() rejects zero bins"
    )]
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.below += 1;
            return;
        }
        if x >= self.hi || x.is_nan() {
            self.above += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Record every observation from a slice.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Total number of observations pushed (including out-of-range ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.below
    }

    /// Number of observations at or above the upper edge of the range, or
    /// NaN.
    pub fn overflow(&self) -> u64 {
        self.above
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Empirical probability density: `(bin centre, density)` pairs such that
    /// `Σ density · bin_width ≈ fraction of in-range observations`.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let in_range = self.total - self.below - self.above;
        if in_range == 0 {
            return self
                .counts
                .iter()
                .enumerate()
                .map(|(i, _)| (self.bin_center(i), 0.0))
                .collect();
        }
        let norm = 1.0 / (in_range as f64 * self.bin_width());
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 * norm))
            .collect()
    }

    /// Empirical cumulative distribution evaluated at the bin edges
    /// (fraction of in-range observations at or below each upper edge).
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let in_range = (self.total - self.below - self.above).max(1);
        let mut acc = 0u64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (
                    self.lo + (i as f64 + 1.0) * self.bin_width(),
                    acc as f64 / in_range as f64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Histogram::new(1.0, 1.0, 10).is_err());
        assert!(Histogram::new(1.0, 0.0, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::from_samples(&[], 10).is_err());
    }

    #[test]
    fn counts_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.extend_from_slice(&[0.1, 0.3, 0.6, 0.6, 0.9]);
        assert_eq!(h.counts(), &[1, 1, 2, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_values_are_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.extend_from_slice(&[-0.5, 0.25, 1.0, 2.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2); // 1.0 is the exclusive upper edge
        assert_eq!(h.counts(), &[1, 0]);
    }

    #[test]
    fn nan_is_tallied_as_overflow_and_kept_out_of_the_density() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.push(f64::NAN);
        assert_eq!(h.counts(), &[0, 0, 0, 0]);
        assert_eq!(h.overflow(), 1);
        let mut clean = Histogram::new(0.0, 1.0, 4).unwrap();
        assert_eq!(h.density(), clean.density());
        h.extend_from_slice(&[0.1, 0.6, 0.6]);
        clean.extend_from_slice(&[0.1, 0.6, 0.6]);
        assert_eq!(h.density(), clean.density());
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::new(-2.0, 2.0, 50).unwrap();
        let xs: Vec<f64> = (0..10_000)
            .map(|i| -1.9 + 3.8 * (i as f64) / 10_000.0)
            .collect();
        h.extend_from_slice(&xs);
        let total: f64 = h.density().iter().map(|(_, d)| d * h.bin_width()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn density_of_uniform_data_is_flat() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        let xs: Vec<f64> = (0..100_000).map(|i| (i as f64 + 0.5) / 100_000.0).collect();
        h.extend_from_slice(&xs);
        for (_, d) in h.density() {
            assert!((d - 1.0).abs() < 0.01, "density = {d}");
        }
    }

    #[test]
    fn from_samples_covers_all_points() {
        let xs = [3.0, -1.0, 0.5, 2.0];
        let h = Histogram::from_samples(&xs, 8).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new(0.0, 1.0, 5).unwrap();
        h.extend_from_slice(&[0.05, 0.15, 0.35, 0.55, 0.75, 0.95]);
        let cdf = h.cdf();
        let mut prev = 0.0;
        for &(_, p) in &cdf {
            assert!(p >= prev);
            prev = p;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_density_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert!(h.density().iter().all(|&(_, d)| d == 0.0));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn total_count_preserved(
                xs in proptest::collection::vec(-5.0f64..5.0, 1..300),
                bins in 1usize..64,
            ) {
                let mut h = Histogram::new(-1.0, 1.0, bins).unwrap();
                h.extend_from_slice(&xs);
                let binned: u64 = h.counts().iter().sum();
                prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
            }

            #[test]
            fn density_normalised(
                xs in proptest::collection::vec(-0.99f64..0.99, 2..300),
                bins in 1usize..64,
            ) {
                let mut h = Histogram::new(-1.0, 1.0, bins).unwrap();
                h.extend_from_slice(&xs);
                let total: f64 = h.density().iter().map(|(_, d)| d * h.bin_width()).sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }
}
