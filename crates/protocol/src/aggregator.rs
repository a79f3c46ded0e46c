//! The collector-side aggregator: the "calibration + aggregation" phases of
//! the paper's generalized mechanism (Section IV-B).
//!
//! The aggregator ingests [`Report`]s, keeps per-dimension running sums, and
//! produces the naive estimated mean `θ̂_j = (1/r_j) Σ_i t*_ij`. This is the
//! baseline aggregation whose sub-optimality in high-dimensional space the
//! paper establishes, and the input HDR4ME re-calibrates.
//!
//! This type is the *reference* single-loop implementation: it additionally
//! tracks Welford running variances and extrema for diagnostics. The scaled
//! collection path lives in [`crate::ingest`], whose sharded engine must (and
//! is tested to) produce the same estimated means.

use crate::{ProtocolError, Report};
use hdldp_math::RunningMoments;

/// Collector-side accumulator of perturbed reports.
#[derive(Debug, Clone)]
pub struct Aggregator {
    dims: usize,
    per_dimension: Vec<RunningMoments>,
    reports: usize,
}

impl Aggregator {
    /// Create an aggregator for `dims` dimensions.
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
            dims,
            per_dimension: vec![RunningMoments::new(); dims],
            reports: 0,
        })
    }

    /// The configured dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of reports ingested so far.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Ingest one report.
    ///
    /// # Errors
    /// Returns [`ProtocolError::DimensionOutOfRange`] when the report mentions
    /// a dimension `>= dims`; the aggregator state is untouched in that case.
    pub fn ingest(&mut self, report: &Report) -> crate::Result<()> {
        // Validate with an early-exit scan (no max reduction) so the
        // rejected-report guarantee stays atomic without a second full pass
        // of work in the hot loop.
        for &(dim, _) in report.entries() {
            if dim >= self.dims {
                return Err(ProtocolError::DimensionOutOfRange {
                    dimension: dim,
                    dims: self.dims,
                });
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "every dim was checked < dims above, and per_dimension holds dims entries"
        )]
        for &(dim, value) in report.entries() {
            self.per_dimension[dim].push(value);
        }
        self.reports += 1;
        Ok(())
    }

    /// Merge another aggregator (e.g. from a parallel shard) into this one.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the dimensionalities differ.
    pub fn merge(&mut self, other: &Aggregator) -> crate::Result<()> {
        if other.dims != self.dims {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: format!(
                    "cannot merge aggregators of {} and {} dims",
                    self.dims, other.dims
                ),
            });
        }
        for (mine, theirs) in self.per_dimension.iter_mut().zip(&other.per_dimension) {
            mine.merge(theirs);
        }
        self.reports += other.reports;
        Ok(())
    }

    /// Number of values received in each dimension (`r_j`).
    pub fn report_counts(&self) -> Vec<u64> {
        self.per_dimension.iter().map(|m| m.count()).collect()
    }

    /// The naive estimated mean `θ̂` (per-dimension average of the received
    /// perturbed values).
    ///
    /// # Errors
    /// Returns [`ProtocolError::EmptyDimension`] if any dimension received no
    /// reports (its mean is undefined).
    pub fn estimated_means(&self) -> crate::Result<Vec<f64>> {
        let mut means = Vec::with_capacity(self.dims);
        for (j, acc) in self.per_dimension.iter().enumerate() {
            if acc.is_empty() {
                return Err(ProtocolError::EmptyDimension { dimension: j });
            }
            means.push(acc.mean());
        }
        Ok(means)
    }

    /// Per-dimension sample variance of the received perturbed values
    /// (diagnostic; used by tests and the examples to illustrate how noisy the
    /// raw reports are).
    pub fn report_variances(&self) -> Vec<f64> {
        self.per_dimension.iter().map(|m| m.variance()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_requires_positive_dims() {
        assert!(Aggregator::new(0).is_err());
        assert!(Aggregator::new(3).is_ok());
    }

    #[test]
    fn ingest_accumulates_per_dimension_means() {
        let mut agg = Aggregator::new(3).unwrap();
        agg.ingest(&Report::new(vec![(0, 1.0), (2, -1.0)])).unwrap();
        agg.ingest(&Report::new(vec![(0, 3.0), (1, 0.5)])).unwrap();
        assert_eq!(agg.reports(), 2);
        assert_eq!(agg.report_counts(), vec![2, 1, 1]);
        let means = agg.estimated_means().unwrap();
        assert_eq!(means, vec![2.0, 0.5, -1.0]);
    }

    #[test]
    fn out_of_range_dimension_is_rejected_atomically() {
        let mut agg = Aggregator::new(2).unwrap();
        let err = agg.ingest(&Report::new(vec![(0, 1.0), (5, 1.0)]));
        assert!(err.is_err());
        // Nothing was recorded.
        assert_eq!(agg.reports(), 0);
        assert_eq!(agg.report_counts(), vec![0, 0]);
    }

    #[test]
    fn empty_dimension_is_an_error() {
        let mut agg = Aggregator::new(2).unwrap();
        agg.ingest(&Report::new(vec![(0, 1.0)])).unwrap();
        assert!(matches!(
            agg.estimated_means(),
            Err(ProtocolError::EmptyDimension { dimension: 1 })
        ));
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = Aggregator::new(2).unwrap();
        a.ingest(&Report::new(vec![(0, 1.0), (1, 2.0)])).unwrap();
        let mut b = Aggregator::new(2).unwrap();
        b.ingest(&Report::new(vec![(0, 3.0)])).unwrap();
        b.ingest(&Report::new(vec![(1, 4.0)])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.reports(), 3);
        assert_eq!(a.report_counts(), vec![2, 2]);
        assert_eq!(a.estimated_means().unwrap(), vec![2.0, 3.0]);
        let wrong = Aggregator::new(3).unwrap();
        assert!(a.merge(&wrong).is_err());
    }

    #[test]
    fn report_variances_track_spread() {
        let mut agg = Aggregator::new(1).unwrap();
        for v in [1.0, 3.0, 5.0] {
            agg.ingest(&Report::new(vec![(0, v)])).unwrap();
        }
        let var = agg.report_variances()[0];
        assert!((var - 8.0 / 3.0).abs() < 1e-12);
    }
}
