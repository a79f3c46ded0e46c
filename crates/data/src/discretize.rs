//! Discrete value distributions per dimension.
//!
//! The analytical framework's Lemma 3 needs, for every *bounded* mechanism,
//! the set of distinct original values `{v_z}` and their probabilities
//! `{p_z}` in each dimension: the variance and bias of the deviation are the
//! `p_z`-weighted expectations of the mechanism's per-value moments. The case
//! study of Section IV-C uses exactly such a discretized distribution
//! (ten values `0.1 … 1.0`, each with probability 10%).
//!
//! [`DiscreteValueDistribution`] represents one dimension's distribution, built
//! either explicitly, from a data column (exact distinct values), or by
//! bucketing a continuous column into a fixed number of representative values
//! ("discretize with sampling", as the paper puts it).

use crate::DataError;

/// A discrete distribution over the distinct original values of one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteValueDistribution {
    values: Vec<f64>,
    probabilities: Vec<f64>,
}

impl DiscreteValueDistribution {
    /// Build from explicit values and probabilities.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] when the slices are empty or of
    /// different lengths, and [`DataError::InvalidParameter`] when any
    /// probability is negative/NaN or the probabilities do not sum to 1
    /// (within `1e-9`).
    pub fn new(values: Vec<f64>, probabilities: Vec<f64>) -> crate::Result<Self> {
        if values.is_empty() || values.len() != probabilities.len() {
            return Err(DataError::InvalidShape {
                reason: format!(
                    "need equal, non-zero numbers of values and probabilities, got {} and {}",
                    values.len(),
                    probabilities.len()
                ),
            });
        }
        if probabilities.iter().any(|p| !(p.is_finite() && *p >= 0.0)) {
            return Err(DataError::InvalidParameter {
                name: "probabilities",
                reason: "probabilities must be finite and non-negative".into(),
            });
        }
        let total: f64 = probabilities.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(DataError::InvalidParameter {
                name: "probabilities",
                reason: format!("probabilities must sum to 1, got {total}"),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(DataError::InvalidParameter {
                name: "values",
                reason: "values must be finite".into(),
            });
        }
        Ok(Self {
            values,
            probabilities,
        })
    }

    /// Uniform distribution over the given values.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] when `values` is empty.
    pub fn uniform_over(values: Vec<f64>) -> crate::Result<Self> {
        if values.is_empty() {
            return Err(DataError::InvalidShape {
                reason: "cannot build a distribution over zero values".into(),
            });
        }
        let p = 1.0 / values.len() as f64;
        let probabilities = vec![p; values.len()];
        Self::new(values, probabilities)
    }

    /// The distribution used by the paper's Section IV-C case study:
    /// values `0.1, 0.2, …, 1.0`, each with probability 10%.
    #[expect(
        clippy::expect_used,
        reason = "uniform_over only rejects empty inputs, and this one has ten values"
    )]
    pub fn case_study() -> Self {
        let values: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
        Self::uniform_over(values).expect("static construction is valid")
    }

    /// Bucket a continuous column into `buckets` equal-width bins over its
    /// observed range, using each bin's midpoint as the representative value.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for an empty column and
    /// [`DataError::InvalidParameter`] when `buckets == 0`.
    pub fn from_column_bucketed(column: &[f64], buckets: usize) -> crate::Result<Self> {
        if column.is_empty() {
            return Err(DataError::InvalidShape {
                reason: "empty column".into(),
            });
        }
        if buckets == 0 {
            return Err(DataError::InvalidParameter {
                name: "buckets",
                reason: "must be positive".into(),
            });
        }
        let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi <= lo {
            // A constant column collapses to a single value.
            return Self::new(vec![lo], vec![1.0]);
        }
        // Multiply by the inverse bucket width rather than dividing: one fma
        // per element instead of a division, and the exact same expression the
        // blocked columnar kernel uses, so both paths bucket identically.
        let inv = buckets as f64 / (hi - lo);
        let mut counts = vec![0u32; buckets];
        for &x in column {
            let idx = (((x - lo) * inv) as usize).min(buckets - 1);
            if let Some(slot) = counts.get_mut(idx) {
                *slot += 1;
            }
        }
        Self::from_bucket_counts(lo, hi, &counts, column.len())
    }

    /// Build the bucketed distribution from precomputed per-bucket counts over
    /// the observed range `[lo, hi]`.
    ///
    /// This is the shared back half of [`DiscreteValueDistribution::from_column_bucketed`];
    /// the dataset's blocked column-profile kernel produces the counts in a
    /// single contiguous sweep and then materializes distributions through this
    /// constructor, so the two paths are bit-identical by construction.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] when `counts` is empty or `n == 0`,
    /// and propagates [`DiscreteValueDistribution::new`] validation.
    pub fn from_bucket_counts(lo: f64, hi: f64, counts: &[u32], n: usize) -> crate::Result<Self> {
        if counts.is_empty() || n == 0 {
            return Err(DataError::InvalidShape {
                reason: "need at least one bucket and one observation".into(),
            });
        }
        if hi <= lo {
            // A constant column collapses to a single value.
            return Self::new(vec![lo], vec![1.0]);
        }
        let buckets = counts.len();
        let width = (hi - lo) / buckets as f64;
        let n = n as f64;
        let mut values = Vec::new();
        let mut probabilities = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                values.push(lo + (i as f64 + 0.5) * width);
                probabilities.push(c as f64 / n);
            }
        }
        let total: f64 = probabilities.iter().sum();
        let probabilities = probabilities.iter().map(|p| p / total).collect();
        Self::new(values, probabilities)
    }

    /// The distinct values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Their probabilities (same order as [`DiscreteValueDistribution::values`]).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Number of distinct values `v_j`.
    pub fn support_size(&self) -> usize {
        self.values.len()
    }

    /// The distribution mean `Σ p_z v_z`.
    pub fn mean(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.probabilities)
            .map(|(v, p)| v * p)
            .sum()
    }

    /// Expectation of an arbitrary per-value function, `Σ p_z f(v_z)`.
    ///
    /// This is the workhorse of Lemma 3: the framework calls it with the
    /// mechanism's `bias` and `variance` closures.
    pub fn expectation<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        self.values
            .iter()
            .zip(&self.probabilities)
            .map(|(&v, &p)| p * f(v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_inputs() {
        assert!(DiscreteValueDistribution::new(vec![], vec![]).is_err());
        assert!(DiscreteValueDistribution::new(vec![1.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteValueDistribution::new(vec![1.0, 2.0], vec![0.5, 0.6]).is_err());
        assert!(DiscreteValueDistribution::new(vec![1.0, 2.0], vec![-0.5, 1.5]).is_err());
        assert!(DiscreteValueDistribution::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(DiscreteValueDistribution::new(vec![1.0, 2.0], vec![0.3, 0.7]).is_ok());
    }

    #[test]
    fn case_study_distribution_matches_paper() {
        let d = DiscreteValueDistribution::case_study();
        assert_eq!(d.support_size(), 10);
        assert!((d.mean() - 0.55).abs() < 1e-12);
        assert!(d.probabilities().iter().all(|&p| (p - 0.1).abs() < 1e-12));
        assert!((d.values()[0] - 0.1).abs() < 1e-12);
        assert!((d.values()[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucketed_distribution_approximates_mean() {
        let col: Vec<f64> = (0..1000).map(|i| -1.0 + 2.0 * i as f64 / 999.0).collect();
        let d = DiscreteValueDistribution::from_column_bucketed(&col, 20).unwrap();
        assert!(d.support_size() <= 20);
        assert!(d.mean().abs() < 0.01);
        assert!(DiscreteValueDistribution::from_column_bucketed(&col, 0).is_err());
    }

    #[test]
    fn bucketed_constant_column_is_single_value() {
        let d = DiscreteValueDistribution::from_column_bucketed(&[0.3; 50], 10).unwrap();
        assert_eq!(d.support_size(), 1);
        assert_eq!(d.values()[0], 0.3);
        assert_eq!(d.probabilities()[0], 1.0);
    }

    #[test]
    fn from_bucket_counts_matches_from_column_bucketed() {
        let col: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin()).collect();
        let buckets = 16;
        let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let inv = buckets as f64 / (hi - lo);
        let mut counts = vec![0u32; buckets];
        for &x in &col {
            counts[(((x - lo) * inv) as usize).min(buckets - 1)] += 1;
        }
        let from_counts =
            DiscreteValueDistribution::from_bucket_counts(lo, hi, &counts, col.len()).unwrap();
        let from_column = DiscreteValueDistribution::from_column_bucketed(&col, buckets).unwrap();
        assert_eq!(from_counts, from_column);
        assert!(DiscreteValueDistribution::from_bucket_counts(0.0, 1.0, &[], 5).is_err());
        assert!(DiscreteValueDistribution::from_bucket_counts(0.0, 1.0, &[5], 0).is_err());
    }

    #[test]
    fn from_bucket_counts_constant_column_is_single_value() {
        let d = DiscreteValueDistribution::from_bucket_counts(0.3, 0.3, &[50, 0], 50).unwrap();
        assert_eq!(d.support_size(), 1);
        assert_eq!(d.values()[0], 0.3);
    }

    #[test]
    fn expectation_weights_by_probability() {
        let d = DiscreteValueDistribution::new(vec![0.0, 1.0], vec![0.25, 0.75]).unwrap();
        assert!((d.expectation(|v| v * v) - 0.75).abs() < 1e-12);
        assert!((d.expectation(|_| 1.0) - 1.0).abs() < 1e-12);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn bucketed_mean_close_to_column_mean(
                col in proptest::collection::vec(-1.0f64..1.0, 10..300),
                buckets in 5usize..100,
            ) {
                let d = DiscreteValueDistribution::from_column_bucketed(&col, buckets).unwrap();
                let col_mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
                // Bucketing error is at most half a bucket width (range <= 2).
                let max_err = 1.0 / buckets as f64 + 1e-9;
                prop_assert!((d.mean() - col_mean).abs() <= max_err);
            }
        }
    }
}
