//! Categorical data and histogram (one-hot) encoding for frequency estimation.
//!
//! Section V-C of the paper extends HDR4ME to frequency estimation: a
//! categorical value in a dimension with `v_j` categories is encoded into a
//! `v_j`-entry vector with a single `1.0` at the category's position, each
//! entry is perturbed with budget `ε/(2m)` (histogram encoding à la Wang et
//! al.), and the per-entry means recovered by the collector are exactly the
//! category frequencies. This module provides the categorical dataset, the
//! encoding, and the ground-truth frequencies to compare against.

use crate::{DataError, Dataset};
use rand::Rng;

/// An `n × d` categorical dataset; column `j` takes values in
/// `0..categories[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalDataset {
    users: usize,
    categories: Vec<usize>,
    /// Row-major category indices.
    values: Vec<usize>,
}

impl CategoricalDataset {
    /// Build from a row-major buffer of category indices.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for empty shapes,
    /// [`DataError::LengthMismatch`] when the buffer size is wrong, and
    /// [`DataError::InvalidParameter`] when any value exceeds its column's
    /// category count or a column has fewer than two categories.
    pub fn from_rows(
        users: usize,
        categories: Vec<usize>,
        values: Vec<usize>,
    ) -> crate::Result<Self> {
        if users == 0 || categories.is_empty() {
            return Err(DataError::InvalidShape {
                reason: format!(
                    "require users > 0 and at least one dimension, got {users} x {}",
                    categories.len()
                ),
            });
        }
        if categories.iter().any(|&v| v < 2) {
            return Err(DataError::InvalidParameter {
                name: "categories",
                reason: "every dimension needs at least two categories".into(),
            });
        }
        let dims = categories.len();
        if values.len() != users * dims {
            return Err(DataError::LengthMismatch {
                expected: users * dims,
                actual: values.len(),
            });
        }
        for row in values.chunks(dims) {
            for ((j, &cats), &v) in categories.iter().enumerate().zip(row) {
                if v >= cats {
                    return Err(DataError::InvalidParameter {
                        name: "values",
                        reason: format!("value {v} in column {j} exceeds {cats} categories"),
                    });
                }
            }
        }
        Ok(Self {
            users,
            categories,
            values,
        })
    }

    /// Generate a random categorical dataset where column `j` follows a Zipf-like
    /// skewed distribution over its categories (frequency of category `c`
    /// proportional to `1/(c+1)`), which gives non-trivial frequency vectors.
    ///
    /// # Errors
    /// Same validation as [`CategoricalDataset::from_rows`].
    pub fn generate_zipf<R: Rng + ?Sized>(
        users: usize,
        categories: Vec<usize>,
        rng: &mut R,
    ) -> crate::Result<Self> {
        if users == 0 || categories.is_empty() {
            return Err(DataError::InvalidShape {
                reason: "require users > 0 and at least one dimension".into(),
            });
        }
        let dims = categories.len();
        let mut values = Vec::with_capacity(users * dims);
        // Pre-compute cumulative weights per column.
        let cumulative: Vec<Vec<f64>> = categories
            .iter()
            .map(|&cats| {
                let weights: Vec<f64> = (0..cats).map(|c| 1.0 / (c as f64 + 1.0)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            })
            .collect();
        for _ in 0..users {
            for cum in &cumulative {
                let u: f64 = rng.gen_range(0.0..1.0);
                let c = cum
                    .iter()
                    .position(|&edge| u <= edge)
                    .unwrap_or(cum.len() - 1);
                values.push(c);
            }
        }
        Self::from_rows(users, categories, values)
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of categorical dimensions.
    pub fn dims(&self) -> usize {
        self.categories.len()
    }

    /// Number of categories in each dimension.
    pub fn categories(&self) -> &[usize] {
        &self.categories
    }

    /// The category of user `i` in dimension `j`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] for invalid indices.
    #[expect(
        clippy::indexing_slicing,
        reason = "i < users and j < dims are checked first, so the flat index is < values.len()"
    )]
    pub fn value(&self, i: usize, j: usize) -> crate::Result<usize> {
        if i >= self.users {
            return Err(DataError::IndexOutOfBounds {
                what: "row",
                index: i,
                len: self.users,
            });
        }
        if j >= self.dims() {
            return Err(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims(),
            });
        }
        Ok(self.values[i * self.dims() + j])
    }

    /// The true frequency vector of dimension `j` (fractions summing to 1).
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when `j` is invalid.
    pub fn true_frequencies(&self, j: usize) -> crate::Result<Vec<f64>> {
        let Some(&cats) = self.categories.get(j) else {
            return Err(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims(),
            });
        };
        let mut counts = vec![0usize; cats];
        for row in self.values.chunks(self.dims()) {
            // Stored values are < categories[j] by construction, so the
            // tally slot always exists; get_mut keeps that an invariant
            // rather than a panic site.
            if let Some(&c) = row.get(j) {
                if let Some(slot) = counts.get_mut(c) {
                    *slot += 1;
                }
            }
        }
        Ok(counts
            .iter()
            .map(|&c| c as f64 / self.users as f64)
            .collect())
    }

    /// Histogram-encode *all* dimensions into one wide numeric dataset with
    /// `Σ_j categories[j]` columns, along with the per-dimension column offsets.
    #[expect(
        clippy::expect_used,
        reason = "values holds users * total entries, exactly the shape from_rows validates"
    )]
    pub fn encode_all(&self) -> (Dataset, Vec<usize>) {
        let total: usize = self.categories.iter().sum();
        let mut offsets = Vec::with_capacity(self.dims());
        let mut acc = 0usize;
        for &c in &self.categories {
            offsets.push(acc);
            acc += c;
        }
        let mut values = vec![0.0; self.users * total];
        for (row, user_vals) in values
            .chunks_mut(total)
            .zip(self.values.chunks(self.dims()))
        {
            for (&off, &c) in offsets.iter().zip(user_vals) {
                // off + c < off + categories[j] <= total for every stored
                // value, so the one-hot slot always exists.
                if let Some(slot) = row.get_mut(off + c) {
                    *slot = 1.0;
                }
            }
        }
        (
            Dataset::from_rows(self.users, total, values).expect("shape is valid"),
            offsets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> CategoricalDataset {
        // 4 users, dims with 2 and 3 categories.
        CategoricalDataset::from_rows(4, vec![2, 3], vec![0, 2, 1, 0, 0, 1, 1, 2]).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(CategoricalDataset::from_rows(0, vec![2], vec![]).is_err());
        assert!(CategoricalDataset::from_rows(1, vec![], vec![]).is_err());
        assert!(CategoricalDataset::from_rows(1, vec![1], vec![0]).is_err());
        assert!(CategoricalDataset::from_rows(1, vec![2], vec![5]).is_err());
        assert!(CategoricalDataset::from_rows(2, vec![2], vec![0]).is_err());
        assert!(CategoricalDataset::from_rows(2, vec![2], vec![0, 1]).is_ok());
    }

    #[test]
    fn true_frequencies_sum_to_one() {
        let d = small();
        let f0 = d.true_frequencies(0).unwrap();
        assert_eq!(f0, vec![0.5, 0.5]);
        let f1 = d.true_frequencies(1).unwrap();
        assert_eq!(f1, vec![0.25, 0.25, 0.5]);
        assert!(d.true_frequencies(2).is_err());
    }

    #[test]
    fn encode_all_concatenates_dimensions() {
        let d = small();
        let (encoded, offsets) = d.encode_all();
        assert_eq!(encoded.dims(), 5);
        assert_eq!(offsets, vec![0, 2]);
        let means = encoded.true_means();
        assert_eq!(&means[0..2], d.true_frequencies(0).unwrap().as_slice());
        assert_eq!(&means[2..5], d.true_frequencies(1).unwrap().as_slice());
    }

    #[test]
    fn zipf_generation_is_skewed_and_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = CategoricalDataset::generate_zipf(20_000, vec![5, 3], &mut rng).unwrap();
        assert_eq!(d.users(), 20_000);
        let f = d.true_frequencies(0).unwrap();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Zipf skew: first category clearly more frequent than the last.
        assert!(f[0] > f[4] * 2.0, "frequencies = {f:?}");
        assert!(CategoricalDataset::generate_zipf(0, vec![2], &mut rng).is_err());
    }

    #[test]
    fn value_accessor_bounds_check() {
        let d = small();
        assert_eq!(d.value(0, 1).unwrap(), 2);
        assert!(d.value(4, 0).is_err());
        assert!(d.value(0, 2).is_err());
    }
}
