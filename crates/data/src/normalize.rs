//! Column-wise normalization into `[-1, 1]` (or any target interval).
//!
//! The paper assumes every dimension is normalized into `[-1, 1]`
//! (Section III-B) and the experiments state "each dimension is normalized
//! into [-1, 1]". This module performs the min–max map and remembers the
//! original ranges so results can be reported in the original units if needed.

use crate::{DataError, Dataset};

/// A per-column affine map recording how a dataset was normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Original `(min, max)` per column.
    ranges: Vec<(f64, f64)>,
    /// Target interval.
    target: (f64, f64),
}

impl Normalizer {
    /// Fit a min–max normalizer mapping each column of `data` onto
    /// `[target.0, target.1]`.
    ///
    /// Constant columns (max == min) are mapped to the midpoint of the target
    /// interval.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] when the target interval is
    /// degenerate or not finite.
    pub fn fit(data: &Dataset, target: (f64, f64)) -> crate::Result<Self> {
        if !(target.0.is_finite() && target.1.is_finite() && target.0 < target.1) {
            return Err(DataError::InvalidParameter {
                name: "target",
                reason: format!("require finite lo < hi, got {target:?}"),
            });
        }
        Ok(Self {
            ranges: data.column_ranges(),
            target,
        })
    }

    /// Fit onto the canonical `[-1, 1]` interval.
    ///
    /// # Errors
    /// Never fails for this target; the `Result` mirrors [`Normalizer::fit`].
    pub fn fit_symmetric(data: &Dataset) -> crate::Result<Self> {
        Self::fit(data, (-1.0, 1.0))
    }

    /// The original per-column ranges.
    pub fn ranges(&self) -> &[(f64, f64)] {
        &self.ranges
    }

    /// Apply the normalization, producing a new dataset.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] when `data` has a different number
    /// of columns than the fitted ranges.
    pub fn transform(&self, data: &Dataset) -> crate::Result<Dataset> {
        if data.dims() != self.ranges.len() {
            return Err(DataError::InvalidShape {
                reason: format!(
                    "normalizer fitted on {} columns, dataset has {}",
                    self.ranges.len(),
                    data.dims()
                ),
            });
        }
        let (lo, hi) = self.target;
        let mid = 0.5 * (lo + hi);
        let mut values = Vec::with_capacity(data.users() * data.dims());
        for row in data.as_slice().chunks(data.dims()) {
            for (&x, &(cmin, cmax)) in row.iter().zip(&self.ranges) {
                let y = if cmax > cmin {
                    lo + (x - cmin) / (cmax - cmin) * (hi - lo)
                } else {
                    mid
                };
                values.push(y.clamp(lo, hi));
            }
        }
        Dataset::from_rows(data.users(), data.dims(), values)
    }
}

/// Convenience: fit and apply a `[-1, 1]` normalization in one call.
///
/// # Errors
/// Propagates [`Normalizer::fit`]/[`Normalizer::transform`] errors.
pub fn normalize_symmetric(data: &Dataset) -> crate::Result<(Dataset, Normalizer)> {
    let norm = Normalizer::fit_symmetric(data)?;
    let transformed = norm.transform(data)?;
    Ok((transformed, norm))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> Dataset {
        Dataset::from_rows(3, 2, vec![0.0, 10.0, 5.0, 20.0, 10.0, 30.0]).unwrap()
    }

    #[test]
    fn fit_validates_target() {
        let d = raw();
        assert!(Normalizer::fit(&d, (1.0, 1.0)).is_err());
        assert!(Normalizer::fit(&d, (1.0, 0.0)).is_err());
        assert!(Normalizer::fit(&d, (f64::NAN, 1.0)).is_err());
        assert!(Normalizer::fit(&d, (0.0, 1.0)).is_ok());
    }

    #[test]
    fn transform_maps_onto_target_interval() {
        let d = raw();
        let (norm, fitted) = {
            let f = Normalizer::fit_symmetric(&d).unwrap();
            let t = f.transform(&d).unwrap();
            (t, f)
        };
        assert!(norm.all_within(-1.0, 1.0));
        // Column 0 spans 0..10 -> -1, 0, 1.
        assert_eq!(norm.column(0).unwrap(), vec![-1.0, 0.0, 1.0]);
        assert_eq!(fitted.ranges()[0], (0.0, 10.0));
    }

    #[test]
    fn constant_column_maps_to_midpoint() {
        let d = Dataset::from_rows(2, 2, vec![3.0, 1.0, 3.0, 2.0]).unwrap();
        let (t, _) = normalize_symmetric(&d).unwrap();
        assert_eq!(t.column(0).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn transform_rejects_mismatched_dataset() {
        let d = raw();
        let norm = Normalizer::fit_symmetric(&d).unwrap();
        let other = Dataset::from_rows(2, 3, vec![0.0; 6]).unwrap();
        assert!(norm.transform(&other).is_err());
    }

    #[test]
    fn out_of_range_values_are_clamped_on_transform() {
        let d = raw();
        let norm = Normalizer::fit(&d, (0.0, 1.0)).unwrap();
        // New data exceeding the fitted range gets clamped.
        let fresh = Dataset::from_rows(1, 2, vec![100.0, -100.0]).unwrap();
        let t = norm.transform(&fresh).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 0.0]);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn normalized_data_is_always_in_range(
                values in proptest::collection::vec(-1e3f64..1e3, 4..80),
            ) {
                let dims = 2;
                let users = values.len() / dims;
                let d = Dataset::from_rows(users, dims, values[..users * dims].to_vec()).unwrap();
                let (t, _) = normalize_symmetric(&d).unwrap();
                prop_assert!(t.all_within(-1.0, 1.0));
            }
        }
    }
}
