//! Descriptive statistics and the utility metrics used by the paper.
//!
//! The paper measures utility in two equivalent ways (Section III-B):
//!
//! * the Euclidean deviation `‖θ̂ − θ̄‖₂` (Equation 2), and
//! * the mean squared error `MSE(θ̂) = (1/d) Σ_j (θ̂_j − θ̄_j)²` (Equation 3),
//!
//! related by `MSE = ‖θ̂ − θ̄‖₂² / d`. Both are provided here, together with
//! plain sample statistics used everywhere else in the workspace.

use crate::MathError;

/// Arithmetic mean of a slice.
///
/// # Errors
/// Returns [`MathError::EmptyInput`] on an empty slice.
pub fn mean(xs: &[f64]) -> crate::Result<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput("mean"));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased (n−1) sample variance.
///
/// # Errors
/// Returns [`MathError::EmptyInput`] when fewer than two observations are given.
pub fn sample_variance(xs: &[f64]) -> crate::Result<f64> {
    if xs.len() < 2 {
        return Err(MathError::EmptyInput("sample_variance needs >= 2 values"));
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Population (n) variance.
///
/// # Errors
/// Returns [`MathError::EmptyInput`] on an empty slice.
pub fn population_variance(xs: &[f64]) -> crate::Result<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput("population_variance"));
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / xs.len() as f64)
}

/// Sample standard deviation (square root of the unbiased variance).
///
/// # Errors
/// Propagates [`sample_variance`] errors.
pub fn std_dev(xs: &[f64]) -> crate::Result<f64> {
    Ok(sample_variance(xs)?.sqrt())
}

/// Mean squared error between an estimate and the ground truth
/// (Equation 3 of the paper).
///
/// # Errors
/// Returns [`MathError::LengthMismatch`] when the slices differ in length and
/// [`MathError::EmptyInput`] when they are empty.
pub fn mse(estimate: &[f64], truth: &[f64]) -> crate::Result<f64> {
    if estimate.len() != truth.len() {
        return Err(MathError::LengthMismatch {
            left: estimate.len(),
            right: truth.len(),
        });
    }
    if estimate.is_empty() {
        return Err(MathError::EmptyInput("mse"));
    }
    let ss: f64 = estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    Ok(ss / estimate.len() as f64)
}

/// Mean absolute error between an estimate and the ground truth.
///
/// # Errors
/// Same conditions as [`mse`].
pub fn mae(estimate: &[f64], truth: &[f64]) -> crate::Result<f64> {
    if estimate.len() != truth.len() {
        return Err(MathError::LengthMismatch {
            left: estimate.len(),
            right: truth.len(),
        });
    }
    if estimate.is_empty() {
        return Err(MathError::EmptyInput("mae"));
    }
    let ss: f64 = estimate.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum();
    Ok(ss / estimate.len() as f64)
}

/// Euclidean deviation `‖estimate − truth‖₂` (Equation 2 of the paper).
///
/// # Errors
/// Same conditions as [`mse`].
pub fn l2_deviation(estimate: &[f64], truth: &[f64]) -> crate::Result<f64> {
    Ok((mse(estimate, truth)? * estimate.len() as f64).sqrt())
}

/// Maximum absolute per-dimension deviation `max_j |estimate_j − truth_j|`.
///
/// # Errors
/// Same conditions as [`mse`].
pub fn max_abs_deviation(estimate: &[f64], truth: &[f64]) -> crate::Result<f64> {
    if estimate.len() != truth.len() {
        return Err(MathError::LengthMismatch {
            left: estimate.len(),
            right: truth.len(),
        });
    }
    if estimate.is_empty() {
        return Err(MathError::EmptyInput("max_abs_deviation"));
    }
    Ok(estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max))
}

/// Column-wise mean of row-major data (`rows × cols`), i.e. the true mean
/// vector `θ̄` of a dataset.
///
/// # Errors
/// Returns [`MathError::EmptyInput`] for zero rows/columns and
/// [`MathError::LengthMismatch`] when `data.len() != rows * cols`.
pub fn column_means(data: &[f64], rows: usize, cols: usize) -> crate::Result<Vec<f64>> {
    if rows == 0 || cols == 0 {
        return Err(MathError::EmptyInput("column_means"));
    }
    if data.len() != rows * cols {
        return Err(MathError::LengthMismatch {
            left: data.len(),
            right: rows * cols,
        });
    }
    let mut sums = vec![0.0; cols];
    for r in 0..rows {
        #[expect(
            clippy::indexing_slicing,
            reason = "data.len() == rows * cols was checked above"
        )]
        let row = &data[r * cols..(r + 1) * cols];
        for (s, x) in sums.iter_mut().zip(row) {
            *s += x;
        }
    }
    for s in &mut sums {
        *s /= rows as f64;
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs).unwrap(), 2.5);
        assert!((sample_variance(&xs).unwrap() - 5.0 / 3.0).abs() < 1e-12);
        assert!((population_variance(&xs).unwrap() - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(sample_variance(&[1.0]).is_err());
        assert!(population_variance(&[]).is_err());
        assert!(mse(&[], &[]).is_err());
        assert!(mae(&[], &[]).is_err());
        assert!(max_abs_deviation(&[], &[]).is_err());
    }

    #[test]
    fn mse_and_l2_deviation_relationship() {
        // MSE = ||a - b||^2 / d (Equations 2 and 3 of the paper).
        let a = [0.1, -0.2, 0.5, 0.0];
        let b = [0.0, 0.0, 0.0, 0.0];
        let mse_v = mse(&a, &b).unwrap();
        let l2 = l2_deviation(&a, &b).unwrap();
        assert!((mse_v - l2 * l2 / 4.0).abs() < 1e-12);
        assert!((mse_v - (0.01 + 0.04 + 0.25) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn mae_and_max_deviation() {
        let a = [1.0, -1.0, 0.5];
        let b = [0.5, -0.5, 0.5];
        assert!((mae(&a, &b).unwrap() - (0.5 + 0.5 + 0.0) / 3.0).abs() < 1e-12);
        assert!((max_abs_deviation(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_is_reported() {
        assert!(matches!(
            mse(&[1.0], &[1.0, 2.0]),
            Err(MathError::LengthMismatch { left: 1, right: 2 })
        ));
        assert!(mae(&[1.0], &[1.0, 2.0]).is_err());
        assert!(l2_deviation(&[1.0], &[]).is_err());
        assert!(max_abs_deviation(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn column_means_row_major() {
        // 3 rows x 2 cols.
        let data = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let means = column_means(&data, 3, 2).unwrap();
        assert_eq!(means, vec![2.0, 20.0]);
        assert!(column_means(&data, 3, 3).is_err());
        assert!(column_means(&data, 0, 2).is_err());
    }

    #[test]
    fn identical_vectors_have_zero_error() {
        let a = [0.3, -0.7, 0.2];
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
        assert_eq!(mae(&a, &a).unwrap(), 0.0);
        assert_eq!(l2_deviation(&a, &a).unwrap(), 0.0);
        assert_eq!(max_abs_deviation(&a, &a).unwrap(), 0.0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mse_nonnegative_and_symmetric(
                a in proptest::collection::vec(-10.0f64..10.0, 1..64),
                shift in -5.0f64..5.0,
            ) {
                let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
                let m1 = mse(&a, &b).unwrap();
                let m2 = mse(&b, &a).unwrap();
                prop_assert!(m1 >= 0.0);
                prop_assert!((m1 - m2).abs() < 1e-12);
                // Constant shift -> MSE is shift^2 exactly.
                prop_assert!((m1 - shift * shift).abs() < 1e-9);
            }

            #[test]
            fn l2_is_sqrt_of_d_times_mse(
                pair in (1usize..64).prop_flat_map(|len| (
                    proptest::collection::vec(-1.0f64..1.0, len),
                    proptest::collection::vec(-1.0f64..1.0, len),
                )),
            ) {
                let (a, b) = pair;
                let l2 = l2_deviation(&a, &b).unwrap();
                let m = mse(&a, &b).unwrap();
                prop_assert!((l2 * l2 - m * a.len() as f64).abs() < 1e-9);
            }

            #[test]
            fn max_deviation_bounds_mae(
                a in proptest::collection::vec(-1.0f64..1.0, 1..64),
            ) {
                let b = vec![0.0; a.len()];
                let mx = max_abs_deviation(&a, &b).unwrap();
                let ma = mae(&a, &b).unwrap();
                prop_assert!(mx + 1e-12 >= ma);
            }
        }
    }
}
