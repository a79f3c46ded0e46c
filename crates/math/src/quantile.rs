//! Order statistics on slices.
//!
//! Used by the dataset normaliser (robust min/max), by the experiment harness
//! (reporting median MSE across repetitions) and by tests.

use crate::MathError;

/// Return the `q`-quantile (`0 ≤ q ≤ 1`) of the data using linear
/// interpolation between order statistics (type-7, the default of R/NumPy).
///
/// # Errors
/// Returns [`MathError::EmptyInput`] on an empty slice and
/// [`MathError::InvalidParameter`] when `q` lies outside `[0, 1]` or the data
/// contains NaN.
pub fn quantile(xs: &[f64], q: f64) -> crate::Result<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput("quantile"));
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(MathError::InvalidParameter {
            name: "q",
            reason: format!("must lie in [0, 1], got {q}"),
        });
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(MathError::InvalidParameter {
            name: "xs",
            reason: "data contains NaN".into(),
        });
    }
    let mut sorted = xs.to_vec();
    // NaN was rejected above; total_cmp agrees with partial_cmp on the rest
    // and cannot panic.
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted_unchecked(&sorted, q))
}

/// Quantile of data that is already sorted ascending, with no validation.
#[expect(
    clippy::indexing_slicing,
    reason = "quantile() passes a non-empty slice and q in [0, 1], so lo <= hi <= n - 1"
)]
fn quantile_sorted_unchecked(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The median (0.5-quantile).
///
/// # Errors
/// Same conditions as [`quantile`].
pub fn median(xs: &[f64]) -> crate::Result<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[5.0]).unwrap(), 5.0);
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let xs = [7.0, -1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), -1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 7.0);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert!((quantile(&xs, 0.25).unwrap() - 0.75).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
        assert!(median(&[]).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantile_is_monotone_in_q(
                xs in proptest::collection::vec(-100.0f64..100.0, 1..100),
                q1 in 0.0f64..1.0,
                q2 in 0.0f64..1.0,
            ) {
                let (lo, hi) = if q1 < q2 { (q1, q2) } else { (q2, q1) };
                prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-12);
            }

            #[test]
            fn quantile_within_data_range(
                xs in proptest::collection::vec(-100.0f64..100.0, 1..100),
                q in 0.0f64..1.0,
            ) {
                let v = quantile(&xs, q).unwrap();
                let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
            }
        }
    }
}
