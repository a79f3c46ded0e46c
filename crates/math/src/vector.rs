//! Small dense-vector helpers.
//!
//! HDR4ME works with `d`-dimensional mean vectors; the re-calibration solvers
//! need L1/L2 norms and element-wise differences.

use crate::MathError;

/// L1 norm `Σ |x_i|`.
pub fn l1_norm(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x.abs()).sum()
}

/// L2 (Euclidean) norm `sqrt(Σ x_i²)`.
pub fn l2_norm(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Element-wise difference `a − b`.
///
/// # Errors
/// Returns [`MathError::LengthMismatch`] when the slices differ in length.
pub fn sub(a: &[f64], b: &[f64]) -> crate::Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(MathError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_on_known_vectors() {
        let v = [3.0, -4.0];
        assert_eq!(l1_norm(&v), 7.0);
        assert_eq!(l2_norm(&v), 5.0);
        assert_eq!(l1_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn sub_is_the_elementwise_difference() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(sub(&a, &b).unwrap(), vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn length_mismatch_errors() {
        assert!(sub(&[1.0], &[]).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn triangle_inequality(
                pair in (1usize..50).prop_flat_map(|len| (
                    proptest::collection::vec(-10.0f64..10.0, len),
                    proptest::collection::vec(-10.0f64..10.0, len),
                )),
            ) {
                let (a, b) = pair;
                let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
                prop_assert!(l2_norm(&sum) <= l2_norm(&a) + l2_norm(&b) + 1e-9);
                prop_assert!(l1_norm(&sum) <= l1_norm(&a) + l1_norm(&b) + 1e-9);
            }

            #[test]
            fn cauchy_schwarz(
                pair in (1usize..50).prop_flat_map(|len| (
                    proptest::collection::vec(-10.0f64..10.0, len),
                    proptest::collection::vec(-10.0f64..10.0, len),
                )),
            ) {
                let (a, b) = pair;
                let d = a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>().abs();
                prop_assert!(d <= l2_norm(&a) * l2_norm(&b) + 1e-9);
            }

            #[test]
            fn norm_ordering(a in proptest::collection::vec(-10.0f64..10.0, 1..50)) {
                // ||x||_2 <= ||x||_1
                prop_assert!(l2_norm(&a) <= l1_norm(&a) + 1e-9);
            }
        }
    }
}
