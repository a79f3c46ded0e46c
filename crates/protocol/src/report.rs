//! The collector's check of one user's report.
//!
//! A report carries the perturbed values of the `m` dimensions the user
//! sampled, as `(dimension index, perturbed value)` entries. Only perturbed
//! values leave the user's device (Definition 1 of the paper), so the
//! collector never sees raw data, and it trusts nothing it receives: every
//! report is checked before any of it is added to an estimate.

use crate::ProtocolError;

/// Check one report's `(dimension, value)` entries against a `dims`-dimension
/// collector: every dimension below `dims` and every value finite.
///
/// The collector's single report check, run on every report before it is
/// added to a shard's sums. The scan ORs each entry's verdict into one word
/// with no early exit and no data-dependent branch, so the compiler
/// vectorises it; the first bad entry is looked up only on the error path.
///
/// # Errors
/// Returns, for the first bad entry, [`ProtocolError::DimensionOutOfRange`]
/// when its dimension is `>= dims` and [`ProtocolError::NonFiniteValue`]
/// when its value is NaN or infinite.
// One branch-free scan per report; the error is built out of line.
#[inline]
pub(crate) fn check_entries(entries: &[(usize, f64)], dims: usize) -> crate::Result<()> {
    // Each test is an unsigned `x < limit` read off bit 63: for `x` and
    // `limit` below 2⁶³, `(limit − 1) − x` wraps to a word with bit 63 set
    // exactly when `x >= limit`, and OR-ing in `x` flags any `x >= 2⁶³`. A
    // value is finite exactly when its magnitude bits are below +∞'s. The
    // lookup below decides exactly, so a dimensionality above 2⁶³, where the
    // test can flag a good entry, still accepts every good report.
    let dim_limit = (dims as u64).wrapping_sub(1);
    let value_limit = f64::INFINITY.to_bits() - 1;
    let mut over = 0u64;
    for &(dim, value) in entries {
        let dim = dim as u64;
        over |= dim | dim_limit.wrapping_sub(dim) | value_limit.wrapping_sub(value.abs().to_bits());
    }
    if over >> 63 == 0 {
        Ok(())
    } else {
        first_bad_entry(entries, dims)
    }
}

/// The error for the first entry [`check_entries`] rejects.
#[cold]
#[inline(never)]
fn first_bad_entry(entries: &[(usize, f64)], dims: usize) -> crate::Result<()> {
    for &(dimension, value) in entries {
        if dimension >= dims {
            return Err(ProtocolError::DimensionOutOfRange { dimension, dims });
        }
        if !value.is_finite() {
            return Err(ProtocolError::NonFiniteValue { dimension });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_entries_names_the_first_bad_entry() {
        assert_eq!(check_entries(&[], 2), Ok(()));
        assert_eq!(check_entries(&[(0, -1.5), (1, f64::MAX)], 2), Ok(()));
        assert_eq!(
            check_entries(&[(0, 1.0), (2, 1.0), (1, f64::NAN)], 2),
            Err(ProtocolError::DimensionOutOfRange {
                dimension: 2,
                dims: 2
            })
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                check_entries(&[(0, 1.0), (1, bad), (5, 1.0)], 2),
                Err(ProtocolError::NonFiniteValue { dimension: 1 })
            );
        }
    }

    #[test]
    fn check_entries_is_exact_at_every_boundary() {
        let huge = 1usize << 63;
        for dims in [1, 2, 256, huge - 1, huge, huge + 3, usize::MAX] {
            let around = [dims - 1, dims, dims.saturating_add(1)];
            for dim in [0, 1, huge, huge + 1, usize::MAX].into_iter().chain(around) {
                let expected = dim < dims;
                assert_eq!(
                    check_entries(&[(0, 0.0), (dim, -2.5)], dims).is_ok(),
                    expected,
                    "dim {dim} of {dims}"
                );
            }
        }
        let subnormal = f64::from_bits(1);
        for value in [0.0, -0.0, subnormal, -f64::MAX, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(check_entries(&[(0, value)], 1), Ok(()), "{value:e}");
        }
        let negative_nan = -f64::NAN;
        let quiet_nan = f64::from_bits(f64::INFINITY.to_bits() | 1);
        for value in [negative_nan, quiet_nan, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_entries(&[(0, value)], 1).is_err(), "{value:e}");
        }
    }
}
