//! The report a user sends to the data collector.
//!
//! A report contains the perturbed values of the `m` dimensions the user
//! sampled. Only perturbed values leave the user's device (Definition 1 of
//! the paper); the collector never sees raw data.

use crate::ProtocolError;
use serde::{Deserialize, Serialize};

/// One user's perturbed report: `(dimension index, perturbed value)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    entries: Vec<(usize, f64)>,
}

impl Report {
    /// Build a report from `(dimension, perturbed value)` pairs.
    pub fn new(entries: Vec<(usize, f64)>) -> Self {
        Self { entries }
    }

    /// The `(dimension, value)` pairs.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Number of reported dimensions (the `m` of the protocol).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the report carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Check one report's `(dimension, value)` entries against a `dims`-dimension
/// collector: every dimension below `dims` and every value finite.
///
/// The collector's single report check, shared by every push and accumulate
/// path. The scan ORs each entry's verdict into one word with no early exit
/// and no data-dependent branch, so the compiler vectorises it; the first bad
/// entry is looked up only on the error path.
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
    fn accessors() {
        let r = Report::new(vec![(3, 0.5), (1, -0.2)]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.entries()[1], (1, -0.2));
    }

    #[test]
    fn empty_report() {
        let r = Report::new(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

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

    #[test]
    fn serde_round_trip() {
        let r = Report::new(vec![(0, 1.25), (7, -3.5)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
