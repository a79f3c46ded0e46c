//! One user's report, and the collector's checks of its values.
//!
//! A report carries the perturbed values of the dimensions the user sampled.
//! Only perturbed values leave the user's device (Definition 1 of the paper),
//! so the collector never sees raw data, and it trusts nothing it receives:
//! every report is checked as it is added to an estimate, and a report that
//! fails its check fails the whole ingest call, so no value of it reaches an
//! estimate.

use crate::ProtocolError;

/// One user's report: a column of dimension indices and a column of
/// perturbed values.
///
/// Against a `d`-dimensional collector a report takes one of two shapes:
///
/// * **dense**: `dims` is empty and `values` holds exactly `d` values, value
///   `j` belonging to dimension `j`. This is the shape of a report of every
///   dimension once, in order, as the m = d clients and the categorical
///   oracles send it; it carries no dimension words, so nothing writes,
///   scans or reads them.
/// * **named**: one dimension per value (`dims.len() == values.len()`), in
///   any order, each entry counting towards its dimension's `r_j`. The m-of-d
///   sampler below m = d sends this shape; a report with no entries is named.
///
/// The collector rejects any other shape with
/// [`ProtocolError::MalformedReport`], a named entry whose dimension is
/// `>= d` with [`ProtocolError::DimensionOutOfRange`], and a NaN or
/// infinite value with [`ProtocolError::NonFiniteValue`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The dimension of each value; empty for a dense report.
    pub dims: Vec<usize>,
    /// The perturbed values.
    pub values: Vec<f64>,
}

impl Report {
    /// Empty both columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.dims.clear();
        self.values.clear();
    }

    /// Append the named entry `(dim, value)`.
    pub fn push(&mut self, dim: usize, value: f64) {
        self.dims.push(dim);
        self.values.push(value);
    }
}

/// A word whose bit 63 is set exactly when `value` is NaN or infinite: a
/// value is finite exactly when its magnitude bits are below +∞'s, and
/// `(+∞ bits − 1) − magnitude` wraps past zero exactly when they are not.
/// Branch-free, so a loop that ORs these words together can vectorise.
#[inline(always)]
pub(crate) fn non_finite_word(value: f64) -> u64 {
    (f64::INFINITY.to_bits() - 1).wrapping_sub(value.abs().to_bits())
}

/// The error for the first NaN or infinite value of a dense report (or
/// `Ok` when there is none).
#[cold]
#[inline(never)]
pub(crate) fn first_non_finite(values: &[f64]) -> crate::Result<()> {
    match values.iter().position(|value| !value.is_finite()) {
        Some(dimension) => Err(ProtocolError::NonFiniteValue { dimension }),
        None => Ok(()),
    }
}

/// Check a named report's `(dimension, value)` entries, the columns zipped,
/// against a `dims`-dimensional collector: every dimension below `dims` and
/// every value finite.
///
/// One scan ORs every entry's verdict into one word with no early exit and
/// no data-dependent branch, so the compiler is free to vectorise it; the
/// first bad entry is looked up only on the error path.
///
/// # Errors
/// Returns, for the first bad entry, [`ProtocolError::DimensionOutOfRange`]
/// when its dimension is `>= dims` and [`ProtocolError::NonFiniteValue`]
/// when its value is NaN or infinite.
#[inline]
pub(crate) fn check_entries(dims: &[usize], values: &[f64], d: usize) -> crate::Result<()> {
    // An unsigned `x < limit` read off bit 63: for `x` and `limit` below
    // 2⁶³, `(limit − 1) − x` wraps to a word with bit 63 set exactly when
    // `x >= limit`, and OR-ing in `x` flags any `x >= 2⁶³`. The lookup below
    // decides exactly, so a dimensionality above 2⁶³, where the test can flag
    // a good entry, still accepts every good report.
    let dim_limit = (d as u64).wrapping_sub(1);
    let mut over = 0u64;
    for (&dim, &value) in dims.iter().zip(values) {
        let dim = dim as u64;
        over |= dim | dim_limit.wrapping_sub(dim) | non_finite_word(value);
    }
    if over >> 63 == 0 {
        Ok(())
    } else {
        first_bad_entry(dims, values, d)
    }
}

/// The error for the first entry [`check_entries`] rejects.
#[cold]
#[inline(never)]
fn first_bad_entry(dims: &[usize], values: &[f64], d: usize) -> crate::Result<()> {
    for (&dimension, &value) in dims.iter().zip(values) {
        if dimension >= d {
            return Err(ProtocolError::DimensionOutOfRange { dimension, dims: d });
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

    /// [`check_entries`] on `(dimension, value)` pairs.
    fn check(entries: &[(usize, f64)], d: usize) -> crate::Result<()> {
        let (dims, values): (Vec<usize>, Vec<f64>) = entries.iter().copied().unzip();
        check_entries(&dims, &values, d)
    }

    #[test]
    fn check_entries_names_the_first_bad_entry() {
        assert_eq!(check(&[], 2), Ok(()));
        assert_eq!(check(&[(1, -1.5)], 2), Ok(()));
        assert_eq!(check(&[(0, -1.5), (1, f64::MAX)], 2), Ok(()));
        assert_eq!(
            check(&[(0, 1.0), (2, 1.0), (1, f64::NAN)], 2),
            Err(ProtocolError::DimensionOutOfRange {
                dimension: 2,
                dims: 2
            })
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                check(&[(0, 1.0), (1, bad), (5, 1.0)], 2),
                Err(ProtocolError::NonFiniteValue { dimension: 1 })
            );
            assert_eq!(
                first_non_finite(&[1.0, 2.0, bad, bad]),
                Err(ProtocolError::NonFiniteValue { dimension: 2 })
            );
        }
        assert_eq!(first_non_finite(&[]), Ok(()));
        assert_eq!(first_non_finite(&[f64::MAX, -0.0]), Ok(()));
    }

    #[test]
    fn check_entries_is_exact_at_every_boundary() {
        let huge = 1usize << 63;
        for dims in [1, 2, 256, huge - 1, huge, huge + 3, usize::MAX] {
            let around = [dims - 1, dims, dims.saturating_add(1)];
            for dim in [0, 1, huge, huge + 1, usize::MAX].into_iter().chain(around) {
                let expected = dim < dims;
                assert_eq!(
                    check(&[(0, 0.0), (dim, -2.5)], dims).is_ok(),
                    expected,
                    "dim {dim} of {dims}"
                );
            }
        }
        let subnormal = f64::from_bits(1);
        let negative_nan = -f64::NAN;
        let quiet_nan = f64::from_bits(f64::INFINITY.to_bits() | 1);
        for value in [0.0, -0.0, subnormal, -f64::MAX, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(check(&[(0, value)], 1), Ok(()), "{value:e}");
            assert_eq!(non_finite_word(value) >> 63, 0, "{value:e}");
        }
        for value in [negative_nan, quiet_nan, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check(&[(0, value)], 1).is_err(), "{value:e}");
            assert_eq!(non_finite_word(value) >> 63, 1, "{value:e}");
        }

        // Full-length named reports, in order or reversed, get the same
        // verdict and first bad entry as a plain loop: a report that names
        // every dimension in order is an ordinary named report.
        for dims in [1, 2, 3, 256] {
            let full: Vec<(usize, f64)> = (0..dims)
                .map(|i| (i, (i as f64 * 0.37).sin() * 1e3))
                .collect();
            let mut reports = vec![full.clone()];
            for at in [0, dims / 2, dims - 1] {
                for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MAX] {
                    let mut report = full.clone();
                    report[at].1 = value;
                    reports.push(report);
                }
                // Out of range, or the dimension before it again.
                for dim in [dims, dims + 1, huge, usize::MAX, at.saturating_sub(1)] {
                    let mut report = full.clone();
                    report[at].0 = dim;
                    reports.push(report);
                }
            }
            // Two bad entries: the first one in entry order is named.
            let mut twice = full.clone();
            twice[dims - 1].1 = f64::NAN;
            twice[0].0 = dims;
            reports.push(twice);
            let reversed: Vec<_> = reports
                .iter()
                .map(|report| report.iter().rev().copied().collect())
                .collect();
            reports.extend(reversed);
            for report in &reports {
                let (dims_column, values): (Vec<usize>, Vec<f64>) = report.iter().copied().unzip();
                assert_eq!(
                    check(report, dims),
                    first_bad_entry(&dims_column, &values, dims),
                    "{report:?}"
                );
            }
            assert_eq!(check(&full, dims), Ok(()));
        }
    }
}
