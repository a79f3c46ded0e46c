//! The row-major numeric [`Dataset`] used throughout the workspace.
//!
//! A dataset holds `n` user tuples of `d` numeric dimensions each
//! (Section III of the paper). The collection protocol samples rows from it,
//! the analytical framework reads its per-column value distributions, and the
//! experiment harness compares estimated means against [`Dataset::true_means`].

use crate::discretize::DiscreteValueDistribution;
use crate::DataError;
use hdldp_math::stats;
use rayon::prelude::*;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Column-block width for the profile kernel. Eight `f64` lanes keep the
/// accumulators in registers (one AVX-512 vector / two AVX2 vectors) while the
/// row-major sweep stays contiguous.
const PROFILE_BLOCK: usize = 8;

/// Element-count threshold below which the profile kernel stays serial: the
/// thread-spawn cost of the rayon shim only amortises on multi-megabyte
/// datasets.
const PARALLEL_PROFILE_ELEMENTS: usize = 1 << 21;

/// An `n × d` numeric dataset stored row-major.
pub struct Dataset {
    users: usize,
    dims: usize,
    /// Row-major values, `users * dims` long.
    values: Vec<f64>,
    /// Lazily computed column profiles (see [`Dataset::column_profiles`]).
    /// Values are immutable after construction, so the memo can never go
    /// stale; clones start with an empty memo.
    profile_memo: Mutex<Option<Arc<ColumnProfiles>>>,
    /// Lazily computed [`Dataset::true_means`], memoised like the profiles.
    means_memo: OnceLock<Vec<f64>>,
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Self {
            users: self.users,
            dims: self.dims,
            values: self.values.clone(),
            profile_memo: Mutex::new(None),
            means_memo: OnceLock::new(),
        }
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.users == other.users && self.dims == other.dims && self.values == other.values
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("users", &self.users)
            .field("dims", &self.dims)
            .field("values", &self.values)
            .finish()
    }
}

impl Dataset {
    /// Build a dataset from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for zero rows/columns and
    /// [`DataError::LengthMismatch`] when the buffer does not hold exactly
    /// `users * dims` values.
    pub fn from_rows(users: usize, dims: usize, values: Vec<f64>) -> crate::Result<Self> {
        if users == 0 || dims == 0 {
            return Err(DataError::InvalidShape {
                reason: format!("require users > 0 and dims > 0, got {users} x {dims}"),
            });
        }
        if values.len() != users * dims {
            return Err(DataError::LengthMismatch {
                expected: users * dims,
                actual: values.len(),
            });
        }
        Ok(Self {
            users,
            dims,
            values,
            profile_memo: Mutex::new(None),
            means_memo: OnceLock::new(),
        })
    }

    /// Number of users (rows) `n`.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of dimensions (columns) `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `i`-th user's tuple as a slice of length `d`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when `i >= users`.
    #[expect(
        clippy::indexing_slicing,
        reason = "i < users is checked first, and values holds users * dims entries"
    )]
    pub fn row(&self, i: usize) -> crate::Result<&[f64]> {
        if i >= self.users {
            return Err(DataError::IndexOutOfBounds {
                what: "row",
                index: i,
                len: self.users,
            });
        }
        Ok(&self.values[i * self.dims..(i + 1) * self.dims])
    }

    /// A single value `t_{ij}`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when either index is invalid.
    #[expect(
        clippy::indexing_slicing,
        reason = "j < dims is checked first, and row(i) returns dims values"
    )]
    pub fn value(&self, i: usize, j: usize) -> crate::Result<f64> {
        if j >= self.dims {
            return Err(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims,
            });
        }
        Ok(self.row(i)?[j])
    }

    /// Copy of column `j`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when `j >= dims`.
    pub fn column(&self, j: usize) -> crate::Result<Vec<f64>> {
        if j >= self.dims {
            return Err(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims,
            });
        }
        let column = self.values.iter().skip(j).step_by(self.dims);
        Ok(column.copied().collect())
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The true per-dimension means `θ̄` (ground truth for utility metrics).
    ///
    /// Memoised: the first call sweeps the dataset once and later calls copy
    /// the `d` cached means, so a sweep that runs many pipelines over one
    /// dataset reads it once.
    #[expect(
        clippy::expect_used,
        reason = "from_rows enforces values.len() == users * dims, which is all column_means checks"
    )]
    pub fn true_means(&self) -> Vec<f64> {
        self.means_memo
            .get_or_init(|| {
                stats::column_means(&self.values, self.users, self.dims)
                    .expect("shape validated at construction")
            })
            .clone()
    }

    /// Smallest and largest value in each column.
    pub fn column_ranges(&self) -> Vec<(f64, f64)> {
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); self.dims];
        for row in self.values.chunks(self.dims) {
            for (r, &x) in ranges.iter_mut().zip(row) {
                r.0 = r.0.min(x);
                r.1 = r.1.max(x);
            }
        }
        ranges
    }

    /// `true` when every value lies in `[lo, hi]`.
    pub fn all_within(&self, lo: f64, hi: f64) -> bool {
        self.values.iter().all(|&x| x >= lo && x <= hi)
    }

    /// Build a new dataset keeping only the listed columns (in the given
    /// order, duplicates allowed). Used by the Figure 5 experiment, which
    /// samples/extends the COV-19 columns to reach dimensionalities the raw
    /// dataset does not have.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] when `columns` is empty and
    /// [`DataError::IndexOutOfBounds`] when any index is invalid.
    pub fn select_columns(&self, columns: &[usize]) -> crate::Result<Self> {
        if columns.is_empty() {
            return Err(DataError::InvalidShape {
                reason: "cannot select zero columns".into(),
            });
        }
        for &c in columns {
            if c >= self.dims {
                return Err(DataError::IndexOutOfBounds {
                    what: "column",
                    index: c,
                    len: self.dims,
                });
            }
        }
        let mut values = Vec::with_capacity(self.users * columns.len());
        for row in self.values.chunks(self.dims) {
            // Every entry of `columns` was validated against dims above, so
            // the per-row lookups cannot fail.
            values.extend(columns.iter().filter_map(|&c| row.get(c).copied()));
        }
        Self::from_rows(self.users, columns.len(), values)
    }

    /// Compute per-column bucketing profiles (min, max, per-bucket counts) for
    /// every column in one blocked sweep over the row-major buffer.
    ///
    /// This replaces `dims` strided [`Dataset::column`] gathers with a cache-
    /// friendly pass: columns are processed `PROFILE_BLOCK` at a time with
    /// fixed-size lane accumulators, so each row slice is read contiguously
    /// and the min/max/count updates vectorise. On large datasets the blocks
    /// are distributed across threads via the rayon shim; block results are
    /// stitched back in column order, so the output is identical either way.
    ///
    /// The bucketing matches [`DiscreteValueDistribution::from_column_bucketed`]
    /// bit for bit (same inverse-width index expression, same count → value
    /// construction via [`DiscreteValueDistribution::from_bucket_counts`]).
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] when `buckets == 0`.
    pub fn profile_columns(&self, buckets: usize) -> crate::Result<ColumnProfiles> {
        if buckets == 0 {
            return Err(DataError::InvalidParameter {
                name: "buckets",
                reason: "must be positive".into(),
            });
        }
        let dims = self.dims;
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        let mut counts = vec![0u32; dims * buckets];
        let block_count = dims.div_ceil(PROFILE_BLOCK);

        let parallel = self.values.len() >= PARALLEL_PROFILE_ELEMENTS
            && rayon::current_num_threads() > 1
            && block_count > 1;
        let blocks: Vec<ProfileBlock> = if parallel {
            (0..block_count)
                .into_par_iter()
                .map(|b| self.profile_block(b * PROFILE_BLOCK, buckets))
                .collect()
        } else {
            (0..block_count)
                .map(|b| self.profile_block(b * PROFILE_BLOCK, buckets))
                .collect()
        };
        // Stitch block results back in column order. chunks_mut hands each
        // block a destination of exactly `width` lanes (the final chunk is the
        // ragged one), so the copies below are length-matched by construction.
        for ((block, mins_chunk), (maxs_chunk, counts_chunk)) in
            blocks.iter().zip(mins.chunks_mut(PROFILE_BLOCK)).zip(
                maxs.chunks_mut(PROFILE_BLOCK)
                    .zip(counts.chunks_mut(PROFILE_BLOCK * buckets)),
            )
        {
            let w = block.width;
            debug_assert_eq!(w, mins_chunk.len());
            debug_assert_eq!(w * buckets, counts_chunk.len());
            if let Some(src) = block.mins.get(..w) {
                mins_chunk.copy_from_slice(src);
            }
            if let Some(src) = block.maxs.get(..w) {
                maxs_chunk.copy_from_slice(src);
            }
            counts_chunk.copy_from_slice(&block.counts);
        }

        Ok(ColumnProfiles {
            users: self.users,
            dims,
            buckets,
            mins,
            maxs,
            counts,
        })
    }

    /// Profile one block of up to `PROFILE_BLOCK` columns starting at `base`.
    #[expect(
        clippy::indexing_slicing,
        reason = "base + w <= dims, k < w <= PROFILE_BLOCK and idx < buckets, so every row slice, lane and k * buckets + idx is in range"
    )]
    fn profile_block(&self, base: usize, buckets: usize) -> ProfileBlock {
        let dims = self.dims;
        debug_assert!(base < dims, "block base {base} out of {dims} columns");
        debug_assert!(buckets > 0, "bucket count must be positive");
        debug_assert_eq!(self.values.len(), self.users * dims);
        let w = PROFILE_BLOCK.min(dims - base);
        let mut lmin = [f64::INFINITY; PROFILE_BLOCK];
        let mut lmax = [f64::NEG_INFINITY; PROFILE_BLOCK];
        // Pass 1: per-lane min/max over contiguous row slices. Each chunk is a
        // full row of length dims, and base + w <= dims, so the sub-slice is
        // always in range.
        for row in self.values.chunks(dims) {
            let r = &row[base..base + w];
            for (k, &x) in r.iter().enumerate() {
                lmin[k] = lmin[k].min(x);
                lmax[k] = lmax[k].max(x);
            }
        }
        // Pass 2: bucket counts with the hoisted inverse width. The index
        // expression matches `from_column_bucketed` exactly; a degenerate
        // (constant) column gets inv = 0 and its counts are ignored later.
        let mut inv = [0.0f64; PROFILE_BLOCK];
        for k in 0..w {
            inv[k] = if lmax[k] > lmin[k] {
                buckets as f64 / (lmax[k] - lmin[k])
            } else {
                0.0
            };
        }
        let mut counts = vec![0u32; w * buckets];
        for row in self.values.chunks(dims) {
            let r = &row[base..base + w];
            for (k, &x) in r.iter().enumerate() {
                let idx = (((x - lmin[k]) * inv[k]) as usize).min(buckets - 1);
                debug_assert!(idx < buckets);
                counts[k * buckets + idx] += 1;
            }
        }
        ProfileBlock {
            width: w,
            mins: lmin,
            maxs: lmax,
            counts,
        }
    }

    /// Memoised [`Dataset::profile_columns`].
    ///
    /// The figure binaries and the framework build the *same* per-column
    /// distributions once per mechanism × ε configuration over an unchanged
    /// dataset; this caches the profile behind an `Arc` so only the first call
    /// pays for the sweep. The memo holds one entry keyed on `buckets`
    /// (callers use a single bucket count per dataset in practice); a call
    /// with a different `buckets` recomputes and replaces it.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] when `buckets == 0`.
    pub fn column_profiles(&self, buckets: usize) -> crate::Result<Arc<ColumnProfiles>> {
        let mut memo = self
            .profile_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = memo.as_ref() {
            if existing.buckets == buckets {
                return Ok(Arc::clone(existing));
            }
        }
        let profiles = Arc::new(self.profile_columns(buckets)?);
        *memo = Some(Arc::clone(&profiles));
        Ok(profiles)
    }
}

/// One block's worth of profile accumulators (internal to the kernel).
struct ProfileBlock {
    width: usize,
    mins: [f64; PROFILE_BLOCK],
    maxs: [f64; PROFILE_BLOCK],
    counts: Vec<u32>,
}

/// Per-column bucketing statistics for a dataset, computed in one blocked
/// sweep by [`Dataset::profile_columns`].
///
/// Holds, for each of the `dims` columns: the observed `[min, max]` range and
/// the per-bucket occupancy counts (`buckets` equal-width bins over that
/// range). [`ColumnProfiles::distribution`] materializes the same
/// [`DiscreteValueDistribution`] that bucketing the gathered column would
/// produce, without re-reading the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfiles {
    users: usize,
    dims: usize,
    buckets: usize,
    mins: Vec<f64>,
    maxs: Vec<f64>,
    counts: Vec<u32>,
}

impl ColumnProfiles {
    /// Number of users the profile was computed over.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of profiled columns.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of equal-width buckets per column.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Observed `(min, max)` of column `j`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when `j >= dims`.
    pub fn range(&self, j: usize) -> crate::Result<(f64, f64)> {
        match (self.mins.get(j), self.maxs.get(j)) {
            (Some(&lo), Some(&hi)) => Ok((lo, hi)),
            _ => Err(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims,
            }),
        }
    }

    /// The bucketed value distribution of column `j`, identical to
    /// `DiscreteValueDistribution::from_column_bucketed(&dataset.column(j), buckets)`.
    ///
    /// # Errors
    /// Returns [`DataError::IndexOutOfBounds`] when `j >= dims` and propagates
    /// distribution validation errors.
    pub fn distribution(&self, j: usize) -> crate::Result<DiscreteValueDistribution> {
        let (lo, hi) = self.range(j)?;
        let counts = self
            .counts
            .get(j * self.buckets..(j + 1) * self.buckets)
            .ok_or(DataError::IndexOutOfBounds {
                what: "column",
                index: j,
                len: self.dims,
            })?;
        DiscreteValueDistribution::from_bucket_counts(lo, hi, counts, self.users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        // 3 users x 2 dims.
        Dataset::from_rows(3, 2, vec![0.0, 1.0, 0.5, -1.0, -0.5, 0.0]).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Dataset::from_rows(0, 2, vec![]).is_err());
        assert!(Dataset::from_rows(2, 0, vec![]).is_err());
        assert!(Dataset::from_rows(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Dataset::from_rows(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn accessors_return_expected_values() {
        let d = small();
        assert_eq!(d.users(), 3);
        assert_eq!(d.dims(), 2);
        assert_eq!(d.row(1).unwrap(), &[0.5, -1.0]);
        assert_eq!(d.value(2, 1).unwrap(), 0.0);
        assert_eq!(d.column(0).unwrap(), vec![0.0, 0.5, -0.5]);
        assert!(d.row(3).is_err());
        assert!(d.value(0, 2).is_err());
        assert!(d.column(5).is_err());
    }

    #[test]
    fn true_means_are_column_averages() {
        let d = small();
        let means = d.true_means();
        assert!((means[0] - 0.0).abs() < 1e-12);
        assert!((means[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn true_means_memo_matches_column_means_and_clones_recompute() {
        let users = 37;
        let dims = 5;
        let values: Vec<f64> = (0..users * dims).map(|k| (k as f64 * 0.7).sin()).collect();
        let d = Dataset::from_rows(users, dims, values.clone()).unwrap();
        let bits = |means: &[f64]| -> Vec<u64> { means.iter().map(|m| m.to_bits()).collect() };
        let expected = bits(&stats::column_means(&values, users, dims).unwrap());
        assert_eq!(bits(&d.true_means()), expected);
        assert_eq!(bits(&d.true_means()), expected, "stable across calls");
        let clone = d.clone();
        assert!(clone.means_memo.get().is_none(), "clones start empty");
        assert_eq!(bits(&clone.true_means()), expected);
    }

    #[test]
    fn column_ranges_and_bounds() {
        let d = small();
        let ranges = d.column_ranges();
        assert_eq!(ranges[0], (-0.5, 0.5));
        assert_eq!(ranges[1], (-1.0, 1.0));
        assert!(d.all_within(-1.0, 1.0));
        assert!(!d.all_within(0.0, 1.0));
    }

    #[test]
    fn select_columns_reorders_and_duplicates() {
        let d = small();
        let sel = d.select_columns(&[1, 1, 0]).unwrap();
        assert_eq!(sel.dims(), 3);
        assert_eq!(sel.row(0).unwrap(), &[1.0, 1.0, 0.0]);
        assert!(d.select_columns(&[]).is_err());
        assert!(d.select_columns(&[2]).is_err());
    }

    #[test]
    fn profiles_match_per_column_bucketing_exactly() {
        // Deterministic pseudo-random data, including a constant column and a
        // column whose range is degenerate apart from sign (-0.0 vs 0.0).
        let users = 97;
        let dims = 13;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut values: Vec<f64> = (0..users * dims)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        for i in 0..users {
            values[i * dims + 4] = 0.25; // constant column
        }
        let d = Dataset::from_rows(users, dims, values).unwrap();
        for buckets in [1usize, 7, 64] {
            let profiles = d.profile_columns(buckets).unwrap();
            assert_eq!(profiles.dims(), dims);
            assert_eq!(profiles.buckets(), buckets);
            assert_eq!(profiles.users(), users);
            for j in 0..dims {
                let column = d.column(j).unwrap();
                let reference =
                    DiscreteValueDistribution::from_column_bucketed(&column, buckets).unwrap();
                let fast = profiles.distribution(j).unwrap();
                assert_eq!(fast, reference, "buckets {buckets}, column {j}");
                let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(profiles.range(j).unwrap(), (lo, hi));
            }
            assert!(profiles.distribution(dims).is_err());
            assert!(profiles.range(dims).is_err());
        }
        assert!(d.profile_columns(0).is_err());
    }

    #[test]
    fn column_profiles_memoises_per_bucket_count() {
        let d = small();
        let first = d.column_profiles(8).unwrap();
        let second = d.column_profiles(8).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // A different bucket count replaces the memo entry.
        let other = d.column_profiles(4).unwrap();
        assert_eq!(other.buckets(), 4);
        assert!(!Arc::ptr_eq(&first, &d.column_profiles(4).unwrap()));
        // Clones do not share the memo but compute equal profiles.
        let clone = d.clone();
        let cloned_profiles = clone.column_profiles(8).unwrap();
        assert!(!Arc::ptr_eq(&first, &cloned_profiles));
        assert_eq!(*first, *cloned_profiles);
        assert!(d.column_profiles(0).is_err());
    }

    #[test]
    fn equality_ignores_the_profile_memo() {
        let a = small();
        let b = small();
        a.column_profiles(8).unwrap();
        assert_eq!(a, b);
    }
}
