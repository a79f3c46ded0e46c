//! A small keyed memo cache for expensive special-function evaluations.
//!
//! The analytical hot paths evaluate `erf` once or twice per dimension, and in
//! the regimes the paper cares about (homogeneous case studies, replicated
//! per-dimension approximations, uniform suprema) the *same* argument recurs
//! thousands of times. [`ErfCache`] is a direct-mapped memo table keyed on the
//! exact bit pattern of the argument: a hit returns the previously computed
//! value (bit-for-bit identical to recomputing, since [`erf`] is
//! deterministic), a miss computes and replaces the slot.
//!
//! The table is fixed-size and allocation-free after construction, so callers
//! can keep one per batch pass without touching the allocator in the loop.

use crate::erf::erf;

/// Number of slots in the direct-mapped table. A power of two so the index
/// mask is a single AND; 256 slots (4 KiB) cover the repeated-argument
/// workloads the framework produces while staying cache-resident.
const SLOTS: usize = 256;

/// Sentinel key marking an empty slot. This is the bit pattern of one
/// particular NaN; NaN arguments are answered before the table is consulted,
/// so no valid entry can ever carry this key.
const EMPTY: u64 = f64::NAN.to_bits();

/// A direct-mapped memo table for [`erf`] keyed on the argument's bits.
#[derive(Debug, Clone)]
pub struct ErfCache {
    keys: [u64; SLOTS],
    values: [f64; SLOTS],
    hits: u64,
    misses: u64,
}

impl Default for ErfCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ErfCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self {
            keys: [EMPTY; SLOTS],
            values: [0.0; SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    /// Mix the key bits into a table index (SplitMix64-style finalizer).
    #[inline]
    fn slot(bits: u64) -> usize {
        let mut h = bits;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h as usize) & (SLOTS - 1)
    }

    /// `erf(x)`, served from the memo table when `x` was seen before.
    ///
    /// The returned value is always exactly what [`erf`] would return: the
    /// cache is keyed on the full bit pattern, so there are no approximate
    /// matches, and a collision simply evicts the older entry.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "slot() masks with SLOTS - 1 and both tables hold SLOTS entries"
    )]
    pub fn erf(&mut self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let bits = x.to_bits();
        debug_assert_ne!(
            bits, EMPTY,
            "non-NaN argument cannot collide with the empty-slot sentinel"
        );
        let slot = Self::slot(bits);
        debug_assert!(slot < SLOTS, "slot mask must stay within the table");
        if self.keys[slot] == bits {
            self.hits += 1;
            return self.values[slot];
        }
        let value = erf(x);
        self.keys[slot] = bits;
        self.values[slot] = value;
        self.misses += 1;
        value
    }

    /// Number of lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_values_match_direct_evaluation_exactly() {
        let mut cache = ErfCache::new();
        for &x in &[-3.0, -0.5, 0.0, 1e-12, 0.7, 2.5, 6.0] {
            assert_eq!(cache.erf(x).to_bits(), erf(x).to_bits(), "x = {x}");
            // Second lookup is a hit and still exact.
            assert_eq!(cache.erf(x).to_bits(), erf(x).to_bits(), "x = {x}");
        }
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.misses(), 7);
    }

    #[test]
    fn repeated_argument_hits_the_table() {
        let mut cache = ErfCache::new();
        for _ in 0..1000 {
            cache.erf(0.123_456);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 999);
    }

    #[test]
    fn nan_bypasses_the_table() {
        let mut cache = ErfCache::new();
        assert!(cache.erf(f64::NAN).is_nan());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn collisions_evict_but_stay_correct() {
        // Hammer far more distinct keys than slots: every answer must still be
        // exact even though entries keep getting evicted.
        let mut cache = ErfCache::new();
        for i in 0..4096 {
            let x = (i as f64) * 1e-3 - 2.0;
            assert_eq!(cache.erf(x).to_bits(), erf(x).to_bits());
        }
    }

    #[test]
    fn negative_zero_and_positive_zero_are_distinct_keys() {
        // -0.0 and 0.0 have different bit patterns, so they occupy different
        // slots; both must still return exactly what `erf` returns.
        let mut cache = ErfCache::new();
        assert_eq!(cache.erf(0.0).to_bits(), erf(0.0).to_bits());
        assert_eq!(cache.erf(-0.0).to_bits(), erf(-0.0).to_bits());
        assert_eq!(cache.erf(-0.0).to_bits(), erf(-0.0).to_bits());
    }
}
