//! Word-level forms of the vendored `rand` draws.
//!
//! Each form takes the raw 64-bit word a draw consumes and returns exactly
//! what the vendored `Rng` method returns when its `next_u64` yields that
//! word:
//!
//! | form | vendored draw |
//! |---|---|
//! | [`unit()`] | the `[0, 1)` float behind every float draw, `Rng::gen` |
//! | [`bernoulli`] | `Rng::gen_bool(p)` |
//! | [`below_threshold`] with [`bernoulli_threshold`] | `Rng::gen_bool(p)` |
//! | [`uniform_inclusive`] | `Rng::gen_range(lo..=hi)` on `f64` |
//! | [`uniform_half_open`] | `Rng::gen_range(lo..hi)` on `f64` |
//!
//! The equality holds for the arguments the vendored draw accepts: `p` in
//! `[0, 1]`, `lo ≤ hi` for an inclusive range and `lo < hi` for a half-open
//! one. The forms do not assert those preconditions; the vendored draws
//! panic on the rest. A caller validates its arguments once, where it is
//! built, so that a draw on the hot path is a few arithmetic instructions
//! with no branch a compiler must keep.
//!
//! Splitting a draw into "take the word" and "map the word" is what lets a
//! mechanism draw a whole chunk of words first and transform them after
//! (see `Mechanism::perturb_values`): the transform no longer touches the
//! generator, so the compiler is free to vectorise it.

/// `2⁻⁵³`, the weight of one step of the 53-bit integer behind [`unit()`].
const STEP: f64 = 1.0 / (1u64 << 53) as f64;

/// The top 53 bits of `word` as a float in `[0, 1)`: `(word >> 11)·2⁻⁵³`,
/// the value every vendored float draw starts from.
#[inline]
pub fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * STEP
}

/// `Rng::gen_bool(p)` on `word`: `unit(word) < p`, for `p` in `[0, 1]`.
#[inline]
pub fn bernoulli(word: u64, p: f64) -> bool {
    unit(word) < p
}

/// `⌈p·2⁵³⌉`, the integer threshold at which [`below_threshold`] decides
/// exactly as `Rng::gen_bool(p)` does on the same word, for `p` in `[0, 1]`.
///
/// `gen_bool` tests `a·2⁻⁵³ < p` for the 53-bit integer `a = word >> 11`.
/// Scaling either side by 2⁵³ is exact in `f64`, and for an integer `a` the
/// test `a < x` holds exactly when `a < ⌈x⌉`.
#[inline]
pub fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`bernoulli_threshold`]: `gen_bool`'s test
/// on `word`, compared as integers.
#[inline]
pub fn below_threshold(word: u64, threshold: u64) -> bool {
    (word >> 11) < threshold
}

/// `Rng::gen_range(lo..=hi)` on `word`, for `lo ≤ hi`.
///
/// The vendored draw clamps `lo + unit·(hi − lo)` with `f64::clamp`, which
/// asserts `lo ≤ hi`; its two compares are written out here. They give the
/// same value whenever the assert would pass.
#[inline]
pub fn uniform_inclusive(word: u64, lo: f64, hi: f64) -> f64 {
    let v = lo + unit(word) * (hi - lo);
    let v = if v < lo { lo } else { v };
    if v > hi {
        hi
    } else {
        v
    }
}

/// `Rng::gen_range(lo..hi)` on `word`, for `lo < hi`, including the vendored
/// guard that steps a value rounded up onto the excluded `hi` back to
/// `max(lo, next_down(hi))`.
#[inline]
pub fn uniform_half_open(word: u64, lo: f64, hi: f64) -> f64 {
    let v = lo + unit(word) * (hi - lo);
    if v >= hi {
        lo.max(hi.next_down())
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A generator whose next draw is fixed, to feed a vendored draw the
    /// same word as its word-level form.
    struct FixedDraw(u64);

    impl RngCore for FixedDraw {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                chunk.copy_from_slice(&self.0.to_le_bytes()[..chunk.len()]);
            }
        }
    }

    const TOP: u64 = 1 << 53;

    /// The word carrying the 53-bit integer `a`, with its 11 discarded low
    /// bits clear and set.
    fn words_of(a: u64) -> [u64; 2] {
        [a << 11, (a << 11) | 0x7FF]
    }

    /// The 53-bit integers around `a` (and both ends of the range).
    fn around(a: u64) -> impl Iterator<Item = u64> {
        (a.saturating_sub(2)..=(a + 1).min(TOP - 1)).chain([0, TOP - 1])
    }

    /// The smallest 53-bit integer `a` for which `crossed(a)` holds, or
    /// `TOP` when none does; `crossed` must be monotone in `a`.
    fn first_crossing(crossed: impl Fn(u64) -> bool) -> u64 {
        let (mut lo, mut hi) = (0, TOP);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if crossed(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Probabilities at the edges of `[0, 1]` and the coins the oracles and
    /// mechanisms draw.
    fn probabilities() -> Vec<f64> {
        let mut probabilities = vec![0.0, 1.0 / TOP as f64, 0.5, 1.0 - 1.0 / TOP as f64, 1.0];
        for k in [2.0, 3.0, 16.0, 256.0, 1000.0] {
            for step in 1..=300 {
                let e = (step as f64 * 0.1f64).exp();
                // GRR's keep and flip probabilities, OUE's flip probability.
                probabilities.extend([e / (e + k - 1.0), 1.0 / (e + k - 1.0), 1.0 / (e + 1.0)]);
            }
        }
        for step in 1..=200 {
            let s = (step as f64 * 0.05f64).exp();
            probabilities.extend([s / (s + 1.0), 1.0 - 1.0 / s]);
        }
        probabilities
    }

    /// Range endpoints: the unit interval, the mechanisms' bands, negative
    /// and large-magnitude bounds, and degenerate inclusive ranges.
    fn ranges() -> Vec<(f64, f64)> {
        let mut ranges = vec![
            (0.0, 1.0),
            (-1.0, 1.0),
            (0.1, 0.3),
            (-0.0, 0.0),
            (0.25, 0.25),
            (-3.5, -3.5),
            (1e10, 1e10 + 1.0),
            (-1e300, 1e300),
            (5e-324, 1e-323),
            (-1.0 - 1e-9, 1.0 + 1e-9),
        ];
        for k in 1..40 {
            let t = (k as f64).sin();
            let b = 0.5 / k as f64;
            ranges.extend([
                (t - b, t + b),
                (0.0, 1.0 + k as f64 * 0.37),
                (-t.abs(), t.abs()),
            ]);
        }
        ranges
    }

    #[test]
    fn unit_is_the_vendored_unit_float() {
        let mut stream = StdRng::seed_from_u64(5);
        for word in [0, 1, 0x7FF, 0x800, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain((0..10_000).map(|_| stream.next_u64()))
        {
            let vendored: f64 = FixedDraw(word).gen();
            assert_eq!(unit(word).to_bits(), vendored.to_bits(), "word={word}");
        }
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(u64::MAX), 1.0 - 1.0 / TOP as f64);
    }

    #[test]
    fn integer_threshold_decides_exactly_as_gen_bool() {
        for p in probabilities() {
            let threshold = bernoulli_threshold(p);
            assert!(threshold <= TOP, "p={p}");
            for a in around(threshold) {
                for word in words_of(a) {
                    let vendored = FixedDraw(word).gen_bool(p);
                    assert_eq!(below_threshold(word, threshold), vendored, "p={p} a={a}");
                    assert_eq!(bernoulli(word, p), vendored, "p={p} a={a}");
                }
            }
        }
    }

    #[test]
    fn uniform_inclusive_matches_gen_range_inclusive() {
        let mut stream = StdRng::seed_from_u64(9);
        let fixed: Vec<u64> = [0, 1, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain((0..500).map(|_| stream.next_u64()))
            .collect();
        for (lo, hi) in ranges() {
            let value = |a: u64| lo + (a as f64 * STEP) * (hi - lo);
            // The clamp's two decision boundaries: where the raw value first
            // rises above `lo` and where it first exceeds `hi`.
            let above_lo = first_crossing(|a| value(a) >= lo);
            let above_hi = first_crossing(|a| value(a) > hi);
            let boundary_words = around(above_lo).chain(around(above_hi)).flat_map(words_of);
            for word in boundary_words.chain(fixed.iter().copied()) {
                let vendored: f64 = FixedDraw(word).gen_range(lo..=hi);
                let form = uniform_inclusive(word, lo, hi);
                assert_eq!(
                    form.to_bits(),
                    vendored.to_bits(),
                    "[{lo}, {hi}] word={word}"
                );
            }
        }
    }

    #[test]
    fn uniform_half_open_matches_gen_range_half_open() {
        let mut stream = StdRng::seed_from_u64(13);
        let fixed: Vec<u64> = [0, 1, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain((0..500).map(|_| stream.next_u64()))
            .collect();
        let mut guarded = 0;
        for (lo, hi) in ranges().into_iter().filter(|&(lo, hi)| lo < hi) {
            let value = |a: u64| lo + (a as f64 * STEP) * (hi - lo);
            // The guard's decision boundary: where the raw value first
            // rounds up onto the excluded end.
            let onto_hi = first_crossing(|a| value(a) >= hi);
            guarded += usize::from(onto_hi < TOP);
            for word in around(onto_hi)
                .flat_map(words_of)
                .chain(fixed.iter().copied())
            {
                let vendored: f64 = FixedDraw(word).gen_range(lo..hi);
                let form = uniform_half_open(word, lo, hi);
                assert_eq!(
                    form.to_bits(),
                    vendored.to_bits(),
                    "[{lo}, {hi}) word={word}"
                );
                assert!(form < hi, "[{lo}, {hi}) word={word}");
            }
        }
        // The guard must actually fire somewhere on the grid, or the test
        // would not cover it.
        assert!(guarded > 0);
    }
}
