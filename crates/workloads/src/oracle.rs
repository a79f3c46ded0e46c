//! Categorical frequency oracles: GRR and OUE.
//!
//! Both oracles perturb one categorical value `v ∈ [0, k)` and support an
//! unbiased estimator of every category frequency. The shared analytical core
//! is the *per-entry marginal*: writing `b_j = 1[report activates category j]`,
//! both oracles satisfy
//!
//! ```text
//!   P(b_j = 1 | v = j) = p,      P(b_j = 1 | v ≠ j) = q,      p > q,
//! ```
//!
//! with
//!
//! * **GRR** (generalized randomized response, the k-ary direct encoding):
//!   `p = e^ε / (e^ε + k − 1)`, `q = 1 / (e^ε + k − 1)` — one category is
//!   reported per user, so `b_j = 1[report = j]`.
//! * **OUE** (optimized unary encoding): `p = 1/2`, `q = 1 / (e^ε + 1)` —
//!   every bit of the one-hot encoding is flipped independently.
//!
//! The calibrated entry `(b_j − q)/(p − q)` therefore has expectation exactly
//! `1[v = j]`, which makes its per-user average an unbiased frequency
//! estimate with closed-form variance
//!
//! ```text
//!   Var = e(1 − e) / (p − q)²,      e = f·p + (1 − f)·q,
//! ```
//!
//! for true frequency `f`. [`CategoricalOracle::entry_mechanism`] packages
//! that marginal as an unbiased [`Mechanism`] on the one-hot entry domain
//! `[0, 1]`, so the existing estimation and HDR4ME re-calibration stack
//! ([`hdldp_core::Hdr4me::recalibrate_frequencies`]) applies unchanged.

use crate::{Result, WorkloadError};
use hdldp_mechanisms::draw::{below_threshold, bernoulli_threshold};
use hdldp_mechanisms::{Bound, Mechanism};
use hdldp_protocol::Report;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Identifier for the categorical frequency oracles shipped with this crate.
///
/// Deliberately separate from [`hdldp_mechanisms::MechanismKind`]: oracles
/// perturb categorical values, not numeric ones, and only their per-entry
/// marginal is a [`Mechanism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Generalized randomized response (k-ary direct encoding).
    Grr,
    /// Optimized unary encoding (per-bit flipping of the one-hot vector).
    Oue,
}

impl OracleKind {
    /// Every kind, in a stable order.
    pub const ALL: [OracleKind; 2] = [OracleKind::Grr, OracleKind::Oue];

    /// Short lowercase name (stable; used for CLI flags and result files).
    pub fn name(&self) -> &'static str {
        match self {
            OracleKind::Grr => "grr",
            OracleKind::Oue => "oue",
        }
    }

    /// Parse a name produced by [`OracleKind::name`] (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "grr" | "rr" | "direct" => Some(OracleKind::Grr),
            "oue" | "unary" => Some(OracleKind::Oue),
            _ => None,
        }
    }
}

/// A configured categorical frequency oracle over `k` categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoricalOracle {
    kind: OracleKind,
    categories: usize,
    epsilon: f64,
    p: f64,
    q: f64,
    high: f64,
    low: f64,
}

impl CategoricalOracle {
    /// Create an oracle.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] when `categories < 2` or
    /// `epsilon` is not positive/finite.
    pub fn new(kind: OracleKind, categories: usize, epsilon: f64) -> Result<Self> {
        if categories < 2 {
            return Err(WorkloadError::InvalidConfig {
                name: "categories",
                reason: format!("an oracle needs at least 2 categories, got {categories}"),
            });
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(WorkloadError::InvalidConfig {
                name: "epsilon",
                reason: format!("must be positive and finite, got {epsilon}"),
            });
        }
        let e_eps = epsilon.exp();
        let (p, q) = match kind {
            OracleKind::Grr => {
                let denom = e_eps + categories as f64 - 1.0;
                (e_eps / denom, 1.0 / denom)
            }
            OracleKind::Oue => (0.5, 1.0 / (e_eps + 1.0)),
        };
        let gap = p - q;
        Ok(Self {
            kind,
            categories,
            epsilon,
            p,
            q,
            high: (1.0 - q) / gap,
            low: -q / gap,
        })
    }

    /// The oracle family.
    pub fn kind(&self) -> OracleKind {
        self.kind
    }

    /// The category count `k`.
    pub fn categories(&self) -> usize {
        self.categories
    }

    /// The report-level privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// `P(b_j = 1 | v = j)` — the true-category activation probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `P(b_j = 1 | v ≠ j)` — the false-category activation probability.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The calibrated value of an activated entry, `(1 − q)/(p − q)`.
    pub fn calibrated_one(&self) -> f64 {
        self.high
    }

    /// The calibrated value of an inactive entry, `−q/(p − q)`.
    pub fn calibrated_zero(&self) -> f64 {
        self.low
    }

    /// Variance of one user's calibrated entry for a category with true
    /// frequency `f`: `e(1 − e)/(p − q)²` with `e = f·p + (1 − f)·q`. The
    /// estimator over `n` users has variance `per_report_variance(f) / n`.
    pub fn per_report_variance(&self, f: f64) -> f64 {
        let f = f.clamp(0.0, 1.0);
        let e = f * self.p + (1.0 - f) * self.q;
        e * (1.0 - e) / ((self.p - self.q) * (self.p - self.q))
    }

    /// Perturb one categorical value into its calibrated one-hot report,
    /// written into `out` in the dense shape: the `k` calibrated bits alone,
    /// value `j` for category `j`, with no dimension column. `out` is cleared
    /// first, so it holds exactly this report afterwards; a value out of the
    /// domain leaves it untouched.
    ///
    /// # Errors
    /// Returns [`WorkloadError::ValueOutOfDomain`] when `value >= k`.
    pub fn perturb_into(&self, value: usize, rng: &mut StdRng, out: &mut Report) -> Result<()> {
        if value >= self.categories {
            return Err(WorkloadError::ValueOutOfDomain {
                value,
                categories: self.categories,
            });
        }
        out.clear();
        let values = &mut out.values;
        match self.kind {
            OracleKind::Grr => {
                let reported = self.grr_report(value, rng);
                // Write every category inactive, then activate the reported
                // one: the fill loop has no per-category select.
                values.resize(self.categories, self.low);
                if let Some(bit) = values.get_mut(reported) {
                    *bit = self.high;
                }
            }
            OracleKind::Oue => {
                let (on, off) = (bernoulli_threshold(self.p), bernoulli_threshold(self.q));
                let mut flip = |threshold: u64| {
                    let bit = below_threshold(rng.next_u64(), threshold);
                    if bit {
                        self.high
                    } else {
                        self.low
                    }
                };
                // One draw per category in category order; only the true
                // category uses `on`, so the loops around it need no select.
                values.extend((0..value).map(|_| flip(off)));
                values.push(flip(on));
                values.extend((value + 1..self.categories).map(|_| flip(off)));
            }
        }
        Ok(())
    }

    /// Unbiased frequency estimates from activation counts over `n` reports:
    /// `f̂_j = (c_j/n − q)/(p − q)`.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] when `n` is zero or the count
    /// vector length does not match `k`.
    pub fn estimate_from_counts(&self, counts: &[u64], n: u64) -> Result<Vec<f64>> {
        if n == 0 {
            return Err(WorkloadError::InvalidConfig {
                name: "reports",
                reason: "cannot estimate frequencies from zero reports".into(),
            });
        }
        self.check_counts_len(counts)?;
        let n = n as f64;
        let gap = self.p - self.q;
        Ok(counts
            .iter()
            .map(|&c| (c as f64 / n - self.q) / gap)
            .collect())
    }

    /// The per-entry marginal as an unbiased [`Mechanism`] on the one-hot
    /// entry domain `[0, 1]` — the bridge into
    /// [`hdldp_core::Hdr4me::recalibrate_frequencies`] and the deviation
    /// framework.
    pub fn entry_mechanism(&self) -> OracleEntryMechanism {
        OracleEntryMechanism { oracle: *self }
    }

    /// Reject a count vector that does not hold exactly one slot per
    /// category.
    fn check_counts_len(&self, counts: &[u64]) -> Result<()> {
        if counts.len() == self.categories {
            return Ok(());
        }
        Err(WorkloadError::InvalidConfig {
            name: "counts",
            reason: format!(
                "expected {} categories, got {}",
                self.categories,
                counts.len()
            ),
        })
    }

    /// GRR's reported category: keep `value` w.p. `p`, else uniform over the
    /// other `k − 1` categories.
    fn grr_report(&self, value: usize, rng: &mut StdRng) -> usize {
        if rng.gen_bool(self.p) {
            value
        } else {
            let other = rng.gen_range(0..self.categories - 1);
            if other >= value {
                other + 1
            } else {
                other
            }
        }
    }
}

/// The calibrated per-entry marginal of a [`CategoricalOracle`] as a
/// [`Mechanism`].
///
/// Input is one one-hot entry `t ∈ [0, 1]` (fractional inputs are treated as
/// Bernoulli parameters, which is what the deviation framework's expectation
/// over a `{0, 1}` value distribution needs); output is the calibrated bit
/// `(b − q)/(p − q) ∈ {low, high}`. The mechanism is unbiased:
/// `E[M(t)] = t` for every `t`.
#[derive(Debug, Clone, Copy)]
pub struct OracleEntryMechanism {
    oracle: CategoricalOracle,
}

impl OracleEntryMechanism {
    /// The oracle this marginal belongs to.
    pub fn oracle(&self) -> &CategoricalOracle {
        &self.oracle
    }

    /// Clamp an input onto the entry domain, mapping NaN to the midpoint.
    fn clamp_input(t: f64) -> f64 {
        if t.is_nan() {
            0.5
        } else {
            t.clamp(0.0, 1.0)
        }
    }
}

impl Mechanism for OracleEntryMechanism {
    fn name(&self) -> &'static str {
        self.oracle.kind.name()
    }

    fn epsilon(&self) -> f64 {
        self.oracle.epsilon
    }

    fn bound(&self) -> Bound {
        Bound::Bounded(self.oracle.high.abs().max(self.oracle.low.abs()))
    }

    fn input_domain(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn output_support(&self) -> (f64, f64) {
        (self.oracle.low, self.oracle.high)
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        let t = Self::clamp_input(t);
        let bit = rng.gen_bool(t);
        let keep = if bit { self.oracle.p } else { self.oracle.q };
        if rng.gen_bool(keep) {
            self.oracle.high
        } else {
            self.oracle.low
        }
    }

    fn bias(&self, _t: f64) -> f64 {
        0.0
    }

    fn variance(&self, t: f64) -> f64 {
        self.oracle.per_report_variance(Self::clamp_input(t))
    }

    fn is_unbiased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_inputs() {
        assert!(CategoricalOracle::new(OracleKind::Grr, 2, 1.0).is_ok());
        assert!(CategoricalOracle::new(OracleKind::Grr, 1, 1.0).is_err());
        assert!(CategoricalOracle::new(OracleKind::Oue, 8, 0.0).is_err());
        assert!(CategoricalOracle::new(OracleKind::Oue, 8, f64::NAN).is_err());
        assert!(CategoricalOracle::new(OracleKind::Oue, 8, f64::INFINITY).is_err());
    }

    #[test]
    fn kind_name_round_trips() {
        for kind in OracleKind::ALL {
            assert_eq!(OracleKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(OracleKind::parse("RR"), Some(OracleKind::Grr));
        assert_eq!(OracleKind::parse("unknown"), None);
    }

    #[test]
    fn probabilities_match_the_closed_forms() {
        let eps = 1.5f64;
        let k = 16usize;
        let grr = CategoricalOracle::new(OracleKind::Grr, k, eps).unwrap();
        let denom = eps.exp() + k as f64 - 1.0;
        assert!((grr.p() - eps.exp() / denom).abs() < 1e-12);
        assert!((grr.q() - 1.0 / denom).abs() < 1e-12);

        let oue = CategoricalOracle::new(OracleKind::Oue, k, eps).unwrap();
        assert_eq!(oue.p(), 0.5);
        assert!((oue.q() - 1.0 / (eps.exp() + 1.0)).abs() < 1e-12);
        // OUE's q does not depend on k.
        let oue_big = CategoricalOracle::new(OracleKind::Oue, 1024, eps).unwrap();
        assert_eq!(oue.q(), oue_big.q());
    }

    #[test]
    fn calibrated_bits_have_unit_gap_and_zero_mean_shift() {
        for kind in OracleKind::ALL {
            let oracle = CategoricalOracle::new(kind, 32, 2.0).unwrap();
            // high - low = 1/(p - q): the calibration maps the bit gap onto
            // the unit one-hot gap.
            let gap = oracle.calibrated_one() - oracle.calibrated_zero();
            assert!((gap - 1.0 / (oracle.p() - oracle.q())).abs() < 1e-12);
            // E[calibrated | true one-hot entry t] = t at both extremes.
            for t in [0.0, 1.0] {
                let e = t * oracle.p() + (1.0 - t) * oracle.q();
                let mean = e * oracle.calibrated_one() + (1.0 - e) * oracle.calibrated_zero();
                assert!((mean - t).abs() < 1e-12, "{kind:?} t={t}");
            }
        }
    }

    #[test]
    fn perturb_into_emits_every_category_once() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in OracleKind::ALL {
            let oracle = CategoricalOracle::new(kind, 8, 1.0).unwrap();
            let mut out = Report::default();
            out.push(9, 0.5);
            oracle.perturb_into(3, &mut rng, &mut out).unwrap();
            // Dense: one value per category, in category order.
            assert!(out.dims.is_empty());
            assert_eq!(out.values.len(), 8);
            for value in &out.values {
                assert!(
                    *value == oracle.calibrated_one() || *value == oracle.calibrated_zero(),
                    "{kind:?}"
                );
            }
            let held = out.clone();
            assert!(oracle.perturb_into(8, &mut rng, &mut out).is_err());
            assert_eq!(out, held);
        }
    }

    #[test]
    fn grr_emits_exactly_one_activated_category() {
        let oracle = CategoricalOracle::new(OracleKind::Grr, 16, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for value in 0..16 {
            let mut out = Report::default();
            oracle.perturb_into(value, &mut rng, &mut out).unwrap();
            let ones = out
                .values
                .iter()
                .filter(|&&v| v == oracle.calibrated_one())
                .count();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn count_estimator_is_consistent_on_large_samples() {
        // 60k users, k = 4, planted distribution; both oracles should recover
        // frequencies to within a few estimator standard deviations.
        let truth = [0.5, 0.25, 0.15, 0.1];
        let values: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(23);
            (0..60_000)
                .map(|_| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let mut acc = 0.0;
                    let mut picked = truth.len() - 1;
                    for (i, w) in truth.iter().enumerate() {
                        acc += w;
                        if u < acc {
                            picked = i;
                            break;
                        }
                    }
                    picked
                })
                .collect()
        };
        for kind in OracleKind::ALL {
            let oracle = CategoricalOracle::new(kind, truth.len(), 2.0).unwrap();
            let mut rng = StdRng::seed_from_u64(29);
            let mut counts = vec![0u64; truth.len()];
            let mut report = Report::default();
            for &value in &values {
                oracle.perturb_into(value, &mut rng, &mut report).unwrap();
                for (count, &entry) in counts.iter_mut().zip(&report.values) {
                    *count += u64::from(entry == oracle.calibrated_one());
                }
            }
            let est = oracle
                .estimate_from_counts(&counts, values.len() as u64)
                .unwrap();
            for (j, (&f, &fhat)) in truth.iter().zip(&est).enumerate() {
                let sd = (oracle.per_report_variance(f) / values.len() as f64).sqrt();
                assert!(
                    (fhat - f).abs() < 6.0 * sd,
                    "{kind:?} category {j}: {fhat} vs {f} (sd {sd})"
                );
            }
        }
    }

    #[test]
    fn estimate_from_counts_validates_inputs() {
        let oracle = CategoricalOracle::new(OracleKind::Grr, 4, 1.0).unwrap();
        assert!(oracle.estimate_from_counts(&[1, 2, 3, 4], 0).is_err());
        assert!(oracle.estimate_from_counts(&[1, 2], 10).is_err());
    }

    #[test]
    fn entry_mechanism_is_an_unbiased_bounded_mechanism() {
        for kind in OracleKind::ALL {
            let oracle = CategoricalOracle::new(kind, 64, 4.0).unwrap();
            let m = oracle.entry_mechanism();
            assert!(m.is_unbiased());
            assert_eq!(m.bias(0.3), 0.0);
            assert_eq!(m.input_domain(), (0.0, 1.0));
            assert!(m.bound().is_bounded());
            let (lo, hi) = m.output_support();
            assert_eq!(lo, oracle.calibrated_zero());
            assert_eq!(hi, oracle.calibrated_one());
            // Sampled outputs stay on the two calibrated levels and average
            // to the input.
            let mut rng = StdRng::seed_from_u64(5);
            let t = 0.25;
            let n = 40_000;
            let mean: f64 = (0..n).map(|_| m.perturb(t, &mut rng)).sum::<f64>() / n as f64;
            let sd = (m.variance(t) / n as f64).sqrt();
            assert!((mean - t).abs() < 6.0 * sd, "{kind:?}: {mean} vs {t}");
        }
    }

    #[test]
    fn variance_matches_empirical_spread() {
        let oracle = CategoricalOracle::new(OracleKind::Oue, 16, 1.0).unwrap();
        let m = oracle.entry_mechanism();
        let t = 0.6;
        let mut rng = StdRng::seed_from_u64(13);
        let n = 60_000;
        let samples: Vec<f64> = (0..n).map(|_| m.perturb(t, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let expected = m.variance(t);
        assert!(
            (var - expected).abs() / expected < 0.05,
            "{var} vs {expected}"
        );
    }

    #[test]
    fn nan_input_maps_to_domain_midpoint() {
        let oracle = CategoricalOracle::new(OracleKind::Grr, 8, 1.0).unwrap();
        let m = oracle.entry_mechanism();
        assert_eq!(m.variance(f64::NAN), m.variance(0.5));
        let mut rng = StdRng::seed_from_u64(3);
        let out = m.perturb(f64::NAN, &mut rng);
        assert!(out == oracle.calibrated_one() || out == oracle.calibrated_zero());
    }

    /// The per-entry GRR/OUE loops `perturb_into` replaced: `gen_bool` or
    /// `gen_range` per draw, then one `push` per category.
    fn reference_perturb_into(
        oracle: &CategoricalOracle,
        value: usize,
        rng: &mut StdRng,
        out: &mut Vec<(usize, f64)>,
    ) {
        let (high, low) = (oracle.calibrated_one(), oracle.calibrated_zero());
        match oracle.kind() {
            OracleKind::Grr => {
                let reported = reference_grr_report(oracle, value, rng);
                for j in 0..oracle.categories() {
                    out.push((j, if j == reported { high } else { low }));
                }
            }
            OracleKind::Oue => {
                for j in 0..oracle.categories() {
                    let keep = if j == value { oracle.p() } else { oracle.q() };
                    let bit = rng.gen_bool(keep);
                    out.push((j, if bit { high } else { low }));
                }
            }
        }
    }

    fn reference_grr_report(oracle: &CategoricalOracle, value: usize, rng: &mut StdRng) -> usize {
        if rng.gen_bool(oracle.p()) {
            value
        } else {
            let other = rng.gen_range(0..oracle.categories() - 1);
            if other >= value {
                other + 1
            } else {
                other
            }
        }
    }

    const EXACTNESS_CATEGORIES: [usize; 5] = [2, 3, 16, 256, 1000];
    const EXACTNESS_EPSILONS: [f64; 4] = [0.01, 0.5, 4.0, 30.0];

    /// Seeds per grid point: more where a report is short.
    fn exactness_seeds(k: usize) -> u64 {
        if k <= 16 {
            16
        } else {
            2
        }
    }

    #[test]
    fn perturb_into_matches_the_per_entry_reference_bit_for_bit() {
        for kind in OracleKind::ALL {
            for k in EXACTNESS_CATEGORIES {
                for epsilon in EXACTNESS_EPSILONS {
                    let oracle = CategoricalOracle::new(kind, k, epsilon).unwrap();
                    for seed in 0..exactness_seeds(k) {
                        let mut fast_rng = StdRng::seed_from_u64(seed);
                        let mut reference_rng = StdRng::seed_from_u64(seed);
                        // One reused buffer, which each report replaces;
                        // the reference appends every report's entries.
                        let (mut fast, mut reference) = (Report::default(), vec![(7, 0.5)]);
                        fast.push(7, 0.5);
                        let mut written = vec![(7, 0.5)];
                        for value in 0..k {
                            oracle
                                .perturb_into(value, &mut fast_rng, &mut fast)
                                .unwrap();
                            assert!(fast.dims.is_empty());
                            written.extend(fast.values.iter().copied().enumerate());
                            reference_perturb_into(
                                &oracle,
                                value,
                                &mut reference_rng,
                                &mut reference,
                            );
                        }
                        let bits = |entries: &[(usize, f64)]| -> Vec<(usize, u64)> {
                            entries.iter().map(|&(j, v)| (j, v.to_bits())).collect()
                        };
                        let at = format!("{kind:?} k={k} eps={epsilon} seed={seed}");
                        assert_eq!(bits(&written), bits(&reference), "{at}");
                        assert_eq!(fast_rng, reference_rng, "{at}");
                    }
                }
            }
        }
    }
}
