//! The unified [`Mechanism`] trait of the paper's analytical framework.
//!
//! Section IV-B generalizes a `d`-dimensional LDP mechanism into three phases
//! (perturbation, calibration, aggregation) and characterises each mechanism
//! by whether its perturbation has a finite boundary (`Bound(M)`), its bias
//! `δ(t) = E[M(t) − t]` and its variance `Var[M(t)]`. The trait below captures
//! exactly that interface; everything downstream (the collection protocol, the
//! analytical framework, HDR4ME) is written against it, so adding a new
//! mechanism automatically plugs it into the benchmark and the re-calibration
//! protocol.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Whether a mechanism's output support is finite (`Bound(M) = 1` in the
/// paper) or the whole real line (`Bound(M) = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The perturbed value can be any real number (`t* = t + N`, Laplace-like).
    Unbounded,
    /// The perturbed value always lies in `[-B, B]` (after centring); the
    /// stored value is `B`.
    Bounded(f64),
}

impl Bound {
    /// `true` for [`Bound::Bounded`].
    pub fn is_bounded(&self) -> bool {
        matches!(self, Bound::Bounded(_))
    }

    /// The finite bound `B`, if any.
    pub fn limit(&self) -> Option<f64> {
        match self {
            Bound::Bounded(b) => Some(*b),
            Bound::Unbounded => None,
        }
    }
}

/// Identifier for the concrete mechanisms shipped with this crate.
///
/// Used by the experiment harness and the examples to select mechanisms from
/// the command line / configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismKind {
    /// Laplace mechanism (Dwork et al.).
    Laplace,
    /// SCDF data-independent staircase-shaped noise (Soria-Comas & Domingo-Ferrer).
    Scdf,
    /// Staircase mechanism (Geng et al.).
    Staircase,
    /// Duchi et al. binary mechanism.
    Duchi,
    /// Piecewise mechanism (Wang et al.).
    Piecewise,
    /// Hybrid mechanism (Wang et al.).
    Hybrid,
    /// Square Wave mechanism (Li et al.).
    SquareWave,
}

impl MechanismKind {
    /// Every kind, in a stable order.
    pub const ALL: [MechanismKind; 7] = [
        MechanismKind::Laplace,
        MechanismKind::Scdf,
        MechanismKind::Staircase,
        MechanismKind::Duchi,
        MechanismKind::Piecewise,
        MechanismKind::Hybrid,
        MechanismKind::SquareWave,
    ];

    /// The three mechanisms evaluated in the paper's experiments (Section VI).
    pub const PAPER_EVALUATED: [MechanismKind; 3] = [
        MechanismKind::Laplace,
        MechanismKind::Piecewise,
        MechanismKind::SquareWave,
    ];

    /// Short lowercase name (stable; used for CLI flags and result files).
    pub fn name(&self) -> &'static str {
        match self {
            MechanismKind::Laplace => "laplace",
            MechanismKind::Scdf => "scdf",
            MechanismKind::Staircase => "staircase",
            MechanismKind::Duchi => "duchi",
            MechanismKind::Piecewise => "piecewise",
            MechanismKind::Hybrid => "hybrid",
            MechanismKind::SquareWave => "square_wave",
        }
    }

    /// Parse a mechanism name produced by [`MechanismKind::name`]
    /// (case-insensitive, also accepts a few common aliases).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "laplace" | "lap" => Some(MechanismKind::Laplace),
            "scdf" => Some(MechanismKind::Scdf),
            "staircase" | "stair" => Some(MechanismKind::Staircase),
            "duchi" => Some(MechanismKind::Duchi),
            "piecewise" | "pm" => Some(MechanismKind::Piecewise),
            "hybrid" | "hm" => Some(MechanismKind::Hybrid),
            "square_wave" | "square" | "sw" => Some(MechanismKind::SquareWave),
            _ => None,
        }
    }
}

/// A one-dimensional ε-LDP perturbation mechanism.
///
/// Implementations must guarantee that for any pair of inputs `t, t'` in the
/// input domain and any output `t*`, the densities satisfy
/// `p(M(t) = t*) / p(M(t') = t*) ≤ e^ε` (Definition 1 of the paper).
pub trait Mechanism: Send + Sync {
    /// Human-readable mechanism name.
    fn name(&self) -> &'static str;

    /// The per-dimension privacy budget ε this instance was built with.
    fn epsilon(&self) -> f64;

    /// Whether the output support is finite, and its bound.
    fn bound(&self) -> Bound;

    /// The interval of inputs this mechanism accepts, `(lo, hi)`.
    fn input_domain(&self) -> (f64, f64);

    /// The interval that contains all possible outputs. Unbounded mechanisms
    /// return `(f64::NEG_INFINITY, f64::INFINITY)`.
    fn output_support(&self) -> (f64, f64);

    /// Perturb one value. `t` must lie in [`Mechanism::input_domain`]; values
    /// outside are clamped (callers are expected to have normalized data, the
    /// clamp is a safety net mirroring real deployments).
    fn perturb(&self, t: f64, rng: &mut dyn RngCore) -> f64;

    /// Perturb the value half of every `(dimension, value)` entry in place,
    /// in order; the dimensions are left as they are.
    ///
    /// Equivalent to calling [`Mechanism::perturb`] on each value in turn
    /// (same RNG draws, bit-identical results), but as one dynamic dispatch
    /// per report: each implementation gets its own copy of this provided
    /// method, in which `perturb` is a static call the compiler can inline.
    fn perturb_entries(&self, entries: &mut [(usize, f64)], rng: &mut dyn RngCore) {
        for (_, value) in entries {
            *value = self.perturb(*value, rng);
        }
    }

    /// Closed-form bias `δ(t) = E[M(t)] − t`.
    fn bias(&self, t: f64) -> f64;

    /// Closed-form variance `Var[M(t)]`.
    fn variance(&self, t: f64) -> f64;

    /// Expected output `E[M(t)] = t + δ(t)`.
    fn expected_output(&self, t: f64) -> f64 {
        t + self.bias(t)
    }

    /// The Lemma 3 moment pair `(E[δ(v)], E[Var[M(v)]])` over a discrete value
    /// distribution: `values[z]` occurs with probability `probabilities[z]`.
    ///
    /// Equivalent to two `Σ p_z f(v_z)` expectations (same accumulation order,
    /// starting from zero), but fused into one pass so the batched framework
    /// paths pay one dynamic dispatch per *dimension* instead of one per value
    /// — and monomorphization inlines the concrete `bias`/`variance` bodies
    /// into the loop. Slices of unequal length are zipped to the shorter one,
    /// matching `Iterator::zip`; callers pass distribution-validated slices.
    fn expected_moments(&self, values: &[f64], probabilities: &[f64]) -> (f64, f64) {
        let mut bias = 0.0;
        let mut variance = 0.0;
        for (&v, &p) in values.iter().zip(probabilities) {
            bias += p * self.bias(v);
            variance += p * self.variance(v);
        }
        (bias, variance)
    }

    /// `true` when `δ(t) = 0` for every `t` (unbiased estimation).
    fn is_unbiased(&self) -> bool {
        false
    }
}

/// Clamp a value into a closed interval; shared helper for implementations.
pub(crate) fn clamp_to_domain(t: f64, lo: f64, hi: f64) -> f64 {
    if t.is_nan() {
        // A NaN input would silently poison the aggregate; map it to the
        // domain midpoint, which is the least informative legal value.
        0.5 * (lo + hi)
    } else {
        t.clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_accessors() {
        assert!(Bound::Bounded(2.0).is_bounded());
        assert!(!Bound::Unbounded.is_bounded());
        assert_eq!(Bound::Bounded(2.0).limit(), Some(2.0));
        assert_eq!(Bound::Unbounded.limit(), None);
    }

    #[test]
    fn kind_name_round_trips() {
        for kind in MechanismKind::ALL {
            assert_eq!(MechanismKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MechanismKind::parse("PM"), Some(MechanismKind::Piecewise));
        assert_eq!(MechanismKind::parse("sw"), Some(MechanismKind::SquareWave));
        assert_eq!(MechanismKind::parse("unknown"), None);
    }

    #[test]
    fn paper_evaluated_is_subset_of_all() {
        for kind in MechanismKind::PAPER_EVALUATED {
            assert!(MechanismKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn expected_moments_matches_separate_expectations() {
        use crate::LaplaceMechanism;
        let mechanism = LaplaceMechanism::new(0.5).unwrap();
        let values = [-0.8, -0.1, 0.3, 0.9];
        let probabilities = [0.1, 0.4, 0.3, 0.2];
        let (bias, variance) = mechanism.expected_moments(&values, &probabilities);
        let expected_bias: f64 = values
            .iter()
            .zip(&probabilities)
            .map(|(&v, &p)| p * mechanism.bias(v))
            .sum();
        let expected_variance: f64 = values
            .iter()
            .zip(&probabilities)
            .map(|(&v, &p)| p * mechanism.variance(v))
            .sum();
        assert_eq!(bias.to_bits(), expected_bias.to_bits());
        assert_eq!(variance.to_bits(), expected_variance.to_bits());
    }

    #[test]
    fn clamp_handles_nan_and_out_of_range() {
        assert_eq!(clamp_to_domain(2.0, -1.0, 1.0), 1.0);
        assert_eq!(clamp_to_domain(-7.0, -1.0, 1.0), -1.0);
        assert_eq!(clamp_to_domain(0.3, -1.0, 1.0), 0.3);
        assert_eq!(clamp_to_domain(f64::NAN, -1.0, 1.0), 0.0);
        assert_eq!(clamp_to_domain(f64::NAN, 0.0, 1.0), 0.5);
    }
}
