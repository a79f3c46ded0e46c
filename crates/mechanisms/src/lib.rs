//! # hdldp-mechanisms
//!
//! Local differential privacy perturbation mechanisms, under the unified
//! abstraction of Section IV-B of *Utility Analysis and Enhancement of LDP
//! Mechanisms in High-Dimensional Space* (ICDE 2022).
//!
//! Every mechanism perturbs a single numeric value from its input domain into
//! a (possibly unbounded) output domain while satisfying ε-LDP, and exposes the
//! two quantities the paper's analytical framework consumes:
//!
//! * `bias(t) = δ(t) = E[M(t)] − t`, and
//! * `variance(t) = Var[M(t)]`,
//!
//! in closed form. For *unbounded* mechanisms (`Bound::Unbounded`) these are
//! independent of `t` (Lemma 1); for *bounded* mechanisms (`Bound::Bounded(B)`)
//! they depend on `t` and the framework takes expectations over the empirical
//! value distribution (Lemma 3).
//!
//! Implemented mechanisms:
//!
//! | Mechanism | Type | Reference |
//! |---|---|---|
//! | [`LaplaceMechanism`] | unbounded | Dwork et al. 2006 |
//! | [`ScdfMechanism`] | unbounded | Soria-Comas & Domingo-Ferrer 2013 |
//! | [`StaircaseMechanism`] | unbounded | Geng et al. 2015 |
//! | [`DuchiMechanism`] | bounded (binary output) | Duchi et al. 2018 |
//! | [`PiecewiseMechanism`] | bounded | Wang et al. ICDE 2019 |
//! | [`HybridMechanism`] | bounded | Wang et al. ICDE 2019 |
//! | [`SquareWaveMechanism`] | bounded | Li et al. SIGMOD 2020 |
//!
//! plus the [`rescale::Rescaled`] adapter that transports any mechanism to a
//! different input interval (used to run the natively-`[0,1]` Square Wave
//! mechanism on `[-1,1]`-normalized data and to run `[-1,1]` mechanisms on the
//! `[0,1]` entries of histogram-encoded categorical data).
//!
//! Every draw a mechanism makes is a vendored `rand` draw on one 64-bit
//! word. The [`draw`] module gives those draws as pure functions of the word,
//! which is how the Piecewise, Square Wave and Duchi mechanisms perturb a
//! whole report in two passes: draw every word first, then transform.

pub mod draw;
pub mod duchi;
pub mod error;
pub mod hybrid;
pub mod laplace;
pub mod mechanism;
pub mod piecewise;
pub mod rescale;
pub mod scdf;
pub mod square_wave;
pub mod staircase;
pub mod testing;

pub use duchi::DuchiMechanism;
pub use error::MechanismError;
pub use hybrid::HybridMechanism;
pub use laplace::LaplaceMechanism;
pub use mechanism::{Bound, Mechanism, MechanismKind};
pub use piecewise::PiecewiseMechanism;
pub use rescale::Rescaled;
pub use scdf::ScdfMechanism;
pub use square_wave::SquareWaveMechanism;
pub use staircase::StaircaseMechanism;

/// Convenience result alias for mechanism construction.
pub type Result<T> = std::result::Result<T, MechanismError>;

/// Construct a mechanism of the given [`MechanismKind`] with a per-dimension
/// privacy budget `epsilon`, on the canonical `[-1, 1]` input domain.
///
/// Square Wave is wrapped in [`Rescaled`] so that its native `[0, 1]` domain is
/// transported to `[-1, 1]`, matching how the paper's experiments normalize
/// every dimension into `[-1, 1]`.
///
/// # Errors
/// Propagates the constructor error of the underlying mechanism (non-positive
/// or non-finite `epsilon`).
pub fn build_mechanism(kind: MechanismKind, epsilon: f64) -> Result<Box<dyn Mechanism>> {
    Ok(match kind {
        MechanismKind::Laplace => Box::new(LaplaceMechanism::new(epsilon)?),
        MechanismKind::Scdf => Box::new(ScdfMechanism::new(epsilon)?),
        MechanismKind::Staircase => Box::new(StaircaseMechanism::new(epsilon)?),
        MechanismKind::Duchi => Box::new(DuchiMechanism::new(epsilon)?),
        MechanismKind::Piecewise => Box::new(PiecewiseMechanism::new(epsilon)?),
        MechanismKind::Hybrid => Box::new(HybridMechanism::new(epsilon)?),
        MechanismKind::SquareWave => Box::new(Rescaled::new(
            SquareWaveMechanism::new(epsilon)?,
            -1.0,
            1.0,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_mechanism_constructs_every_kind() {
        for kind in MechanismKind::ALL {
            let m = build_mechanism(kind, 1.0).unwrap();
            assert_eq!(m.input_domain(), (-1.0, 1.0), "{kind:?}");
            assert!((m.epsilon() - 1.0).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn build_mechanism_rejects_bad_epsilon() {
        for kind in MechanismKind::ALL {
            assert!(build_mechanism(kind, 0.0).is_err(), "{kind:?}");
            assert!(build_mechanism(kind, -1.0).is_err(), "{kind:?}");
            assert!(build_mechanism(kind, f64::NAN).is_err(), "{kind:?}");
        }
    }
}
