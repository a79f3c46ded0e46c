//! The [`Rescaled`] adapter: transport any mechanism to a different input
//! interval through an affine map.
//!
//! Two places in the reproduction need this:
//!
//! * the Square Wave mechanism is natively defined on `[0, 1]` while the
//!   paper's experiments normalize every dimension into `[-1, 1]`;
//! * the frequency-estimation extension (Section V-C) histogram-encodes
//!   categorical values into `{0, 1}` entries, i.e. the `[0, 1]` domain, while
//!   Laplace/Piecewise are natively defined on `[-1, 1]`.
//!
//! An affine change of variables keeps ε-LDP intact (it is a bijection applied
//! independently of the data) and transforms the moments predictably:
//! with scale `s`, `bias_out(x) = s · bias_in(u)` and
//! `var_out(x) = s² · var_in(u)` where `u` is the mapped input.

use crate::mechanism::{Bound, Mechanism};
use rand::rngs::StdRng;

/// A mechanism re-parameterised to accept inputs from `[lo, hi]` instead of
/// its native input domain.
#[derive(Debug, Clone)]
pub struct Rescaled<M> {
    inner: M,
    lo: f64,
    hi: f64,
    /// Lower end of the inner mechanism's native domain.
    native_lo: f64,
    /// Scale factor from the native domain to the exposed domain.
    scale: f64,
}

impl<M: Mechanism> Rescaled<M> {
    /// Wrap `inner` so that it accepts inputs from `[lo, hi]`.
    ///
    /// # Errors
    /// Returns [`crate::MechanismError::InvalidParameter`] when `lo >= hi` or
    /// either endpoint is not finite.
    pub fn new(inner: M, lo: f64, hi: f64) -> crate::Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(crate::MechanismError::InvalidParameter {
                name: "domain",
                reason: format!("require finite lo < hi, got [{lo}, {hi}]"),
            });
        }
        let (native_lo, native_hi) = inner.input_domain();
        Ok(Self {
            inner,
            lo,
            hi,
            native_lo,
            scale: (hi - lo) / (native_hi - native_lo),
        })
    }

    /// The wrapped mechanism.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Clamp an exposed-domain value onto `[lo, hi]` and map it to the
    /// native domain.
    fn to_native(&self, x: f64) -> f64 {
        self.native_lo + (x.clamp(self.lo, self.hi) - self.lo) / self.scale
    }

    /// Map a native-domain value to the exposed domain.
    #[expect(
        clippy::wrong_self_convention,
        reason = "maps a value into the exposed domain; it constructs no Self"
    )]
    fn from_native(&self, u: f64) -> f64 {
        self.lo + (u - self.native_lo) * self.scale
    }
}

impl<M: Mechanism> Mechanism for Rescaled<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn bound(&self) -> Bound {
        match self.inner.bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Bounded(_) => {
                let (lo, hi) = self.output_support();
                Bound::Bounded(lo.abs().max(hi.abs()))
            }
        }
    }

    fn input_domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn output_support(&self) -> (f64, f64) {
        let (nlo, nhi) = self.inner.output_support();
        if nlo.is_infinite() || nhi.is_infinite() {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let a = self.from_native(nlo);
        let b = self.from_native(nhi);
        (a.min(b), a.max(b))
    }

    fn perturb(&self, t: f64, rng: &mut StdRng) -> f64 {
        self.from_native(self.inner.perturb(self.to_native(t), rng))
    }

    /// Maps the whole report into the native domain, runs the inner
    /// mechanism's `perturb_values` on it once, and maps it back. The maps
    /// draw nothing, so this consumes the words of the per-value loop.
    fn perturb_values(&self, values: &mut [f64], rng: &mut StdRng) {
        for value in values.iter_mut() {
            *value = self.to_native(*value);
        }
        self.inner.perturb_values(values, rng);
        for value in values.iter_mut() {
            *value = self.from_native(*value);
        }
    }

    fn bias(&self, t: f64) -> f64 {
        self.scale * self.inner.bias(self.to_native(t))
    }

    fn variance(&self, t: f64) -> f64 {
        self.scale * self.scale * self.inner.variance(self.to_native(t))
    }

    fn is_unbiased(&self) -> bool {
        self.inner.is_unbiased()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_moments_match_monte_carlo, monte_carlo_moments};
    use crate::{LaplaceMechanism, PiecewiseMechanism, SquareWaveMechanism};

    #[test]
    fn construction_validates_domain() {
        let m = PiecewiseMechanism::new(1.0).unwrap();
        assert!(Rescaled::new(m.clone(), 0.0, 1.0).is_ok());
        assert!(Rescaled::new(m.clone(), 1.0, 0.0).is_err());
        assert!(Rescaled::new(m.clone(), 0.0, 0.0).is_err());
        assert!(Rescaled::new(m, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn identity_rescaling_changes_nothing() {
        let inner = PiecewiseMechanism::new(1.0).unwrap();
        let wrapped = Rescaled::new(inner.clone(), -1.0, 1.0).unwrap();
        for &t in &[-0.8, 0.0, 0.6] {
            assert!((wrapped.bias(t) - inner.bias(t)).abs() < 1e-12);
            assert!((wrapped.variance(t) - inner.variance(t)).abs() < 1e-12);
        }
        assert_eq!(wrapped.output_support(), inner.output_support());
    }

    #[test]
    fn square_wave_on_symmetric_domain_has_scaled_moments() {
        let sw = SquareWaveMechanism::new(1.0).unwrap();
        let wrapped = Rescaled::new(sw.clone(), -1.0, 1.0).unwrap();
        assert_eq!(wrapped.input_domain(), (-1.0, 1.0));
        // x = 0 maps to u = 0.5; scale = 2.
        assert!((wrapped.bias(0.0) - 2.0 * sw.bias(0.5)).abs() < 1e-12);
        assert!((wrapped.variance(0.0) - 4.0 * sw.variance(0.5)).abs() < 1e-12);
        // Output support is [-1 - 2b, 1 + 2b].
        let (lo, hi) = wrapped.output_support();
        assert!((hi - (1.0 + 2.0 * sw.b())).abs() < 1e-12);
        assert!((lo - (-1.0 - 2.0 * sw.b())).abs() < 1e-12);
        assert!(wrapped.bound().is_bounded());
    }

    #[test]
    fn unbounded_inner_stays_unbounded() {
        let lap = LaplaceMechanism::new(1.0).unwrap();
        let wrapped = Rescaled::new(lap, 0.0, 1.0).unwrap();
        assert_eq!(wrapped.bound(), Bound::Unbounded);
        assert_eq!(wrapped.output_support().0, f64::NEG_INFINITY);
        // Scale is 1/2: variance shrinks by 4.
        assert!((wrapped.variance(0.5) - 8.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn rescaled_moments_match_monte_carlo() {
        let sw = SquareWaveMechanism::new(1.0).unwrap();
        let wrapped = Rescaled::new(sw, -1.0, 1.0).unwrap();
        assert_moments_match_monte_carlo(
            &wrapped,
            &[-1.0, -0.4, 0.0, 0.5, 1.0],
            300_000,
            0.01,
            0.05,
            19,
        );
    }

    #[test]
    fn piecewise_on_unit_interval_for_frequency_encoding() {
        // Frequency estimation perturbs {0, 1} entries; the rescaled Piecewise
        // mechanism must stay unbiased on that domain.
        let pm = PiecewiseMechanism::new(2.0).unwrap();
        let wrapped = Rescaled::new(pm, 0.0, 1.0).unwrap();
        assert!(wrapped.is_unbiased());
        for &t in &[0.0, 1.0] {
            let (mean, _) = monte_carlo_moments(&wrapped, t, 200_000, 33);
            assert!((mean - t).abs() < 0.01, "t = {t}, mean = {mean}");
        }
    }

    #[test]
    fn out_of_domain_inputs_are_clamped_to_new_domain() {
        let pm = PiecewiseMechanism::new(1.0).unwrap();
        let wrapped = Rescaled::new(pm, 0.0, 1.0).unwrap();
        // bias/variance of a clamped value equal those at the boundary.
        assert_eq!(wrapped.variance(7.0), wrapped.variance(1.0));
        assert_eq!(wrapped.bias(-3.0), wrapped.bias(0.0));
    }
}
