//! Test utilities shared by the mechanism unit tests and the cross-crate
//! integration tests: Monte-Carlo moment estimation and an empirical check of
//! the ε-LDP density-ratio bound.
//!
//! These helpers live in the library (not behind `cfg(test)`) so that the
//! integration-test crate and the examples can reuse them; they are cheap and
//! have no extra dependencies.

use crate::Mechanism;
use hdldp_math::{Histogram, RunningMoments};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Estimate `(E[M(t)], Var[M(t)])` by drawing `n` perturbations with a
/// deterministic seed.
pub fn monte_carlo_moments(mechanism: &dyn Mechanism, t: f64, n: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = RunningMoments::new();
    for _ in 0..n {
        acc.push(mechanism.perturb(t, &mut rng));
    }
    (acc.mean(), acc.variance())
}

/// Empirically bound the output-density ratio between two inputs.
///
/// Draws `n` perturbations of `t_a` and of `t_b`, histograms both over
/// `range`, and returns the largest ratio `max(p_a/p_b, p_b/p_a)` over bins
/// where both histograms have at least 50 observations (so the ratio is not
/// dominated by Monte-Carlo noise). For an ε-LDP mechanism this should not
/// exceed `e^ε` by more than sampling error.
pub fn empirical_density_ratio_bound(
    mechanism: &dyn Mechanism,
    t_a: f64,
    t_b: f64,
    range: (f64, f64),
    n: usize,
    seed: u64,
) -> f64 {
    let bins = 80;
    #[expect(
        clippy::expect_used,
        reason = "test support: an invalid range is a bug in the calling test, and panicking there is the useful behaviour"
    )]
    let (mut ha, mut hb) = (
        Histogram::new(range.0, range.1, bins).expect("valid histogram range"),
        Histogram::new(range.0, range.1, bins).expect("valid histogram range"),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        ha.push(mechanism.perturb(t_a, &mut rng));
        hb.push(mechanism.perturb(t_b, &mut rng));
    }
    let mut worst: f64 = 1.0;
    for (ca, cb) in ha.counts().iter().zip(hb.counts()) {
        if *ca >= 50 && *cb >= 50 {
            let ratio = *ca as f64 / *cb as f64;
            worst = worst.max(ratio).max(1.0 / ratio);
        }
    }
    worst
}

/// Check that the closed-form `bias`/`variance` of a mechanism agree with
/// Monte Carlo within the given tolerances, over a grid of input values.
/// Panics with a descriptive message on disagreement (intended for tests).
pub fn assert_moments_match_monte_carlo(
    mechanism: &dyn Mechanism,
    inputs: &[f64],
    n: usize,
    mean_tol: f64,
    var_rel_tol: f64,
    seed: u64,
) {
    for (i, &t) in inputs.iter().enumerate() {
        let (mean, var) = monte_carlo_moments(mechanism, t, n, seed.wrapping_add(i as u64));
        let want_mean = mechanism.expected_output(t);
        let want_var = mechanism.variance(t);
        assert!(
            (mean - want_mean).abs() < mean_tol,
            "{}: E[M({t})] Monte Carlo {mean} vs closed form {want_mean}",
            mechanism.name()
        );
        assert!(
            (var - want_var).abs() / want_var.max(1e-12) < var_rel_tol,
            "{}: Var[M({t})] Monte Carlo {var} vs closed form {want_var}",
            mechanism.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaplaceMechanism;

    #[test]
    fn monte_carlo_moments_is_deterministic_per_seed() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        let a = monte_carlo_moments(&m, 0.2, 10_000, 5);
        let b = monte_carlo_moments(&m, 0.2, 10_000, 5);
        assert_eq!(a, b);
        let c = monte_carlo_moments(&m, 0.2, 10_000, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn density_ratio_close_to_one_for_identical_inputs() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        let r = empirical_density_ratio_bound(&m, 0.3, 0.3, (-4.0, 4.0), 200_000, 9);
        assert!(r < 1.2, "ratio = {r}");
    }
}
