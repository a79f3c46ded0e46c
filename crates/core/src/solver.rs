//! The closed-form, one-off HDR4ME solvers.
//!
//! Because the aggregation loss `L(θ) = (1/2r) Σ_i ‖t*_i − θ‖²` has gradient
//! `θ − θ̂` (Equation 25), a single proximal step starting from the naive
//! aggregate lands on the exact minimiser of the regularized objective:
//!
//! * **L1 (Equation 34)** — per-dimension soft-thresholding of `θ̂_j` by `λ*_j`;
//! * **L2 (Equation 42)** — per-dimension shrinkage `θ̂_j / (2λ*_j + 1)`.
//!
//! Both are `O(d)` and require no iteration, which is the paper's selling point:
//! the collector pays essentially nothing to re-calibrate.

use crate::CoreError;

/// Soft-threshold a single value: the scalar solver of Equation 34.
pub fn soft_threshold(theta_hat: f64, lambda: f64) -> f64 {
    if theta_hat > lambda {
        theta_hat - lambda
    } else if theta_hat < -lambda {
        theta_hat + lambda
    } else {
        0.0
    }
}

/// Shrink a single value: the scalar solver of Equation 42.
pub fn l2_shrink(theta_hat: f64, lambda: f64) -> f64 {
    theta_hat / (2.0 * lambda + 1.0)
}

fn check_weights(estimate: &[f64], weights: &[f64]) -> crate::Result<()> {
    if estimate.len() != weights.len() {
        return Err(CoreError::LengthMismatch {
            expected: estimate.len(),
            actual: weights.len(),
        });
    }
    if weights.iter().any(|w| !(w.is_finite() && *w >= 0.0)) {
        return Err(CoreError::InvalidConfig {
            name: "weights",
            reason: "regularization weights must be finite and non-negative".into(),
        });
    }
    Ok(())
}

/// Vectorized L1 solver: element-wise soft-thresholding of the naive estimate.
///
/// # Errors
/// Returns [`CoreError::LengthMismatch`] when the slices differ in length and
/// [`CoreError::InvalidConfig`] when any weight is negative or non-finite.
pub fn solve_l1(estimate: &[f64], weights: &[f64]) -> crate::Result<Vec<f64>> {
    check_weights(estimate, weights)?;
    Ok(estimate
        .iter()
        .zip(weights)
        .map(|(&t, &l)| soft_threshold(t, l))
        .collect())
}

/// Vectorized L2 solver: element-wise shrinkage of the naive estimate.
///
/// # Errors
/// Same conditions as [`solve_l1`].
pub fn solve_l2(estimate: &[f64], weights: &[f64]) -> crate::Result<Vec<f64>> {
    check_weights(estimate, weights)?;
    Ok(estimate
        .iter()
        .zip(weights)
        .map(|(&t, &l)| l2_shrink(t, l))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `iterations` proximal-gradient steps of size `eta` from `θ = 0` on
    /// `0.5‖θ − θ̂‖² + R(λ ∘ θ)`: a gradient step `z = θ − η(θ − θ̂)`, then
    /// `prox`, the scalar solver, with the η-scaled weight. The closed forms
    /// are this iteration's fixed point.
    fn proximal_iteration(
        estimate: &[f64],
        weights: &[f64],
        prox: fn(f64, f64) -> f64,
        eta: f64,
        iterations: usize,
    ) -> Vec<f64> {
        let mut theta = vec![0.0; estimate.len()];
        for _ in 0..iterations {
            for ((t, &e), &w) in theta.iter_mut().zip(estimate).zip(weights) {
                *t = prox(*t - eta * (*t - e), eta * w);
            }
        }
        theta
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(2.0, 0.5), 1.5);
        assert_eq!(soft_threshold(-2.0, 0.5), -1.5);
        assert_eq!(soft_threshold(0.3, 0.5), 0.0);
        assert_eq!(soft_threshold(-0.3, 0.5), 0.0);
        assert_eq!(soft_threshold(0.5, 0.5), 0.0);
        assert_eq!(soft_threshold(1.0, 0.0), 1.0);
    }

    #[test]
    fn l2_shrink_cases() {
        assert_eq!(l2_shrink(1.0, 0.0), 1.0);
        assert_eq!(l2_shrink(1.0, 0.5), 0.5);
        assert_eq!(l2_shrink(-3.0, 1.0), -1.0);
        // Huge weights drive the estimate to (nearly) zero — the behaviour the
        // paper observes for L2 at very high dimensionality.
        assert!(l2_shrink(1.0, 1e9).abs() < 1e-8);
    }

    #[test]
    fn vector_solvers_validate_inputs() {
        assert!(solve_l1(&[1.0, 2.0], &[0.1]).is_err());
        assert!(solve_l2(&[1.0], &[0.1, 0.2]).is_err());
        assert!(solve_l1(&[1.0], &[-0.1]).is_err());
        assert!(solve_l2(&[1.0], &[f64::NAN]).is_err());
    }

    #[test]
    fn vector_solvers_apply_elementwise() {
        let estimate = [3.0, -0.2, 0.0, -4.0];
        let weights = [1.0, 1.0, 1.0, 0.5];
        assert_eq!(
            solve_l1(&estimate, &weights).unwrap(),
            vec![2.0, 0.0, 0.0, -3.5]
        );
        let l2 = solve_l2(&estimate, &weights).unwrap();
        assert_eq!(l2, vec![1.0, -0.2 / 3.0, 0.0, -2.0]);
    }

    #[test]
    fn one_unit_proximal_step_from_zero_is_the_closed_form() {
        // With η = 1 the first step lands on the minimiser exactly, which is
        // how the paper derives Equations 34 and 42.
        let estimate = [3.0, -0.2, 0.0, -4.0, 0.9];
        let weights = [1.0, 1.0, 1.0, 0.5, 2.0];
        let step = |prox| proximal_iteration(&estimate, &weights, prox, 1.0, 1);
        assert_eq!(step(soft_threshold), solve_l1(&estimate, &weights).unwrap());
        assert_eq!(step(l2_shrink), solve_l2(&estimate, &weights).unwrap());
    }

    #[test]
    fn small_step_l1_proximal_iteration_converges_to_the_closed_form() {
        let estimate = [2.5, -1.5, 0.4];
        let weights = [0.7, 0.7, 0.7];
        let closed = solve_l1(&estimate, &weights).unwrap();
        // Below η = 1 the first step falls short, so the iteration has to
        // genuinely iterate to reach Equation 34.
        assert_ne!(
            proximal_iteration(&estimate, &weights, soft_threshold, 0.1, 1),
            closed
        );
        let theta = proximal_iteration(&estimate, &weights, soft_threshold, 0.1, 5_000);
        for (a, b) in theta.iter().zip(&closed) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn small_step_l2_proximal_iteration_converges_to_the_closed_form() {
        let estimate = [2.5, -1.5, 0.4, 0.0];
        let weights = [0.3, 1.0, 5.0, 2.0];
        let closed = solve_l2(&estimate, &weights).unwrap();
        assert_ne!(
            proximal_iteration(&estimate, &weights, l2_shrink, 0.25, 1),
            closed
        );
        let theta = proximal_iteration(&estimate, &weights, l2_shrink, 0.25, 10_000);
        for (a, b) in theta.iter().zip(&closed) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn l1_solution_minimizes_the_objective() {
        // The closed form must beat small perturbations of itself on
        // 0.5 (x - theta_hat)^2 + lambda |x|.
        let objective = |x: f64, theta_hat: f64, lambda: f64| {
            0.5 * (x - theta_hat) * (x - theta_hat) + lambda * x.abs()
        };
        for &(theta_hat, lambda) in &[(2.0, 0.7), (-1.5, 0.3), (0.2, 0.5), (0.0, 1.0)] {
            let star = soft_threshold(theta_hat, lambda);
            let best = objective(star, theta_hat, lambda);
            for delta in [-0.1, -0.01, 0.01, 0.1] {
                assert!(
                    best <= objective(star + delta, theta_hat, lambda) + 1e-12,
                    "theta_hat = {theta_hat}, lambda = {lambda}, delta = {delta}"
                );
            }
        }
    }

    #[test]
    fn l2_solution_minimizes_the_objective() {
        // The paper's Equation 42 solver θ* = θ̂/(2λ+1) is the minimiser of
        // 0.5 (x − θ̂)² + λ x² (the L2 penalty with weight λ); verify it beats
        // small perturbations of itself.
        let objective = |x: f64, theta_hat: f64, lambda: f64| {
            0.5 * (x - theta_hat) * (x - theta_hat) + lambda * x * x
        };
        for &(theta_hat, lambda) in &[(2.0, 0.7), (-1.5, 0.3), (0.2, 0.5)] {
            let star = l2_shrink(theta_hat, lambda);
            let best = objective(star, theta_hat, lambda);
            for delta in [-0.1, -0.01, 0.01, 0.1] {
                assert!(
                    best <= objective(star + delta, theta_hat, lambda) + 1e-12,
                    "theta_hat = {theta_hat}, lambda = {lambda}"
                );
            }
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn soft_threshold_shrinks_towards_zero(t in -10.0f64..10.0, l in 0.0f64..5.0) {
                let s = soft_threshold(t, l);
                prop_assert!(s.abs() <= t.abs() + 1e-12);
                // Sign is preserved (or the value becomes zero).
                prop_assert!(s == 0.0 || s.signum() == t.signum());
                // Shrinkage is exactly min(|t|, l).
                prop_assert!((t.abs() - s.abs() - l.min(t.abs())).abs() < 1e-12);
            }

            #[test]
            fn l2_shrink_preserves_sign_and_shrinks(t in -10.0f64..10.0, l in 0.0f64..100.0) {
                let s = l2_shrink(t, l);
                prop_assert!(s.abs() <= t.abs() + 1e-12);
                prop_assert!(s == 0.0 || s.signum() == t.signum());
            }

            #[test]
            fn vector_solvers_match_scalar(
                pair in (1usize..32).prop_flat_map(|len| (
                    proptest::collection::vec(-5.0f64..5.0, len),
                    proptest::collection::vec(0.0f64..3.0, len),
                )),
            ) {
                let (est, w) = pair;
                let l1 = solve_l1(&est, &w).unwrap();
                let l2 = solve_l2(&est, &w).unwrap();
                for i in 0..est.len() {
                    prop_assert_eq!(l1[i], soft_threshold(est[i], w[i]));
                    prop_assert_eq!(l2[i], l2_shrink(est[i], w[i]));
                }
            }

            #[test]
            fn proximal_iteration_converges_to_the_closed_forms(
                pair in (1usize..16).prop_flat_map(|len| (
                    proptest::collection::vec(-5.0f64..5.0, len),
                    proptest::collection::vec(0.0f64..3.0, len),
                )),
                eta in 0.05f64..1.0,
            ) {
                // Each step contracts by at least 1 − η, so 2,000 steps leave
                // no visible gap even at η = 0.05.
                let (est, w) = pair;
                let pairs = [
                    (soft_threshold as fn(f64, f64) -> f64, solve_l1(&est, &w).unwrap()),
                    (l2_shrink, solve_l2(&est, &w).unwrap()),
                ];
                for (prox, closed) in pairs {
                    let theta = proximal_iteration(&est, &w, prox, eta, 2_000);
                    for (a, b) in theta.iter().zip(&closed) {
                        prop_assert!((a - b).abs() < 1e-9, "eta {}: {} vs {}", eta, a, b);
                    }
                }
            }
        }
    }
}
