//! The multivariate deviation model of Theorem 1 and the probabilities that
//! drive both the mechanism benchmark and the HDR4ME guarantees.
//!
//! Because every dimension is perturbed independently, the density of the
//! `d`-dimensional deviation `θ̂ − θ̄` is the product of the per-dimension
//! Gaussian densities (Theorem 1). The quantity of interest is its integral
//! over a box `S = {|θ̂_j − θ̄_j| ≤ ξ_j ∀ j}`:
//!
//! * benchmarking (Section IV-C): the mechanism with the highest box
//!   probability at the collector's tolerated supremum wins;
//! * HDR4ME guarantees (Theorems 3 and 4): the re-calibrated mean improves on
//!   the naive one with probability at least `1 − ∫_box f`, with box half-width
//!   1 (L1) or 2 (L2).

use crate::{DeviationApproximation, FrameworkError};
use hdldp_data::{ColumnProfiles, Dataset, DiscreteValueDistribution};
use hdldp_math::erf::erf;
use hdldp_math::ErfCache;
use hdldp_mechanisms::{Bound, Mechanism};
use rayon::prelude::*;

/// How finely to discretize continuous columns when building per-dimension
/// value distributions from a dataset (Lemma 3's "discretize with sampling").
const DEFAULT_VALUE_BUCKETS: usize = 64;

/// Minimum dimension count before the batched box-probability passes route
/// `erf` through a memo table: below this the table's initialisation costs
/// more than the handful of direct evaluations it would save.
const ERF_CACHE_MIN_DIMS: usize = 32;

/// Minimum dimension count before [`DeviationModel::for_dataset`] fans the
/// per-dimension moment computations out across the rayon shim's threads (and
/// only when more than one thread is actually available).
const PARALLEL_MIN_DIMS: usize = 256;

/// The multivariate Gaussian deviation model for a `d`-dimensional mechanism.
///
/// Alongside the per-dimension [`DeviationApproximation`]s the model keeps the
/// deviation means and standard deviations in flat structure-of-arrays
/// buffers, so the box-probability and density hot paths sweep two contiguous
/// `&[f64]` slices instead of chasing per-dimension method calls.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviationModel {
    dimensions: Vec<DeviationApproximation>,
    /// `δ_j` per dimension (same values as `dimensions[j].delta()`).
    deltas: Vec<f64>,
    /// `σ_j` per dimension (same values as `dimensions[j].std_dev()`).
    sigmas: Vec<f64>,
}

impl DeviationModel {
    /// Build a model from per-dimension approximations.
    ///
    /// # Errors
    /// Returns [`FrameworkError::InvalidParameter`] when no dimensions are given.
    pub fn new(dimensions: Vec<DeviationApproximation>) -> crate::Result<Self> {
        if dimensions.is_empty() {
            return Err(FrameworkError::InvalidParameter {
                name: "dimensions",
                reason: "the model needs at least one dimension".into(),
            });
        }
        let deltas = dimensions.iter().map(|d| d.delta()).collect();
        let sigmas = dimensions.iter().map(|d| d.std_dev()).collect();
        Ok(Self {
            dimensions,
            deltas,
            sigmas,
        })
    }

    /// Build the model for a mechanism applied to every column of a dataset,
    /// with `reports` expected reports per dimension (`nm/d` in the paper).
    ///
    /// For bounded mechanisms each column's empirical value distribution is
    /// extracted (bucketed into at most 64 representative values); for
    /// unbounded mechanisms the value distribution is irrelevant and a trivial
    /// one is used.
    ///
    /// The column distributions come from the dataset's memoised blocked
    /// column profiles ([`Dataset::column_profiles`]): the first model built
    /// over a dataset pays one cache-friendly sweep, and every further
    /// mechanism × ε configuration over the same dataset reuses it. For
    /// unbounded mechanisms the (value-independent) approximation is computed
    /// once and replicated. Dimension counts of `PARALLEL_MIN_DIMS` and up
    /// are fanned out across threads when the machine has them. All of these
    /// paths produce results identical to
    /// [`DeviationModel::for_dataset_reference`].
    ///
    /// # Errors
    /// Propagates dataset-column and approximation errors.
    pub fn for_dataset(
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        reports: f64,
    ) -> crate::Result<Self> {
        match mechanism.bound() {
            Bound::Unbounded => {
                // Lemma 2: the approximation is value-independent, so compute
                // it once and replicate instead of re-deriving it per column.
                let trivial = DiscreteValueDistribution::new(vec![0.0], vec![1.0])?;
                let one = DeviationApproximation::for_dimension(mechanism, &trivial, reports)?;
                Self::new(vec![one; dataset.dims()])
            }
            Bound::Bounded(_) => {
                let profiles = dataset.column_profiles(DEFAULT_VALUE_BUCKETS)?;
                Self::new(Self::approximations_from_profiles(
                    mechanism, &profiles, reports,
                )?)
            }
        }
    }

    /// Per-dimension approximations from precomputed column profiles,
    /// optionally fanned out across threads.
    fn approximations_from_profiles(
        mechanism: &dyn Mechanism,
        profiles: &ColumnProfiles,
        reports: f64,
    ) -> crate::Result<Vec<DeviationApproximation>> {
        let dims = profiles.dims();
        let one_dim = |j: usize| -> crate::Result<DeviationApproximation> {
            let values = profiles.distribution(j)?;
            DeviationApproximation::for_dimension(mechanism, &values, reports)
        };
        if dims >= PARALLEL_MIN_DIMS && rayon::current_num_threads() > 1 {
            let chunk = dims.div_ceil(rayon::current_num_threads());
            let starts: Vec<usize> = (0..dims).step_by(chunk).collect();
            let chunks: Vec<crate::Result<Vec<DeviationApproximation>>> = starts
                .into_par_iter()
                .map(|start| (start..(start + chunk).min(dims)).map(one_dim).collect())
                .collect();
            let mut out = Vec::with_capacity(dims);
            for chunk in chunks {
                out.extend(chunk?);
            }
            Ok(out)
        } else {
            (0..dims).map(one_dim).collect()
        }
    }

    /// The pre-optimisation implementation of [`DeviationModel::for_dataset`]:
    /// a strided column gather and a fresh bucketing pass per dimension, with
    /// the Lemma 3 moments taken as two separate expectation closures.
    ///
    /// Kept as an independently-coded oracle: the equivalence tests assert the
    /// fast path agrees with this to within 1e-12 (in practice bit-for-bit),
    /// and the benchmark suite records the ratio between the two.
    ///
    /// # Errors
    /// Propagates dataset-column and approximation errors.
    pub fn for_dataset_reference(
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        reports: f64,
    ) -> crate::Result<Self> {
        let mut dims = Vec::with_capacity(dataset.dims());
        let trivial = DiscreteValueDistribution::new(vec![0.0], vec![1.0])?;
        for j in 0..dataset.dims() {
            let values = match mechanism.bound() {
                Bound::Unbounded => trivial.clone(),
                Bound::Bounded(_) => {
                    let column = dataset.column(j)?;
                    DiscreteValueDistribution::from_column_bucketed(&column, DEFAULT_VALUE_BUCKETS)?
                }
            };
            if !(reports.is_finite() && reports > 0.0) {
                return Err(FrameworkError::InvalidParameter {
                    name: "reports",
                    reason: format!("must be positive and finite, got {reports}"),
                });
            }
            let delta = values.expectation(|v| mechanism.bias(v));
            let per_sample_variance = values.expectation(|v| mechanism.variance(v));
            dims.push(DeviationApproximation::from_moments(
                delta,
                per_sample_variance,
                reports,
            )?);
        }
        Self::new(dims)
    }

    /// Build a model where every dimension shares the same value distribution
    /// (the setting of the Section IV-C case study).
    ///
    /// # Errors
    /// Propagates approximation errors.
    pub fn homogeneous(
        mechanism: &dyn Mechanism,
        values: &DiscreteValueDistribution,
        reports: f64,
        dims: usize,
    ) -> crate::Result<Self> {
        if dims == 0 {
            return Err(FrameworkError::InvalidParameter {
                name: "dims",
                reason: "need at least one dimension".into(),
            });
        }
        let one = DeviationApproximation::for_dimension(mechanism, values, reports)?;
        Self::new(vec![one; dims])
    }

    /// Number of dimensions `d`.
    pub fn dims(&self) -> usize {
        self.dimensions.len()
    }

    /// The per-dimension approximations.
    pub fn dimensions(&self) -> &[DeviationApproximation] {
        &self.dimensions
    }

    /// The deviation means `δ_j`.
    pub fn deltas(&self) -> Vec<f64> {
        self.deltas.clone()
    }

    /// The deviation standard deviations `σ_j`.
    pub fn std_devs(&self) -> Vec<f64> {
        self.sigmas.clone()
    }

    /// Density of the deviation vector (Theorem 1, Equation 12).
    ///
    /// # Errors
    /// Returns [`FrameworkError::LengthMismatch`] when `deviation` has the
    /// wrong length.
    pub fn pdf(&self, deviation: &[f64]) -> crate::Result<f64> {
        Ok(self.log_pdf(deviation)?.exp())
    }

    /// Log-density of the deviation vector — preferred in high dimensions,
    /// where the plain density underflows.
    ///
    /// # Errors
    /// Returns [`FrameworkError::LengthMismatch`] when `deviation` has the
    /// wrong length.
    pub fn log_pdf(&self, deviation: &[f64]) -> crate::Result<f64> {
        if deviation.len() != self.dims() {
            return Err(FrameworkError::LengthMismatch {
                expected: self.dims(),
                actual: deviation.len(),
            });
        }
        // Batched sweep over the flat (delta, sigma) buffers: the per-call
        // sqrt behind `std_dev()` is gone, the 2π constant is hoisted, and
        // `ln(σ)` is reused across runs of equal sigmas (homogeneous models
        // pay for one logarithm instead of d).
        let half_ln_two_pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let mut log_density = 0.0;
        let mut prev: Option<(f64, f64)> = None;
        for ((&delta, &sigma), &x) in self.deltas.iter().zip(&self.sigmas).zip(deviation) {
            let ln_sigma = match prev {
                Some((s, ln_s)) if s == sigma => ln_s,
                _ => {
                    let ln_s = sigma.ln();
                    prev = Some((sigma, ln_s));
                    ln_s
                }
            };
            let z = (x - delta) / sigma;
            log_density += -0.5 * z * z - ln_sigma - half_ln_two_pi;
        }
        Ok(log_density)
    }

    /// Probability that *every* dimension's deviation stays within its
    /// supremum: `∫_S f(θ̂ − θ̄)` with `S = {|θ̂_j − θ̄_j| ≤ ξ_j}`.
    ///
    /// # Errors
    /// Returns [`FrameworkError::LengthMismatch`] when `suprema` has the wrong
    /// length.
    #[expect(
        clippy::indexing_slicing,
        reason = "suprema.len() == dims is checked first, and the batch asks only for j < dims"
    )]
    pub fn box_probability(&self, suprema: &[f64]) -> crate::Result<f64> {
        if suprema.len() != self.dims() {
            return Err(FrameworkError::LengthMismatch {
                expected: self.dims(),
                actual: suprema.len(),
            });
        }
        Ok(self.box_probability_batch(|j| suprema[j]))
    }

    /// [`DeviationModel::box_probability`] with the same supremum in every
    /// dimension.
    pub fn box_probability_uniform(&self, supremum: f64) -> f64 {
        self.box_probability_batch(|_| supremum)
    }

    /// Batched product of per-dimension `prob_within` factors.
    ///
    /// One sweep over the flat (delta, sigma) buffers with every invariant
    /// hoisted; runs of identical `(δ, σ, ξ)` triples (replicated and
    /// homogeneous models) reuse the previous factor outright, and on larger
    /// models the two `erf` evaluations per distinct triple go through a
    /// bit-keyed [`ErfCache`]. Every factor is exactly
    /// [`DeviationApproximation::prob_within`] — same expressions, same
    /// rounding — so the product matches the scalar path bit for bit.
    #[expect(
        clippy::indexing_slicing,
        reason = "deltas and sigmas both hold one entry per dimension, and j < deltas.len()"
    )]
    fn box_probability_batch(&self, supremum: impl Fn(usize) -> f64) -> f64 {
        let dims = self.deltas.len();
        let mut cache = if dims >= ERF_CACHE_MIN_DIMS {
            Some(ErfCache::new())
        } else {
            None
        };
        let mut product = 1.0;
        let mut prev: Option<(f64, f64, f64, f64)> = None;
        for j in 0..dims {
            let delta = self.deltas[j];
            let sigma = self.sigmas[j];
            let xi = supremum(j);
            let factor = match prev {
                Some((pd, ps, px, pf)) if pd == delta && ps == sigma && px == xi => pf,
                _ => {
                    let f = prob_within_factor(delta, sigma, xi, cache.as_mut());
                    prev = Some((delta, sigma, xi, f));
                    f
                }
            };
            product *= factor;
        }
        product
    }

    /// The probability lower bound of Theorem 3: HDR4ME with L1-regularization
    /// improves on the naive aggregation with probability at least
    /// `1 − ∫_{[-1,1]^d} f(θ̂ − θ̄)`.
    pub fn l1_improvement_probability(&self) -> f64 {
        1.0 - self.box_probability_uniform(1.0)
    }

    /// The probability lower bound of Theorem 4: HDR4ME with L2-regularization
    /// improves on the naive aggregation with probability at least
    /// `1 − ∫_{[-2,2]^d} f(θ̂ − θ̄)`.
    pub fn l2_improvement_probability(&self) -> f64 {
        1.0 - self.box_probability_uniform(2.0)
    }

    /// Per-dimension practical suprema `|δ_j| + z·σ_j`, the quantities HDR4ME
    /// uses as regularization weights (Lemmas 4 and 5).
    pub fn suprema(&self, z: f64) -> Vec<f64> {
        self.dimensions.iter().map(|d| d.supremum(z)).collect()
    }
}

/// `P[|N(δ, σ²)| ≤ ξ]`, written against raw (delta, sigma) so the batched
/// passes avoid rebuilding a `Normal` per factor.
///
/// Expression-for-expression the same computation as
/// [`DeviationApproximation::prob_within`] → `Normal::prob_in_interval(-ξ, ξ)`
/// → two `Normal::cdf` calls, so it rounds identically; the optional memo
/// table only short-circuits repeated `erf` arguments with their exact
/// previously computed results.
fn prob_within_factor(delta: f64, sigma: f64, xi: f64, cache: Option<&mut ErfCache>) -> f64 {
    if xi <= 0.0 {
        return 0.0;
    }
    let denom = sigma * std::f64::consts::SQRT_2;
    let z_hi = (xi - delta) / denom;
    let z_lo = (-xi - delta) / denom;
    let (erf_hi, erf_lo) = match cache {
        Some(table) => (table.erf(z_hi), table.erf(z_lo)),
        None => (erf(z_hi), erf(z_lo)),
    };
    (0.5 * (1.0 + erf_hi) - 0.5 * (1.0 + erf_lo)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_data::UniformDataset;
    use hdldp_mechanisms::{build_mechanism, LaplaceMechanism, MechanismKind, PiecewiseMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn laplace_model(dims: usize, eps: f64, reports: f64) -> DeviationModel {
        let mech = LaplaceMechanism::new(eps).unwrap();
        let values = DiscreteValueDistribution::case_study();
        DeviationModel::homogeneous(&mech, &values, reports, dims).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(DeviationModel::new(vec![]).is_err());
        let mech = LaplaceMechanism::new(1.0).unwrap();
        let values = DiscreteValueDistribution::case_study();
        assert!(DeviationModel::homogeneous(&mech, &values, 100.0, 0).is_err());
        assert!(DeviationModel::homogeneous(&mech, &values, 100.0, 3).is_ok());
    }

    #[test]
    fn pdf_matches_product_of_univariate_densities() {
        let model = laplace_model(3, 1.0, 1000.0);
        let dev = [0.01, -0.02, 0.0];
        let product: f64 = model
            .dimensions()
            .iter()
            .zip(&dev)
            .map(|(d, &x)| d.pdf(x))
            .product();
        let joint = model.pdf(&dev).unwrap();
        assert!((joint - product).abs() / product < 1e-9);
        assert!(model.pdf(&[0.0; 2]).is_err());
    }

    #[test]
    fn log_pdf_survives_high_dimensionality() {
        // In 5,000 dimensions the plain density underflows; the log-density must stay finite.
        let model = laplace_model(5_000, 1.0, 1000.0);
        let dev = vec![0.0; 5_000];
        let log_p = model.log_pdf(&dev).unwrap();
        assert!(log_p.is_finite());
        // Each dimension contributes -ln(sigma) - 0.5 ln(2 pi); sigma ~ sqrt(8/1000).
        let sigma: f64 = (8.0f64 / 1000.0).sqrt();
        let expected = 5_000.0 * (-sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln());
        assert!((log_p - expected).abs() / expected.abs() < 1e-9);
    }

    #[test]
    fn box_probability_is_product_of_marginals() {
        let model = laplace_model(4, 1.0, 500.0);
        let xi = [0.1, 0.2, 0.05, 0.5];
        let direct: f64 = model
            .dimensions()
            .iter()
            .zip(&xi)
            .map(|(d, &x)| d.prob_within(x))
            .product();
        assert!((model.box_probability(&xi).unwrap() - direct).abs() < 1e-12);
        assert!(model.box_probability(&[0.1]).is_err());
    }

    #[test]
    fn box_probability_decays_with_dimensionality() {
        // The curse of dimensionality in one line: the probability that *all*
        // deviations stay small shrinks as d grows.
        let p10 = laplace_model(10, 0.5, 1000.0).box_probability_uniform(0.2);
        let p100 = laplace_model(100, 0.5, 1000.0).box_probability_uniform(0.2);
        let p1000 = laplace_model(1000, 0.5, 1000.0).box_probability_uniform(0.2);
        assert!(p10 > p100);
        assert!(p100 > p1000);
    }

    #[test]
    fn improvement_probabilities_increase_with_dimensionality_and_noise() {
        // With small per-dimension budget and many dimensions, the Theorem 3/4
        // probabilities approach 1 — HDR4ME is almost surely an improvement.
        let noisy = laplace_model(200, 0.01, 100.0);
        assert!(noisy.l1_improvement_probability() > 0.99);
        assert!(noisy.l2_improvement_probability() > 0.9);
        // With a generous budget and few dimensions they drop towards 0 — the
        // regime where the paper warns the re-calibration can be harmful.
        let clean = laplace_model(2, 10.0, 10_000.0);
        assert!(clean.l1_improvement_probability() < 0.01);
        assert!(clean.l2_improvement_probability() < 0.01);
        // L1's threshold (1) is easier to exceed than L2's (2).
        let mid = laplace_model(50, 0.2, 500.0);
        assert!(mid.l1_improvement_probability() >= mid.l2_improvement_probability());
    }

    #[test]
    fn for_dataset_uses_column_distributions_for_bounded_mechanisms() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = UniformDataset::new(2000, 5).unwrap().generate(&mut rng);
        let mech = PiecewiseMechanism::new(0.5).unwrap();
        let model = DeviationModel::for_dataset(&mech, &data, 400.0).unwrap();
        assert_eq!(model.dims(), 5);
        // Piecewise is unbiased: all deltas are zero.
        assert!(model.deltas().iter().all(|&d| d == 0.0));
        // Variances are positive and of the expected order (per-sample var / r).
        for sd in model.std_devs() {
            assert!(sd > 0.0 && sd.is_finite());
        }
    }

    #[test]
    fn for_dataset_works_with_every_built_in_mechanism() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = UniformDataset::new(500, 3).unwrap().generate(&mut rng);
        for kind in MechanismKind::ALL {
            let mech = build_mechanism(kind, 0.5).unwrap();
            let model = DeviationModel::for_dataset(mech.as_ref(), &data, 100.0).unwrap();
            assert_eq!(model.dims(), 3, "{kind:?}");
            assert!(model.box_probability_uniform(10.0) > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn fast_for_dataset_matches_reference_for_all_mechanisms() {
        let mut rng = StdRng::seed_from_u64(41);
        let data = UniformDataset::new(400, 17).unwrap().generate(&mut rng);
        for kind in MechanismKind::ALL {
            let mech = build_mechanism(kind, 0.3).unwrap();
            let fast = DeviationModel::for_dataset(mech.as_ref(), &data, 250.0).unwrap();
            let reference =
                DeviationModel::for_dataset_reference(mech.as_ref(), &data, 250.0).unwrap();
            assert_eq!(fast, reference, "{kind:?}");
        }
    }

    #[test]
    fn reference_for_dataset_validates_reports() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = UniformDataset::new(50, 2).unwrap().generate(&mut rng);
        let mech = PiecewiseMechanism::new(0.5).unwrap();
        assert!(DeviationModel::for_dataset_reference(&mech, &data, 0.0).is_err());
        assert!(DeviationModel::for_dataset(&mech, &data, 0.0).is_err());
    }

    #[test]
    fn batched_box_probability_matches_scalar_product_with_cache_engaged() {
        // 100 distinct dimensions: above ERF_CACHE_MIN_DIMS, so the memo table
        // and run-length reuse are both exercised; the result must still be
        // exactly the scalar per-dimension product.
        let dims: Vec<DeviationApproximation> = (0..100)
            .map(|j| {
                let delta = if j % 3 == 0 { 0.0 } else { 0.01 * j as f64 };
                DeviationApproximation::from_moments(delta, 1.0 + j as f64 * 0.05, 500.0).unwrap()
            })
            .collect();
        let model = DeviationModel::new(dims).unwrap();
        let suprema: Vec<f64> = (0..100).map(|j| 0.05 + 0.01 * (j % 7) as f64).collect();
        let scalar: f64 = model
            .dimensions()
            .iter()
            .zip(&suprema)
            .map(|(d, &xi)| d.prob_within(xi))
            .product();
        let batched = model.box_probability(&suprema).unwrap();
        assert_eq!(batched.to_bits(), scalar.to_bits());
        let scalar_uniform: f64 = model
            .dimensions()
            .iter()
            .map(|d| d.prob_within(0.12))
            .product();
        assert_eq!(
            model.box_probability_uniform(0.12).to_bits(),
            scalar_uniform.to_bits()
        );
    }

    #[test]
    fn batched_log_pdf_matches_per_dimension_sum() {
        let model = laplace_model(64, 0.7, 800.0);
        let dev: Vec<f64> = (0..64).map(|j| 0.001 * (j as f64 - 32.0)).collect();
        let expected: f64 = model
            .dimensions()
            .iter()
            .zip(&dev)
            .map(|(d, &x)| {
                let sigma = d.std_dev();
                let z = (x - d.delta()) / sigma;
                -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
            })
            .sum();
        let got = model.log_pdf(&dev).unwrap();
        assert!((got - expected).abs() <= 1e-12 * expected.abs().max(1.0));
    }

    #[test]
    fn suprema_scale_with_z() {
        let model = laplace_model(3, 1.0, 100.0);
        let s2 = model.suprema(2.0);
        let s3 = model.suprema(3.0);
        for (a, b) in s2.iter().zip(&s3) {
            assert!(b > a);
        }
        assert_eq!(s2.len(), 3);
    }
}
