//! Synthetic dataset generators matching Section VI of the paper.
//!
//! | Generator | Paper dataset | Parameters from the paper |
//! |---|---|---|
//! | [`GaussianDataset`] | "Gaussian" | tunable `n`, `d`; σ = 1/16; 10% of dimensions have mean 0.9, the rest mean 0 |
//! | [`PoissonDataset`] | "Poisson" | 150,000 × 300; per-dimension rate drawn uniformly from `[1, 99]` |
//! | [`UniformDataset`] | "Uniform" | tunable `n`, `d`; i.i.d. uniform |
//! | [`CorrelatedDataset`] | "COV-19" (synthetic stand-in) | 150,000 × 750; low-rank latent-factor model so that "each dimension has high correlations with others" |
//!
//! Every generator produces a [`Dataset`] whose values already lie in
//! `[-1, 1]`; the Poisson and correlated generators normalize internally.

use crate::normalize::normalize_symmetric;
use crate::{DataError, Dataset};
use hdldp_math::Normal;
use rand::Rng;
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};

/// Identifier for the datasets of the paper's evaluation, used by the
/// experiment harness to select workloads from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// The tunable Gaussian dataset.
    Gaussian,
    /// The Poisson dataset.
    Poisson,
    /// The tunable Uniform dataset.
    Uniform,
    /// The synthetic correlated stand-in for COV-19.
    Covid,
}

impl DatasetKind {
    /// All dataset kinds in a stable order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Gaussian,
        DatasetKind::Poisson,
        DatasetKind::Uniform,
        DatasetKind::Covid,
    ];

    /// Short lowercase name (stable; used for CLI flags and result files).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Gaussian => "gaussian",
            DatasetKind::Poisson => "poisson",
            DatasetKind::Uniform => "uniform",
            DatasetKind::Covid => "covid",
        }
    }

    /// Parse a dataset name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "gaussian" | "gauss" => Some(DatasetKind::Gaussian),
            "poisson" => Some(DatasetKind::Poisson),
            "uniform" => Some(DatasetKind::Uniform),
            "covid" | "cov19" | "cov-19" | "correlated" => Some(DatasetKind::Covid),
            _ => None,
        }
    }
}

fn check_shape(users: usize, dims: usize) -> crate::Result<()> {
    if users == 0 || dims == 0 {
        return Err(DataError::InvalidShape {
            reason: format!("require users > 0 and dims > 0, got {users} x {dims}"),
        });
    }
    Ok(())
}

/// The paper's Gaussian dataset: σ = 1/16, 10% of dimensions with mean 0.9 and
/// the rest with mean 0.
#[derive(Debug, Clone)]
pub struct GaussianDataset {
    users: usize,
    dims: usize,
    std_dev: f64,
    high_mean: f64,
    high_fraction: f64,
}

impl GaussianDataset {
    /// Create a generator with the paper's default parameters.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for a zero-sized shape.
    pub fn new(users: usize, dims: usize) -> crate::Result<Self> {
        check_shape(users, dims)?;
        Ok(Self {
            users,
            dims,
            std_dev: 1.0 / 16.0,
            high_mean: 0.9,
            high_fraction: 0.1,
        })
    }

    /// The per-dimension means this generator uses (first 10% of the
    /// dimensions get the high mean).
    pub fn dimension_means(&self) -> Vec<f64> {
        let high = (self.dims as f64 * self.high_fraction).round() as usize;
        (0..self.dims)
            .map(|j| if j < high { self.high_mean } else { 0.0 })
            .collect()
    }

    /// Generate the dataset; values are clamped into `[-1, 1]`.
    #[expect(
        clippy::expect_used,
        reason = "new sets std_dev to 1/16, and the loops push users * dims values"
    )]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let means = self.dimension_means();
        let noise = Normal::new(0.0, self.std_dev).expect("positive std dev");
        let mut values = Vec::with_capacity(self.users * self.dims);
        for _ in 0..self.users {
            for &mu in &means {
                values.push((mu + noise.sample(rng)).clamp(-1.0, 1.0));
            }
        }
        Dataset::from_rows(self.users, self.dims, values).expect("shape is valid")
    }
}

/// The paper's Poisson dataset: each dimension follows a Poisson distribution
/// with a random rate in `[1, 99]`, normalized into `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct PoissonDataset {
    users: usize,
    dims: usize,
    rate_range: (f64, f64),
}

impl PoissonDataset {
    /// Create a generator with the paper's default rate range `[1, 99]`.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for a zero-sized shape.
    pub fn new(users: usize, dims: usize) -> crate::Result<Self> {
        check_shape(users, dims)?;
        Ok(Self {
            users,
            dims,
            rate_range: (1.0, 99.0),
        })
    }

    /// Generate the dataset (normalized column-wise into `[-1, 1]`).
    #[expect(
        clippy::expect_used,
        reason = "rates lie in [1, 99], which Poisson::new accepts; the loops push users * dims values; [-1, 1] is a valid target"
    )]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let rates: Vec<f64> = (0..self.dims)
            .map(|_| rng.gen_range(self.rate_range.0..=self.rate_range.1))
            .collect();
        let samplers: Vec<Poisson<f64>> = rates
            .iter()
            .map(|&r| Poisson::new(r).expect("rates are positive"))
            .collect();
        let mut values = Vec::with_capacity(self.users * self.dims);
        for _ in 0..self.users {
            for sampler in &samplers {
                values.push(sampler.sample(rng));
            }
        }
        let raw = Dataset::from_rows(self.users, self.dims, values).expect("shape is valid");
        let (normalized, _) = normalize_symmetric(&raw).expect("valid target interval");
        normalized
    }
}

/// The paper's Uniform dataset: i.i.d. uniform values in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct UniformDataset {
    users: usize,
    dims: usize,
}

impl UniformDataset {
    /// Create a generator.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for a zero-sized shape.
    pub fn new(users: usize, dims: usize) -> crate::Result<Self> {
        check_shape(users, dims)?;
        Ok(Self { users, dims })
    }

    /// Generate the dataset.
    #[expect(
        clippy::expect_used,
        reason = "the iterator yields users * dims values"
    )]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let values: Vec<f64> = (0..self.users * self.dims)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();
        Dataset::from_rows(self.users, self.dims, values).expect("shape is valid")
    }
}

/// Synthetic correlated dataset standing in for the paper's COV-19 table.
///
/// `x_i = W z_i + σ_noise · ε_i`, where `z_i ∈ R^k` are latent factors,
/// `W ∈ R^{d × k}` is a random loading matrix, and the result is rescaled
/// column-wise into `[-1, 1]`. With `k ≪ d` every pair of dimensions shares
/// latent factors, reproducing the "each dimension has high correlations with
/// others" property the paper states for COV-19.
#[derive(Debug, Clone)]
pub struct CorrelatedDataset {
    users: usize,
    dims: usize,
    noise_std: f64,
}

impl CorrelatedDataset {
    /// Number of latent factors `k`.
    const LATENT_DIMS: usize = 8;

    /// Create a generator with `LATENT_DIMS = 8` latent factors and noise
    /// σ = 0.05.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidShape`] for a zero-sized shape.
    pub fn new(users: usize, dims: usize) -> crate::Result<Self> {
        check_shape(users, dims)?;
        Ok(Self {
            users,
            dims,
            noise_std: 0.05,
        })
    }

    /// Generate the dataset (rescaled column-wise into `[-1, 1]`).
    #[expect(
        clippy::expect_used,
        reason = "noise_std is the literal 0.05, which Normal::new accepts; the loops push users * dims values; [-1, 1] is a valid target"
    )]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let std_normal = Normal::STANDARD;
        // Loading matrix W: d x k, entries ~ N(0, 1), plus a per-column offset so
        // column means differ (like real survey/count data).
        let loadings: Vec<f64> = (0..self.dims * Self::LATENT_DIMS)
            .map(|_| std_normal.sample(rng))
            .collect();
        let offsets: Vec<f64> = (0..self.dims).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let noise = Normal::new(0.0, self.noise_std).expect("positive noise std");

        let mut values = Vec::with_capacity(self.users * self.dims);
        for _ in 0..self.users {
            let z: Vec<f64> = (0..Self::LATENT_DIMS)
                .map(|_| std_normal.sample(rng))
                .collect();
            for (row, &off) in loadings.chunks(Self::LATENT_DIMS).zip(&offsets) {
                let mut x = off;
                for (w, zi) in row.iter().zip(&z) {
                    x += w * zi;
                }
                values.push(x + noise.sample(rng));
            }
        }
        let raw = Dataset::from_rows(self.users, self.dims, values).expect("shape is valid");
        let (normalized, _) = normalize_symmetric(&raw).expect("valid target interval");
        normalized
    }
}

/// Generate a dataset of the given kind and shape with the paper's default
/// parameters for that kind.
///
/// # Errors
/// Returns [`DataError::InvalidShape`] for a zero-sized shape.
pub fn generate<R: Rng + ?Sized>(
    kind: DatasetKind,
    users: usize,
    dims: usize,
    rng: &mut R,
) -> crate::Result<Dataset> {
    Ok(match kind {
        DatasetKind::Gaussian => GaussianDataset::new(users, dims)?.generate(rng),
        DatasetKind::Poisson => PoissonDataset::new(users, dims)?.generate(rng),
        DatasetKind::Uniform => UniformDataset::new(users, dims)?.generate(rng),
        DatasetKind::Covid => CorrelatedDataset::new(users, dims)?.generate(rng),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DatasetKind::parse("COV-19"), Some(DatasetKind::Covid));
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn generators_validate_shape() {
        assert!(GaussianDataset::new(0, 10).is_err());
        assert!(PoissonDataset::new(10, 0).is_err());
        assert!(UniformDataset::new(0, 0).is_err());
        assert!(CorrelatedDataset::new(0, 5).is_err());
    }

    #[test]
    fn gaussian_dataset_matches_paper_structure() {
        let gen = GaussianDataset::new(4000, 50).unwrap();
        let means = gen.dimension_means();
        assert_eq!(means.iter().filter(|&&m| m == 0.9).count(), 5);
        let data = gen.generate(&mut rng());
        assert_eq!(data.users(), 4000);
        assert_eq!(data.dims(), 50);
        assert!(data.all_within(-1.0, 1.0));
        let true_means = data.true_means();
        // High-mean dimensions cluster near 0.9, the rest near 0.
        for (j, &mean) in true_means.iter().enumerate() {
            let target = if j < 5 { 0.9 } else { 0.0 };
            assert!((mean - target).abs() < 0.02, "dim {j}: {mean}");
        }
    }

    #[test]
    fn poisson_dataset_is_normalized() {
        let data = PoissonDataset::new(2000, 10).unwrap().generate(&mut rng());
        assert!(data.all_within(-1.0, 1.0));
        // Each column should actually reach both ends after min-max scaling.
        for (lo, hi) in data.column_ranges() {
            assert_eq!(lo, -1.0);
            assert_eq!(hi, 1.0);
        }
    }

    #[test]
    fn uniform_dataset_covers_the_interval() {
        let data = UniformDataset::new(5000, 4).unwrap().generate(&mut rng());
        assert!(data.all_within(-1.0, 1.0));
        let means = data.true_means();
        for m in means {
            assert!(m.abs() < 0.05, "mean = {m}");
        }
    }

    #[test]
    fn correlated_dataset_has_high_cross_dimension_correlation() {
        let data = CorrelatedDataset::new(3000, 12)
            .unwrap()
            .generate(&mut rng());
        assert!(data.all_within(-1.0, 1.0));
        // Average |pairwise correlation| over a handful of column pairs should
        // be clearly higher than for independent data.
        let corr = |a: &[f64], b: &[f64]| {
            let n = a.len() as f64;
            let ma = a.iter().sum::<f64>() / n;
            let mb = b.iter().sum::<f64>() / n;
            let cov: f64 = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - ma) * (y - mb))
                .sum::<f64>()
                / n;
            let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / n;
            let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>() / n;
            cov / (va.sqrt() * vb.sqrt())
        };
        let mut total = 0.0;
        let mut count = 0;
        for j in 0..6 {
            for k in (j + 1)..6 {
                let a = data.column(j).unwrap();
                let b = data.column(k).unwrap();
                total += corr(&a, &b).abs();
                count += 1;
            }
        }
        let avg = total / count as f64;
        assert!(avg > 0.3, "average |correlation| = {avg}");
    }

    #[test]
    fn generate_helper_produces_requested_shapes() {
        for kind in DatasetKind::ALL {
            let data = generate(kind, 200, 8, &mut rng()).unwrap();
            assert_eq!(data.users(), 200);
            assert_eq!(data.dims(), 8);
            assert!(data.all_within(-1.0, 1.0), "{kind:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let gen = GaussianDataset::new(100, 5).unwrap();
        let a = gen.generate(&mut StdRng::seed_from_u64(7));
        let b = gen.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = gen.generate(&mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
