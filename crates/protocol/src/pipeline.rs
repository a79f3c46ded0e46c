//! One-call end-to-end mean estimation over a [`Dataset`].
//!
//! The pipeline wires together the client (sampling + perturbation) and the
//! sharded ingest engine (naive mean aggregation), exactly reproducing the
//! collection procedure of Section III-B: `n` users, `d` dimensions, `m`
//! reported dimensions per user, per-dimension budget `ε/m`. Users are
//! hash-partitioned across one ingest shard per worker thread and each user's
//! randomness is derived from the run seed and her id alone, so runs are
//! deterministic given the configured seed while paper-scale collections stay
//! fast.

use crate::telemetry::{PipelineMetrics, PERTURB_SAMPLE_EVERY};
use crate::{BudgetSplit, Client, IngestConfig, IngestEngine, ProtocolError};
use hdldp_data::Dataset;
use hdldp_mechanisms::{build_mechanism, Mechanism, MechanismKind};
use hdldp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The seed of user `user_id`'s generator in a run seeded with `seed`: the
/// run seed plus the user's 1-based index times an odd constant (the 64-bit
/// golden ratio, as in SplitMix64), so a run is a pure function of its seed.
///
/// The constant is also SplitMix64's own increment, with which
/// `StdRng::seed_from_u64` expands a seed into four state words, so user
/// `u + 1` starts from user `u`'s last three words plus one new word. The
/// xoshiro256++ output scrambles that overlap: the tests check that the first
/// draws of users up to three apart are uncorrelated.
pub fn user_seed(seed: u64, user_id: u64) -> u64 {
    seed.wrapping_add(user_id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Configuration of one mean-estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Total per-user privacy budget `ε`.
    pub total_epsilon: f64,
    /// Number of dimensions `m` each user reports.
    pub reported_dims: usize,
    /// Seed for the (deterministic) randomness of the run.
    pub seed: u64,
}

impl PipelineConfig {
    /// Convenience constructor.
    pub fn new(total_epsilon: f64, reported_dims: usize, seed: u64) -> Self {
        Self {
            total_epsilon,
            reported_dims,
            seed,
        }
    }
}

/// The outcome of one mean-estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanEstimate {
    /// The naive estimated mean `θ̂` per dimension.
    pub estimated_means: Vec<f64>,
    /// The true mean `θ̄` per dimension (ground truth from the dataset).
    pub true_means: Vec<f64>,
    /// Number of reports received per dimension (`r_j`).
    pub report_counts: Vec<u64>,
    /// The per-dimension budget `ε/m` that was used.
    pub per_dimension_epsilon: f64,
}

impl MeanEstimate {
    /// Utility metrics of the naive estimate against the ground truth.
    ///
    /// # Errors
    /// Propagates [`crate::UtilityReport::compare`] errors (cannot happen for a
    /// well-formed estimate).
    pub fn utility(&self) -> crate::Result<crate::UtilityReport> {
        crate::UtilityReport::compare(&self.estimated_means, &self.true_means)
    }
}

/// End-to-end mean estimation pipeline for one mechanism.
///
/// Pipelines built with [`MeanEstimationPipeline::with_telemetry`] time each
/// phase of every run — perturbation (sampled every
/// [`PERTURB_SAMPLE_EVERY`]-th user), collection, estimation — and propagate
/// the registry to the ingest engine they run on. Without it telemetry is
/// disabled and every recording site is a single branch.
pub struct MeanEstimationPipeline {
    mechanism: Box<dyn Mechanism>,
    kind: MechanismKind,
    config: PipelineConfig,
    registry: Registry,
    metrics: PipelineMetrics,
}

impl MeanEstimationPipeline {
    /// Build a pipeline for the given mechanism kind; the mechanism is
    /// instantiated with the per-dimension budget `ε/m`. Telemetry is
    /// disabled; chain [`MeanEstimationPipeline::with_telemetry`] to enable.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] for an invalid budget split and
    /// propagates mechanism construction errors.
    pub fn new(kind: MechanismKind, config: PipelineConfig) -> crate::Result<Self> {
        let budget = BudgetSplit::new(config.total_epsilon, config.reported_dims)?;
        let mechanism = build_mechanism(kind, budget.per_dimension())?;
        let registry = Registry::disabled();
        let metrics = PipelineMetrics::register(&registry);
        Ok(Self {
            mechanism,
            kind,
            config,
            registry,
            metrics,
        })
    }

    /// Record phase timings and ingest metrics of every run into `registry`
    /// (see the metric table in [`crate::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self.metrics = PipelineMetrics::register(registry);
        self
    }

    /// The mechanism kind this pipeline perturbs with.
    pub fn kind(&self) -> MechanismKind {
        self.kind
    }

    /// The run configuration.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// The instantiated per-dimension mechanism.
    pub fn mechanism(&self) -> &dyn Mechanism {
        self.mechanism.as_ref()
    }

    /// Run the full collection over a dataset.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `m > d`, and
    /// [`ProtocolError::EmptyDimension`] in the (vanishingly unlikely at
    /// realistic scales) event that some dimension received no report.
    pub fn run(&self, dataset: &Dataset) -> crate::Result<MeanEstimate> {
        self.run_seeded(dataset, self.config.seed)
    }

    /// Run the pipeline `trials` times with distinct seeds and return every
    /// estimate (used by the experiment harness to average MSE over
    /// repetitions, as the paper does). Trial `t` runs as [`run`](Self::run)
    /// does with the configured seed plus `t`.
    ///
    /// # Errors
    /// Propagates the first error from any trial.
    pub fn run_trials(&self, dataset: &Dataset, trials: usize) -> crate::Result<Vec<MeanEstimate>> {
        (0..trials)
            .map(|t| self.run_seeded(dataset, self.config.seed.wrapping_add(t as u64)))
            .collect()
    }

    /// One collection over `dataset` whose users derive their generators
    /// from `seed`: the run behind [`run`](Self::run) and
    /// [`run_trials`](Self::run_trials).
    fn run_seeded(&self, dataset: &Dataset, seed: u64) -> crate::Result<MeanEstimate> {
        self.metrics.runs.inc();
        let dims = dataset.dims();
        let budget = BudgetSplit::new(self.config.total_epsilon, self.config.reported_dims)?;
        let client = Client::new(self.mechanism.as_ref(), budget, dims)?;

        // Users are hash-partitioned across one ingest shard per worker
        // thread; each shard sums its reports locally and the partial
        // sums/counts are merged on read (exact).
        let perturb_ns = self.metrics.perturb_ns.clone();
        // Only read the clock when the histogram actually records, and even
        // then only for every PERTURB_SAMPLE_EVERY-th user, so timing stays
        // negligible against million-user collections.
        let sample_perturb = perturb_ns.is_enabled();
        let mut engine =
            IngestEngine::with_telemetry(dims, IngestConfig::per_thread(), &self.registry)?;
        let ingest_timer = self.metrics.ingest_ns.start();
        engine.ingest_partitioned(0..dataset.users() as u64, |user, out| {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
            let row = dataset.row(user as usize).map_err(ProtocolError::from)?;
            if sample_perturb && user % PERTURB_SAMPLE_EVERY == 0 {
                let started = Instant::now();
                let result = client.perturb_tuple_into(row, &mut rng, out);
                perturb_ns
                    .record_ns(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                result
            } else {
                client.perturb_tuple_into(row, &mut rng, out)
            }
        })?;
        ingest_timer.stop();

        let estimate_timer = self.metrics.estimate_ns.start();
        let merged = engine.merged()?;
        let estimate = MeanEstimate {
            estimated_means: merged.means()?,
            true_means: dataset.true_means(),
            report_counts: merged.counts(),
            per_dimension_epsilon: budget.per_dimension(),
        };
        estimate_timer.stop();
        Ok(estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_data::UniformDataset;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn uniform_dataset(users: usize, dims: usize) -> Dataset {
        UniformDataset::new(users, dims)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(404))
    }

    #[test]
    fn construction_validates_config() {
        assert!(MeanEstimationPipeline::new(
            MechanismKind::Laplace,
            PipelineConfig::new(0.0, 1, 0)
        )
        .is_err());
        assert!(MeanEstimationPipeline::new(
            MechanismKind::Laplace,
            PipelineConfig::new(1.0, 0, 0)
        )
        .is_err());
        let p = MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 4, 0))
            .unwrap();
        assert_eq!(p.kind(), MechanismKind::Laplace);
        assert!((p.mechanism().epsilon() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn m_larger_than_d_is_rejected_at_run_time() {
        let p = MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 8, 0))
            .unwrap();
        let data = uniform_dataset(100, 4);
        assert!(p.run(&data).is_err());
    }

    #[test]
    fn report_counts_sum_to_n_times_m() {
        let data = uniform_dataset(500, 10);
        let p =
            MeanEstimationPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(2.0, 3, 7))
                .unwrap();
        let est = p.run(&data).unwrap();
        let total: u64 = est.report_counts.iter().sum();
        assert_eq!(total, 500 * 3);
        assert_eq!(est.estimated_means.len(), 10);
        assert_eq!(est.true_means.len(), 10);
        assert!((est.per_dimension_epsilon - 2.0 / 3.0).abs() < 1e-12);
        // E[r_j] = n m / d = 150; every dimension should be in a sane band.
        for &r in &est.report_counts {
            assert!((100..=200).contains(&r), "r_j = {r}");
        }
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let data = uniform_dataset(300, 6);
        let config = PipelineConfig::new(1.0, 2, 99);
        let p1 = MeanEstimationPipeline::new(MechanismKind::Laplace, config).unwrap();
        let p2 = MeanEstimationPipeline::new(MechanismKind::Laplace, config).unwrap();
        assert_eq!(p1.run(&data).unwrap(), p2.run(&data).unwrap());
        let p3 =
            MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 2, 100))
                .unwrap();
        assert_ne!(p1.run(&data).unwrap(), p3.run(&data).unwrap());
    }

    #[test]
    fn generous_budget_recovers_means_accurately() {
        // With a huge budget and every dimension reported, the estimate should
        // be very close to the truth. The per-dimension budget stays below
        // ~73.5, past which Piecewise rejects the budget: its band collapses
        // in f64.
        let data = uniform_dataset(5_000, 4);
        let p =
            MeanEstimationPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(200.0, 4, 3))
                .unwrap();
        let est = p.run(&data).unwrap();
        let utility = est.utility().unwrap();
        assert!(utility.mse < 1e-3, "mse = {}", utility.mse);
    }

    #[test]
    fn smaller_budget_gives_larger_error() {
        let data = uniform_dataset(2_000, 8);
        let mse_at = |eps: f64| {
            let p = MeanEstimationPipeline::new(
                MechanismKind::Laplace,
                PipelineConfig::new(eps, 8, 11),
            )
            .unwrap();
            // Average over a few trials to smooth randomness.
            let runs = p.run_trials(&data, 5).unwrap();
            runs.iter().map(|e| e.utility().unwrap().mse).sum::<f64>() / runs.len() as f64
        };
        let low = mse_at(0.5);
        let high = mse_at(8.0);
        assert!(
            low > high * 10.0,
            "expected much larger MSE at eps = 0.5 ({low}) than at 8.0 ({high})"
        );
    }

    #[test]
    fn run_trials_uses_distinct_seeds() {
        let data = uniform_dataset(200, 4);
        let p = MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 2, 5))
            .unwrap();
        let runs = p.run_trials(&data, 3).unwrap();
        assert_eq!(runs.len(), 3);
        assert_ne!(runs[0].estimated_means, runs[1].estimated_means);
        assert_ne!(runs[1].estimated_means, runs[2].estimated_means);
        // Trial t is the run seeded with the configured seed plus t.
        let second =
            MeanEstimationPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 2, 6))
                .unwrap();
        assert_eq!(runs[1], second.run(&data).unwrap());
    }

    #[test]
    fn nearby_users_first_draws_are_uncorrelated() {
        // `user_seed` steps users by SplitMix64's own increment, so user
        // u + k starts from user u's generator state shifted by k words
        // (4 − k shared words for k ≤ 3). At m = d a user's first draw
        // perturbs the first value, so the first four draws of users u and
        // u + k must be uncorrelated (k = 0 pairs distinct draws of one
        // user). Each draw's top 16 bits are centred to the odd integers in
        // [−65535, 65535], whose square has mean (2³² − 1)/3. For
        // independent draws the sum S of n products has mean 0 and
        // variance n·((2³² − 1)/3)², so |z| < 5 reads 9·S² < 25·n·(2³² − 1)²,
        // all in integers.
        const USERS: usize = 1 << 16;
        const DRAWS: usize = 4;
        let bound = 25 * ((1i128 << 32) - 1).pow(2);
        for seed in [0, 42, 2050] {
            let centred: Vec<[i64; DRAWS]> = (0..USERS as u64)
                .map(|user| {
                    let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
                    std::array::from_fn(|_| 2 * (rng.next_u64() >> 48) as i64 - 65_535)
                })
                .collect();
            for lag in 0..=3 {
                let n = (USERS - lag) as i128;
                for a in 0..DRAWS {
                    for b in (0..DRAWS).filter(|&b| lag > 0 || b > a) {
                        let sum: i128 = centred
                            .iter()
                            .zip(&centred[lag..])
                            .map(|(x, y)| i128::from(x[a] * y[b]))
                            .sum();
                        assert!(
                            9 * sum * sum < bound * n,
                            "seed {seed}, users u and u + {lag}, draws {a} and {b}: S = {sum}"
                        );
                    }
                }
            }
        }
    }
}
