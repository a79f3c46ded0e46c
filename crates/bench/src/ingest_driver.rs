//! Million-user ingest simulation: the driver behind the
//! `million_user_ingest` binary.
//!
//! The paper's setting is an aggregator collecting perturbed reports from a
//! very large population (Section III-B). This driver simulates that scale
//! without materializing the population: each simulated user's values are a
//! pure function of `(seed, user id, dimension)`, drawn uniformly from a
//! window of width 1 centred on a per-dimension target mean, so
//!
//! * only the `m` *sampled* dimensions of each user are ever generated
//!   (via [`hdldp_protocol::Client::perturb_lazy_into`]), and
//! * the population mean of dimension `j` is exactly
//!   [`population_mean`]`(j)` — giving an analytic ground truth to compute
//!   the MSE of the sharded estimate against, at any population size.
//!
//! Users stream through [`hdldp_protocol::IngestEngine`]: hash-partitioned
//! across shards, summed shard-locally, merged on read. The driver reports
//! throughput (users and reports per second) alongside the estimate's MSE.

use hdldp_mechanisms::{build_mechanism, MechanismKind};
use hdldp_protocol::{BudgetSplit, Client, IngestConfig, IngestEngine};
use hdldp_telemetry::{Registry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of one simulated ingest run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestSimConfig {
    /// Number of simulated users `n`.
    pub users: u64,
    /// Dimensionality `d` of each user's tuple.
    pub dims: usize,
    /// Number of dimensions `m` each user samples and reports.
    pub reported_dims: usize,
    /// Total per-user privacy budget `ε`.
    pub total_epsilon: f64,
    /// Number of ingest shards.
    pub shards: usize,
    /// The perturbation mechanism.
    pub mechanism: MechanismKind,
    /// Seed for the deterministic per-user randomness.
    pub seed: u64,
}

impl IngestSimConfig {
    /// A reasonable default telemetry-style workload for `users` users:
    /// 256 dimensions, 8 reported per user, ε = 1, one shard per worker
    /// thread, Laplace perturbation.
    pub fn for_users(users: u64) -> Self {
        Self {
            users,
            dims: 256,
            reported_dims: 8,
            total_epsilon: 1.0,
            shards: rayon::current_num_threads().max(1),
            mechanism: MechanismKind::Laplace,
            seed: 42,
        }
    }
}

/// Outcome of one simulated ingest run: throughput and estimate quality.
#[derive(Debug, Clone, Serialize)]
pub struct IngestSimSummary {
    /// Number of simulated users.
    pub users: u64,
    /// Dimensionality of the collection.
    pub dims: usize,
    /// Reported dimensions per user.
    pub reported_dims: usize,
    /// Mechanism name.
    pub mechanism: String,
    /// Total per-user budget ε.
    pub total_epsilon: f64,
    /// Number of ingest shards.
    pub shards: usize,
    /// Seed of the deterministic per-user randomness.
    pub seed: u64,
    /// Total reports ingested (= users).
    pub total_reports: usize,
    /// Total `(dimension, value)` entries ingested (= users · m).
    pub total_entries: u64,
    /// Total wall-clock duration (ingest + estimation), in seconds.
    pub elapsed_secs: f64,
    /// Wall-clock duration of the streaming ingest phase, in seconds.
    pub ingest_secs: f64,
    /// Wall-clock duration of the merge + scoring phase, in seconds.
    pub estimate_secs: f64,
    /// Users processed per second (one report per user).
    pub reports_per_sec: f64,
    /// Perturbed entries ingested per second.
    pub entries_per_sec: f64,
    /// MSE of the sharded estimated means against the analytic population
    /// means.
    pub mse: f64,
    /// Largest per-dimension absolute estimation error.
    pub max_abs_error: f64,
    /// Smallest per-shard report count (load-balance diagnostic).
    pub min_shard_load: usize,
    /// Largest per-shard report count (load-balance diagnostic).
    pub max_shard_load: usize,
}

/// SplitMix64 finalizer used to derive per-(user, dimension) randomness.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a mixed 64-bit state (53 mantissa bits).
fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The exact population mean of dimension `j`: a deterministic value in
/// `[-0.45, 0.45]`, so every user value (mean ± 0.5) stays inside the
/// mechanisms' `[-1, 1]` input domain without clipping.
pub fn population_mean(dim: usize) -> f64 {
    0.9 * (unit(dim as u64 ^ 0xA5A5_A5A5_A5A5_A5A5) - 0.5)
}

/// The raw (unperturbed) value of `(user, dim)` under `seed`: uniform in a
/// width-1 window centred on [`population_mean`]`(dim)`, so the population
/// mean is exact by construction.
pub fn user_value(seed: u64, user: u64, dim: usize) -> f64 {
    let noise = unit(seed ^ mix(user) ^ (dim as u64).rotate_left(32)) - 0.5;
    population_mean(dim) + noise
}

/// Run the simulated collection: `config.users` clients sample, perturb and
/// stream reports into a sharded [`IngestEngine`]; the merged estimate is
/// scored against the analytic population means. Telemetry is disabled;
/// [`simulate_ingest_with`] records into a registry.
///
/// # Errors
/// Propagates mechanism/protocol configuration errors.
pub fn simulate_ingest(
    config: &IngestSimConfig,
) -> Result<IngestSimSummary, Box<dyn std::error::Error + Send + Sync>> {
    simulate_ingest_with(config, &Registry::disabled())
}

/// [`simulate_ingest`] recording engine metrics and phase durations into
/// `registry`: the ingest engine's counters and latency histograms, plus
/// `phase_ingest_seconds` / `phase_estimate_seconds` gauges mirroring the
/// summary's elapsed-time breakdown.
///
/// # Errors
/// Propagates mechanism/protocol configuration errors.
pub fn simulate_ingest_with(
    config: &IngestSimConfig,
    registry: &Registry,
) -> Result<IngestSimSummary, Box<dyn std::error::Error + Send + Sync>> {
    let budget = BudgetSplit::new(config.total_epsilon, config.reported_dims)?;
    let mechanism = build_mechanism(config.mechanism, budget.per_dimension())?;
    let client = Client::new(mechanism.as_ref(), budget, config.dims)?;
    let mut engine = IngestEngine::with_telemetry(
        config.dims,
        IngestConfig::new(config.shards, 256)?,
        registry,
    )?;

    let seed = config.seed;
    let start = Instant::now();
    engine.ingest_partitioned(0..config.users, |user, out| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(mix(user)));
        client.perturb_lazy_into(|dim| user_value(seed, user, dim), &mut rng, out);
        Ok(())
    })?;
    let ingest_secs = start.elapsed().as_secs_f64().max(1e-9);
    registry.gauge("phase_ingest_seconds").set(ingest_secs);

    let estimate_start = Instant::now();
    let merged = engine.merged()?;
    let means = merged.means()?;
    let mut mse = 0.0;
    let mut max_abs_error: f64 = 0.0;
    for (dim, &estimate) in means.iter().enumerate() {
        let err = estimate - population_mean(dim);
        mse += err * err;
        max_abs_error = max_abs_error.max(err.abs());
    }
    mse /= config.dims as f64;
    let estimate_secs = estimate_start.elapsed().as_secs_f64().max(1e-9);
    registry.gauge("phase_estimate_seconds").set(estimate_secs);

    let elapsed = ingest_secs + estimate_secs;
    let loads = engine.shard_loads();
    let total_entries: u64 = merged.counts().iter().sum();
    Ok(IngestSimSummary {
        users: config.users,
        dims: config.dims,
        reported_dims: config.reported_dims,
        mechanism: config.mechanism.name().to_string(),
        total_epsilon: config.total_epsilon,
        shards: config.shards,
        seed: config.seed,
        total_reports: merged.reports(),
        total_entries,
        elapsed_secs: elapsed,
        ingest_secs,
        estimate_secs,
        reports_per_sec: merged.reports() as f64 / ingest_secs,
        entries_per_sec: total_entries as f64 / ingest_secs,
        mse,
        max_abs_error,
        min_shard_load: loads.iter().copied().min().unwrap_or(0),
        max_shard_load: loads.iter().copied().max().unwrap_or(0),
    })
}

/// One row of a telemetry result file: the registry snapshot of a run at one
/// shard count (the `million_user_ingest` binary writes a `Vec` of these to
/// `results/telemetry_million_user_ingest.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTelemetryRow {
    /// Shard count of the run this snapshot belongs to.
    pub shards: usize,
    /// The full registry snapshot taken after the run.
    pub snapshot: TelemetrySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_means_stay_in_the_safe_window() {
        for dim in 0..2_000 {
            let mu = population_mean(dim);
            assert!(mu.abs() <= 0.45, "dim {dim}: {mu}");
        }
    }

    #[test]
    fn user_values_stay_in_the_mechanism_domain() {
        for user in 0..200u64 {
            for dim in 0..32 {
                let v = user_value(7, user, dim);
                assert!((-1.0..=1.0).contains(&v), "({user}, {dim}): {v}");
            }
        }
    }

    #[test]
    fn user_values_average_to_the_population_mean() {
        let dim = 5;
        let n = 20_000u64;
        let sum: f64 = (0..n).map(|u| user_value(3, u, dim)).sum();
        let err = (sum / n as f64 - population_mean(dim)).abs();
        // Uniform(±0.5) sampling error at n = 20k is ~0.002; allow 4σ.
        assert!(err < 0.01, "empirical mean off by {err}");
    }

    #[test]
    fn simulation_reports_conserved_counts_and_finite_mse() {
        let mut config = IngestSimConfig::for_users(4_000);
        config.dims = 32;
        config.reported_dims = 4;
        config.shards = 4;
        let summary = simulate_ingest(&config).unwrap();
        assert_eq!(summary.total_reports, 4_000);
        assert_eq!(summary.total_entries, 4_000 * 4);
        assert!(summary.mse.is_finite() && summary.mse > 0.0);
        assert!(summary.reports_per_sec > 0.0);
        assert!(summary.min_shard_load > 0);
        assert!(summary.min_shard_load <= summary.max_shard_load);
    }

    #[test]
    fn simulation_is_deterministic_in_everything_but_timing() {
        let mut config = IngestSimConfig::for_users(2_000);
        config.dims = 16;
        config.reported_dims = 2;
        config.shards = 3;
        let a = simulate_ingest(&config).unwrap();
        let b = simulate_ingest(&config).unwrap();
        assert_eq!(a.mse, b.mse);
        assert_eq!(a.max_abs_error, b.max_abs_error);
        assert_eq!(a.total_entries, b.total_entries);
    }

    #[test]
    fn telemetry_snapshot_covers_the_run() {
        let mut config = IngestSimConfig::for_users(2_000);
        config.dims = 16;
        config.reported_dims = 2;
        config.shards = 2;
        let registry = Registry::new();
        let summary = simulate_ingest_with(&config, &registry).unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("ingest_reports_total"), Some(2_000));
        let per_shard = snapshot.counter("ingest_shard000_reports_total").unwrap()
            + snapshot.counter("ingest_shard001_reports_total").unwrap();
        assert_eq!(per_shard, 2_000);
        assert_eq!(snapshot.counter("ingest_entries_total"), Some(2_000 * 2));
        assert!(snapshot.gauge("phase_ingest_seconds").unwrap() > 0.0);
        assert!(snapshot.gauge("phase_estimate_seconds").unwrap() > 0.0);
        assert!(summary.ingest_secs > 0.0 && summary.estimate_secs > 0.0);
        let total = summary.ingest_secs + summary.estimate_secs;
        assert!((summary.elapsed_secs - total).abs() < 1e-12);
        assert_eq!(summary.seed, config.seed);
    }

    #[test]
    fn generous_budget_estimates_are_accurate() {
        let mut config = IngestSimConfig::for_users(50_000);
        config.dims = 16;
        config.reported_dims = 16;
        config.total_epsilon = 200.0;
        config.shards = 4;
        let summary = simulate_ingest(&config).unwrap();
        assert!(summary.mse < 1e-3, "mse = {}", summary.mse);
    }
}
