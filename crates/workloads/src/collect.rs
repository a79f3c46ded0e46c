//! Oracle collection pipeline over the sharded ingest engine.
//!
//! [`OraclePipeline`] runs one categorical dimension end-to-end: every user's
//! value is perturbed by a [`CategoricalOracle`] into calibrated one-hot
//! entries (one per category) and routed through the sharded
//! [`IngestEngine`] exactly like the numeric million-user path. Because the
//! calibrated entries are unbiased, the engine's per-category means *are* the
//! oracle's frequency estimates — no separate aggregation step.
//!
//! Per-user randomness is derived deterministically from a run seed and the
//! user id, so a fixed seed reproduces the same estimate bit-for-bit; the
//! shard count is part of the pipeline configuration (default
//! [`IngestConfig::PINNED`], 4 shards) because the merge-on-read summation
//! order, and hence the floating-point result, depends on it.

use crate::telemetry::WorkloadMetrics;
use crate::{CategoricalOracle, OracleEntryMechanism, OracleKind, Result, WorkloadError};
use hdldp_core::{Hdr4me, Hdr4meConfig, LambdaSelector, Regularization};
use hdldp_protocol::{user_seed, FrequencyEstimate, IngestConfig, IngestEngine};
use hdldp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The HDR4ME re-calibrator of a categorical workload: `Some` with the
/// `regularization` it is configured with, `None` without one. Its `λ*`
/// weights use the deviation-supremum quantile `supremum_z`, which is checked
/// either way, so a bad `z` fails the workload's construction even when it
/// runs without re-calibration.
///
/// # Errors
/// Returns [`WorkloadError::Core`] when `supremum_z` is not positive and
/// finite.
pub(crate) fn recalibrator(
    regularization: Option<Regularization>,
    supremum_z: f64,
) -> Result<Option<Hdr4me>> {
    let lambda = LambdaSelector::new(supremum_z, 0.05)?;
    Ok(regularization.map(|regularization| {
        Hdr4me::new(Hdr4meConfig {
            regularization,
            lambda,
        })
    }))
}

/// End-to-end frequency-oracle collection for one categorical dimension.
#[derive(Debug, Clone)]
pub struct OraclePipeline {
    oracle: CategoricalOracle,
    seed: u64,
    ingest: IngestConfig,
    registry: Registry,
    metrics: WorkloadMetrics,
}

impl OraclePipeline {
    /// Create a pipeline with telemetry disabled.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] for invalid oracle parameters
    /// (see [`CategoricalOracle::new`]).
    pub fn new(kind: OracleKind, categories: usize, epsilon: f64, seed: u64) -> Result<Self> {
        Self::with_telemetry(kind, categories, epsilon, seed, &Registry::disabled())
    }

    /// Create a pipeline that records runtime metrics into `registry` (the
    /// workload metrics of [`crate::telemetry`] plus the ingest engine's own
    /// `ingest_*` metrics).
    ///
    /// # Errors
    /// Same conditions as [`OraclePipeline::new`].
    pub fn with_telemetry(
        kind: OracleKind,
        categories: usize,
        epsilon: f64,
        seed: u64,
        registry: &Registry,
    ) -> Result<Self> {
        let oracle = CategoricalOracle::new(kind, categories, epsilon)?;
        Ok(Self {
            oracle,
            seed,
            ingest: IngestConfig::PINNED,
            registry: registry.clone(),
            metrics: WorkloadMetrics::register(registry),
        })
    }

    /// Override the sharded-ingest configuration (its shard count). The
    /// default is [`IngestConfig::PINNED`].
    pub fn with_ingest_config(mut self, config: IngestConfig) -> Self {
        self.ingest = config;
        self
    }

    /// The configured oracle.
    pub fn oracle(&self) -> &CategoricalOracle {
        &self.oracle
    }

    /// The per-entry mechanism the estimate is produced with; pass this to
    /// [`hdldp_core::Hdr4me::recalibrate_frequencies`].
    pub fn mechanism(&self) -> OracleEntryMechanism {
        self.oracle.entry_mechanism()
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Post-process `estimate`, one of this pipeline's estimates, into the
    /// frequency distribution a workload selects or queries on: HDR4ME
    /// re-calibration with `hdr` against [`mechanism`](Self::mechanism),
    /// timed into `workload_recalibrate_ns`, or clip-and-renormalize when
    /// `hdr` is `None`.
    ///
    /// # Errors
    /// Propagates re-calibration and normalization errors.
    pub(crate) fn recalibrate_or_normalize(
        &self,
        estimate: &FrequencyEstimate,
        hdr: Option<&Hdr4me>,
    ) -> Result<Vec<f64>> {
        match hdr {
            Some(hdr) => {
                let _timer = self.metrics.recalibrate_ns.start();
                Ok(hdr
                    .recalibrate_frequencies(estimate, 0, &self.mechanism())?
                    .enhanced)
            }
            None => Ok(estimate.normalized(0)?),
        }
    }

    /// Collect `values` (one categorical value in `[0, k)` per user) and
    /// estimate the category frequencies.
    ///
    /// # Errors
    /// Returns [`WorkloadError::ValueOutOfDomain`] when a value is `>= k`,
    /// [`WorkloadError::InvalidConfig`] when `values` is empty, and propagates
    /// engine errors.
    pub fn run(&self, values: &[usize]) -> Result<FrequencyEstimate> {
        if values.is_empty() {
            return Err(WorkloadError::InvalidConfig {
                name: "values",
                reason: "cannot estimate frequencies from zero users".into(),
            });
        }
        let k = self.oracle.categories();
        if let Some(&bad) = values.iter().find(|&&v| v >= k) {
            return Err(WorkloadError::ValueOutOfDomain {
                value: bad,
                categories: k,
            });
        }
        self.metrics.runs.inc();
        self.metrics.reports.add(values.len() as u64);

        let mut engine = IngestEngine::with_telemetry(k, self.ingest, &self.registry)
            .map_err(WorkloadError::Protocol)?;
        let oracle = self.oracle;
        let seed = self.seed;
        {
            let _timer = self.metrics.collect_ns.start();
            engine
                .ingest_partitioned(0..values.len() as u64, |user_id, out| {
                    let mut rng = StdRng::seed_from_u64(user_seed(seed, user_id));
                    // The engine hands back ids from the 0..values.len()
                    // range it was given, and values were domain-checked
                    // above, so both failure paths stay cold errors instead
                    // of panics.
                    let value = values.get(user_id as usize).copied().ok_or_else(|| {
                        hdldp_protocol::ProtocolError::InvalidConfig {
                            name: "user_id",
                            reason: format!("user {user_id} outside 0..{}", values.len()),
                        }
                    })?;
                    oracle.perturb_into(value, &mut rng, out).map_err(|e| {
                        hdldp_protocol::ProtocolError::InvalidConfig {
                            name: "oracle",
                            reason: e.to_string(),
                        }
                    })?;
                    Ok(())
                })
                .map_err(WorkloadError::Protocol)?;
        }

        let _timer = self.metrics.estimate_ns.start();
        let estimated = engine.estimated_means().map_err(WorkloadError::Protocol)?;
        let mut truth = vec![0.0f64; k];
        for &v in values {
            // v < k was checked on entry; get_mut keeps the tally panic-free.
            if let Some(t) = truth.get_mut(v) {
                *t += 1.0;
            }
        }
        let n = values.len() as f64;
        for t in &mut truth {
            *t /= n;
        }
        Ok(FrequencyEstimate {
            estimated: vec![estimated],
            true_frequencies: vec![truth],
            report_counts: vec![values.len() as u64],
            per_entry_epsilon: self.oracle.epsilon(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_core::Hdr4me;

    fn planted_values(n: usize, truth: &[f64], seed: u64) -> Vec<usize> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut acc = 0.0;
                for (i, w) in truth.iter().enumerate() {
                    acc += w;
                    if u < acc {
                        return i;
                    }
                }
                truth.len() - 1
            })
            .collect()
    }

    #[test]
    fn run_recovers_planted_frequencies() {
        let truth = [0.4, 0.3, 0.2, 0.1];
        let values = planted_values(40_000, &truth, 17);
        for kind in OracleKind::ALL {
            let pipeline = OraclePipeline::new(kind, truth.len(), 2.0, 99).unwrap();
            let estimate = pipeline.run(&values).unwrap();
            assert_eq!(estimate.report_counts, vec![values.len() as u64]);
            for (j, &f) in truth.iter().enumerate() {
                let sd = (pipeline.oracle().per_report_variance(f) / values.len() as f64).sqrt();
                let err = (estimate.estimated[0][j] - estimate.true_frequencies[0][j]).abs();
                assert!(err < 6.0 * sd, "{kind:?} category {j}: err {err}, sd {sd}");
            }
        }
    }

    #[test]
    fn fixed_seed_is_bit_deterministic() {
        let values = planted_values(5_000, &[0.5, 0.3, 0.2], 3);
        let pipeline = OraclePipeline::new(OracleKind::Oue, 3, 1.0, 42).unwrap();
        let a = pipeline.run(&values).unwrap();
        let b = pipeline.run(&values).unwrap();
        assert_eq!(a.estimated, b.estimated);
        // A different seed gives a different perturbation.
        let other = OraclePipeline::new(OracleKind::Oue, 3, 1.0, 43).unwrap();
        assert_ne!(a.estimated, other.run(&values).unwrap().estimated);
    }

    #[test]
    fn rejects_out_of_domain_values_and_empty_input() {
        let pipeline = OraclePipeline::new(OracleKind::Grr, 4, 1.0, 1).unwrap();
        assert!(matches!(
            pipeline.run(&[0, 1, 4]).unwrap_err(),
            WorkloadError::ValueOutOfDomain { value: 4, .. }
        ));
        assert!(pipeline.run(&[]).is_err());
    }

    #[test]
    fn estimate_plugs_into_hdr4me_recalibration() {
        let truth = [0.6, 0.2, 0.1, 0.05, 0.05];
        let values = planted_values(8_000, &truth, 7);
        let pipeline = OraclePipeline::new(OracleKind::Grr, truth.len(), 0.5, 21).unwrap();
        let estimate = pipeline.run(&values).unwrap();
        let result = Hdr4me::l1()
            .recalibrate_frequencies(&estimate, 0, &pipeline.mechanism())
            .unwrap();
        let total: f64 = result.enhanced.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(result.enhanced.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn telemetry_records_runs_and_reports() {
        let registry = Registry::new();
        let values = planted_values(1_000, &[0.7, 0.3], 5);
        let pipeline = OraclePipeline::with_telemetry(OracleKind::Oue, 2, 1.0, 8, &registry)
            .unwrap()
            .with_ingest_config(IngestConfig::new(2, 64).unwrap());
        pipeline.run(&values).unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("workload_runs_total"), Some(1));
        assert_eq!(snapshot.counter("workload_reports_total"), Some(1_000));
        // The sharded engine's own metrics are wired through too.
        assert!(snapshot.counter("ingest_reports_total").unwrap_or(0) > 0);
    }
}
