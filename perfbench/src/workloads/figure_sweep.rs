//! `figure_sweep`: the Figure 4 inner loop (§V–VI) on a materialised
//! Gaussian dataset of 10,000 users × 100 dimensions with m = d. A round
//! covers six points — Laplace and PM at ε ∈ {0.4, 1.6}, SW at
//! ε ∈ {10, 100} — and each point builds the deviation model, runs the
//! mean-estimation pipeline (one shard per worker) and re-calibrates with
//! HDR4ME L1 and L2.
//!
//! Chosen because dense reports take the m = d branch of dimension
//! sampling, three mechanisms perturb, and it is the only workload where
//! the data, framework and core layers run: a sampler that wins on
//! `sparse_ingest` but loses at m = d shows here.

use super::{all_finite, counter_delta, flush_p50_ns, histogram_delta, mse, per_call};
use super::{round_seed, self_per_call, shard_counters, Digest, IngestTelemetry, Layers, Workload};
use crate::refclock::mix;
use crate::trace::{watch_workers, Tracer};
use hdldp_core::Hdr4me;
use hdldp_data::{Dataset, GaussianDataset};
use hdldp_framework::DeviationModel;
use hdldp_mechanisms::MechanismKind;
use hdldp_protocol::{IngestConfig, MeanEstimationPipeline, PipelineConfig};
use hdldp_telemetry::{Counter, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const USERS: usize = 10_000;
const DIMS: usize = 100;
const POINTS: [(MechanismKind, f64); 6] = [
    (MechanismKind::Laplace, 0.4),
    (MechanismKind::Laplace, 1.6),
    (MechanismKind::Piecewise, 0.4),
    (MechanismKind::Piecewise, 1.6),
    (MechanismKind::SquareWave, 10.0),
    (MechanismKind::SquareWave, 100.0),
];

/// One point's outputs in a round.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutput {
    /// The point's mechanism.
    pub mechanism: MechanismKind,
    /// Σ r_j over dimensions.
    pub reports: u64,
    /// The naive estimate.
    pub naive: Vec<f64>,
    /// The HDR4ME-L1 estimate.
    pub l1: Vec<f64>,
    /// The HDR4ME-L2 estimate.
    pub l2: Vec<f64>,
    /// The framework's predicted MSE, mean_j(δ_j² + σ_j²).
    pub predicted_mse: f64,
}

/// Check one point: counts conserved, no NaN, the naive MSE within ½–2× of
/// the prediction, and both HDR4ME estimates beat the naive one except
/// under SW (where L1 loses to naive).
pub fn check(out: &PointOutput, truth: &[f64], reports: u64) -> Result<(), String> {
    let name = out.mechanism.name();
    if out.reports != reports {
        return Err(format!(
            "{name}: Σ r_j = {}, expected {reports}",
            out.reports
        ));
    }
    all_finite(&out.naive, "naive estimate")?;
    all_finite(&out.l1, "L1 estimate")?;
    all_finite(&out.l2, "L2 estimate")?;
    let naive = mse(&out.naive, truth);
    let ratio = naive / out.predicted_mse;
    if !(0.5..=2.0).contains(&ratio) {
        return Err(format!(
            "{name}: naive MSE is {ratio:.3}× the predicted MSE"
        ));
    }
    if out.mechanism != MechanismKind::SquareWave {
        let (l1, l2) = (mse(&out.l1, truth), mse(&out.l2, truth));
        if !(l1 < naive && l2 < naive) {
            return Err(format!(
                "{name}: HDR4ME MSE L1 {l1:.4e} / L2 {l2:.4e} vs naive {naive:.4e}"
            ));
        }
    }
    Ok(())
}

pub struct FigureSweep {
    seed: u64,
    dataset: Dataset,
    truth: Vec<f64>,
    registry: Registry,
    shards: Vec<Counter>,
    telemetry: IngestTelemetry,
    perturb: (u64, u64),
    waits_ms: Vec<f64>,
    cold_model_ms: f64,
    out: Vec<PointOutput>,
}

impl FigureSweep {
    /// Set up for `seed`: generate the dataset and fill its column-profile
    /// cache with the first (cold) model build.
    pub fn new(seed: u64) -> Result<Self, String> {
        let dataset = GaussianDataset::new(USERS, DIMS)
            .map_err(|e| e.to_string())?
            .generate(&mut StdRng::seed_from_u64(mix(seed ^ 0xF164)));
        let probe = MeanEstimationPipeline::new(
            MechanismKind::Piecewise,
            PipelineConfig::new(0.4, DIMS, 0),
        )
        .map_err(|e| e.to_string())?;
        let started = Instant::now();
        DeviationModel::for_dataset(probe.mechanism(), &dataset, USERS as f64)
            .map_err(|e| e.to_string())?;
        let cold_model_ms = started.elapsed().as_secs_f64() * 1e3;
        let registry = Registry::new();
        Ok(Self {
            seed,
            truth: dataset.true_means(),
            dataset,
            shards: shard_counters(&registry, IngestConfig::per_thread().shards()),
            registry,
            telemetry: IngestTelemetry::default(),
            perturb: (0, 0),
            waits_ms: Vec::new(),
            cold_model_ms,
            out: Vec::new(),
        })
    }
}

impl Workload for FigureSweep {
    fn items_per_round(&self) -> u64 {
        (POINTS.len() * USERS) as u64
    }

    fn run_round(&mut self, index: u64, tracer: &Tracer) -> Result<(), String> {
        self.out.clear();
        let seed = round_seed(self.seed, index);
        let traced = tracer.is_active();
        let dataset = &self.dataset;
        for (point, &(mechanism, epsilon)) in POINTS.iter().enumerate() {
            let config = PipelineConfig::new(epsilon, DIMS, mix(seed ^ point as u64));
            let mut pipeline =
                MeanEstimationPipeline::new(mechanism, config).map_err(|e| e.to_string())?;
            if traced {
                pipeline = pipeline.with_telemetry(&self.registry);
            }
            let model = tracer
                .span("framework.model", || {
                    DeviationModel::for_dataset(pipeline.mechanism(), dataset, USERS as f64)
                })
                .map_err(|e| e.to_string())?;
            let estimate = if traced {
                let before = self.registry.snapshot();
                let (estimate, wait_ms) =
                    watch_workers(&self.shards, super::hdldp_threads(), || {
                        tracer.span("protocol.pipeline", || pipeline.run(dataset))
                    });
                let node = tracer.last_closed();
                let after = self.registry.snapshot();
                let delta = |name| histogram_delta(&before, &after, name);
                tracer.attach(
                    node,
                    "protocol.pipeline.collect",
                    1,
                    delta("pipeline_ingest_ns").1,
                );
                let estimate_node = tracer.attach(
                    node,
                    "protocol.pipeline.estimate",
                    1,
                    delta("pipeline_estimate_ns").1,
                );
                let merges = counter_delta(&before, &after, "ingest_merges_total");
                tracer.attach(
                    estimate_node,
                    "protocol.merge",
                    merges,
                    delta("ingest_merge_ns").1,
                );
                let (count, sum) = delta("pipeline_perturb_ns");
                self.perturb = (self.perturb.0 + count, self.perturb.1 + sum);
                self.telemetry.add(&before, &after);
                self.waits_ms.push(wait_ms);
                estimate
            } else {
                pipeline.run(dataset)
            }
            .map_err(|e| e.to_string())?;
            let means = &estimate.estimated_means;
            let l1 = tracer
                .span("core.recalibrate", || {
                    Hdr4me::l1().recalibrate(means, &model)
                })
                .map_err(|e| e.to_string())?;
            let l2 = tracer
                .span("core.recalibrate", || {
                    Hdr4me::l2().recalibrate(means, &model)
                })
                .map_err(|e| e.to_string())?;
            let predicted_mse = model
                .deltas()
                .iter()
                .zip(model.std_devs())
                .map(|(d, s)| d * d + s * s)
                .sum::<f64>()
                / DIMS as f64;
            self.out.push(PointOutput {
                mechanism,
                reports: estimate.report_counts.iter().sum(),
                naive: estimate.estimated_means,
                l1: l1.enhanced_means,
                l2: l2.enhanced_means,
                predicted_mse,
            });
        }
        Ok(())
    }

    fn check_round(&self) -> Result<u64, String> {
        if self.out.len() != POINTS.len() {
            return Err("the round produced no output".into());
        }
        let mut digest = Digest::default();
        for out in &self.out {
            check(out, &self.truth, (USERS * DIMS) as u64)?;
            digest.floats(&out.naive);
            digest.floats(&out.l1);
            digest.floats(&out.l2);
        }
        Ok(digest.value())
    }

    fn layer_metrics(&self, layers: &Layers, rounds: usize) -> Vec<(&'static str, f64)> {
        let waits = self.waits_ms.iter().sum::<f64>() / self.waits_ms.len().max(1) as f64;
        let perturb = self.perturb.1 as f64 / self.perturb.0.max(1) as f64;
        vec![
            (
                "protocol.pipeline.ms_per_call",
                per_call(layers, "protocol.pipeline") / 1e6,
            ),
            ("protocol.pipeline.perturb_ns_per_user", perturb),
            (
                "protocol.ingest.self_ns_per_entry",
                self.telemetry.flush_ns_per_entry(),
            ),
            ("protocol.ingest.worker_wait_ms", waits),
            (
                "protocol.ingest.route_attempts_per_report",
                self.shards.len() as f64,
            ),
            (
                "protocol.ingest.flushes",
                self.telemetry.flushes as f64 / rounds.max(1) as f64,
            ),
            ("protocol.ingest.flush_ns_p50", flush_p50_ns(&self.registry)),
            (
                "protocol.merge.us_per_call",
                per_call(layers, "protocol.merge") / 1e3,
            ),
            (
                "protocol.estimate.us_per_call",
                self_per_call(layers, "protocol.pipeline.estimate") / 1e3,
            ),
            (
                "core.recalibrate.us_per_call",
                per_call(layers, "core.recalibrate") / 1e3,
            ),
            (
                "framework.model.ms_per_call",
                per_call(layers, "framework.model") / 1e6,
            ),
            ("framework.model.ms_cold", self.cold_model_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(mechanism: MechanismKind) -> (PointOutput, Vec<f64>) {
        let truth = vec![0.2, -0.1, 0.4, 0.0];
        let out = PointOutput {
            mechanism,
            reports: 40,
            naive: vec![0.5, -0.4, 0.1, 0.3],
            l1: vec![0.1, 0.0, 0.3, 0.0],
            l2: vec![0.15, -0.05, 0.3, 0.05],
            predicted_mse: 0.09,
        };
        (out, truth)
    }

    #[test]
    fn a_clean_point_passes_and_a_corrupted_estimate_fails() {
        let (out, truth) = clean(MechanismKind::Laplace);
        assert!(check(&out, &truth, 40).is_ok());
        let mut nan = out.clone();
        nan.l2[1] = f64::NAN;
        assert!(check(&nan, &truth, 40).is_err());
        let mut worse = out.clone();
        worse.l1 = vec![2.0; 4];
        assert!(check(&worse, &truth, 40).is_err());
        let mut mispredicted = out.clone();
        mispredicted.predicted_mse = 1.0;
        assert!(check(&mispredicted, &truth, 40).is_err());
        assert!(check(&out, &truth, 41).is_err());
    }

    #[test]
    fn square_wave_points_skip_the_hdr4me_comparison() {
        let (mut out, truth) = clean(MechanismKind::SquareWave);
        out.l1 = vec![2.0; 4];
        assert!(check(&out, &truth, 40).is_ok());
    }
}
