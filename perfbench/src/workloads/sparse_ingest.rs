//! `sparse_ingest`: population-scale collection with the naive aggregator
//! (§III-B), on the `million_user_ingest` shape — d = 256, m = 8, Laplace,
//! ε = 1 — with one shard, batches of 256 and one thread, then HDR4ME-L1.
//!
//! Users are simulated lazily, as the ingest driver does: a user's value in
//! a dimension is a pure function of the population seed, the user and the
//! dimension, uniform in a width-1 window around an exact per-dimension
//! mean, so only the `m` sampled dimensions are ever generated and the
//! ground truth is known analytically.
//!
//! Chosen because the client's perturbation and dimension sampling take most
//! of the per-user time here, so client-path changes show and engine changes
//! barely do; it is also the single-threaded baseline.

use super::{all_finite, flush_p50_ns, mse, per_call, round_seed, self_per_call, unit, Digest};
use super::{IngestTelemetry, Layers, Workload};
use crate::refclock::mix;
use crate::trace::{nanos, Tracer};
use hdldp_core::Hdr4me;
use hdldp_data::DiscreteValueDistribution;
use hdldp_framework::DeviationModel;
use hdldp_mechanisms::{build_mechanism, Mechanism, MechanismKind};
use hdldp_protocol::{BudgetSplit, Client, IngestConfig, IngestEngine};
use hdldp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const USERS: u64 = 50_000;
const DIMS: usize = 256;
const REPORTED: usize = 8;
const EPSILON: f64 = 1.0;
const BATCH: usize = 256;

/// The exact population mean of dimension `dim`, inside `[-0.45, 0.45]` so
/// every user value stays in the mechanisms' `[-1, 1]` domain.
fn population_mean(population: u64, dim: usize) -> f64 {
    0.9 * (unit(population ^ (dim as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5)) - 0.5)
}

/// User `user`'s value in dimension `dim`.
fn user_value(population: u64, user: u64, dim: usize) -> f64 {
    let noise = unit(population ^ mix(user) ^ (dim as u64).rotate_left(32)) - 0.5;
    population_mean(population, dim) + noise
}

/// The outputs of one round that the checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Reports received per dimension (`r_j`).
    pub counts: Vec<u64>,
    /// The naive estimate.
    pub means: Vec<f64>,
    /// The HDR4ME-L1 estimate.
    pub recalibrated: Vec<f64>,
}

/// Check one round: counts conserved, no NaN, and the naive MSE within ½–2×
/// of the framework's prediction.
pub fn check(out: &Output, truth: &[f64], predicted_mse: f64, entries: u64) -> Result<u64, String> {
    let total: u64 = out.counts.iter().sum();
    if total != entries {
        return Err(format!("Σ r_j = {total}, expected {entries}"));
    }
    all_finite(&out.means, "naive estimate")?;
    all_finite(&out.recalibrated, "recalibrated estimate")?;
    let ratio = mse(&out.means, truth) / predicted_mse;
    if !(0.5..=2.0).contains(&ratio) {
        return Err(format!("naive MSE is {ratio:.3}× the predicted MSE"));
    }
    let mut digest = Digest::default();
    digest.floats(&out.means);
    digest.floats(&out.recalibrated);
    Ok(digest.value())
}

/// Per-user time of the calls inside the fill closure, summed per round.
#[derive(Debug, Default)]
struct FillClock {
    seed_ns: AtomicU64,
    client_ns: AtomicU64,
}

pub struct SparseIngest {
    seed: u64,
    population: u64,
    mechanism: Box<dyn Mechanism>,
    budget: BudgetSplit,
    model: DeviationModel,
    hdr: Hdr4me,
    truth: Vec<f64>,
    predicted_mse: f64,
    registry: Registry,
    fill: FillClock,
    telemetry: IngestTelemetry,
    cold_model_ms: f64,
    out: Option<Output>,
}

impl SparseIngest {
    /// Set up for `seed`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let population = mix(seed ^ 0x9090_5A5A);
        let budget = BudgetSplit::new(EPSILON, REPORTED).map_err(|e| e.to_string())?;
        let mechanism = build_mechanism(MechanismKind::Laplace, budget.per_dimension())
            .map_err(|e| e.to_string())?;
        let values =
            DiscreteValueDistribution::new(vec![0.0], vec![1.0]).map_err(|e| e.to_string())?;
        let reports = USERS as f64 * REPORTED as f64 / DIMS as f64;
        let started = Instant::now();
        let model = DeviationModel::homogeneous(mechanism.as_ref(), &values, reports, DIMS)
            .map_err(|e| e.to_string())?;
        let cold_model_ms = started.elapsed().as_secs_f64() * 1e3;
        let predicted_mse = model
            .deltas()
            .iter()
            .zip(model.std_devs())
            .map(|(d, s)| d * d + s * s)
            .sum::<f64>()
            / DIMS as f64;
        let truth = (0..DIMS).map(|j| population_mean(population, j)).collect();
        Ok(Self {
            seed,
            population,
            mechanism,
            budget,
            model,
            hdr: Hdr4me::l1(),
            truth,
            predicted_mse,
            registry: Registry::new(),
            fill: FillClock::default(),
            telemetry: IngestTelemetry::default(),
            cold_model_ms,
            out: None,
        })
    }
}

impl Workload for SparseIngest {
    fn items_per_round(&self) -> u64 {
        USERS
    }

    fn run_round(&mut self, index: u64, tracer: &Tracer) -> Result<(), String> {
        self.out = None;
        let seed = round_seed(self.seed, index);
        let traced = tracer.is_active();
        let registry = if traced {
            self.registry.clone()
        } else {
            Registry::disabled()
        };
        let before = registry.snapshot();
        let client =
            Client::new(self.mechanism.as_ref(), self.budget, DIMS).map_err(|e| e.to_string())?;
        let config = IngestConfig::new(1, BATCH).map_err(|e| e.to_string())?;
        let mut engine =
            IngestEngine::with_telemetry(DIMS, config, &registry).map_err(|e| e.to_string())?;
        let population = self.population;
        let fill = &self.fill;
        fill.seed_ns.store(0, Ordering::Relaxed);
        fill.client_ns.store(0, Ordering::Relaxed);

        tracer
            .span("protocol.ingest", || {
                engine.ingest_partitioned(0..USERS, |user, out| {
                    let value_of = |dim| user_value(population, user, dim);
                    if traced {
                        let started = Instant::now();
                        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(mix(user)));
                        let seeded = Instant::now();
                        client.perturb_lazy_into(value_of, &mut rng, out);
                        let client_ns = nanos(seeded.elapsed());
                        fill.seed_ns
                            .fetch_add(nanos(seeded - started), Ordering::Relaxed);
                        fill.client_ns.fetch_add(client_ns, Ordering::Relaxed);
                    } else {
                        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(mix(user)));
                        client.perturb_lazy_into(value_of, &mut rng, out);
                    }
                    Ok(())
                })
            })
            .map_err(|e| e.to_string())?;
        let ingest = tracer.last_closed();
        tracer.attach(
            ingest,
            "rand.seed",
            USERS,
            fill.seed_ns.load(Ordering::Relaxed),
        );
        tracer.attach(
            ingest,
            "protocol.client",
            USERS,
            fill.client_ns.load(Ordering::Relaxed),
        );

        let merged = tracer
            .span("protocol.merge", || engine.merged())
            .map_err(|e| e.to_string())?;
        let means = tracer
            .span("protocol.estimate", || merged.means())
            .map_err(|e| e.to_string())?;
        let hdr = &self.hdr;
        let model = &self.model;
        let recalibrated = tracer
            .span("core.recalibrate", || hdr.recalibrate(&means, model))
            .map_err(|e| e.to_string())?;
        if traced {
            self.telemetry.add(&before, &registry.snapshot());
        }
        self.out = Some(Output {
            counts: merged.counts(),
            means,
            recalibrated: recalibrated.enhanced_means,
        });
        Ok(())
    }

    fn check_round(&self) -> Result<u64, String> {
        let out = self.out.as_ref().ok_or("the round produced no output")?;
        check(
            out,
            &self.truth,
            self.predicted_mse,
            USERS * REPORTED as u64,
        )
    }

    fn layer_metrics(&self, layers: &Layers, rounds: usize) -> Vec<(&'static str, f64)> {
        let entries = (rounds as u64 * USERS * REPORTED as u64).max(1) as f64;
        let ingest_self = layers.get("protocol.ingest").map_or(0.0, |l| l.self_ns);
        vec![
            ("rand.seed.ns_per_user", per_call(layers, "rand.seed")),
            (
                "protocol.client.ns_per_user",
                per_call(layers, "protocol.client"),
            ),
            ("protocol.ingest.self_ns_per_entry", ingest_self / entries),
            ("protocol.ingest.route_attempts_per_report", 1.0),
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
                self_per_call(layers, "protocol.estimate") / 1e3,
            ),
            (
                "core.recalibrate.us_per_call",
                per_call(layers, "core.recalibrate") / 1e3,
            ),
            ("framework.model.ms_cold", self.cold_model_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_round() -> (Output, Vec<f64>) {
        let truth: Vec<f64> = (0..8).map(|j| population_mean(3, j)).collect();
        let means = truth
            .iter()
            .enumerate()
            .map(|(j, t)| t + if j % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let out = Output {
            counts: vec![5; 8],
            means,
            recalibrated: truth.clone(),
        };
        (out, truth)
    }

    #[test]
    fn a_clean_round_passes_and_a_corrupted_estimate_fails() {
        let (out, truth) = clean_round();
        assert!(check(&out, &truth, 0.01, 40).is_ok());
        let mut nan = out.clone();
        nan.means[3] = f64::NAN;
        assert!(check(&nan, &truth, 0.01, 40).is_err());
        let mut shifted = out.clone();
        shifted.means[0] += 5.0;
        assert!(check(&shifted, &truth, 0.01, 40).is_err());
        let mut lost = out;
        lost.counts[0] -= 1;
        assert!(check(&lost, &truth, 0.01, 40).is_err());
    }

    #[test]
    fn user_values_stay_in_the_domain_around_exact_means() {
        for dim in 0..64 {
            assert!(population_mean(9, dim).abs() <= 0.45);
            for user in 0..64 {
                assert!((-1.0..=1.0).contains(&user_value(9, user, dim)));
            }
        }
    }
}
