//! `heavy_hitters`: top-10 identification over k = 256 categories, where 10
//! planted heavy categories hold 80% of the mass Zipf-style, at ε = 4. Each
//! round runs `HeavyHitterDetector::identify` (HDR4ME-L1, z = 1, top-10)
//! once with GRR and once with OUE; the oracle pipeline runs its 4 shards on
//! one worker per CPU.
//!
//! Chosen because every report carries 256 entries and the numeric client
//! is never called, so batch push, flush, accumulate and the 4-shard walk
//! dominate the round, and a full batch (1 MiB) is about half of a 2 MiB L2
//! — where report validation and exact summation would cost.

use super::{all_finite, counter_delta, flush_p50_ns, histogram_delta, per_call, round_seed};
use super::{self_per_call, shard_counters, Digest, IngestTelemetry, Layers, Workload};
use crate::refclock::mix;
use crate::trace::{watch_workers, Tracer};
use hdldp_core::Regularization;
use hdldp_telemetry::{Counter, Registry};
use hdldp_workloads::{HeavyHitterConfig, HeavyHitterDetector, OracleKind, SelectionRule};

const USERS: usize = 50_000;
const CATEGORIES: usize = 256;
const HEAVY: usize = 10;
const HEAVY_MASS: f64 = 0.8;
const EPSILON: f64 = 4.0;
const TOP: usize = 10;
/// Shards of the oracle pipeline's ingest engine (its default).
pub const SHARDS: usize = 4;
/// Smallest top-10 recall a round may show.
const MIN_RECALL: f64 = 0.9;

/// A planted population: `HEAVY` categories spread over the domain share
/// `HEAVY_MASS` with weights `1/(i+1)`, the rest is uniform.
fn planted_population(seed: u64) -> Vec<usize> {
    let light = (1.0 - HEAVY_MASS) / (CATEGORIES - HEAVY) as f64;
    let zipf: f64 = (1..=HEAVY).map(|i| 1.0 / i as f64).sum();
    let mut weights = vec![light; CATEGORIES];
    for i in 0..HEAVY {
        weights[i * CATEGORIES / HEAVY] = HEAVY_MASS / ((i + 1) as f64 * zipf);
    }
    let mut cumulative = Vec::with_capacity(CATEGORIES);
    let mut total = 0.0;
    for w in weights {
        total += w;
        cumulative.push(total);
    }
    (0..USERS as u64)
        .map(|user| {
            let u = super::unit(seed ^ mix(user)) * total;
            cumulative.partition_point(|&c| c <= u).min(CATEGORIES - 1)
        })
        .collect()
}

/// The `TOP` most frequent categories of `values` (ties to the lower index).
fn true_top(values: &[usize]) -> Vec<usize> {
    let mut counts = vec![0u64; CATEGORIES];
    for &v in values {
        counts[v] += 1;
    }
    let mut order: Vec<usize> = (0..CATEGORIES).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    order.truncate(TOP);
    order
}

/// One oracle's outputs in a round.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutput {
    /// Entries the engine flushed during the run.
    pub entries: u64,
    /// Reports the engine flushed during the run.
    pub reports: u64,
    /// Selected categories.
    pub selected: Vec<usize>,
    /// Post-processed frequencies.
    pub frequencies: Vec<f64>,
}

/// Check one oracle's outputs: counts conserved, no NaN, recall ≥ 0.9.
pub fn check(out: &OracleOutput, truth: &[usize], users: u64) -> Result<(), String> {
    if out.reports != users || out.entries != users * CATEGORIES as u64 {
        return Err(format!(
            "{} reports / {} entries flushed, expected {users} / {}",
            out.reports,
            out.entries,
            users * CATEGORIES as u64
        ));
    }
    all_finite(&out.frequencies, "frequencies")?;
    let hits = out.selected.iter().filter(|s| truth.contains(s)).count();
    let recall = hits as f64 / truth.len().max(1) as f64;
    if recall < MIN_RECALL {
        return Err(format!("top-{TOP} recall {recall}"));
    }
    Ok(())
}

pub struct HeavyHitters {
    seed: u64,
    values: Vec<usize>,
    truth: Vec<usize>,
    registry: Registry,
    entries: Counter,
    reports: Counter,
    shards: Vec<Counter>,
    telemetry: IngestTelemetry,
    waits_ms: Vec<f64>,
    out: Vec<OracleOutput>,
}

impl HeavyHitters {
    /// Set up for `seed`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let values = planted_population(mix(seed ^ 0x4848));
        let truth = true_top(&values);
        // The engine's counters check that reports and entries are conserved,
        // so telemetry is on in every round, untraced ones included.
        let registry = Registry::new();
        Ok(Self {
            seed,
            values,
            truth,
            entries: registry.counter("ingest_entries_total"),
            reports: registry.counter("ingest_reports_total"),
            shards: shard_counters(&registry, SHARDS),
            registry,
            telemetry: IngestTelemetry::default(),
            waits_ms: Vec::new(),
            out: Vec::new(),
        })
    }
}

impl Workload for HeavyHitters {
    fn items_per_round(&self) -> u64 {
        2 * USERS as u64
    }

    fn run_round(&mut self, index: u64, tracer: &Tracer) -> Result<(), String> {
        self.out.clear();
        let seed = round_seed(self.seed, index);
        let traced = tracer.is_active();
        for (tag, kind) in OracleKind::ALL.into_iter().enumerate() {
            let detector = HeavyHitterDetector::with_telemetry(
                HeavyHitterConfig {
                    kind,
                    categories: CATEGORIES,
                    epsilon: EPSILON,
                    seed: mix(seed ^ tag as u64),
                    rule: SelectionRule::TopK(TOP),
                    recalibration: Some(Regularization::L1),
                    supremum_z: 1.0,
                },
                &self.registry,
            )
            .map_err(|e| e.to_string())?;
            let (identify, collect) = match kind {
                OracleKind::Grr => ("workloads.identify.grr", "workloads.collect.grr"),
                OracleKind::Oue => ("workloads.identify.oue", "workloads.collect.oue"),
            };
            let (entries, reports) = (self.entries.value(), self.reports.value());
            let report = if traced {
                let before = self.registry.snapshot();
                let values = &self.values;
                let (report, wait_ms) = watch_workers(&self.shards, super::hdldp_threads(), || {
                    tracer.span(identify, || detector.identify(values))
                });
                let node = tracer.last_closed();
                let after = self.registry.snapshot();
                let delta = |name| histogram_delta(&before, &after, name).1;
                tracer.attach(node, collect, 1, delta("workload_collect_ns"));
                let estimate =
                    tracer.attach(node, "workloads.estimate", 1, delta("workload_estimate_ns"));
                let merges = counter_delta(&before, &after, "ingest_merges_total");
                tracer.attach(estimate, "protocol.merge", merges, delta("ingest_merge_ns"));
                tracer.attach(
                    node,
                    "core.recalibrate",
                    1,
                    delta("workload_recalibrate_ns"),
                );
                self.telemetry.add(&before, &after);
                self.waits_ms.push(wait_ms);
                report
            } else {
                detector.identify(&self.values)
            }
            .map_err(|e| e.to_string())?;
            self.out.push(OracleOutput {
                entries: self.entries.value() - entries,
                reports: self.reports.value() - reports,
                selected: report.selected,
                frequencies: report.frequencies,
            });
        }
        Ok(())
    }

    fn check_round(&self) -> Result<u64, String> {
        if self.out.len() != OracleKind::ALL.len() {
            return Err("the round produced no output".into());
        }
        let mut digest = Digest::default();
        for out in &self.out {
            check(out, &self.truth, USERS as u64)?;
            for &s in &out.selected {
                digest.word(s as u64);
            }
            digest.floats(&out.frequencies);
        }
        Ok(digest.value())
    }

    fn layer_metrics(&self, layers: &Layers, rounds: usize) -> Vec<(&'static str, f64)> {
        let entries = (USERS * CATEGORIES) as f64;
        let waits = self.waits_ms.iter().sum::<f64>() / self.waits_ms.len().max(1) as f64;
        vec![
            (
                "workloads.collect.ns_per_entry.grr",
                per_call(layers, "workloads.collect.grr") / entries,
            ),
            (
                "workloads.collect.ns_per_entry.oue",
                per_call(layers, "workloads.collect.oue") / entries,
            ),
            (
                "protocol.ingest.self_ns_per_entry",
                self.telemetry.flush_ns_per_entry(),
            ),
            ("protocol.ingest.worker_wait_ms", waits),
            ("protocol.ingest.route_attempts_per_report", SHARDS as f64),
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
                self_per_call(layers, "workloads.estimate") / 1e3,
            ),
            (
                "core.recalibrate.us_per_call",
                per_call(layers, "core.recalibrate") / 1e3,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (OracleOutput, Vec<usize>) {
        let truth: Vec<usize> = (0..TOP).map(|i| i * 3).collect();
        let out = OracleOutput {
            entries: 20 * CATEGORIES as u64,
            reports: 20,
            selected: truth.clone(),
            frequencies: vec![1.0 / CATEGORIES as f64; CATEGORIES],
        };
        (out, truth)
    }

    #[test]
    fn a_clean_round_passes_and_corrupted_outputs_fail() {
        let (out, truth) = clean();
        assert!(check(&out, &truth, 20).is_ok());
        let mut nan = out.clone();
        nan.frequencies[7] = f64::NAN;
        assert!(check(&nan, &truth, 20).is_err());
        let mut missed = out.clone();
        missed.selected[0] = 1;
        missed.selected[1] = 2;
        assert!(check(&missed, &truth, 20).is_err());
        let mut lost = out;
        lost.entries -= 1;
        assert!(check(&lost, &truth, 20).is_err());
    }

    #[test]
    fn the_planted_heavies_are_the_true_top() {
        let values = planted_population(5);
        let top = true_top(&values);
        let mut planted: Vec<usize> = (0..HEAVY).map(|i| i * CATEGORIES / HEAVY).collect();
        let mut sorted = top.clone();
        sorted.sort_unstable();
        planted.sort_unstable();
        assert_eq!(sorted, planted);
        let heavy = values.iter().filter(|v| planted.contains(v)).count() as f64;
        assert!((heavy / USERS as f64 - HEAVY_MASS).abs() < 0.02);
    }
}
