//! The three closed-loop workloads. Each round starts when the previous one
//! ends; a round's perturbation seed comes from the workload seed and the
//! round index, so no program cache can serve one round from another.

pub mod figure_sweep;
pub mod heavy_hitters;
pub mod sparse_ingest;

use crate::refclock::mix;
use crate::trace::{LayerTotals, Tracer};
use hdldp_telemetry::{Counter, Registry, TelemetrySnapshot};
use std::collections::BTreeMap;

/// Per-layer totals from the trace, by layer name.
pub type Layers = BTreeMap<&'static str, LayerTotals>;

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// Items (user reports collected into an estimate) per round.
    fn items_per_round(&self) -> u64;
    /// Run round `index`, keeping its outputs for [`Workload::check_round`].
    fn run_round(&mut self, index: u64, tracer: &Tracer) -> Result<(), String>;
    /// Check the last round's outputs; returns their digest.
    fn check_round(&self) -> Result<u64, String>;
    /// The per-layer metrics this workload measures, over `rounds` traced
    /// rounds; the others read 0 because the layer is not on its path.
    fn layer_metrics(&self, layers: &Layers, rounds: usize) -> Vec<(&'static str, f64)>;
}

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SparseIngest,
    HeavyHitters,
    FigureSweep,
}

impl Kind {
    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sparse_ingest" => Some(Self::SparseIngest),
            "heavy_hitters" => Some(Self::HeavyHitters),
            "figure_sweep" => Some(Self::FigureSweep),
            _ => None,
        }
    }

    /// Worker threads: one for the single-threaded baseline, otherwise as
    /// many as the program's parallel ingest runs (one per shard, at most
    /// one per CPU).
    pub fn threads(self) -> usize {
        match self {
            Self::SparseIngest => 1,
            Self::HeavyHitters => hdldp_threads().min(heavy_hitters::SHARDS),
            Self::FigureSweep => hdldp_threads(),
        }
    }

    /// Reference-kernel iterations per thread: about one round's worth, so
    /// that a round and the reference runs around it see the same host
    /// conditions.
    pub fn reference_iterations(self) -> u64 {
        match self {
            Self::SparseIngest => 64_000,
            Self::HeavyHitters => 160_000,
            Self::FigureSweep => 200_000,
        }
    }

    /// Build the workload's inputs and state for `seed`, then warm it up.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        let mut workload: Box<dyn Workload> = match self {
            Self::SparseIngest => Box::new(sparse_ingest::SparseIngest::new(seed)?),
            Self::HeavyHitters => Box::new(heavy_hitters::HeavyHitters::new(seed)?),
            Self::FigureSweep => Box::new(figure_sweep::FigureSweep::new(seed)?),
        };
        let idle = Tracer::new(false);
        for warm in 0..WARMUP_ROUNDS {
            workload.run_round(u64::MAX - warm, &idle)?;
            workload.check_round()?;
        }
        Ok(workload)
    }
}

/// Untimed rounds run at the end of set-up, on round indices no timed
/// round uses.
const WARMUP_ROUNDS: u64 = 2;

/// Worker threads the program's parallel paths use: one per CPU.
pub fn hdldp_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The perturbation seed of round `index`.
pub fn round_seed(seed: u64, index: u64) -> u64 {
    mix(seed ^ mix(index ^ 0x5EED_F00D))
}

/// A uniform draw in `[0, 1)` from a mixed 64-bit state.
pub fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Mean squared error of `estimate` against `truth`.
pub fn mse(estimate: &[f64], truth: &[f64]) -> f64 {
    let n = estimate.len().max(1) as f64;
    estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / n
}

/// `Err` naming `what` unless every value is finite.
pub fn all_finite(values: &[f64], what: &str) -> Result<(), String> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(format!("{what}[{i}] is {}", values[i])),
        None => Ok(()),
    }
}

/// FNV-1a digest over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Mix in one word.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Mix in the bit patterns of `values`.
    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Time per call of a layer, in ns (0 when it never ran).
pub fn per_call(layers: &Layers, name: &str) -> f64 {
    layers
        .get(name)
        .filter(|l| l.calls > 0)
        .map_or(0.0, |l| l.total_ns / l.calls as f64)
}

/// Self time of a layer per call, in `ns` (0 when it never ran).
pub fn self_per_call(layers: &Layers, name: &str) -> f64 {
    layers
        .get(name)
        .filter(|l| l.calls > 0)
        .map_or(0.0, |l| l.self_ns / l.calls as f64)
}

/// The report counters of a parallel ingest's shards in `registry`.
pub fn shard_counters(registry: &Registry, shards: usize) -> Vec<Counter> {
    (0..shards)
        .map(|i| registry.counter(&format!("ingest_shard{i:03}_reports_total")))
        .collect()
}

/// `(count, sum_ns)` of histogram `name` between two snapshots.
pub fn histogram_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
) -> (u64, u64) {
    let read = |s: &TelemetrySnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum_ns));
    let (c0, s0) = read(before);
    let (c1, s1) = read(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Change of counter `name` between two snapshots.
pub fn counter_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot, name: &str) -> u64 {
    let read = |s: &TelemetrySnapshot| s.counter(name).unwrap_or(0);
    read(after).saturating_sub(read(before))
}

/// The ingest engine's own telemetry summed over the traced rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestTelemetry {
    /// Batch flushes.
    pub flushes: u64,
    /// Entries flushed.
    pub entries: u64,
    /// Flushes the engine timed (it times one in eight).
    pub timed_flushes: u64,
    /// Summed time of the timed flushes.
    pub timed_flush_ns: u64,
}

impl IngestTelemetry {
    /// Add the engine telemetry recorded between two snapshots.
    pub fn add(&mut self, before: &TelemetrySnapshot, after: &TelemetrySnapshot) {
        self.flushes += counter_delta(before, after, "ingest_batch_flushes_total");
        self.entries += counter_delta(before, after, "ingest_entries_total");
        let (count, sum) = histogram_delta(before, after, "ingest_batch_flush_ns");
        self.timed_flushes += count;
        self.timed_flush_ns += sum;
    }

    /// Flush (accumulate) time per entry, scaled up from the timed flushes.
    pub fn flush_ns_per_entry(&self) -> f64 {
        if self.timed_flushes == 0 || self.entries == 0 {
            return 0.0;
        }
        let per_flush = self.timed_flush_ns as f64 / self.timed_flushes as f64;
        per_flush * self.flushes as f64 / self.entries as f64
    }
}

/// Median flush latency recorded in `registry`, in ns.
pub fn flush_p50_ns(registry: &Registry) -> f64 {
    registry
        .snapshot()
        .histogram("ingest_batch_flush_ns")
        .map_or(0.0, |h| h.p50_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_differ_by_round_and_repeat_by_seed() {
        assert_eq!(round_seed(1, 5), round_seed(1, 5));
        assert_ne!(round_seed(1, 5), round_seed(1, 6));
        assert_ne!(round_seed(1, 5), round_seed(2, 5));
    }

    #[test]
    fn digest_and_finiteness_checks() {
        let mut a = Digest::default();
        a.floats(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, 2.0 + f64::EPSILON * 2.0]);
        assert_ne!(a.value(), b.value());
        assert!(all_finite(&[1.0, 2.0], "x").is_ok());
        assert!(all_finite(&[1.0, f64::NAN], "x")
            .unwrap_err()
            .contains("x[1]"));
        assert_eq!(mse(&[1.0, 3.0], &[0.0, 1.0]), 2.5);
    }
}
