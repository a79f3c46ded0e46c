//! Validate a telemetry result file emitted by `million_user_ingest
//! --telemetry`: the CI smoke gate for the observability layer.
//!
//! ```text
//! cargo run --release -p hdldp-bench --bin check_telemetry_json -- \
//!     results/telemetry_million_user_ingest.json
//! ```
//!
//! Checks, per snapshot row: the JSON parses into the typed snapshot shape,
//! the ingest counters are present and consistent (reports > 0, exactly one
//! per-shard counter per shard summing to the total), the batch-flush and
//! merge latency histograms recorded events, and the phase-duration gauges
//! are positive. Two sampling identities must hold exactly: the flush
//! histogram times one flush in every `FLUSH_SAMPLE_EVERY`, so it counts
//! ⌈`ingest_batch_flushes_total` / `FLUSH_SAMPLE_EVERY`⌉ samples, and the
//! merge histogram times every merge, so it counts `ingest_merges_total`.
//! Exits non-zero with a diagnostic on the first violation.

use hdldp_bench::ShardTelemetryRow;
use hdldp_protocol::telemetry::FLUSH_SAMPLE_EVERY;

fn check(rows: &[ShardTelemetryRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("telemetry file contains no snapshot rows".into());
    }
    for row in rows {
        let shards = row.shards;
        let snapshot = &row.snapshot;
        let context = format!("row @ {shards} shard(s)");

        let reports = snapshot
            .counter("ingest_reports_total")
            .ok_or(format!("{context}: missing ingest_reports_total"))?;
        if reports == 0 {
            return Err(format!("{context}: ingest_reports_total is 0"));
        }

        let per_shard: Vec<_> = snapshot
            .counters
            .iter()
            .filter(|c| c.name.starts_with("ingest_shard") && c.name.ends_with("_reports_total"))
            .collect();
        if per_shard.len() != shards {
            return Err(format!(
                "{context}: expected {shards} per-shard counters, found {}",
                per_shard.len()
            ));
        }
        let shard_sum: u64 = per_shard.iter().map(|c| c.value).sum();
        if shard_sum != reports {
            return Err(format!(
                "{context}: per-shard counters sum to {shard_sum}, total is {reports}"
            ));
        }

        let flushes = snapshot
            .counter("ingest_batch_flushes_total")
            .ok_or(format!("{context}: missing ingest_batch_flushes_total"))?;
        let merges = snapshot
            .counter("ingest_merges_total")
            .ok_or(format!("{context}: missing ingest_merges_total"))?;
        for (name, expected) in [
            (
                "ingest_batch_flush_ns",
                flushes.div_ceil(FLUSH_SAMPLE_EVERY),
            ),
            ("ingest_merge_ns", merges),
        ] {
            let hist = snapshot
                .histogram(name)
                .ok_or(format!("{context}: missing histogram {name}"))?;
            if hist.count == 0 {
                return Err(format!("{context}: histogram {name} recorded nothing"));
            }
            if hist.count != expected {
                return Err(format!(
                    "{context}: histogram {name} counts {} samples, expected {expected}",
                    hist.count
                ));
            }
            if hist.max_ns < hist.p50_ns {
                return Err(format!("{context}: histogram {name} has max < p50"));
            }
        }

        for name in ["phase_ingest_seconds", "phase_estimate_seconds"] {
            let value = snapshot
                .gauge(name)
                .ok_or(format!("{context}: missing gauge {name}"))?;
            // NaN must fail the gate too, hence the explicit branch.
            if value.is_nan() || value <= 0.0 {
                return Err(format!("{context}: gauge {name} = {value}, expected > 0"));
            }
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: check_telemetry_json <telemetry-results.json>")?;
    let content = std::fs::read_to_string(&path)?;
    let rows: Vec<ShardTelemetryRow> = serde_json::from_str(&content)?;
    check(&rows).map_err(|reason| format!("{path}: {reason}"))?;
    println!(
        "{path}: OK ({} snapshot row(s), shard counts: {:?})",
        rows.len(),
        rows.iter().map(|r| r.shards).collect::<Vec<_>>()
    );
    Ok(())
}
