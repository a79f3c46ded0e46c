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
//! per-shard counter per shard summing to the total), the merge latency
//! histogram recorded events, and the phase-duration gauges are positive.
//! The merge histogram times every merge, so its sample count must equal
//! `ingest_merges_total` exactly. Exits non-zero with a diagnostic on the
//! first violation.

use hdldp_bench::ShardTelemetryRow;

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

        let merges = snapshot
            .counter("ingest_merges_total")
            .ok_or(format!("{context}: missing ingest_merges_total"))?;
        let hist = snapshot
            .histogram("ingest_merge_ns")
            .ok_or(format!("{context}: missing histogram ingest_merge_ns"))?;
        if hist.count == 0 {
            return Err(format!(
                "{context}: histogram ingest_merge_ns recorded nothing"
            ));
        }
        if hist.count != merges {
            return Err(format!(
                "{context}: histogram ingest_merge_ns counts {} samples, expected {merges}",
                hist.count
            ));
        }
        if hist.max_ns < hist.p50_ns {
            return Err(format!(
                "{context}: histogram ingest_merge_ns has max < p50"
            ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_telemetry::Registry;

    /// A row as `million_user_ingest --telemetry` writes it: 1,000 reports
    /// over 2 shards, one merge, and both phase gauges set.
    fn row() -> ShardTelemetryRow {
        let registry = Registry::new();
        registry.counter("ingest_reports_total").add(1_000);
        registry.counter("ingest_entries_total").add(8_000);
        registry.counter("ingest_shard000_reports_total").add(493);
        registry.counter("ingest_shard001_reports_total").add(507);
        registry.counter("ingest_merges_total").inc();
        registry.histogram("ingest_merge_ns").record_ns(1_500);
        registry.gauge("phase_ingest_seconds").set(0.25);
        registry.gauge("phase_estimate_seconds").set(0.01);
        ShardTelemetryRow {
            shards: 2,
            snapshot: registry.snapshot(),
        }
    }

    /// The value of counter `name` in `row`.
    fn counter<'a>(row: &'a mut ShardTelemetryRow, name: &str) -> &'a mut u64 {
        let counters = &mut row.snapshot.counters;
        &mut counters.iter_mut().find(|c| c.name == name).unwrap().value
    }

    /// `check` on `row()` after `edit`, expecting a failure that mentions
    /// `reason`.
    fn fails(edit: impl FnOnce(&mut ShardTelemetryRow), reason: &str) {
        let mut bad = row();
        edit(&mut bad);
        let err = check(&[bad]).unwrap_err();
        assert!(err.contains(reason), "{err}");
    }

    #[test]
    fn a_well_formed_row_passes() {
        assert_eq!(check(&[row()]), Ok(()));
        assert!(check(&[]).is_err());
    }

    #[test]
    fn per_shard_counters_off_by_one_fail() {
        for delta in [1, u64::MAX] {
            fails(
                |row| {
                    let shard = counter(row, "ingest_shard000_reports_total");
                    *shard = shard.wrapping_add(delta);
                },
                "per-shard counters sum to",
            );
        }
        fails(|row| row.shards = 3, "expected 3 per-shard counters");
    }

    #[test]
    fn a_merge_histogram_that_misses_a_merge_fails() {
        fails(
            |row| *counter(row, "ingest_merges_total") = 2,
            "counts 1 samples, expected 2",
        );
    }

    #[test]
    fn a_nan_phase_gauge_fails() {
        fails(
            |row| row.snapshot.gauges[0].value = f64::NAN,
            "gauge phase_estimate_seconds = NaN",
        );
    }
}
