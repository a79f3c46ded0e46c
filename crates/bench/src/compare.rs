//! Machine-checked comparison of two `BENCH_*.json` baseline files.
//!
//! The committed baselines record the vendored criterion shim's best-batch
//! mean ns/iter per benchmark id. This module implements the comparison
//! protocol behind the `bench_compare` binary and CI's "Perf smoke" gate:
//!
//! 1. **Collect** — scrape the `BENCH_JSON {...}` lines one or more bench
//!    runs print ([`scrape_bench_json`]) and keep one row per id, the median
//!    of its readings ([`median_per_id`]), as a [`BenchFile`].
//! 2. **Diff** — join baseline and current records by id ([`compare`]) and
//!    compute the per-id slowdown ratio `current_ns / baseline_ns`.
//! 3. **Gate** — any ratio above the threshold (e.g. `1.5x`) is a regression
//!    ([`Comparison::regressions`]); the binary exits non-zero.
//!
//! Absolute ns are machine-dependent, so cross-machine gating normalizes both
//! sides by a calibration benchmark id first (`--normalize`): each benchmark's
//! time is divided by the calibration benchmark's time *from the same file*,
//! which cancels uniform machine-speed differences while preserving relative
//! regressions.

use serde::{Deserialize, Serialize};

/// One benchmark measurement: the shim's best-batch mean ns/iter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark id, `group/function/parameter`.
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
}

/// A committed `BENCH_*.json` file: provenance plus measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Free-form provenance note.
    pub note: String,
    /// `rustc --version` of the toolchain that produced the numbers.
    pub rustc: String,
    /// Logical CPU count of the measuring machine.
    pub cpu_count: u64,
    /// The measurements.
    pub benchmarks: Vec<BenchRecord>,
}

impl BenchFile {
    /// Parse a `BENCH_*.json` document.
    ///
    /// # Errors
    /// Returns a description of the JSON or schema violation.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid BENCH json: {e:?}"))
    }

    /// The `mean_ns` recorded for `id`, if present.
    pub fn lookup(&self, id: &str) -> Option<f64> {
        self.benchmarks
            .iter()
            .find(|b| b.id == id)
            .map(|b| b.mean_ns)
    }
}

/// Scrape the `BENCH_JSON {"id":...,"mean_ns":...}` lines out of raw bench
/// output. Non-matching lines are ignored; a line that starts the marker but
/// fails to parse is an error (it means the output format drifted).
///
/// # Errors
/// Returns a description of the malformed line.
pub fn scrape_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for line in text.lines() {
        let Some(json) = line.trim_start().strip_prefix("BENCH_JSON ") else {
            continue;
        };
        let record: BenchRecord = serde_json::from_str(json)
            .map_err(|e| format!("malformed BENCH_JSON line `{line}`: {e:?}"))?;
        records.push(record);
    }
    Ok(records)
}

/// Fold repeated readings of an id (several runs collected together) into
/// one record per id holding their median, ids in first-seen order. An even
/// number of readings gives the mean of the middle two.
pub fn median_per_id(records: Vec<BenchRecord>) -> Vec<BenchRecord> {
    let mut readings: Vec<(String, Vec<f64>)> = Vec::new();
    for record in records {
        match readings.iter_mut().find(|(id, _)| *id == record.id) {
            Some((_, values)) => values.push(record.mean_ns),
            None => readings.push((record.id, vec![record.mean_ns])),
        }
    }
    readings
        .into_iter()
        .map(|(id, mut values)| {
            values.sort_by(f64::total_cmp);
            let mid = values.len() / 2;
            let mean_ns = if values.len() % 2 == 1 {
                values[mid]
            } else {
                0.5 * (values[mid - 1] + values[mid])
            };
            BenchRecord { id, mean_ns }
        })
        .collect()
}

/// Parse a regression threshold like `1.5x` (trailing `x` optional) into the
/// maximum tolerated `current/baseline` ratio.
///
/// # Errors
/// Rejects non-numeric input and ratios below 1 (a gate that fails on
/// measurements *faster* than baseline is a misconfiguration).
pub fn parse_threshold(text: &str) -> Result<f64, String> {
    let numeric = text.strip_suffix(['x', 'X']).unwrap_or(text);
    let ratio: f64 = numeric
        .parse()
        .map_err(|_| format!("invalid threshold `{text}` (expected e.g. `1.5x`)"))?;
    if !(ratio.is_finite() && ratio >= 1.0) {
        return Err(format!("threshold must be a finite ratio >= 1, got {text}"));
    }
    Ok(ratio)
}

/// The per-id join of a baseline and a current measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Benchmark id present in both files.
    pub id: String,
    /// Baseline mean ns/iter.
    pub baseline_ns: f64,
    /// Current mean ns/iter.
    pub current_ns: f64,
    /// Slowdown ratio `current / baseline`, after normalization if requested.
    /// Above 1 means the current run is slower.
    pub ratio: f64,
}

/// Result of joining two [`BenchFile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Ids present in both files, in baseline order.
    pub deltas: Vec<Delta>,
    /// Ids in the baseline with no current measurement.
    pub missing: Vec<String>,
    /// Ids measured now that the baseline does not know.
    pub added: Vec<String>,
    /// `(baseline_ns, current_ns)` of the calibration benchmark, when
    /// normalization was requested.
    pub normalizer: Option<(f64, f64)>,
}

impl Comparison {
    /// The deltas whose slowdown ratio exceeds `threshold`.
    pub fn regressions(&self, threshold: f64) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.ratio > threshold).collect()
    }
}

/// Join `baseline` and `current` by benchmark id.
///
/// With `normalize_id`, each side's measurements are first divided by that
/// id's measurement from the *same* file, cancelling uniform machine-speed
/// differences; the calibration id itself is excluded from the deltas (its
/// normalized ratio is 1 by construction).
///
/// # Errors
/// Returns an error when a requested calibration id is absent from either
/// file or measured at a non-positive time, or when a joined baseline entry
/// is non-positive (a ratio against it is meaningless).
pub fn compare(
    baseline: &BenchFile,
    current: &BenchFile,
    normalize_id: Option<&str>,
) -> Result<Comparison, String> {
    let normalizer = match normalize_id {
        None => None,
        Some(id) => {
            let base = baseline
                .lookup(id)
                .ok_or(format!("calibration id `{id}` missing from baseline"))?;
            let cur = current
                .lookup(id)
                .ok_or(format!("calibration id `{id}` missing from current run"))?;
            if !(base.is_finite() && base > 0.0 && cur.is_finite() && cur > 0.0) {
                return Err(format!(
                    "calibration id `{id}` has non-positive time ({base} vs {cur})"
                ));
            }
            Some((base, cur))
        }
    };
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for record in &baseline.benchmarks {
        if normalize_id == Some(record.id.as_str()) {
            continue;
        }
        let Some(current_ns) = current.lookup(&record.id) else {
            missing.push(record.id.clone());
            continue;
        };
        if !(record.mean_ns.is_finite() && record.mean_ns > 0.0) {
            return Err(format!(
                "baseline id `{}` has non-positive mean_ns {}",
                record.id, record.mean_ns
            ));
        }
        let ratio = match normalizer {
            None => current_ns / record.mean_ns,
            Some((base_cal, cur_cal)) => (current_ns / cur_cal) / (record.mean_ns / base_cal),
        };
        deltas.push(Delta {
            id: record.id.clone(),
            baseline_ns: record.mean_ns,
            current_ns,
            ratio,
        });
    }
    let added = current
        .benchmarks
        .iter()
        .filter(|b| baseline.lookup(&b.id).is_none() && normalize_id != Some(b.id.as_str()))
        .map(|b| b.id.clone())
        .collect();
    Ok(Comparison {
        deltas,
        missing,
        added,
        normalizer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pairs: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            note: "test".into(),
            rustc: "rustc test".into(),
            cpu_count: 1,
            benchmarks: pairs
                .iter()
                .map(|&(id, mean_ns)| BenchRecord {
                    id: id.into(),
                    mean_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn threshold_parsing_accepts_ratio_with_optional_suffix() {
        assert_eq!(parse_threshold("1.5x").unwrap(), 1.5);
        assert_eq!(parse_threshold("2X").unwrap(), 2.0);
        assert_eq!(parse_threshold("1").unwrap(), 1.0);
        assert!(parse_threshold("fast").is_err());
        assert!(parse_threshold("0.5x").is_err());
        assert!(parse_threshold("-2x").is_err());
        assert!(parse_threshold("infx").is_err());
    }

    #[test]
    fn scrape_extracts_marker_lines_and_rejects_drift() {
        let log = "compiling...\nbench: a 12 ns/iter\nBENCH_JSON {\"id\":\"a/1\",\"mean_ns\":12.5}\nnoise\n  BENCH_JSON {\"id\":\"b/2\",\"mean_ns\":3.0}\n";
        let records = scrape_bench_json(log).unwrap();
        assert_eq!(
            records,
            vec![
                BenchRecord {
                    id: "a/1".into(),
                    mean_ns: 12.5
                },
                BenchRecord {
                    id: "b/2".into(),
                    mean_ns: 3.0
                },
            ]
        );
        assert!(scrape_bench_json("BENCH_JSON {broken").is_err());
    }

    #[test]
    fn median_per_id_keeps_one_row_per_id_in_first_seen_order() {
        let record = |id: &str, mean_ns: f64| BenchRecord {
            id: id.into(),
            mean_ns,
        };
        // Three runs of `b` and `a`, a fourth run that only saw `a`, and an
        // id seen once.
        let readings = vec![
            record("b", 30.0),
            record("a", 5.0),
            record("b", 10.0),
            record("a", 9.0),
            record("c", 2.0),
            record("b", 20.0),
            record("a", 1.0),
            record("a", 7.0),
        ];
        assert_eq!(
            median_per_id(readings),
            vec![record("b", 20.0), record("a", 6.0), record("c", 2.0)]
        );
        assert!(median_per_id(Vec::new()).is_empty());
    }

    #[test]
    fn synthetic_regression_breaches_the_gate() {
        // The acceptance scenario: one benchmark got 2x slower; a 1.5x gate
        // must flag exactly it and nothing else.
        let baseline = file(&[("model/1000", 1000.0), ("pgd/1000", 500.0)]);
        let regressed = file(&[("model/1000", 2000.0), ("pgd/1000", 510.0)]);
        let comparison = compare(&baseline, &regressed, None).unwrap();
        let threshold = parse_threshold("1.5x").unwrap();
        let regressions = comparison.regressions(threshold);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "model/1000");
        assert!((regressions[0].ratio - 2.0).abs() < 1e-12);
        // An identical run passes.
        let clean = compare(&baseline, &baseline.clone(), None).unwrap();
        assert!(clean.regressions(threshold).is_empty());
    }

    #[test]
    fn normalization_cancels_uniform_machine_speed() {
        // The "current" machine is uniformly 3x slower; only `model/1000`
        // genuinely regressed (6x raw = 2x normalized).
        let baseline = file(&[
            ("calibrate", 100.0),
            ("model/1000", 1000.0),
            ("pgd/1000", 500.0),
        ]);
        let slower_machine = file(&[
            ("calibrate", 300.0),
            ("model/1000", 6000.0),
            ("pgd/1000", 1500.0),
        ]);
        let raw = compare(&baseline, &slower_machine, None).unwrap();
        assert_eq!(raw.regressions(1.5).len(), 3, "raw ratios all breach");
        let normalized = compare(&baseline, &slower_machine, Some("calibrate")).unwrap();
        assert_eq!(normalized.normalizer, Some((100.0, 300.0)));
        let regressions = normalized.regressions(1.5);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "model/1000");
        assert!((regressions[0].ratio - 2.0).abs() < 1e-12);
        // The calibration id itself is not a delta.
        assert!(normalized.deltas.iter().all(|d| d.id != "calibrate"));
        // A missing calibration id is an error, not a silent pass.
        assert!(compare(&baseline, &slower_machine, Some("nope")).is_err());
    }

    #[test]
    fn missing_and_added_ids_are_reported() {
        let baseline = file(&[("kept", 10.0), ("removed", 20.0)]);
        let current = file(&[("kept", 11.0), ("brand_new", 5.0)]);
        let comparison = compare(&baseline, &current, None).unwrap();
        assert_eq!(comparison.deltas.len(), 1);
        assert_eq!(comparison.missing, vec!["removed".to_string()]);
        assert_eq!(comparison.added, vec!["brand_new".to_string()]);
    }

    #[test]
    fn bench_file_round_trips_through_json() {
        let original = file(&[("a/1", 12.5)]);
        let text = serde_json::to_string_pretty(&original).unwrap();
        let parsed = BenchFile::parse(&text).unwrap();
        assert_eq!(parsed, original);
        assert!(BenchFile::parse("{}").is_err());
        assert!(BenchFile::parse("not json").is_err());
    }

    #[test]
    fn committed_baseline_files_parse() {
        // Guard the schema against drift: every committed BENCH_*.json must
        // stay machine-readable by this module.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let parsed = BenchFile::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!parsed.benchmarks.is_empty(), "{name} has no benchmarks");
                checked += 1;
            }
        }
        assert!(
            checked >= 4,
            "expected the committed baselines, saw {checked}"
        );
    }

    #[test]
    fn non_positive_baseline_entries_are_rejected() {
        let baseline = file(&[("a", 0.0)]);
        let current = file(&[("a", 1.0)]);
        assert!(compare(&baseline, &current, None).is_err());
    }
}
