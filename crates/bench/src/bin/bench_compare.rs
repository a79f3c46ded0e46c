//! Diff two `BENCH_*.json` baseline files and gate on a regression threshold.
//!
//! ```text
//! # Turn raw bench output into a baseline file; given several runs, each id
//! # keeps the median of its readings:
//! cargo bench -p hdldp-bench --bench framework > bench1.log
//! cargo bench -p hdldp-bench --bench framework > bench2.log
//! cargo bench -p hdldp-bench --bench framework > bench3.log
//! cargo run -p hdldp-bench --bin bench_compare -- \
//!     collect --note "hot-path baseline" --out BENCH_hotpaths.json bench*.log
//!
//! # Gate a fresh run against the committed baseline (CI "Perf smoke"):
//! cargo run -p hdldp-bench --bin bench_compare -- \
//!     diff BENCH_hotpaths.json current.json --threshold 1.5x \
//!     --normalize "hdr4me_closed_form/l1/10000"
//! ```
//!
//! `diff` exits 0 when every shared id stays within the threshold, 1 when any
//! id regressed (or `--require-all` is set and an id disappeared), and 2 on
//! usage or parse errors. `--normalize <id>` divides both sides by that id's
//! own measurement first, cancelling uniform machine-speed differences so a
//! committed baseline can gate runs on different hardware.

use hdldp_bench::compare::{compare, median_per_id, parse_threshold, scrape_bench_json, BenchFile};
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench_compare collect [--note TEXT] [--rustc TEXT] [--out FILE] [LOG ...]
  bench_compare diff BASELINE CURRENT --threshold RATIO[x] [--normalize ID] [--require-all]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("collect") => run_collect(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(gate_passed) => {
            if gate_passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::from(2)
        }
    }
}

/// `collect`: scrape BENCH_JSON lines from log files (or stdin) into a
/// schema-complete baseline file with one row per id, the median of its
/// readings.
fn run_collect(args: &[String]) -> Result<bool, String> {
    let mut note = String::from("collected by bench_compare");
    let mut rustc_version: Option<String> = None;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--note" => note = take_value(&mut iter, "--note")?,
            "--rustc" => rustc_version = Some(take_value(&mut iter, "--rustc")?),
            "--out" | "-o" => out = Some(take_value(&mut iter, "--out")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            path => inputs.push(path.to_string()),
        }
    }

    let mut text = String::new();
    if inputs.is_empty() {
        use std::io::Read as _;
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
    } else {
        for path in &inputs {
            text.push_str(
                &std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
            );
            text.push('\n');
        }
    }
    let benchmarks = median_per_id(scrape_bench_json(&text)?);
    if benchmarks.is_empty() {
        return Err("no BENCH_JSON lines found in the input".into());
    }

    let file = BenchFile {
        note,
        rustc: rustc_version.unwrap_or_else(detect_rustc),
        cpu_count: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        benchmarks,
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| format!("serializing: {e:?}"))?;
    match out {
        Some(path) => {
            std::fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "bench_compare: wrote {} benchmark(s) to {path}",
                file.benchmarks.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(true)
}

/// `diff`: join two baseline files and gate on the threshold.
fn run_diff(args: &[String]) -> Result<bool, String> {
    let mut threshold: Option<f64> = None;
    let mut normalize: Option<String> = None;
    let mut require_all = false;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => threshold = Some(parse_threshold(&take_value(&mut iter, arg)?)?),
            "--normalize" => normalize = Some(take_value(&mut iter, arg)?),
            "--require-all" => require_all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            path => positional.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err(format!("diff needs exactly two files\n{USAGE}"));
    };
    let threshold = threshold.ok_or(format!("diff needs --threshold\n{USAGE}"))?;

    let baseline = BenchFile::parse(
        &std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading {baseline_path}: {e}"))?,
    )
    .map_err(|e| format!("{baseline_path}: {e}"))?;
    let current = BenchFile::parse(
        &std::fs::read_to_string(current_path)
            .map_err(|e| format!("reading {current_path}: {e}"))?,
    )
    .map_err(|e| format!("{current_path}: {e}"))?;

    let comparison = compare(&baseline, &current, normalize.as_deref())?;
    if let Some((base_cal, cur_cal)) = comparison.normalizer {
        println!(
            "normalizing by `{}`: baseline {base_cal:.1} ns, current {cur_cal:.1} ns (machine factor {:.3})",
            normalize.as_deref().unwrap_or_default(),
            cur_cal / base_cal
        );
    }
    println!(
        "{:<55} {:>14} {:>14} {:>8}  verdict",
        "id", "baseline ns", "current ns", "ratio"
    );
    for delta in &comparison.deltas {
        let verdict = if delta.ratio > threshold {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<55} {:>14.1} {:>14.1} {:>7.3}x  {verdict}",
            delta.id, delta.baseline_ns, delta.current_ns, delta.ratio
        );
    }
    for id in &comparison.missing {
        println!("{id:<55} missing from current run");
    }
    for id in &comparison.added {
        println!("{id:<55} new (no baseline)");
    }

    let regressions = comparison.regressions(threshold);
    let missing_breach = require_all && !comparison.missing.is_empty();
    if !regressions.is_empty() || missing_breach {
        eprintln!(
            "bench_compare: {} regression(s) above {threshold}x{}",
            regressions.len(),
            if missing_breach {
                format!(", {} required id(s) missing", comparison.missing.len())
            } else {
                String::new()
            }
        );
        return Ok(false);
    }
    println!(
        "bench_compare: {} benchmark(s) within {threshold}x of baseline",
        comparison.deltas.len()
    );
    Ok(true)
}

/// Pull the value following a flag.
fn take_value<'a>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<String, String> {
    iter.next()
        .cloned()
        .ok_or(format!("{flag} needs a value\n{USAGE}"))
}

/// Best-effort `rustc --version` for provenance; never fails the collect.
fn detect_rustc() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
