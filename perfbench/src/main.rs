//! End-to-end benchmark of the hdldp workspace.
//!
//! ```text
//! perfbench --workload <sparse_ingest|heavy_hitters|figure_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! One process sets a workload up three times (reporting the median set-up
//! time), then runs closed-loop rounds for `--seconds`, checking every
//! round's outputs. Every round and every set-up is paired with a run of the
//! reference kernel (see `refclock`), and times are reported on that clock
//! with the raw wall-clock value beside them. With `--trace 0` the last line
//! holds the end-to-end metrics; with `--trace 1` rounds alternate between
//! untraced and traced, the last line holds the per-layer metrics, and the
//! spans are written to `--trace-out`.

mod refclock;
mod stats;
mod trace;
mod workloads;

use refclock::{to_reference, RefClock};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;
use workloads::{Kind, Workload};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Per-layer metrics with their units, as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 20] = [
    ("rand.seed.ns_per_user", "ns"),
    ("protocol.client.ns_per_user", "ns"),
    ("protocol.pipeline.ms_per_call", "ms"),
    ("protocol.pipeline.perturb_ns_per_user", "ns"),
    ("protocol.ingest.self_ns_per_entry", "ns"),
    ("protocol.ingest.worker_wait_ms", "ms"),
    ("protocol.ingest.route_attempts_per_report", "count"),
    ("protocol.ingest.flushes", "count"),
    ("protocol.ingest.flush_ns_p50", "ns"),
    ("protocol.merge.us_per_call", "us"),
    ("protocol.estimate.us_per_call", "us"),
    ("workloads.collect.ns_per_entry.grr", "ns"),
    ("workloads.collect.ns_per_entry.oue", "ns"),
    ("core.recalibrate.us_per_call", "us"),
    ("framework.model.ms_per_call", "ms"),
    ("framework.model.ms_cold", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("ref.ms_p50", "ms"),
    ("ref.drift_pct", "%"),
];

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<f64, String> {
        let text = value(flag).ok_or_else(|| format!("missing {flag}"))?;
        text.parse::<f64>()
            .map_err(|_| format!("{flag}: not a number: {text}"))
    };
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], got {seconds}"));
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
        trace_out: value("--trace-out"),
    })
}

/// One timed round.
struct Round {
    raw_ms: f64,
    ref_ms: f64,
    traced: bool,
}

impl Round {
    fn reference_ms(&self, nominal: f64) -> f64 {
        to_reference(self.raw_ms, self.ref_ms, nominal)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let threads = args.kind.threads();
    let clock = RefClock::new(threads, args.kind.reference_iterations());
    let nominal = clock.nominal_ms();
    let mut salt = args.seed;
    let mut measure_ref = || {
        salt = salt.wrapping_add(1);
        clock.measure(salt)
    };
    measure_ref();

    // Set-up, repeated; the last one is kept for the timed rounds.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let before = measure_ref();
        let started = Instant::now();
        let workload = args.kind.setup(args.seed)?;
        let raw_s = started.elapsed().as_secs_f64();
        let ref_ms = 0.5 * (before + measure_ref());
        setups.push((raw_s, ref_ms));
        prepared = Some(workload);
    }
    let mut workload = prepared.ok_or("no set-up ran")?;

    // Closed-loop rounds, each between two reference runs.
    let tracer = Tracer::new(args.trace);
    let mut rounds: Vec<Round> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut first_digest = None;
    let mut ref_before = measure_ref();
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < args.seconds || rounds.len() <= stats::TAIL_BEYOND {
        let index = rounds.len() as u64;
        let traced = args.trace && index % 2 == 1;
        tracer.set_active(traced);
        let started = Instant::now();
        let result = tracer.span("round", || workload.run_round(index, &tracer));
        let raw_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.set_active(false);
        match result.and_then(|()| workload.check_round()) {
            Ok(digest) if index == 0 => first_digest = Some(digest),
            Ok(_) => {}
            Err(e) => failures.push(format!("round {index}: {e}")),
        }
        let ref_after = measure_ref();
        rounds.push(Round {
            raw_ms,
            ref_ms: 0.5 * (ref_before + ref_after),
            traced,
        });
        ref_before = ref_after;
    }

    // The same seed must give the same outputs: rerun round 0 and compare.
    let rerun = workload
        .run_round(0, &tracer)
        .and_then(|()| workload.check_round());
    match (first_digest, rerun) {
        (Some(a), Ok(b)) if a == b => {}
        (a, b) => failures.push(format!("round 0 rerun: digest {a:x?} then {b:x?}")),
    }

    let attempted = rounds.len();
    let failed = failures.len().min(attempted);
    let correct = failures.is_empty();
    for failure in &failures {
        println!("FAILED {failure}");
    }

    let refs: Vec<f64> = rounds.iter().map(|r| r.ref_ms).collect();
    let ref_p50 = stats::median(&refs);
    let drift_pct = 100.0 * (stats::quantile(&refs, 0.9) - stats::quantile(&refs, 0.1)) / ref_p50;
    println!(
        "workload {} seed {} | {} threads, nproc {} | {} rounds, {} failed | {} items/round",
        args.name,
        args.seed,
        threads,
        workloads::hdldp_threads(),
        attempted,
        failed,
        workload.items_per_round()
    );
    println!(
        "reference: nominal {nominal:.3} ms, observed p50 {ref_p50:.3} ms, p10–p90 drift {drift_pct:.1}%"
    );
    println!("round 0 digest {:016x}", first_digest.unwrap_or(0));

    let metrics = if args.trace {
        per_layer(
            &args,
            &tracer,
            workload.as_ref(),
            &rounds,
            nominal,
            ref_p50,
            drift_pct,
        )?
    } else {
        end_to_end(
            workload.as_ref(),
            &rounds,
            &setups,
            nominal,
            failed,
            attempted,
        )
    };
    let unmeasured: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    for name in &unmeasured {
        println!("FAILED {name} is not a finite number");
    }
    let correct = correct && unmeasured.is_empty();
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// The end-to-end metrics, printed with raw wall-clock values beside them.
fn end_to_end(
    workload: &dyn Workload,
    rounds: &[Round],
    setups: &[(f64, f64)],
    nominal: f64,
    failed: usize,
    attempted: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let reference: Vec<f64> = rounds.iter().map(|r| r.reference_ms(nominal)).collect();
    let raw: Vec<f64> = rounds.iter().map(|r| r.raw_ms).collect();
    let p50 = stats::median(&reference);
    let raw_p50 = stats::median(&raw);
    let (tail, tail_pct) = stats::tail(&reference);
    let (raw_tail, _) = stats::tail(&raw);
    let items = workload.items_per_round() as f64;
    let setup_ref: Vec<f64> = setups
        .iter()
        .map(|&(s, r)| to_reference(s, r, nominal))
        .collect();
    let setup_raw: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let setup_refs: Vec<f64> = setups.iter().map(|&(_, r)| r).collect();
    let round_refs: Vec<f64> = rounds.iter().map(|r| r.ref_ms).collect();
    let rss = peak_rss_mib();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let ref_note = format!("ref p50 {:.3} ms", stats::median(&round_refs));
    println!(
        "items_per_s    {:>14.1} items/s  (raw {:.1}, {ref_note})",
        items / p50 * 1e3,
        items / raw_p50 * 1e3
    );
    println!("round_ms_p50   {p50:>14.4} ms       (raw {raw_p50:.4}, {ref_note})");
    println!(
        "round_ms_tail  {tail:>14.4} ms       at p{tail_pct:.1}, {} rounds, {} beyond (raw {raw_tail:.4}, {ref_note})",
        rounds.len(),
        stats::TAIL_BEYOND.min(rounds.len().saturating_sub(1)),
    );
    println!(
        "setup_s        {:>14.4} s        median of {} (raw {:.4}, ref p50 {:.3} ms)",
        stats::median(&setup_ref),
        setups.len(),
        stats::median(&setup_raw),
        stats::median(&setup_refs)
    );
    println!("peak_rss_mb    {rss:>14.2} MiB");
    println!("error_rate     {error_rate:>14} fraction ({failed}/{attempted} rounds failed)");
    vec![
        ("items_per_s", items / p50 * 1e3, "items/s"),
        ("round_ms_p50", p50, "ms"),
        ("round_ms_tail", tail, "ms"),
        ("setup_s", stats::median(&setup_ref), "s"),
        ("peak_rss_mb", rss, "MiB"),
    ]
}

/// The per-layer metrics of a traced run, with the self-time breakdown.
fn per_layer(
    args: &Args,
    tracer: &Tracer,
    workload: &dyn Workload,
    rounds: &[Round],
    nominal: f64,
    ref_p50: f64,
    drift_pct: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let median_of = |rs: &[&Round]| {
        stats::median(
            &rs.iter()
                .map(|r| r.reference_ms(nominal))
                .collect::<Vec<_>>(),
        )
    };
    let overhead_pct = 100.0 * (median_of(&traced) / median_of(&plain) - 1.0);
    let traced_ref = stats::median(&traced.iter().map(|r| r.ref_ms).collect::<Vec<_>>());
    let scale = nominal / traced_ref;

    let layers = tracer.layers();
    let round_ns = layers.get("round").map_or(0.0, |l| l.total_ns);
    let attributed: f64 = layers
        .iter()
        .filter(|(name, _)| **name != "round")
        .map(|(_, l)| l.self_ns)
        .sum();
    let coverage_pct = 100.0 * attributed / round_ns;
    println!(
        "self time per traced round ({} rounds, reference clock):",
        traced.len()
    );
    for (name, layer) in &layers {
        println!(
            "  {name:<28} {:>10.4} ms  {:>6.2}%  ({} calls)",
            layer.self_ns * scale / 1e6 / traced.len().max(1) as f64,
            100.0 * layer.self_ns / round_ns,
            layer.calls
        );
    }

    let mut measured = workload.layer_metrics(&layers, traced.len());
    measured.extend([
        ("trace.coverage_pct", coverage_pct),
        ("trace.overhead_pct", overhead_pct),
        ("ref.ms_p50", ref_p50),
        ("ref.drift_pct", drift_pct),
    ]);
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = measured.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let scaled = match (value, unit) {
            (Some(v), "ns" | "us" | "ms") if name != "ref.ms_p50" => Some(v * scale),
            (v, _) => v,
        };
        match scaled {
            Some(v) => println!("{name:<44} {v:>14.4} {unit}"),
            None => println!("{name:<44} {:>14} {unit} (not on this workload's path)", 0),
        }
        metrics.push((name, scaled.unwrap_or(0.0), unit));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }
    Ok(metrics)
}
