//! End-to-end sharded ingest at population scale: simulate 1M–10M clients
//! streaming perturbed reports into the sharded ingest engine and report
//! throughput (reports/sec) alongside the estimate's MSE.
//!
//! ```text
//! cargo run --release -p hdldp-bench --bin million_user_ingest
//! cargo run --release -p hdldp-bench --bin million_user_ingest -- --full      # 10M users
//! cargo run --release -p hdldp-bench --bin million_user_ingest -- \
//!     --users 2000000 --shards 16 --dims 512 --m 16 --epsilon 2.0 --mechanism pm
//! cargo run --release -p hdldp-bench --bin million_user_ingest -- --telemetry # metrics
//! ```
//!
//! With `--telemetry`, each run records into an `hdldp_telemetry::Registry`
//! (report and entry counters, per-shard report counters, the merge latency
//! histogram, phase-duration gauges); the per-run snapshots are printed as
//! tables and written to `results/telemetry_million_user_ingest.json`.
//!
//! This is the ROADMAP item-1 driver: the collection protocol of Section
//! III-B run at the user counts the paper's setting assumes, with the client
//! fleet simulated lazily (only sampled dimensions are ever generated) so no
//! dataset is materialized. The run sweeps shard counts to show how ingest
//! scales, then writes every row to `results/million_user_ingest.json`.

use hdldp_bench::{scale::arg_value, write_json_results};
use hdldp_bench::{
    simulate_ingest_with, ExperimentScale, IngestSimConfig, ShardTelemetryRow, TextTable,
};
use hdldp_mechanisms::MechanismKind;
use hdldp_telemetry::Registry;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = ExperimentScale::from_args(args.clone());
    let telemetry = args.iter().any(|a| a == "--telemetry");

    let users: u64 = match arg_value(&args, "--users") {
        Some(v) => v.parse()?,
        None => scale.pick(10_000_000, 1_000_000),
    };
    let mut config = IngestSimConfig::for_users(users);
    if let Some(v) = arg_value(&args, "--dims") {
        config.dims = v.parse()?;
    }
    if let Some(v) = arg_value(&args, "--m") {
        config.reported_dims = v.parse()?;
    }
    if let Some(v) = arg_value(&args, "--epsilon") {
        config.total_epsilon = v.parse()?;
    }
    if let Some(v) = arg_value(&args, "--mechanism") {
        config.mechanism = MechanismKind::parse(&v)
            .ok_or_else(|| format!("unknown mechanism `{v}` (try: laplace, pm, hm, sw, duchi)"))?;
    }
    let shard_counts: Vec<usize> = match arg_value(&args, "--shards") {
        Some(v) => vec![v.parse()?],
        None => {
            let threads = rayon::current_num_threads().max(1);
            // Sweep 1 shard (the single-loop reference) up to 2x the worker
            // count, deduplicated and sorted.
            let mut counts = vec![1, threads, threads * 2];
            counts.sort_unstable();
            counts.dedup();
            counts
        }
    };

    println!(
        "million-user sharded ingest — {} users x {} dims, m = {}, eps = {}, {} [{}]",
        config.users,
        config.dims,
        config.reported_dims,
        config.total_epsilon,
        config.mechanism.name(),
        scale.label(),
    );
    println!();

    let mut table = TextTable::new(vec![
        "shards",
        "ingest (s)",
        "estimate (s)",
        "reports/sec",
        "entries/sec",
        "MSE",
        "max |err|",
        "shard load (min..max)",
    ]);
    let mut rows = Vec::new();
    let mut telemetry_rows = Vec::new();
    for &shards in &shard_counts {
        config.shards = shards;
        // A fresh registry per shard count, so per-shard counters never mix
        // between sweep configurations.
        let registry = if telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let summary = simulate_ingest_with(&config, &registry)?;
        table.push_row(vec![
            format!("{shards}"),
            format!("{:.2}", summary.ingest_secs),
            format!("{:.2}", summary.estimate_secs),
            format!("{:.0}", summary.reports_per_sec),
            format!("{:.0}", summary.entries_per_sec),
            format!("{:.6}", summary.mse),
            format!("{:.4}", summary.max_abs_error),
            format!("{}..{}", summary.min_shard_load, summary.max_shard_load),
        ]);
        rows.push(summary);
        if telemetry {
            let snapshot = registry.snapshot();
            println!("telemetry @ {shards} shard(s):");
            println!("{}", snapshot.render_table());
            telemetry_rows.push(ShardTelemetryRow { shards, snapshot });
        }
    }
    println!("{}", table.render());

    let path = write_json_results("million_user_ingest", &rows)?;
    println!("results written to {}", path.display());
    if telemetry {
        let path = write_json_results("telemetry_million_user_ingest", &telemetry_rows)?;
        println!("telemetry written to {}", path.display());
    }
    Ok(())
}
