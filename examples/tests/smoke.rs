//! Smoke tests that compile and run the examples end-to-end, so the examples
//! cannot silently rot.
//!
//! Each example file is included as a module via `#[path]`; its `main` is then
//! an ordinary function returning `Result`, which the tests run to completion.

#[path = "../quickstart.rs"]
mod quickstart;

#[path = "../frequency_estimation.rs"]
mod frequency_estimation;

#[path = "../mechanism_benchmark.rs"]
mod mechanism_benchmark;

#[path = "../survey_recalibration.rs"]
mod survey_recalibration;

#[path = "../telemetry_mean_estimation.rs"]
mod telemetry_mean_estimation;

#[test]
fn quickstart_runs_to_completion() {
    quickstart::main().expect("quickstart example failed");
}

#[test]
fn frequency_estimation_runs_to_completion() {
    frequency_estimation::main().expect("frequency_estimation example failed");
}

#[test]
fn mechanism_benchmark_runs_to_completion() {
    mechanism_benchmark::main().expect("mechanism_benchmark example failed");
}

#[test]
fn survey_recalibration_runs_to_completion() {
    survey_recalibration::main().expect("survey_recalibration example failed");
}

#[test]
fn telemetry_mean_estimation_runs_to_completion() {
    telemetry_mean_estimation::main().expect("telemetry_mean_estimation example failed");
}
