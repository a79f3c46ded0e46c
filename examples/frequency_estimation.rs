//! Frequency estimation over categorical data with histogram encoding and
//! HDR4ME re-calibration (Section V-C of the paper).
//!
//! ```text
//! cargo run -p hdldp-examples --example frequency_estimation
//! ```
//!
//! Scenario: an app vendor wants the distribution of answers to 15
//! multiple-choice diagnostic questions (8 options each) without learning any
//! individual's answers. Each user reports 3 of the 15 questions under ε-LDP.

use hdldp_core::Hdr4me;
use hdldp_data::CategoricalDataset;
use hdldp_math::stats;
use hdldp_mechanisms::MechanismKind;
use hdldp_protocol::{FrequencyPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let questions = 15;
    let options = 8;
    let mut rng = StdRng::seed_from_u64(2024);
    let data = CategoricalDataset::generate_zipf(30_000, vec![options; questions], &mut rng)?;
    println!(
        "survey: {} respondents, {questions} questions with {options} options each\n",
        data.users()
    );

    let epsilon = 2.0;
    let pipeline = FrequencyPipeline::new(
        MechanismKind::SquareWave,
        PipelineConfig::new(epsilon, 3, 5),
    )?;
    let estimate = pipeline.run(&data)?;
    println!(
        "collected with {} at eps = {epsilon} (per one-hot entry: {:.4})\n",
        pipeline.kind().name(),
        estimate.per_entry_epsilon
    );

    // Report question 0 in detail and the average MSE across all questions.
    let truth = &estimate.true_frequencies[0];
    let raw = &estimate.estimated[0];
    let enhanced = Hdr4me::l1().recalibrate_frequencies(&estimate, 0, pipeline.mechanism())?;
    println!("question 0 (first {options} options):");
    println!("  true frequencies:      {truth:.3?}");
    println!("  raw LDP estimate:      {raw:.3?}");
    println!("  HDR4ME-L1 (normalized): {:.3?}", enhanced.enhanced);

    let mut raw_mse = 0.0;
    let mut norm_mse = 0.0;
    let mut hdr_mse = 0.0;
    for q in 0..questions {
        let truth = &estimate.true_frequencies[q];
        raw_mse += stats::mse(&estimate.estimated[q], truth)?;
        norm_mse += stats::mse(&estimate.normalized(q)?, truth)?;
        let r = Hdr4me::l1().recalibrate_frequencies(&estimate, q, pipeline.mechanism())?;
        hdr_mse += stats::mse(&r.enhanced, truth)?;
    }
    let d = questions as f64;
    println!("\naverage frequency MSE over all questions:");
    println!("  raw estimate:        {:.6}", raw_mse / d);
    println!("  clip + renormalize:  {:.6}", norm_mse / d);
    println!("  HDR4ME-L1:           {:.6}", hdr_mse / d);
    Ok(())
}
