//! Benchmarking LDP mechanisms without experiments (Section IV-C).
//!
//! The collector specifies the deviation supremum `ξ` she is willing to
//! tolerate in a dimension; the framework computes, for every candidate
//! mechanism, the probability that the deviation stays within `ξ`. The
//! mechanism with the highest probability wins *for that tolerance* — the
//! paper's key observation is that the winner changes with `ξ` (Piecewise wins
//! tight tolerances because it is unbiased; Square Wave wins loose tolerances
//! because its variance is far smaller).

use crate::{DeviationApproximation, FrameworkError};
use hdldp_data::DiscreteValueDistribution;
use hdldp_mechanisms::Mechanism;
use serde::Serialize;

/// One row of a benchmark: a mechanism's probabilities at each supremum.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchmarkRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Deviation mean `δ_j` predicted by the framework.
    pub delta: f64,
    /// Deviation variance `σ_j²` predicted by the framework.
    pub variance: f64,
    /// `(ξ, probability the deviation stays within ξ)` pairs.
    pub probabilities: Vec<(f64, f64)>,
}

/// A one-dimension benchmark of several mechanisms at several suprema.
#[derive(Debug, Clone, Default)]
pub struct MechanismBenchmark {
    rows: Vec<BenchmarkRow>,
    suprema: Vec<f64>,
}

impl MechanismBenchmark {
    /// Create a benchmark over the given suprema `ξ` values.
    ///
    /// # Errors
    /// Returns [`FrameworkError::InvalidParameter`] when `suprema` is empty or
    /// contains non-positive values.
    pub fn new(suprema: Vec<f64>) -> crate::Result<Self> {
        if suprema.is_empty() {
            return Err(FrameworkError::InvalidParameter {
                name: "suprema",
                reason: "need at least one supremum".into(),
            });
        }
        if suprema.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
            return Err(FrameworkError::InvalidParameter {
                name: "suprema",
                reason: "every supremum must be positive and finite".into(),
            });
        }
        Ok(Self {
            rows: Vec::new(),
            suprema,
        })
    }

    /// The suprema this benchmark evaluates.
    pub fn suprema(&self) -> &[f64] {
        &self.suprema
    }

    /// Add a mechanism to the benchmark, with the value distribution and
    /// expected report count of the dimension under study.
    ///
    /// # Errors
    /// Propagates [`DeviationApproximation::for_dimension`] errors.
    pub fn add_mechanism(
        &mut self,
        mechanism: &dyn Mechanism,
        values: &DiscreteValueDistribution,
        reports: f64,
    ) -> crate::Result<&mut Self> {
        let deviation = DeviationApproximation::for_dimension(mechanism, values, reports)?;
        let probabilities = self
            .suprema
            .iter()
            .map(|&xi| (xi, deviation.prob_within(xi)))
            .collect();
        self.rows.push(BenchmarkRow {
            mechanism: mechanism.name().to_string(),
            delta: deviation.delta(),
            variance: deviation.variance(),
            probabilities,
        });
        Ok(self)
    }

    /// The benchmark rows added so far.
    pub fn rows(&self) -> &[BenchmarkRow] {
        &self.rows
    }

    /// The winning mechanism (highest probability) at supremum index `idx`,
    /// or `None` when no mechanism has been added / the index is invalid.
    #[expect(
        clippy::indexing_slicing,
        reason = "every row holds one probability per supremum, and idx < suprema.len() is checked first"
    )]
    pub fn winner_at(&self, idx: usize) -> Option<&BenchmarkRow> {
        if idx >= self.suprema.len() {
            return None;
        }
        // Probabilities are finite by construction; total_cmp orders them
        // identically to partial_cmp and cannot panic.
        self.rows
            .iter()
            .max_by(|a, b| a.probabilities[idx].1.total_cmp(&b.probabilities[idx].1))
    }

    /// Render the benchmark as an aligned text table (the shape of Table II).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<14}", "xi"));
        for xi in &self.suprema {
            out.push_str(&format!("{xi:>12.4}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<14}", row.mechanism));
            for &(_, p) in &row.probabilities {
                out.push_str(&format!("{p:>12.3e}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_mechanisms::{LaplaceMechanism, PiecewiseMechanism, SquareWaveMechanism};

    #[test]
    fn construction_validates_suprema() {
        assert!(MechanismBenchmark::new(vec![]).is_err());
        assert!(MechanismBenchmark::new(vec![0.0]).is_err());
        assert!(MechanismBenchmark::new(vec![-0.1]).is_err());
        assert!(MechanismBenchmark::new(vec![0.01, 0.1]).is_ok());
    }

    #[test]
    fn table2_shape_piecewise_vs_square_wave() {
        // The paper's Table II setting: ε/m = 0.001, r = 10,000, case-study values.
        let values = DiscreteValueDistribution::case_study();
        let mut bench = MechanismBenchmark::new(vec![0.001, 0.01, 0.05, 0.1]).unwrap();
        let pm = PiecewiseMechanism::new(0.001).unwrap();
        let sw = SquareWaveMechanism::new(0.001).unwrap();
        bench.add_mechanism(&pm, &values, 10_000.0).unwrap();
        bench.add_mechanism(&sw, &values, 10_000.0).unwrap();

        let rows = bench.rows();
        assert_eq!(rows.len(), 2);
        let pm_row = &rows[0];
        let sw_row = &rows[1];

        // Piecewise wins the tight tolerances (unbiased), Square Wave wins the
        // loose ones (tiny variance) — the crossover the paper highlights.
        assert!(
            pm_row.probabilities[0].1 > sw_row.probabilities[0].1,
            "xi = 0.001"
        );
        assert!(
            pm_row.probabilities[1].1 > sw_row.probabilities[1].1,
            "xi = 0.01"
        );
        assert!(
            sw_row.probabilities[2].1 > pm_row.probabilities[2].1,
            "xi = 0.05"
        );
        assert!(
            sw_row.probabilities[3].1 > pm_row.probabilities[3].1,
            "xi = 0.1"
        );
        assert_eq!(bench.winner_at(0).unwrap().mechanism, "piecewise");
        assert_eq!(bench.winner_at(3).unwrap().mechanism, "square_wave");
        assert!(bench.winner_at(4).is_none());

        // Order-of-magnitude agreement with Table II for Piecewise
        // (3.46e-5, 3.46e-4, 0.002, 0.004).
        assert!((pm_row.probabilities[0].1 - 3.46e-5).abs() < 1e-6);
        assert!((pm_row.probabilities[1].1 - 3.46e-4).abs() < 1e-5);
        // 0.00346 here; the paper rounds the xi = 0.1 entry up to 0.004.
        assert!((pm_row.probabilities[3].1 - 0.0035).abs() < 2e-4);
        // Square Wave saturates at 1.0 for xi = 0.1.
        assert!((sw_row.probabilities[3].1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn probabilities_are_monotone_in_the_supremum() {
        let values = DiscreteValueDistribution::case_study();
        let mut bench = MechanismBenchmark::new(vec![0.01, 0.05, 0.2, 1.0, 5.0]).unwrap();
        let lap = LaplaceMechanism::new(0.01).unwrap();
        bench.add_mechanism(&lap, &values, 1000.0).unwrap();
        let row = &bench.rows()[0];
        let mut prev = 0.0;
        for &(_, p) in &row.probabilities {
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn table_rendering_contains_all_mechanisms() {
        let values = DiscreteValueDistribution::case_study();
        let mut bench = MechanismBenchmark::new(vec![0.05]).unwrap();
        bench
            .add_mechanism(&LaplaceMechanism::new(0.5).unwrap(), &values, 100.0)
            .unwrap();
        bench
            .add_mechanism(&PiecewiseMechanism::new(0.5).unwrap(), &values, 100.0)
            .unwrap();
        let table = bench.to_table();
        assert!(table.contains("laplace"));
        assert!(table.contains("piecewise"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn empty_benchmark_has_no_winner() {
        let bench = MechanismBenchmark::new(vec![0.1]).unwrap();
        assert!(bench.winner_at(0).is_none());
        assert_eq!(bench.rows().len(), 0);
        assert_eq!(bench.suprema(), &[0.1]);
    }
}
