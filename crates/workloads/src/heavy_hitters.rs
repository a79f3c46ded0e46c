//! Heavy-hitter identification over frequency-oracle estimates.
//!
//! The detector runs the full categorical pipeline ([`OraclePipeline`]),
//! optionally re-calibrates the estimated frequencies with HDR4ME
//! ([`Hdr4me::recalibrate_frequencies`]) — shrinking the noise floor before
//! any selection happens — and then selects heavy categories by top-`k` or by
//! a frequency threshold. Utility is reported as precision/recall/F1 against
//! the empirical ground truth.

use crate::collect::{recalibrator, OraclePipeline};
use crate::{OracleKind, Result, WorkloadError};
use hdldp_core::{Hdr4me, Regularization};
use hdldp_protocol::FrequencyEstimate;
use hdldp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How heavy categories are selected from the frequency estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionRule {
    /// The `k` categories with the largest estimated frequencies.
    TopK(usize),
    /// Every category whose estimated frequency is at least the threshold.
    Threshold(f64),
}

/// Configuration of a heavy-hitter run.
#[derive(Debug, Clone, Copy)]
pub struct HeavyHitterConfig {
    /// The frequency-oracle family.
    pub kind: OracleKind,
    /// Number of categories `k` in the domain.
    pub categories: usize,
    /// Report-level privacy budget `ε`.
    pub epsilon: f64,
    /// Run seed for the deterministic per-user perturbation.
    pub seed: u64,
    /// The selection rule.
    pub rule: SelectionRule,
    /// `Some(reg)` re-calibrates the estimates with HDR4ME before selection;
    /// `None` selects on the raw (clip + renormalize) estimates.
    pub recalibration: Option<Regularization>,
    /// The deviation-supremum quantile `z` for the HDR4ME `λ*` weights
    /// (`λ = |δ| + z·σ`). Frequency vectors are sparse, so the default of 1
    /// thresholds at one estimator standard deviation; HDR4ME's own default
    /// of 3 is tuned for dense numeric means. Ignored when `recalibration`
    /// is `None`.
    pub supremum_z: f64,
}

/// The outcome of one heavy-hitter identification run.
#[derive(Debug, Clone)]
pub struct HeavyHitterReport {
    /// Selected categories, ordered by estimated frequency (descending).
    pub selected: Vec<usize>,
    /// The post-processed frequencies the selection ran on (a distribution).
    pub frequencies: Vec<f64>,
    /// The raw pipeline estimate (pre-selection, pre-consistency).
    pub estimate: FrequencyEstimate,
}

/// Precision/recall of a selected set against a ground-truth set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// `|selected ∩ truth| / |selected|` (1.0 for an empty selection).
    pub precision: f64,
    /// `|selected ∩ truth| / |truth|` (1.0 for an empty truth set).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
}

/// Compare a selected category set against ground truth.
pub fn precision_recall(selected: &[usize], truth: &[usize]) -> PrecisionRecall {
    let hits = selected.iter().filter(|s| truth.contains(s)).count() as f64;
    let precision = if selected.is_empty() {
        1.0
    } else {
        hits / selected.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits / truth.len() as f64
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    PrecisionRecall {
        precision,
        recall,
        f1,
    }
}

/// The empirical top-`k` categories of a value sample (ties broken towards
/// the lower category index), for use as selection ground truth.
pub fn empirical_top_k(values: &[usize], categories: usize, k: usize) -> Vec<usize> {
    let mut counts = vec![0u64; categories];
    for &v in values {
        if let Some(c) = counts.get_mut(v) {
            *c += 1;
        }
    }
    let mut ranked: Vec<(usize, u64)> = counts.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().take(k).map(|(j, _)| j).collect()
}

/// Generate a planted heavy-hitter sample: `heavy` categories share
/// `heavy_mass` of the probability Zipf-style (weight `1/(i+1)`), the rest is
/// uniform over the remaining categories. The heavy categories are spread
/// across the domain (`i * categories / heavy`) so selection cannot succeed
/// by index bias.
///
/// # Errors
/// Returns [`WorkloadError::InvalidConfig`] when `heavy` is zero or not less
/// than `categories`, or `heavy_mass` is outside `(0, 1)`.
pub fn planted_dataset(
    users: usize,
    categories: usize,
    heavy: usize,
    heavy_mass: f64,
    seed: u64,
) -> Result<(Vec<usize>, Vec<usize>)> {
    if heavy == 0 || heavy >= categories {
        return Err(WorkloadError::InvalidConfig {
            name: "heavy",
            reason: format!("need 0 < heavy < categories, got {heavy} of {categories}"),
        });
    }
    if !(heavy_mass > 0.0 && heavy_mass < 1.0) {
        return Err(WorkloadError::InvalidConfig {
            name: "heavy_mass",
            reason: format!("must lie in (0, 1), got {heavy_mass}"),
        });
    }
    let heavy_ids: Vec<usize> = (0..heavy).map(|i| i * categories / heavy).collect();
    let mut weights = vec![(1.0 - heavy_mass) / (categories - heavy) as f64; categories];
    let zipf_total: f64 = (0..heavy).map(|i| 1.0 / (i + 1) as f64).sum();
    for (i, &id) in heavy_ids.iter().enumerate() {
        // id = i * categories / heavy <= (heavy-1) * categories / heavy,
        // which is < categories; get_mut documents the bound without a
        // panicking index.
        if let Some(w) = weights.get_mut(id) {
            *w = heavy_mass / ((i + 1) as f64 * zipf_total);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..users)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for (j, w) in weights.iter().enumerate() {
                acc += w;
                if u < acc {
                    return j;
                }
            }
            categories - 1
        })
        .collect();
    Ok((values, heavy_ids))
}

/// Heavy-hitter identification over one categorical dimension.
#[derive(Debug, Clone)]
pub struct HeavyHitterDetector {
    config: HeavyHitterConfig,
    pipeline: OraclePipeline,
    hdr: Option<Hdr4me>,
}

impl HeavyHitterDetector {
    /// Create a detector with telemetry disabled.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] for invalid oracle parameters
    /// or a degenerate selection rule (`TopK(0)`, non-finite threshold), and
    /// [`WorkloadError::Core`] when `supremum_z` is not positive and finite.
    pub fn new(config: HeavyHitterConfig) -> Result<Self> {
        Self::with_telemetry(config, &Registry::disabled())
    }

    /// Create a detector that records runtime metrics into `registry`.
    ///
    /// # Errors
    /// Same conditions as [`HeavyHitterDetector::new`].
    pub fn with_telemetry(config: HeavyHitterConfig, registry: &Registry) -> Result<Self> {
        match config.rule {
            SelectionRule::TopK(0) => {
                return Err(WorkloadError::InvalidConfig {
                    name: "rule",
                    reason: "top-k selection needs k >= 1".into(),
                })
            }
            SelectionRule::Threshold(t) if !t.is_finite() => {
                return Err(WorkloadError::InvalidConfig {
                    name: "rule",
                    reason: format!("threshold must be finite, got {t}"),
                })
            }
            _ => {}
        }
        let hdr = recalibrator(config.recalibration, config.supremum_z)?;
        let pipeline = OraclePipeline::with_telemetry(
            config.kind,
            config.categories,
            config.epsilon,
            config.seed,
            registry,
        )?;
        Ok(Self {
            config,
            pipeline,
            hdr,
        })
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &HeavyHitterConfig {
        &self.config
    }

    /// Run the pipeline on `values` and identify the heavy categories.
    ///
    /// # Errors
    /// Propagates pipeline errors and HDR4ME re-calibration errors.
    #[expect(
        clippy::indexing_slicing,
        reason = "the ranking indexes frequencies only with j from 0..frequencies.len()"
    )]
    pub fn identify(&self, values: &[usize]) -> Result<HeavyHitterReport> {
        let estimate = self.pipeline.run(values)?;
        let frequencies = self
            .pipeline
            .recalibrate_or_normalize(&estimate, self.hdr.as_ref())?;

        let mut order: Vec<usize> = (0..frequencies.len()).collect();
        // Post-processed frequencies are finite; total_cmp gives the same
        // descending order without a panicking unwrap on the comparison.
        order.sort_by(|&a, &b| frequencies[b].total_cmp(&frequencies[a]).then(a.cmp(&b)));
        let selected = match self.config.rule {
            SelectionRule::TopK(k) => {
                let mut top = order;
                top.truncate(k.min(frequencies.len()));
                top
            }
            SelectionRule::Threshold(t) => {
                order.into_iter().filter(|&j| frequencies[j] >= t).collect()
            }
        };
        Ok(HeavyHitterReport {
            selected,
            frequencies,
            estimate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_recall_counts_overlap() {
        let pr = precision_recall(&[1, 2, 3, 4], &[2, 4, 6, 8]);
        assert!((pr.precision - 0.5).abs() < 1e-12);
        assert!((pr.recall - 0.5).abs() < 1e-12);
        assert!((pr.f1 - 0.5).abs() < 1e-12);
        let empty = precision_recall(&[], &[]);
        assert_eq!(empty.precision, 1.0);
        assert_eq!(empty.recall, 1.0);
        let miss = precision_recall(&[1], &[2]);
        assert_eq!(miss.f1, 0.0);
    }

    #[test]
    fn planted_dataset_concentrates_mass_on_heavies() {
        let (values, heavy_ids) = planted_dataset(30_000, 64, 8, 0.8, 3).unwrap();
        assert_eq!(heavy_ids.len(), 8);
        let heavy_count = values.iter().filter(|v| heavy_ids.contains(v)).count();
        let share = heavy_count as f64 / values.len() as f64;
        assert!((share - 0.8).abs() < 0.02, "heavy share = {share}");
        // Heavies are spread over the domain, not clustered at the front.
        assert!(heavy_ids.iter().any(|&id| id >= 32));
        assert!(planted_dataset(100, 10, 0, 0.8, 1).is_err());
        assert!(planted_dataset(100, 10, 10, 0.8, 1).is_err());
        assert!(planted_dataset(100, 10, 3, 1.5, 1).is_err());
    }

    #[test]
    fn empirical_top_k_matches_planted_heavies() {
        let (values, heavy_ids) = planted_dataset(50_000, 32, 5, 0.85, 11).unwrap();
        let top = empirical_top_k(&values, 32, 5);
        let pr = precision_recall(&top, &heavy_ids);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn config_validation_rejects_degenerate_rules() {
        let base = HeavyHitterConfig {
            kind: OracleKind::Grr,
            categories: 16,
            epsilon: 1.0,
            seed: 1,
            rule: SelectionRule::TopK(0),
            recalibration: None,
            supremum_z: 1.0,
        };
        assert!(HeavyHitterDetector::new(base).is_err());
        let bad_threshold = HeavyHitterConfig {
            rule: SelectionRule::Threshold(f64::NAN),
            ..base
        };
        assert!(HeavyHitterDetector::new(bad_threshold).is_err());
        // A bad z is rejected even when nothing is re-calibrated.
        let bad_z = HeavyHitterConfig {
            rule: SelectionRule::TopK(3),
            supremum_z: f64::NAN,
            ..base
        };
        assert!(matches!(
            HeavyHitterDetector::new(bad_z),
            Err(WorkloadError::Core(_))
        ));
    }

    #[test]
    fn identifies_planted_heavies_at_moderate_scale() {
        let (values, heavy_ids) = planted_dataset(40_000, 32, 5, 0.85, 19).unwrap();
        for kind in OracleKind::ALL {
            for recalibration in [None, Some(Regularization::L1)] {
                let detector = HeavyHitterDetector::new(HeavyHitterConfig {
                    kind,
                    categories: 32,
                    epsilon: 4.0,
                    seed: 77,
                    rule: SelectionRule::TopK(5),
                    recalibration,
                    supremum_z: 1.0,
                })
                .unwrap();
                let report = detector.identify(&values).unwrap();
                assert_eq!(report.selected.len(), 5);
                let pr = precision_recall(&report.selected, &heavy_ids);
                assert!(
                    pr.recall >= 0.8,
                    "{kind:?} recal={recalibration:?}: recall {}",
                    pr.recall
                );
            }
        }
    }

    #[test]
    fn threshold_rule_selects_by_frequency_floor() {
        let (values, _) = planted_dataset(20_000, 16, 2, 0.7, 23).unwrap();
        let detector = HeavyHitterDetector::new(HeavyHitterConfig {
            kind: OracleKind::Oue,
            categories: 16,
            epsilon: 4.0,
            seed: 5,
            rule: SelectionRule::Threshold(0.15),
            recalibration: Some(Regularization::L2),
            supremum_z: 1.0,
        })
        .unwrap();
        let report = detector.identify(&values).unwrap();
        assert!(!report.selected.is_empty());
        for &j in &report.selected {
            assert!(report.frequencies[j] >= 0.15);
        }
        // Selected set is ordered by frequency, descending.
        for pair in report.selected.windows(2) {
            assert!(report.frequencies[pair[0]] >= report.frequencies[pair[1]]);
        }
    }
}
