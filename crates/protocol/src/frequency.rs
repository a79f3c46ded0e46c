//! End-to-end frequency estimation over categorical data (Section V-C).
//!
//! A categorical value in a dimension with `v_j` categories is histogram-
//! encoded into a `v_j`-entry one-hot vector; every entry of a reported
//! dimension is perturbed with budget `ε/(2m)` (changing the categorical value
//! flips at most two entries, hence the factor 2 keeps the whole report
//! ε-LDP); and the collector's per-entry means are exactly the estimated
//! category frequencies. This reduces `d`-dimensional frequency estimation to
//! `d` high-dimensional mean-estimation problems, to which both the analytical
//! framework and HDR4ME apply unchanged.

use crate::client::sample_dims_into;
use crate::{
    user_seed, BudgetSplit, IngestConfig, IngestEngine, PipelineConfig, ProtocolError, Report,
};
use hdldp_data::CategoricalDataset;
use hdldp_mechanisms::{
    DuchiMechanism, HybridMechanism, LaplaceMechanism, Mechanism, MechanismKind,
    PiecewiseMechanism, Rescaled, ScdfMechanism, SquareWaveMechanism, StaircaseMechanism,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The outcome of one frequency-estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyEstimate {
    /// Raw estimated frequencies per dimension (may fall outside `[0, 1]`
    /// because of perturbation noise).
    pub estimated: Vec<Vec<f64>>,
    /// Ground-truth frequencies per dimension.
    pub true_frequencies: Vec<Vec<f64>>,
    /// Number of reports received per dimension.
    pub report_counts: Vec<u64>,
    /// The per-entry budget `ε/(2m)` that was used.
    pub per_entry_epsilon: f64,
}

impl FrequencyEstimate {
    /// Post-processed frequencies for one dimension: [`normalize_frequencies`]
    /// of its raw estimate.
    ///
    /// # Errors
    /// Returns [`ProtocolError::DimensionOutOfRange`] when `dim` has no
    /// estimate.
    pub fn normalized(&self, dim: usize) -> crate::Result<Vec<f64>> {
        Ok(normalize_frequencies(column(&self.estimated, dim)?))
    }

    /// Utility metrics for one dimension's raw estimate.
    ///
    /// # Errors
    /// Returns [`ProtocolError::DimensionOutOfRange`] when `dim` has no
    /// estimate or no true frequencies, and propagates
    /// [`crate::UtilityReport::compare`] errors.
    pub fn utility(&self, dim: usize) -> crate::Result<crate::UtilityReport> {
        crate::UtilityReport::compare(
            column(&self.estimated, dim)?,
            column(&self.true_frequencies, dim)?,
        )
    }
}

/// Clip frequencies into `[0, 1]` and renormalize them to sum to 1, the
/// standard consistency step.
///
/// NaN entries are treated as 0 (infinities clip to the interval ends like
/// any other out-of-range value), and a column whose clipped mass is zero
/// falls back to the uniform distribution, so the result is always a valid
/// distribution, never NaN.
pub fn normalize_frequencies(raw: &[f64]) -> Vec<f64> {
    let clipped: Vec<f64> = raw
        .iter()
        .map(|f| if f.is_nan() { 0.0 } else { f.clamp(0.0, 1.0) })
        .collect();
    let total: f64 = clipped.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / raw.len() as f64; raw.len()];
    }
    clipped.iter().map(|f| f / total).collect()
}

/// Dimension `dim` of per-dimension `columns`.
fn column(columns: &[Vec<f64>], dim: usize) -> crate::Result<&[f64]> {
    columns
        .get(dim)
        .map(Vec::as_slice)
        .ok_or(ProtocolError::DimensionOutOfRange {
            dimension: dim,
            dims: columns.len(),
        })
}

/// Build a mechanism of the given kind on the `[0, 1]` input domain of
/// one-hot entries, with the given per-entry budget: Square Wave is native
/// there, and every other kind is transported from `[-1, 1]` by [`Rescaled`].
fn build_unit_mechanism(kind: MechanismKind, epsilon: f64) -> crate::Result<Box<dyn Mechanism>> {
    fn unit<M: Mechanism + 'static>(native: M) -> crate::Result<Box<dyn Mechanism>> {
        Ok(Box::new(Rescaled::new(native, 0.0, 1.0)?))
    }
    match kind {
        MechanismKind::SquareWave => Ok(Box::new(SquareWaveMechanism::new(epsilon)?)),
        MechanismKind::Laplace => unit(LaplaceMechanism::new(epsilon)?),
        MechanismKind::Scdf => unit(ScdfMechanism::new(epsilon)?),
        MechanismKind::Staircase => unit(StaircaseMechanism::new(epsilon)?),
        MechanismKind::Duchi => unit(DuchiMechanism::new(epsilon)?),
        MechanismKind::Piecewise => unit(PiecewiseMechanism::new(epsilon)?),
        MechanismKind::Hybrid => unit(HybridMechanism::new(epsilon)?),
    }
}

/// End-to-end frequency estimation pipeline for one mechanism.
pub struct FrequencyPipeline {
    mechanism: Box<dyn Mechanism>,
    kind: MechanismKind,
    config: PipelineConfig,
}

impl FrequencyPipeline {
    /// Build a pipeline; the mechanism is instantiated on the `[0, 1]` entry
    /// domain with the per-entry budget `ε/(2m)`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] for an invalid budget split and
    /// propagates mechanism construction errors.
    pub fn new(kind: MechanismKind, config: PipelineConfig) -> crate::Result<Self> {
        let budget = BudgetSplit::new(config.total_epsilon, config.reported_dims)?;
        let mechanism = build_unit_mechanism(kind, budget.per_frequency_entry())?;
        Ok(Self {
            mechanism,
            kind,
            config,
        })
    }

    /// The mechanism kind this pipeline perturbs with.
    pub fn kind(&self) -> MechanismKind {
        self.kind
    }

    /// The per-entry mechanism in use.
    pub fn mechanism(&self) -> &dyn Mechanism {
        self.mechanism.as_ref()
    }

    /// Run the full collection over a categorical dataset.
    ///
    /// The one-hot entries of every dimension share one [`IngestEngine`]
    /// over a flat `(dimension, category)` index: dimension `j` owns entries
    /// `offsets[j]..offsets[j + 1]`, so the engine's merged means are the
    /// category frequencies, and a report's `v_j` entries all count towards
    /// the `r_j` read at `offsets[j]`. At `m = d` the one-hot blocks cover
    /// every flat index in order, so each report is sent dense (its values
    /// alone); below `m = d` it is sent as named entries. The engine runs on
    /// [`IngestConfig::PINNED`], so the estimate's bits do not follow the
    /// host's CPU count.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `m` exceeds the number of
    /// categorical dimensions and [`ProtocolError::EmptyDimension`], naming
    /// the categorical dimension, when a dimension received no reports.
    pub fn run(&self, data: &CategoricalDataset) -> crate::Result<FrequencyEstimate> {
        let dims = data.dims();
        let m = self.config.reported_dims;
        if m > dims {
            return Err(ProtocolError::InvalidConfig {
                name: "reported_dims",
                reason: format!("cannot report {m} of {dims} categorical dimensions"),
            });
        }
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(data.categories().iter().scan(0, |end, &c| {
                *end += c;
                Some(*end)
            }))
            .collect();
        let flat_dims = offsets.last().copied().unwrap_or(0);

        let seed = self.config.seed;
        let mechanism = self.mechanism.as_ref();
        let mut engine = IngestEngine::new(flat_dims, IngestConfig::PINNED)?;
        engine.ingest_partitioned(0..data.users() as u64, |user, out| {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
            sample_dims_into(&mut rng, dims, m, |_| 0.0, out);
            expand_one_hot(out, &offsets, |j| {
                data.value(user as usize, j).map_err(ProtocolError::from)
            })?;
            // One call perturbs the report's values in order, drawing what
            // one `perturb` per value would.
            mechanism.perturb_values(&mut out.values, &mut rng);
            Ok(())
        })?;

        let merged = engine.merged()?;
        let (sums, counts) = (merged.sums(), merged.counts());
        let mut estimated = Vec::with_capacity(dims);
        let mut true_frequencies = Vec::with_capacity(dims);
        let mut report_counts = Vec::with_capacity(dims);
        for (j, (&lo, &hi)) in offsets.iter().zip(offsets.iter().skip(1)).enumerate() {
            // Every report of dimension j counts once in each of its entries.
            let count = counts.get(lo).copied().unwrap_or(0);
            if count == 0 {
                return Err(ProtocolError::EmptyDimension { dimension: j });
            }
            let column = sums.get(lo..hi).unwrap_or_default();
            estimated.push(column.iter().map(|sum| sum / count as f64).collect());
            true_frequencies.push(data.true_frequencies(j).map_err(ProtocolError::from)?);
            report_counts.push(count);
        }

        Ok(FrequencyEstimate {
            estimated,
            true_frequencies,
            report_counts,
            per_entry_epsilon: self.mechanism.epsilon(),
        })
    }
}

/// Replace the sampled categorical dimensions in `report` by their one-hot
/// blocks over the flat index, in sample order: dimension `j` becomes
/// the entries `offsets[j]..offsets[j + 1]`, `1.0` at `category(j)` and `0.0`
/// elsewhere.
///
/// A dense sample (every categorical dimension, in order) expands to blocks
/// that cover every flat index in order, so the report stays dense: its
/// values alone. A named sample expands in place, both columns back to
/// front: every dimension has at least two categories, so the `k`-th block
/// starts at or after position `k`, and each sampled dimension is read
/// before its block can overwrite it.
fn expand_one_hot(
    report: &mut Report,
    offsets: &[usize],
    category: impl Fn(usize) -> crate::Result<usize>,
) -> crate::Result<()> {
    let block = |j: usize| match offsets.get(j..j + 2) {
        Some(&[lo, hi]) => lo..hi,
        _ => 0..0,
    };
    // Entry `e` of the block starting at `lo`, for category `value`.
    let bit = |e: usize, lo: usize, value: usize| if e - lo == value { 1.0 } else { 0.0 };
    if report.dims.is_empty() {
        let sampled = report.values.len();
        report.values.clear();
        for j in 0..sampled {
            let (flat, value) = (block(j), category(j)?);
            let lo = flat.start;
            report.values.extend(flat.map(|e| bit(e, lo, value)));
        }
        return Ok(());
    }
    let sampled = report.dims.len();
    let width: usize = report.dims.iter().map(|&j| block(j).len()).sum();
    report.dims.resize(width, 0);
    report.values.resize(width, 0.0);
    let mut end = width;
    for k in (0..sampled).rev() {
        let Some(&j) = report.dims.get(k) else {
            continue;
        };
        let (flat, value) = (block(j), category(j)?);
        let lo = flat.start;
        end -= flat.len();
        let span = end..end + flat.len();
        let (Some(dims), Some(values)) = (
            report.dims.get_mut(span.clone()),
            report.values.get_mut(span),
        ) else {
            continue;
        };
        for ((dim, entry), e) in dims.iter_mut().zip(values.iter_mut()).zip(flat) {
            *dim = e;
            *entry = bit(e, lo, value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(users: usize) -> CategoricalDataset {
        CategoricalDataset::generate_zipf(users, vec![4, 3], &mut StdRng::seed_from_u64(21))
            .unwrap()
    }

    #[test]
    fn construction_and_budget_split() {
        let p = FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(4.0, 2, 0))
            .unwrap();
        assert_eq!(p.kind(), MechanismKind::Piecewise);
        // per entry budget = eps / (2m) = 1.
        assert!((p.mechanism().epsilon() - 1.0).abs() < 1e-12);
        assert_eq!(p.mechanism().input_domain(), (0.0, 1.0));
        assert!(
            FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(0.0, 2, 0))
                .is_err()
        );
    }

    #[test]
    fn unit_mechanism_builders_cover_every_kind() {
        for kind in MechanismKind::ALL {
            let m = build_unit_mechanism(kind, 0.5).unwrap();
            assert_eq!(m.input_domain(), (0.0, 1.0), "{kind:?}");
            assert!((m.epsilon() - 0.5).abs() < 1e-12, "{kind:?}");
            if let Some(limit) = m.bound().limit() {
                let (lo, hi) = m.output_support();
                assert_eq!(limit, lo.abs().max(hi.abs()), "{kind:?}");
            }
        }
    }

    #[test]
    fn rejects_reporting_more_dims_than_available() {
        let p =
            FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 5, 0)).unwrap();
        assert!(p.run(&dataset(100)).is_err());
    }

    #[test]
    fn generous_budget_recovers_frequencies() {
        let data = dataset(4_000);
        let p = FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(200.0, 2, 3))
            .unwrap();
        let est = p.run(&data).unwrap();
        for dim in 0..2 {
            let utility = est.utility(dim).unwrap();
            assert!(utility.mse < 1e-3, "dim {dim}: mse = {}", utility.mse);
            // Normalized estimate sums to one.
            let total: f64 = est.normalized(dim).unwrap().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn report_counts_sum_to_n_times_m() {
        let data = dataset(500);
        let p =
            FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 1, 9)).unwrap();
        let est = p.run(&data).unwrap();
        assert_eq!(est.report_counts.iter().sum::<u64>(), 500);
        assert_eq!(est.estimated.len(), 2);
        assert_eq!(est.estimated[0].len(), 4);
        assert_eq!(est.estimated[1].len(), 3);
        assert!((est.per_entry_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_improves_or_matches_raw_estimate() {
        let data = dataset(2_000);
        let p = FrequencyPipeline::new(MechanismKind::SquareWave, PipelineConfig::new(2.0, 2, 5))
            .unwrap();
        let est = p.run(&data).unwrap();
        for dim in 0..2 {
            let raw = est.utility(dim).unwrap().mse;
            let normalized = est.normalized(dim).unwrap();
            let norm = crate::UtilityReport::compare(&normalized, &est.true_frequencies[dim])
                .unwrap()
                .mse;
            // Clipping + renormalizing should not make things dramatically worse.
            assert!(
                norm <= raw * 2.0 + 1e-6,
                "dim {dim}: raw {raw}, norm {norm}"
            );
        }
    }

    #[test]
    fn normalized_guards_degenerate_and_non_finite_columns() {
        // Regression: an all-zero column must yield the uniform distribution,
        // not NaNs from a 0/0 division — and NaN/∞ estimate entries must not
        // poison the normalization either.
        let estimate = FrequencyEstimate {
            estimated: vec![
                vec![0.0, 0.0, 0.0, 0.0],
                vec![f64::NAN, f64::NAN],
                vec![f64::NAN, 0.5, f64::INFINITY, -2.0],
                vec![-1.0, -0.25],
            ],
            true_frequencies: vec![vec![0.25; 4], vec![0.5; 2], vec![0.25; 4], vec![0.5; 2]],
            report_counts: vec![10, 10, 10, 10],
            per_entry_epsilon: 1.0,
        };
        assert_eq!(estimate.normalized(0).unwrap(), vec![0.25; 4]);
        assert_eq!(estimate.normalized(1).unwrap(), vec![0.5; 2]);
        // NaN → 0, ∞ clips to 1, negatives clip to 0: {0, 0.5, 1, 0} / 1.5.
        let n2 = estimate.normalized(2).unwrap();
        assert!(n2.iter().all(|f| f.is_finite()));
        assert!((n2.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(n2, vec![0.0, 0.5 / 1.5, 1.0 / 1.5, 0.0]);
        // All-negative clips to zero mass → uniform fallback.
        assert_eq!(estimate.normalized(3).unwrap(), vec![0.5; 2]);
    }

    /// Estimates for two dimensions, but true frequencies for only the first.
    fn estimate_missing_truth() -> FrequencyEstimate {
        FrequencyEstimate {
            estimated: vec![vec![0.5, 0.5], vec![0.25; 4]],
            true_frequencies: vec![vec![0.5, 0.5]],
            report_counts: vec![10, 10],
            per_entry_epsilon: 1.0,
        }
    }

    #[test]
    fn normalized_rejects_a_dimension_without_an_estimate() {
        assert!(matches!(
            estimate_missing_truth().normalized(2),
            Err(ProtocolError::DimensionOutOfRange { dimension: 2, .. })
        ));
    }

    #[test]
    fn utility_rejects_a_dimension_without_true_frequencies() {
        assert!(matches!(
            estimate_missing_truth().utility(1),
            Err(ProtocolError::DimensionOutOfRange { dimension: 1, .. })
        ));
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let data = dataset(300);
        let mk = || {
            FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(1.0, 2, 77)).unwrap()
        };
        assert_eq!(mk().run(&data).unwrap(), mk().run(&data).unwrap());
    }
}
