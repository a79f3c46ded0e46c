//! Hierarchical range queries over a discretized domain.
//!
//! The domain `[0, domain)` is padded to a power of two and covered by a
//! binary dyadic-interval tree: level `l` has `2^l` nodes of width
//! `padded / 2^l`, with the root (level 0) covering everything. Each user's
//! value lands in exactly one node per level, so the per-level membership
//! histograms can each be collected with budget `ε / L`
//! ([`BudgetSplit::per_level`]) and compose to `ε` overall.
//!
//! Per level the node-membership frequencies are estimated with a
//! [`CategoricalOracle`](crate::CategoricalOracle) (optionally HDR4ME
//! re-calibrated), then the whole tree is made *consistent* with the
//! Hay-style two-pass estimator: a bottom-up weighted average of each node
//! with its children's sum, followed by a top-down correction that pins the
//! root at 1 and redistributes each parent's residual equally between its
//! children. Afterwards every parent equals the sum of its children exactly,
//! so any dyadic decomposition of a range gives the same answer.

use crate::collect::{recalibrator, OraclePipeline};
use crate::{OracleKind, Result, WorkloadError};
use hdldp_core::{Hdr4me, Regularization};
use hdldp_protocol::BudgetSplit;
use hdldp_telemetry::Registry;
use std::ops::Range;

/// Configuration of a range-query tree build.
#[derive(Debug, Clone, Copy)]
pub struct RangeQueryConfig {
    /// The frequency-oracle family used per level.
    pub kind: OracleKind,
    /// The discretized domain size (values live in `[0, domain)`).
    pub domain: usize,
    /// Total privacy budget `ε`, split evenly across the tree levels.
    pub epsilon: f64,
    /// Run seed; each level derives an independent sub-seed.
    pub seed: u64,
    /// `Some(reg)` re-calibrates each level's histogram with HDR4ME before
    /// the consistency pass; `None` uses the raw (clip + renormalize)
    /// estimates.
    pub recalibration: Option<Regularization>,
    /// The deviation-supremum quantile `z` used for the HDR4ME `λ*` weights
    /// (`λ = |δ| + z·σ` — the paper's collector-chosen tolerated supremum).
    /// HDR4ME's default of 3 is tuned for means; node histograms are sparse,
    /// so a smaller `z` keeps small-but-real node masses alive. Ignored when
    /// `recalibration` is `None`.
    pub supremum_z: f64,
}

/// A consistent estimated dyadic-interval tree, ready to answer range queries.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeTree {
    domain: usize,
    padded: usize,
    /// `levels[l]` has `2^l` node frequencies; `levels[0] = [1.0]` (root).
    levels: Vec<Vec<f64>>,
}

impl RangeTree {
    /// The original (unpadded) domain size.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of levels below the root (`log2` of the padded domain).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// Estimated frequency mass of `range` (half-open, clamped to the
    /// domain), answered from the minimal dyadic decomposition and clamped
    /// into `[0, 1]`.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] for an inverted range.
    pub fn query(&self, range: Range<usize>) -> Result<f64> {
        if range.start > range.end {
            return Err(WorkloadError::InvalidConfig {
                name: "range",
                reason: format!("inverted range {}..{}", range.start, range.end),
            });
        }
        let lo = range.start.min(self.domain);
        let hi = range.end.min(self.domain);
        let mass = self.decompose(lo, hi, 0, 0, self.padded);
        Ok(mass.clamp(0.0, 1.0))
    }

    /// Sum the minimal set of tree nodes covering `[lo, hi)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "only a partly covered node recurses, which a leaf never is, so level <= depth and node < 2^level"
    )]
    fn decompose(&self, lo: usize, hi: usize, level: usize, node: usize, width: usize) -> f64 {
        let node_lo = node * width;
        let node_hi = node_lo + width;
        if hi <= node_lo || lo >= node_hi {
            return 0.0;
        }
        if lo <= node_lo && node_hi <= hi {
            return self.levels[level][node];
        }
        self.decompose(lo, hi, level + 1, 2 * node, width / 2)
            + self.decompose(lo, hi, level + 1, 2 * node + 1, width / 2)
    }

    /// Maximum over all parents of `|parent − Σ children|` — zero (up to
    /// floating point) after the consistency pass.
    pub fn max_consistency_gap(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (parents, children) in self.levels.iter().zip(self.levels.iter().skip(1)) {
            for (&parent, kids) in parents.iter().zip(children.chunks(2)) {
                worst = worst.max((parent - kids.iter().sum::<f64>()).abs());
            }
        }
        worst
    }
}

/// Builds [`RangeTree`]s from user values.
#[derive(Debug, Clone)]
pub struct RangeWorkload {
    config: RangeQueryConfig,
    hdr: Option<Hdr4me>,
    per_level_epsilon: f64,
    depth: usize,
    padded: usize,
    registry: Registry,
    metrics: crate::telemetry::WorkloadMetrics,
}

impl RangeWorkload {
    /// Create a workload with telemetry disabled.
    ///
    /// # Errors
    /// Returns [`WorkloadError::InvalidConfig`] when `domain < 2` or the
    /// budget split is invalid, and [`WorkloadError::Core`] when
    /// `supremum_z` is not positive and finite.
    pub fn new(config: RangeQueryConfig) -> Result<Self> {
        Self::with_telemetry(config, &Registry::disabled())
    }

    /// Create a workload that records runtime metrics into `registry`.
    ///
    /// # Errors
    /// Same conditions as [`RangeWorkload::new`].
    pub fn with_telemetry(config: RangeQueryConfig, registry: &Registry) -> Result<Self> {
        if config.domain < 2 {
            return Err(WorkloadError::InvalidConfig {
                name: "domain",
                reason: format!(
                    "range queries need a domain of at least 2, got {}",
                    config.domain
                ),
            });
        }
        let hdr = recalibrator(config.recalibration, config.supremum_z)?;
        let padded = config.domain.next_power_of_two();
        let depth = padded.trailing_zeros() as usize;
        let per_level_epsilon = BudgetSplit::new(config.epsilon, 1)
            .and_then(|b| b.per_level(depth))
            .map_err(WorkloadError::Protocol)?;
        Ok(Self {
            config,
            hdr,
            per_level_epsilon,
            depth,
            padded,
            registry: registry.clone(),
            metrics: crate::telemetry::WorkloadMetrics::register(registry),
        })
    }

    /// The configuration this workload runs with.
    pub fn config(&self) -> &RangeQueryConfig {
        &self.config
    }

    /// The per-level budget `ε / L`.
    pub fn per_level_epsilon(&self) -> f64 {
        self.per_level_epsilon
    }

    /// Number of levels below the root.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Collect `values` (one value in `[0, domain)` per user) level by level
    /// and build a consistent estimated tree.
    ///
    /// # Errors
    /// Returns [`WorkloadError::ValueOutOfDomain`] when a value is
    /// `>= domain`, and propagates pipeline and re-calibration errors.
    pub fn build(&self, values: &[usize]) -> Result<RangeTree> {
        if let Some(&bad) = values.iter().find(|&&v| v >= self.config.domain) {
            return Err(WorkloadError::ValueOutOfDomain {
                value: bad,
                categories: self.config.domain,
            });
        }
        let mut levels: Vec<Vec<f64>> = vec![vec![1.0]];
        for l in 1..=self.depth {
            let nodes = 1usize << l;
            let width = self.padded >> l;
            let pipeline = OraclePipeline::with_telemetry(
                self.config.kind,
                nodes,
                self.per_level_epsilon,
                // Independent perturbation randomness per level.
                self.config
                    .seed
                    .wrapping_add((l as u64).wrapping_mul(0x517C_C1B7_2722_0A95)),
                &self.registry,
            )?;
            let memberships: Vec<usize> = values.iter().map(|&v| v / width).collect();
            let estimate = pipeline.run(&memberships)?;
            levels.push(pipeline.recalibrate_or_normalize(&estimate, self.hdr.as_ref())?);
        }

        let _timer = self.metrics.consistency_ns.start();
        enforce_consistency(&mut levels);
        Ok(RangeTree {
            domain: self.config.domain,
            padded: self.padded,
            levels,
        })
    }
}

/// The exact frequency mass of `range` in a value sample (ground truth).
pub fn true_range_frequency(values: &[usize], range: Range<usize>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let hits = values.iter().filter(|&&v| range.contains(&v)).count();
    hits as f64 / values.len() as f64
}

/// Hay-style two-pass consistency for a binary hierarchy of frequencies.
///
/// Bottom-up, each node at height `h` (leaves `h = 1`) is replaced by the
/// inverse-variance weighted average of itself and its children's sum,
/// `z̄ = α_h·z + (1 − α_h)·Σ children`, `α_h = 2^(h−1) / (2^h − 1)`. Top-down,
/// the root is pinned at 1 and each parent's residual is split equally
/// between its children, which makes every parent exactly the sum of its
/// children without changing any subtree's internal proportions.
fn enforce_consistency(levels: &mut [Vec<f64>]) {
    let depth = levels.len().saturating_sub(1);
    // Bottom-up weighted averaging (leaves are already their own average).
    // split_at_mut pairs each level with the one below it; every parent owns
    // exactly two children, so chunks(2) walks the child level in lockstep.
    for l in (0..depth).rev() {
        let h = depth - l + 1;
        let alpha = (1u64 << (h - 1)) as f64 / ((1u64 << h) - 1) as f64;
        let (upper, lower) = levels.split_at_mut(l + 1);
        let (Some(parents), Some(children)) = (upper.last_mut(), lower.first()) else {
            continue;
        };
        for (node, kids) in parents.iter_mut().zip(children.chunks(2)) {
            let sum: f64 = kids.iter().sum();
            *node = alpha * *node + (1.0 - alpha) * sum;
        }
    }
    // Top-down correction with the root pinned at the known total mass.
    if let Some(root) = levels.first_mut().and_then(|l0| l0.first_mut()) {
        *root = 1.0;
    }
    for l in 0..depth {
        let (upper, lower) = levels.split_at_mut(l + 1);
        let (Some(parents), Some(children)) = (upper.last(), lower.first_mut()) else {
            continue;
        };
        for (&node, kids) in parents.iter().zip(children.chunks_mut(2)) {
            let sum: f64 = kids.iter().sum();
            let fix = 0.5 * (node - sum);
            for k in kids {
                *k += fix;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_values(n: usize, domain: usize, seed: u64) -> Vec<usize> {
        // Mass concentrated on the low quarter of the domain plus a uniform
        // tail — the shape hierarchical estimators are built for.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.75) {
                    rng.gen_range(0..domain / 4)
                } else {
                    rng.gen_range(0..domain)
                }
            })
            .collect()
    }

    fn workload(recalibration: Option<Regularization>) -> RangeWorkload {
        RangeWorkload::new(RangeQueryConfig {
            kind: OracleKind::Oue,
            domain: 64,
            epsilon: 4.0,
            seed: 31,
            recalibration,
            supremum_z: 1.0,
        })
        .unwrap()
    }

    #[test]
    fn construction_validates_and_splits_budget() {
        let w = workload(None);
        assert_eq!(w.depth(), 6);
        assert!((w.per_level_epsilon() - 4.0 / 6.0).abs() < 1e-12);
        let bad = RangeQueryConfig {
            kind: OracleKind::Grr,
            domain: 1,
            epsilon: 1.0,
            seed: 0,
            recalibration: None,
            supremum_z: 1.0,
        };
        assert!(RangeWorkload::new(bad).is_err());
        let bad_z = RangeQueryConfig {
            domain: 64,
            supremum_z: 0.0,
            ..bad
        };
        assert!(RangeWorkload::new(bad_z).is_err());
    }

    #[test]
    fn non_power_of_two_domain_is_padded() {
        let w = RangeWorkload::new(RangeQueryConfig {
            kind: OracleKind::Grr,
            domain: 48,
            epsilon: 2.0,
            seed: 1,
            recalibration: None,
            supremum_z: 1.0,
        })
        .unwrap();
        assert_eq!(w.padded, 64);
        let values = skewed_values(3_000, 48, 2);
        let tree = w.build(&values).unwrap();
        assert_eq!(tree.domain(), 48);
        assert_eq!(tree.padded, 64);
        // Querying past the domain end just clamps.
        let all = tree.query(0..48).unwrap();
        assert!(all > 0.5);
    }

    #[test]
    fn tree_is_exactly_consistent_after_post_processing() {
        let values = skewed_values(5_000, 64, 7);
        for recal in [None, Some(Regularization::L1), Some(Regularization::L2)] {
            let tree = workload(recal).build(&values).unwrap();
            assert!(
                tree.max_consistency_gap() < 1e-9,
                "recal={recal:?}: gap {}",
                tree.max_consistency_gap()
            );
            assert!((tree.levels[0][0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn queries_approximate_ground_truth() {
        let values = skewed_values(20_000, 64, 13);
        let tree = workload(Some(Regularization::L2)).build(&values).unwrap();
        for range in [0usize..16, 8..24, 0..64, 40..64, 5..6] {
            let truth = true_range_frequency(&values, range.clone());
            let est = tree.query(range.clone()).unwrap();
            assert!(
                (est - truth).abs() < 0.08,
                "range {range:?}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn degenerate_queries_are_well_defined() {
        let values = skewed_values(2_000, 64, 17);
        let tree = workload(None).build(&values).unwrap();
        assert_eq!(tree.query(10..10).unwrap(), 0.0);
        #[expect(
            clippy::reversed_empty_ranges,
            reason = "an inverted range is the input under test"
        )]
        let inverted = 5..3;
        assert!(tree.query(inverted).is_err());
        assert!((tree.query(0..64).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(tree.query(64..80).unwrap(), 0.0);
    }

    #[test]
    fn out_of_domain_values_are_rejected() {
        let w = workload(None);
        assert!(matches!(
            w.build(&[0, 63, 64]).unwrap_err(),
            WorkloadError::ValueOutOfDomain { value: 64, .. }
        ));
    }

    #[test]
    fn consistency_preserves_an_already_consistent_tree() {
        // A hand-built exactly-consistent tree is a fixed point.
        let mut levels = vec![vec![1.0], vec![0.75, 0.25], vec![0.5, 0.25, 0.125, 0.125]];
        let reference = levels.clone();
        enforce_consistency(&mut levels);
        for (l, level) in reference.iter().enumerate() {
            for (n, &v) in level.iter().enumerate() {
                assert!((levels[l][n] - v).abs() < 1e-12, "level {l} node {n}");
            }
        }
    }
}
