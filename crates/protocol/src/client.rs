//! The user-side (client) half of the protocol: dimension sampling and
//! perturbation.
//!
//! Following the common approach the paper adopts (Section III-B, citing Wang
//! et al. and Nguyên et al.), each user samples `m` of her `d` dimensions
//! *uniformly without replacement* and perturbs each sampled value with budget
//! `ε/m`. Reporting `m` of `d` dimensions from `n` users is statistically
//! equivalent to reporting all dimensions from `nm/d` users, which is what
//! makes `E[r_j] = nm/d`.

use crate::{BudgetSplit, ProtocolError, Report};
use hdldp_mechanisms::Mechanism;
use rand::seq::index::sample;
use rand::{Rng, RngCore};

/// Most displaced positions the sparse sampling branch tracks on the stack.
const DISPLACED_CAPACITY: usize = 64;

/// A client that perturbs user tuples with a given mechanism and budget split.
pub struct Client<'a> {
    mechanism: &'a dyn Mechanism,
    budget: BudgetSplit,
    dims: usize,
}

impl<'a> Client<'a> {
    /// Create a client for `dims`-dimensional tuples.
    ///
    /// The `mechanism` must already be instantiated with the *per-dimension*
    /// budget (`budget.per_dimension()` for mean estimation); the client
    /// checks this to catch mis-wired configurations early.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` is zero, when the
    /// number of reported dimensions exceeds `dims`, or when the mechanism's
    /// budget does not match the split.
    pub fn new(
        mechanism: &'a dyn Mechanism,
        budget: BudgetSplit,
        dims: usize,
    ) -> crate::Result<Self> {
        if dims == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: "dimensionality must be positive".into(),
            });
        }
        if budget.reported_dims() > dims {
            return Err(ProtocolError::InvalidConfig {
                name: "reported_dims",
                reason: format!(
                    "cannot report {} dimensions out of {dims}",
                    budget.reported_dims()
                ),
            });
        }
        let expected = budget.per_dimension();
        if (mechanism.epsilon() - expected).abs() > 1e-9 * expected.max(1.0) {
            return Err(ProtocolError::InvalidConfig {
                name: "mechanism",
                reason: format!(
                    "mechanism budget {} does not match per-dimension budget {expected}",
                    mechanism.epsilon()
                ),
            });
        }
        Ok(Self {
            mechanism,
            budget,
            dims,
        })
    }

    /// The dimensionality `d` this client expects.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The budget split in use.
    pub fn budget(&self) -> BudgetSplit {
        self.budget
    }

    /// Perturb one user tuple into a report.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the tuple length does not
    /// match the configured dimensionality.
    pub fn perturb_tuple(&self, tuple: &[f64], rng: &mut dyn RngCore) -> crate::Result<Report> {
        let mut entries = Vec::with_capacity(self.budget.reported_dims());
        self.perturb_tuple_into(tuple, rng, &mut entries)?;
        Ok(Report::new(entries))
    }

    /// [`perturb_tuple`](Client::perturb_tuple), but appending the report's
    /// `(dimension, value)` entries to a caller-owned buffer instead of
    /// allocating a [`Report`] — the allocation-free path the sharded ingest
    /// engine feeds on.
    ///
    /// The randomness consumed is identical to [`perturb_tuple`]
    /// (dimension sampling first, then one perturbation per sampled
    /// dimension), so both paths produce the same report for the same RNG
    /// state.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the tuple length does not
    /// match the configured dimensionality.
    ///
    /// [`perturb_tuple`]: Client::perturb_tuple
    pub fn perturb_tuple_into(
        &self,
        tuple: &[f64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(usize, f64)>,
    ) -> crate::Result<()> {
        if tuple.len() != self.dims {
            return Err(ProtocolError::InvalidConfig {
                name: "tuple",
                reason: format!("expected {} dimensions, got {}", self.dims, tuple.len()),
            });
        }
        self.perturb_lazy_into(|j| tuple[j], rng, out);
        Ok(())
    }

    /// Sample `m` dimensions and perturb values produced on demand by
    /// `value_of`, appending the `(dimension, value)` entries to `out`.
    ///
    /// This is the scalable client path for simulated populations: a driver
    /// standing in for millions of users never needs to materialize a full
    /// `d`-dimensional tuple per user — only the `m` sampled dimensions are
    /// ever evaluated.
    ///
    /// The sampled dimensions are exactly those of
    /// `rand::seq::index::sample(rng, d, m)`, in the same order and from the
    /// same draws, and each value is perturbed as one
    /// [`Mechanism::perturb`] call in that order would, so the report is
    /// bit-identical to the per-value path. Entries already in `out` are left
    /// untouched. Sampling is allocation-free once `out` has grown, for the
    /// shapes listed on the private `sample_dims_into` in this module.
    pub fn perturb_lazy_into<V: Fn(usize) -> f64>(
        &self,
        value_of: V,
        rng: &mut dyn RngCore,
        out: &mut Vec<(usize, f64)>,
    ) {
        let base = out.len();
        sample_dims_into(rng, self.dims, self.budget.reported_dims(), out);
        if let Some(report) = out.get_mut(base..) {
            // `value_of` cannot draw from `rng`, so evaluating every value
            // before perturbing any keeps the draw order of the per-value path.
            for (dim, value) in report.iter_mut() {
                *value = value_of(*dim);
            }
            self.mechanism.perturb_entries(report, rng);
        }
    }
}

/// Append `amount` distinct dimensions from `0..length` to `out` as
/// `(dimension, 0.0)` entries, leaving the entries already there untouched.
///
/// The dimensions are exactly those `rand::seq::index::sample(rng, length,
/// amount)` returns, in the same order and from the same `gen_range` draws,
/// and the branches split where the vendored sampler's do:
///
/// * sparse (`2·amount < length`), at most [`DISPLACED_CAPACITY`]
///   dimensions: the vendored sparse partial Fisher–Yates shuffle, with its
///   `HashMap` of displaced positions replaced by an on-stack table scanned
///   linearly (every position the shuffle has not touched still holds its
///   own index);
/// * sparse, more dimensions: the vendored sampler itself, which allocates
///   a `Vec` and a `HashMap` per call;
/// * dense (`2·amount ≥ length`): the same shuffle over a pool of all
///   `length` dimensions laid out in `out` itself, truncated to the first
///   `amount`.
///
/// The first and last branches make no heap allocation once `out` has spare
/// capacity for `amount` and `length` entries respectively.
fn sample_dims_into(
    rng: &mut dyn RngCore,
    length: usize,
    amount: usize,
    out: &mut Vec<(usize, f64)>,
) {
    let sparse = amount.saturating_mul(2) < length;
    if sparse && amount <= DISPLACED_CAPACITY {
        // `(position, dimension)` pairs with unique positions; `len ≤ i <
        // amount ≤ DISPLACED_CAPACITY` keeps every index below in range.
        let mut displaced = [(0usize, 0usize); DISPLACED_CAPACITY];
        let mut len = 0;
        for i in 0..amount {
            let j = rng.gen_range(i..length);
            let (mut picked, mut moved, mut slot) = (j, i, len);
            for (k, &(position, dim)) in displaced[..len].iter().enumerate() {
                if position == j {
                    picked = dim;
                    slot = k;
                }
                if position == i {
                    moved = dim;
                }
            }
            out.push((picked, 0.0));
            displaced[slot] = (j, moved);
            if slot == len {
                len += 1;
            }
        }
    } else if sparse {
        out.extend(
            sample(rng, length, amount)
                .into_iter()
                .map(|dim| (dim, 0.0)),
        );
    } else {
        let base = out.len();
        out.extend((0..length).map(|dim| (dim, 0.0)));
        if let Some(pool) = out.get_mut(base..) {
            for i in 0..amount {
                pool.swap(i, rng.gen_range(i..length));
            }
        }
        out.truncate(base + amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_mechanisms::{LaplaceMechanism, PiecewiseMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_configuration() {
        let budget = BudgetSplit::new(1.0, 2).unwrap();
        let mech = LaplaceMechanism::new(budget.per_dimension()).unwrap();
        assert!(Client::new(&mech, budget, 4).is_ok());
        assert!(Client::new(&mech, budget, 0).is_err());
        assert!(Client::new(&mech, budget, 1).is_err()); // m = 2 > d = 1
                                                         // Mechanism built with the wrong per-dimension budget is rejected.
        let wrong = LaplaceMechanism::new(1.0).unwrap();
        assert!(Client::new(&wrong, budget, 4).is_err());
    }

    #[test]
    fn reports_have_m_distinct_dimensions() {
        let budget = BudgetSplit::new(1.0, 3).unwrap();
        let mech = PiecewiseMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mech, budget, 10).unwrap();
        let tuple = vec![0.1; 10];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let report = client.perturb_tuple(&tuple, &mut rng).unwrap();
            assert_eq!(report.len(), 3);
            let mut dims: Vec<usize> = report.entries().iter().map(|(d, _)| *d).collect();
            dims.sort_unstable();
            dims.dedup();
            assert_eq!(dims.len(), 3, "sampled dimensions must be distinct");
            assert!(dims.iter().all(|&d| d < 10));
        }
    }

    #[test]
    fn tuple_length_is_validated() {
        let budget = BudgetSplit::new(1.0, 1).unwrap();
        let mech = LaplaceMechanism::new(1.0).unwrap();
        let client = Client::new(&mech, budget, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(client.perturb_tuple(&[0.0; 4], &mut rng).is_err());
        assert!(client.perturb_tuple(&[0.0; 5], &mut rng).is_ok());
    }

    #[test]
    fn all_dimensions_get_sampled_over_many_reports() {
        let budget = BudgetSplit::new(1.0, 1).unwrap();
        let mech = LaplaceMechanism::new(1.0).unwrap();
        let client = Client::new(&mech, budget, 6).unwrap();
        let tuple = vec![0.0; 6];
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [0usize; 6];
        for _ in 0..600 {
            let report = client.perturb_tuple(&tuple, &mut rng).unwrap();
            seen[report.entries()[0].0] += 1;
        }
        // Every dimension should be picked roughly 100 times.
        for (j, &count) in seen.iter().enumerate() {
            assert!(count > 50, "dimension {j} sampled only {count} times");
        }
    }

    #[test]
    fn perturb_tuple_into_matches_perturb_tuple() {
        let budget = BudgetSplit::new(2.0, 3).unwrap();
        let mech = PiecewiseMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mech, budget, 8).unwrap();
        let tuple: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0 - 0.5).collect();
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let report = client.perturb_tuple(&tuple, &mut rng_a).unwrap();
        let mut entries = Vec::new();
        client
            .perturb_tuple_into(&tuple, &mut rng_b, &mut entries)
            .unwrap();
        assert_eq!(report.entries(), &entries[..]);
    }

    #[test]
    fn lazy_perturbation_only_evaluates_sampled_dimensions() {
        use std::cell::RefCell;
        let budget = BudgetSplit::new(1.0, 2).unwrap();
        let mech = LaplaceMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mech, budget, 100).unwrap();
        let evaluated = RefCell::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        client.perturb_lazy_into(
            |j| {
                evaluated.borrow_mut().push(j);
                0.25
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        let touched = evaluated.into_inner();
        assert_eq!(touched.len(), 2, "only the m sampled dims are evaluated");
        let sampled: Vec<usize> = out.iter().map(|&(j, _)| j).collect();
        assert_eq!(touched, sampled);
    }

    #[test]
    fn bounded_mechanism_reports_stay_in_support() {
        let budget = BudgetSplit::new(2.0, 2).unwrap();
        let mech = PiecewiseMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mech, budget, 4).unwrap();
        let (lo, hi) = mech.output_support();
        let mut rng = StdRng::seed_from_u64(9);
        let tuple = [0.9, -0.9, 0.0, 0.4];
        for _ in 0..500 {
            let report = client.perturb_tuple(&tuple, &mut rng).unwrap();
            for &(_, v) in report.entries() {
                assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            }
        }
    }
}
