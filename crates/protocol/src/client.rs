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
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::Rng;

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

    /// Perturb one user tuple into `out`: [`perturb_lazy_into`] over the
    /// tuple's values, after a length check. Like it, this replaces what
    /// `out` held; a rejected tuple leaves `out` untouched.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the tuple length does not
    /// match the configured dimensionality.
    ///
    /// [`perturb_lazy_into`]: Client::perturb_lazy_into
    pub fn perturb_tuple_into(
        &self,
        tuple: &[f64],
        rng: &mut StdRng,
        out: &mut Report,
    ) -> crate::Result<()> {
        if tuple.len() != self.dims {
            return Err(ProtocolError::InvalidConfig {
                name: "tuple",
                reason: format!("expected {} dimensions, got {}", self.dims, tuple.len()),
            });
        }
        // The sampler names dimensions below `dims == tuple.len()` only, so
        // the fallback is never taken; it keeps the closure free of a panic
        // path.
        self.perturb_lazy_into(|j| tuple.get(j).copied().unwrap_or_default(), rng, out);
        Ok(())
    }

    /// Sample `m` dimensions and perturb values produced on demand by
    /// `value_of`, writing the user's report into `out`.
    ///
    /// This is the scalable client path for simulated populations: a driver
    /// standing in for millions of users never needs to materialize a full
    /// `d`-dimensional tuple per user — only the `m` sampled dimensions are
    /// ever evaluated.
    ///
    /// The dimensions are those of the crate's one m-of-d sampler,
    /// `sample_dims_into` in this module: at `m = d` every dimension in
    /// ascending order, with nothing drawn, sent as a **dense** report (the
    /// `d` values alone, [`Report`]); below that exactly those of
    /// `rand::seq::index::sample(rng, d, m)`, in the same order and from the
    /// same draws, sent as **named** entries. Each value is then perturbed as
    /// one [`Mechanism::perturb`] call in report order would, so the report
    /// is bit-identical to that per-value path.
    ///
    /// `out` is cleared first, so it holds exactly this user's report
    /// afterwards, whatever it held before: a dense report cannot follow
    /// other entries, so there is no appending. Sampling is allocation-free
    /// once `out` has grown, for the shapes listed on `sample_dims_into`.
    pub fn perturb_lazy_into<V: Fn(usize) -> f64>(
        &self,
        value_of: V,
        rng: &mut StdRng,
        out: &mut Report,
    ) {
        sample_dims_into(rng, self.dims, self.budget.reported_dims(), value_of, out);
        self.mechanism.perturb_values(&mut out.values, rng);
    }
}

/// Write `amount` distinct dimensions from `0..length`, with
/// `value_of(dimension)` for each, into `out`, replacing what it held.
/// `value_of` is called once per sampled dimension, in report order, and
/// never for the others.
///
/// At `amount ≥ length` every dimension is reported: the sampler writes the
/// dense shape, the values of `0..length` in ascending order with no
/// dimension column, and draws nothing. Every dimension is in the sample
/// either way, so only the order of the report differs from a shuffle's, and
/// that order carries nothing about the user's data.
///
/// Below that, it writes named entries: the dimensions are exactly those
/// `rand::seq::index::sample(rng, length, amount)` returns, in the same order
/// and from the same `gen_range` draws, each written with its value in the
/// same pass, and the branches split where the vendored sampler's do:
///
/// * sparse (`2·amount < length`), at most [`DISPLACED_CAPACITY`]
///   dimensions: the vendored sparse partial Fisher–Yates shuffle, with its
///   `HashMap` of displaced positions replaced by an on-stack table scanned
///   linearly (every position the shuffle has not touched still holds its
///   own index);
/// * sparse, more dimensions: the vendored sampler itself, which allocates
///   a `Vec` and a `HashMap` per call;
/// * dense sampling (`2·amount ≥ length`): the same partial shuffle over a
///   pool of all `length` dimensions laid out in the dimension column
///   itself, truncated to the first `amount`.
///
/// `value_of` cannot draw from `rng`, so evaluating a value beside its
/// dimension keeps the per-value path's draw order. Only the second branch
/// allocates; the others make no heap allocation once `out`'s columns have
/// spare capacity for `amount` entries (every dimension and the sparse
/// table) or `length` dimensions (the dense pool).
#[expect(
    clippy::indexing_slicing,
    reason = "len <= i < amount <= DISPLACED_CAPACITY bounds every displaced index"
)]
pub(crate) fn sample_dims_into<V: Fn(usize) -> f64>(
    rng: &mut StdRng,
    length: usize,
    amount: usize,
    value_of: V,
    out: &mut Report,
) {
    out.clear();
    if amount >= length {
        out.values.extend((0..length).map(value_of));
        return;
    }
    out.dims.reserve(amount);
    out.values.reserve(amount);
    let sparse = amount.saturating_mul(2) < length;
    if sparse && amount <= DISPLACED_CAPACITY {
        // `(position, dimension)` pairs with unique positions; the first
        // `len` are in use, and `len ≤ i < amount ≤ DISPLACED_CAPACITY`
        // keeps every slot the loop writes in range.
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
            out.push(picked, value_of(picked));
            displaced[slot] = (j, moved);
            if slot == len {
                len += 1;
            }
        }
    } else if sparse {
        for dim in sample(rng, length, amount) {
            out.push(dim, value_of(dim));
        }
    } else {
        let pool = &mut out.dims;
        pool.extend(0..length);
        for i in 0..amount {
            pool.swap(i, rng.gen_range(i..length));
        }
        pool.truncate(amount);
        out.values.extend(pool.iter().map(|&dim| value_of(dim)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdldp_mechanisms::{LaplaceMechanism, PiecewiseMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One report through `perturb_tuple_into`, in a fresh buffer.
    fn report(client: &Client<'_>, tuple: &[f64], rng: &mut StdRng) -> Report {
        let mut report = Report::default();
        client.perturb_tuple_into(tuple, rng, &mut report).unwrap();
        report
    }

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
            let report = report(&client, &tuple, &mut rng);
            assert_eq!(report.values.len(), 3);
            let mut dims = report.dims;
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
        let mut out = Report::default();
        out.push(9, 0.5);
        let held = out.clone();
        assert!(client
            .perturb_tuple_into(&[0.0; 4], &mut rng, &mut out)
            .is_err());
        assert_eq!(out, held, "a rejected tuple leaves the buffer untouched");
        assert!(client
            .perturb_tuple_into(&[0.0; 5], &mut rng, &mut out)
            .is_ok());
        // An accepted one replaces it with the m = 1 named entry.
        assert_eq!(out.values.len(), 1);
        assert_eq!(out.dims.len(), 1);
        assert!(out.dims[0] < 5);
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
            seen[report(&client, &tuple, &mut rng).dims[0]] += 1;
        }
        // Every dimension should be picked roughly 100 times.
        for (j, &count) in seen.iter().enumerate() {
            assert!(count > 50, "dimension {j} sampled only {count} times");
        }
    }

    #[test]
    fn perturb_tuple_into_writes_the_lazy_report() {
        let budget = BudgetSplit::new(2.0, 3).unwrap();
        let mech = PiecewiseMechanism::new(budget.per_dimension()).unwrap();
        for (dims, shape) in [(8, "named"), (3, "dense")] {
            let client = Client::new(&mech, budget, dims).unwrap();
            let tuple: Vec<f64> = (0..dims).map(|i| (i as f64) / 8.0 - 0.5).collect();
            let mut rng_a = StdRng::seed_from_u64(21);
            let mut rng_b = StdRng::seed_from_u64(21);
            let mut rng_c = StdRng::seed_from_u64(21);
            // Both buffers start with a stale entry, which is replaced.
            let mut lazy = Report::default();
            lazy.push(7, 0.5);
            client.perturb_lazy_into(|j| tuple[j], &mut rng_a, &mut lazy);
            let mut entries = lazy.clone();
            entries.push(7, 0.5);
            client
                .perturb_tuple_into(&tuple, &mut rng_b, &mut entries)
                .unwrap();
            assert_eq!(entries, lazy, "{shape}");
            assert_eq!(entries, report(&client, &tuple, &mut rng_c), "{shape}");
            assert_eq!(entries.values.len(), 3, "{shape}");
            let expected_dims = if dims == 3 { 0 } else { 3 };
            assert_eq!(entries.dims.len(), expected_dims, "{shape}");
            assert_eq!(rng_a, rng_b);
        }
    }

    #[test]
    fn lazy_perturbation_only_evaluates_sampled_dimensions() {
        use std::cell::RefCell;
        let budget = BudgetSplit::new(1.0, 2).unwrap();
        let mech = LaplaceMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mech, budget, 100).unwrap();
        let evaluated = RefCell::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Report::default();
        client.perturb_lazy_into(
            |j| {
                evaluated.borrow_mut().push(j);
                0.25
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(out.values.len(), 2);
        let touched = evaluated.into_inner();
        assert_eq!(touched.len(), 2, "only the m sampled dims are evaluated");
        assert_eq!(touched, out.dims);
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
            for v in report(&client, &tuple, &mut rng).values {
                assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            }
        }
    }
}
