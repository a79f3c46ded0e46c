//! # hdldp-data
//!
//! Dataset substrate for the `hdldp` workspace: the synthetic datasets used in
//! the paper's evaluation (Section VI), a synthetic correlated stand-in for
//! the proprietary COV-19 table, plus the encodings needed by the analytical
//! framework (discretized value distributions, Section IV-C) and by the
//! frequency-estimation extension (histogram/one-hot encoding, Section V-C).
//!
//! All numeric datasets are exposed as a row-major [`Dataset`] whose columns
//! are normalized into `[-1, 1]`, matching the problem definition of
//! Section III-B.
//!
//! Generators:
//!
//! * [`generators::GaussianDataset`] — tunable `n × d`; 10% of dimensions have
//!   mean 0.9, the rest mean 0, all with standard deviation 1/16.
//! * [`generators::PoissonDataset`] — each dimension Poisson with a random
//!   rate in `[1, 99]`, normalized.
//! * [`generators::UniformDataset`] — i.i.d. uniform values.
//! * [`generators::CorrelatedDataset`] — low-rank latent-factor model standing
//!   in for the COV-19 dataset (see DESIGN.md for the substitution note).
//! * [`categorical::CategoricalDataset`] — categorical columns with one-hot
//!   (histogram) encoding for frequency estimation.

pub mod categorical;
pub mod dataset;
pub mod discretize;
pub mod error;
pub mod generators;
pub mod normalize;

pub use categorical::CategoricalDataset;
pub use dataset::{ColumnProfiles, Dataset};
pub use discretize::DiscreteValueDistribution;
pub use error::DataError;
pub use generators::{
    CorrelatedDataset, DatasetKind, GaussianDataset, PoissonDataset, UniformDataset,
};

/// Convenience result alias for dataset operations.
pub type Result<T> = std::result::Result<T, DataError>;
