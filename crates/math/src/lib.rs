//! # hdldp-math
//!
//! Numerical substrate for the `hdldp` workspace — the Rust reproduction of
//! *Utility Analysis and Enhancement of LDP Mechanisms in High-Dimensional Space*
//! (ICDE 2022).
//!
//! Everything in this crate is self-contained (no numerical dependencies beyond
//! `rand` for sampling) and is used by the mechanism implementations, the
//! analytical framework, and the HDR4ME re-calibration protocol:
//!
//! * [`erf`] — error function, complementary error function and their inverses.
//! * [`cache`] — bit-keyed memoisation of `erf` for the framework's batched
//!   box-probability passes.
//! * [`normal`] — the Gaussian distribution (pdf, cdf, quantile, sampling).
//! * [`laplace`] — the Laplace distribution (pdf, cdf, quantile, sampling).
//! * [`integrate`] — one-dimensional numerical integration (Simpson,
//!   Gauss–Legendre) used for mechanism moments and the Theorem 1
//!   box-probability computation.
//! * [`stats`] — descriptive statistics and the utility metrics of the paper
//!   (MSE, L2 deviation, maximum absolute error).
//! * [`moments`] — single-pass Welford accumulators for streaming mean/variance.
//! * [`histogram`] — fixed-bin empirical densities used to compare simulated
//!   deviations against the CLT predictions (Figures 2 and 3).
//! * [`vector`] — small dense-vector helpers (norms, differences).
//! * [`quantile`] — order statistics on slices.

pub mod cache;
pub mod erf;
pub mod error;
pub mod histogram;
pub mod integrate;
pub mod laplace;
pub mod moments;
pub mod normal;
pub mod quantile;
pub mod stats;
pub mod vector;

pub use cache::ErfCache;
pub use error::MathError;
pub use histogram::Histogram;
pub use laplace::Laplace;
pub use moments::RunningMoments;
pub use normal::Normal;

/// Convenience result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, MathError>;
