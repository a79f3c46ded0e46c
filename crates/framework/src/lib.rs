//! # hdldp-framework
//!
//! The paper's first contribution: an analytical framework that predicts, for
//! *any* LDP mechanism and *any* dataset, how far the naively aggregated mean
//! `θ̂` will fall from the true mean `θ̄` — without running a single
//! experiment.
//!
//! The framework rests on the Lindeberg–Lévy central limit theorem:
//!
//! * **Lemma 2** — for an *unbounded* mechanism (value-independent noise), the
//!   per-dimension deviation `θ̂_j − θ̄_j` is asymptotically
//!   `N(E[N_ij], Var[N_ij]/r_j)`.
//! * **Lemma 3** — for a *bounded* mechanism (value-dependent moments), it is
//!   asymptotically `N(E[δ_ij], E[Var(t*_ij)]/r_j)` where the outer
//!   expectations are over the empirical distribution of the original values.
//! * **Theorem 1** — the `d`-dimensional deviation density factorises across
//!   dimensions, giving a closed-form multivariate normal density that can be
//!   integrated over any box `{|θ̂_j − θ̄_j| ≤ ξ_j}`.
//! * **Theorem 2** — a Berry–Esseen bound quantifies the CLT approximation
//!   error, decaying like `1/√r_j`.
//!
//! Modules:
//!
//! * [`deviation`] — the per-dimension Gaussian approximation (Lemmas 2/3).
//! * [`model`] — the multivariate deviation model (Theorem 1) and the box
//!   probabilities used to benchmark mechanisms and to derive the HDR4ME
//!   improvement guarantees (Theorems 3/4).
//! * [`benchmark`] — mechanism comparison at collector-chosen suprema
//!   (Section IV-C, Table II).
//! * [`berry_esseen`] — the approximation-error bound (Theorem 2) and the
//!   paper's §IV-D Laplace example.
//! * [`case_study`] — the complete Section IV-C case study configuration.

pub mod benchmark;
pub mod berry_esseen;
pub mod case_study;
pub mod deviation;
pub mod empirical;
pub mod error;
pub mod model;

pub use benchmark::{BenchmarkRow, MechanismBenchmark};
pub use berry_esseen::{berry_esseen_bound, laplace_approximation_error};
pub use case_study::CaseStudy;
pub use deviation::DeviationApproximation;
pub use empirical::EmpiricalFit;
pub use error::FrameworkError;
pub use model::DeviationModel;

/// Convenience result alias for framework operations.
pub type Result<T> = std::result::Result<T, FrameworkError>;
