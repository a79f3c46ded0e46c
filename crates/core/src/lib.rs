//! # hdldp-core — HDR4ME
//!
//! The paper's second contribution: **H**igh-**D**imensional **R**e-calibration
//! for **M**ean **E**stimation. HDR4ME is a one-off, non-iterative
//! re-calibration applied by the data collector *after* any LDP mechanism has
//! been aggregated naively: it adds an L1 or L2 regularizer to the aggregation
//! loss
//!
//! ```text
//! θ* = argmin_θ  (1/2r) Σ_i ‖t*_i − θ‖²  +  R(λ* ∘ θ)
//! ```
//!
//! and solves it in closed form — soft-thresholding for L1 (Equation 34),
//! shrinkage for L2 (Equation 42) — with the regularization weights `λ*` read
//! off the analytical framework of [`hdldp_framework`] (Lemmas 4 and 5). In
//! high-dimensional space, where the per-dimension budget `ε/m` is tiny and the
//! noise overwhelms the signal, the re-calibration provably improves the
//! estimate with the probabilities of Theorems 3 and 4; when dimensionality is
//! low or the budget generous, the thresholds are not met and the paper warns
//! the re-calibration can hurt — [`guarantees`] exposes exactly that decision
//! information.
//!
//! Modules:
//!
//! * [`regularization`] — the L1/L2 regularizer choice.
//! * [`solver`] — the closed-form one-off solvers (Equations 34 and 42).
//! * [`lambda`] — regularization-weight selection from the deviation model.
//! * [`recalibrate`] — the [`Hdr4me`] re-calibrator tying everything together.
//! * [`guarantees`] — the Theorem 3/4 improvement probabilities.
//! * [`frequency`] — the extension to frequency estimation (Section V-C).
//! * [`telemetry`] — the pre-registered runtime-metric bundle recalibrators
//!   record into when built with [`Hdr4me::with_telemetry`].

pub mod error;
pub mod frequency;
pub mod guarantees;
pub mod lambda;
pub mod recalibrate;
pub mod regularization;
pub mod solver;
pub mod telemetry;

pub use error::CoreError;
pub use guarantees::ImprovementGuarantee;
pub use lambda::LambdaSelector;
pub use recalibrate::{Hdr4me, Hdr4meConfig, RecalibratedMean};
pub use regularization::Regularization;
pub use telemetry::RecalibrationMetrics;

/// Convenience result alias for HDR4ME operations.
pub type Result<T> = std::result::Result<T, CoreError>;
