//! # hdldp-protocol
//!
//! The end-to-end LDP collection protocol of Section III-B / IV-B of the paper:
//!
//! 1. **Perturbation (client side)** — each of the `n` users samples `m` of her
//!    `d` dimensions, perturbs each sampled value with budget `ε/m` using any
//!    [`hdldp_mechanisms::Mechanism`], and sends the resulting report.
//! 2. **Calibration & aggregation (collector side)** — the collector averages
//!    the received values per dimension to obtain the naive estimated mean
//!    `θ̂_j = (1/r_j) Σ_i t*_ij` (the aggregation that HDR4ME later
//!    re-calibrates).
//!
//! The same machinery drives frequency estimation (Section V-C) by
//! histogram-encoding categorical dimensions and running mean estimation on
//! the encoded entries with budget `ε/(2m)`.
//!
//! The module layout mirrors the protocol phases:
//!
//! * [`budget`] — privacy-budget accounting and splitting.
//! * [`client`] — user-side sampling and perturbation.
//! * [`Report`] — one user's report, a dimension column and a value column,
//!   sent dense (every dimension in order, values only) or named (one
//!   dimension per value); its module holds the collector's checks of both.
//! * [`shard`] — hash-based shard routing and per-shard partial sums/counts.
//! * [`ingest`] — the sharded ingest engine (each report checked and added
//!   shard-locally, merge-on-read estimation): the collector's one
//!   aggregation path and the one way a report enters it, scaling to
//!   millions of users.
//! * [`pipeline`] — one-call end-to-end mean estimation over a dataset,
//!   running on the sharded engine, and [`user_seed`], the per-user seed
//!   every collection derives its users' generators from.
//! * [`frequency`] — end-to-end frequency estimation over categorical data,
//!   running on the same engine over a flat `(dimension, category)` index.
//! * [`metrics`] — the paper's utility metrics for a finished run.
//! * [`telemetry`] — pre-registered runtime-metric bundles (ingest counters,
//!   phase timers) recording into an [`hdldp_telemetry::Registry`].

pub mod budget;
pub mod client;
pub mod error;
pub mod frequency;
pub mod ingest;
pub mod metrics;
pub mod pipeline;
mod report;
pub mod shard;
pub mod telemetry;

pub use budget::BudgetSplit;
pub use client::Client;
pub use error::ProtocolError;
pub use frequency::{normalize_frequencies, FrequencyEstimate, FrequencyPipeline};
pub use ingest::{IngestConfig, IngestEngine};
pub use metrics::UtilityReport;
pub use pipeline::{user_seed, MeanEstimate, MeanEstimationPipeline, PipelineConfig};
pub use report::Report;
pub use shard::{ShardAccumulator, ShardRouter};
pub use telemetry::{IngestMetrics, PipelineMetrics};

/// Convenience result alias for protocol operations.
pub type Result<T> = std::result::Result<T, ProtocolError>;
