//! # hdldp-workloads
//!
//! Multi-workload LDP analytics on a shared categorical-oracle base.
//!
//! The paper's §V-C frequency-estimation extension treats one categorical
//! dimension as a histogram-encoded mean-estimation problem; this crate
//! grows that seed into three query workloads:
//!
//! * **Frequency oracles** ([`CategoricalOracle`], [`OraclePipeline`]) — GRR
//!   and OUE with unbiased estimators and closed-form variance, collected
//!   through the sharded [`IngestEngine`](hdldp_protocol::IngestEngine) and
//!   exposed to the HDR4ME stack via an unbiased per-entry
//!   [`Mechanism`](hdldp_mechanisms::Mechanism) ([`OracleEntryMechanism`]).
//! * **Heavy hitters** ([`HeavyHitterDetector`]) — top-k / threshold
//!   selection over oracle estimates, optionally HDR4ME re-calibrated before
//!   selection, scored with precision/recall against ground truth.
//! * **Hierarchical range queries** ([`RangeWorkload`], [`RangeTree`]) — a
//!   dyadic-interval tree with per-level budget
//!   ([`BudgetSplit::per_level`](hdldp_protocol::BudgetSplit::per_level)) and
//!   Hay-style consistency post-processing so child sums match parents.
//!
//! All workloads are deterministic under a fixed seed, accept an optional
//! [`Registry`](hdldp_telemetry::Registry) for runtime metrics (see
//! [`telemetry`]), and reuse the protocol layer's sharded million-user
//! ingest path for collection.

pub mod collect;
pub mod error;
pub mod heavy_hitters;
pub mod oracle;
pub mod range;
pub mod telemetry;

pub use collect::OraclePipeline;
pub use error::{Result, WorkloadError};
pub use heavy_hitters::{
    empirical_top_k, planted_dataset, precision_recall, HeavyHitterConfig, HeavyHitterDetector,
    HeavyHitterReport, PrecisionRecall, SelectionRule,
};
pub use oracle::{CategoricalOracle, OracleEntryMechanism, OracleKind};
pub use range::{true_range_frequency, RangeQueryConfig, RangeTree, RangeWorkload};
pub use telemetry::WorkloadMetrics;
