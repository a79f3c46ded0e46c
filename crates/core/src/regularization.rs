//! The regularizer choice of HDR4ME (Section V-A).
//!
//! * **L1** (`R(θ) = ‖θ‖₁`) both sparsifies the estimate (zeroing dimensions
//!   whose aggregate is indistinguishable from noise) and shrinks its scale.
//! * **L2** (`R(θ) = ‖θ‖₂²`) only shrinks the scale.
//!
//! Each choice comes with its own regularization-weight rule (Lemmas 4 and 5)
//! and its own improvement threshold (`|θ̂_j − θ̄_j| > 1` for L1, `> 2` for L2).

use serde::{Deserialize, Serialize};

/// Which regularizer HDR4ME adds to the aggregation loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Regularization {
    /// L1 regularization (soft-thresholding solver, Equation 34).
    L1,
    /// L2 regularization (shrinkage solver, Equation 42).
    L2,
}

impl Regularization {
    /// Both regularizers, in a stable order.
    pub const ALL: [Regularization; 2] = [Regularization::L1, Regularization::L2];

    /// The per-dimension deviation threshold above which the paper proves the
    /// re-calibration improves accuracy (Lemma 4 / Lemma 5).
    pub fn improvement_threshold(&self) -> f64 {
        match self {
            Regularization::L1 => 1.0,
            Regularization::L2 => 2.0,
        }
    }

    /// Short lowercase name (used by the experiment harness and result files).
    pub fn name(&self) -> &'static str {
        match self {
            Regularization::L1 => "l1",
            Regularization::L2 => "l2",
        }
    }

    /// Parse a name produced by [`Regularization::name`] (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "l1" | "lasso" => Some(Regularization::L1),
            "l2" | "ridge" => Some(Regularization::L2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_the_lemmas() {
        assert_eq!(Regularization::L1.improvement_threshold(), 1.0);
        assert_eq!(Regularization::L2.improvement_threshold(), 2.0);
    }

    #[test]
    fn names_round_trip() {
        for r in Regularization::ALL {
            assert_eq!(Regularization::parse(r.name()), Some(r));
        }
        assert_eq!(Regularization::parse("LASSO"), Some(Regularization::L1));
        assert_eq!(Regularization::parse("ridge"), Some(Regularization::L2));
        assert_eq!(Regularization::parse("l3"), None);
    }
}
