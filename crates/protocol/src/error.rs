//! Error type for the collection protocol.

use std::fmt;

/// Errors raised while configuring or running the collection protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        reason: String,
    },
    /// A report refers to a dimension outside the configured dimensionality.
    DimensionOutOfRange {
        /// The offending dimension index.
        dimension: usize,
        /// The configured dimensionality.
        dims: usize,
    },
    /// A report carries a NaN or infinite value, which would turn its
    /// dimension's sum into NaN or ±∞.
    NonFiniteValue {
        /// The dimension the value was reported for.
        dimension: usize,
    },
    /// A report's columns fit neither report shape: they name one dimension
    /// per value, or none with exactly one value per dimension
    /// ([`crate::Report`]).
    MalformedReport {
        /// Length of the report's dimension column.
        dimensions: usize,
        /// Length of the report's value column.
        values: usize,
        /// The configured dimensionality.
        dims: usize,
    },
    /// A dimension received no reports, so its mean cannot be estimated.
    EmptyDimension {
        /// The dimension with zero reports.
        dimension: usize,
    },
    /// A utility metric could not be computed from the given inputs.
    MetricComputation {
        /// The metric being computed (`"mse"`, `"l2_deviation"`, ...).
        metric: &'static str,
        /// The offending input: `"estimate"`, `"truth"`, or
        /// `"estimate/truth"` when the fault involves both (length mismatch).
        input: &'static str,
        /// Description of what is wrong with the input.
        reason: String,
    },
    /// An error bubbled up from mechanism construction.
    Mechanism(hdldp_mechanisms::MechanismError),
    /// An error bubbled up from dataset handling.
    Data(hdldp_data::DataError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidConfig { name, reason } => {
                write!(f, "invalid protocol configuration `{name}`: {reason}")
            }
            ProtocolError::DimensionOutOfRange { dimension, dims } => {
                write!(f, "report dimension {dimension} out of range (d = {dims})")
            }
            ProtocolError::NonFiniteValue { dimension } => {
                write!(f, "report value for dimension {dimension} is not finite")
            }
            ProtocolError::MalformedReport {
                dimensions,
                values,
                dims,
            } => write!(
                f,
                "report of {values} values names {dimensions} dimensions: expected one \
                 dimension per value, or none and {dims} values (d = {dims})"
            ),
            ProtocolError::EmptyDimension { dimension } => {
                write!(f, "dimension {dimension} received no reports")
            }
            ProtocolError::MetricComputation {
                metric,
                input,
                reason,
            } => {
                write!(f, "cannot compute `{metric}`: bad `{input}` ({reason})")
            }
            ProtocolError::Mechanism(e) => write!(f, "mechanism error: {e}"),
            ProtocolError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Mechanism(e) => Some(e),
            ProtocolError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hdldp_mechanisms::MechanismError> for ProtocolError {
    fn from(e: hdldp_mechanisms::MechanismError) -> Self {
        ProtocolError::Mechanism(e)
    }
}

impl From<hdldp_data::DataError> for ProtocolError {
    fn from(e: hdldp_data::DataError) -> Self {
        ProtocolError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ProtocolError::InvalidConfig {
            name: "m",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains('m'));
        let e = ProtocolError::DimensionOutOfRange {
            dimension: 10,
            dims: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = ProtocolError::NonFiniteValue { dimension: 3 };
        assert!(e.to_string().contains("dimension 3"));
        let e = ProtocolError::MalformedReport {
            dimensions: 2,
            values: 3,
            dims: 4,
        };
        assert!(e.to_string().contains("3 values names 2 dimensions"));
        assert!(e.to_string().contains("d = 4"));
        let e = ProtocolError::MetricComputation {
            metric: "mse",
            input: "truth",
            reason: "empty".into(),
        };
        assert!(e.to_string().contains("mse"));
        assert!(e.to_string().contains("truth"));
        let e: ProtocolError = hdldp_mechanisms::MechanismError::InvalidEpsilon(-1.0).into();
        assert!(e.to_string().contains("mechanism"));
        assert!(std::error::Error::source(&e).is_some());
        let e: ProtocolError = hdldp_data::DataError::InvalidShape { reason: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
