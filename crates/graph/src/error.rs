//! Error types for the evolving-graph substrate.

use std::error::Error;
use std::fmt;

use crate::{EdgeId, Time};

/// Errors produced while constructing or combining evolving-graph objects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A ring must have at least two nodes.
    RingTooSmall {
        /// The rejected size.
        size: usize,
    },
    /// A frame (an [`crate::EdgeSet`]) was built for a different ring size.
    FrameSizeMismatch {
        /// Number of edges the schedule's ring has.
        expected: usize,
        /// Number of edges the offending frame has.
        found: usize,
    },
    /// An edge identifier does not exist in the ring.
    EdgeOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// Number of edges of the ring.
        edges: usize,
    },
    /// A time interval with `end <= start` (and a bounded end) is empty.
    EmptyInterval {
        /// Interval start (inclusive).
        start: Time,
        /// Interval end (exclusive).
        end: Time,
    },
    /// A periodic schedule needs at least one frame.
    EmptyPeriod,
    /// A probability must lie within `[0, 1]`.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
    /// A schedule appended to a [`crate::convergence::PrefixChain`] disagrees
    /// with the chain on the previously agreed prefix.
    PrefixMismatch {
        /// First time instant where the new schedule disagrees.
        at: Time,
    },
    /// A [`crate::convergence::PrefixChain`] entry must strictly extend the
    /// previous agreed prefix.
    PrefixNotGrowing {
        /// Length of the last agreed prefix.
        previous: Time,
        /// The rejected (non-increasing) prefix length.
        proposed: Time,
    },
}

impl GraphError {
    /// `Ok` for a probability in `[0, 1]`, [`GraphError::InvalidProbability`]
    /// otherwise.
    pub(crate) fn check_probability(p: f64) -> Result<(), GraphError> {
        if (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(GraphError::InvalidProbability { value: p })
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::RingTooSmall { size } => {
                write!(f, "ring must have at least 2 nodes, got {size}")
            }
            GraphError::FrameSizeMismatch { expected, found } => {
                write!(
                    f,
                    "frame covers {found} edges but the ring has {expected} edges"
                )
            }
            GraphError::EdgeOutOfRange { edge, edges } => {
                write!(f, "edge {edge} out of range for ring with {edges} edges")
            }
            GraphError::EmptyInterval { start, end } => {
                write!(f, "time interval [{start}, {end}) is empty")
            }
            GraphError::EmptyPeriod => write!(f, "periodic schedule needs at least one frame"),
            GraphError::InvalidProbability { value } => {
                write!(f, "probability {value} is outside [0, 1]")
            }
            GraphError::PrefixMismatch { at } => {
                write!(f, "schedule disagrees with the chain prefix at time {at}")
            }
            GraphError::PrefixNotGrowing { previous, proposed } => {
                write!(
                    f,
                    "prefix length {proposed} does not strictly extend previous prefix {previous}"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = GraphError::RingTooSmall { size: 1 };
        let msg = err.to_string();
        assert!(msg.starts_with("ring must"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}
