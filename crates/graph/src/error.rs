//! Typed errors for recoverable graph conditions, plus the crate's single
//! panic funnel for invariant violations.

use std::fmt;

/// Recoverable errors from graph construction and transition-matrix
/// assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two shapes are incompatible for the attempted operation (e.g. a
    /// non-square adjacency, or coordinates for the wrong node count).
    ShapeMismatch {
        /// Name of the operation.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A parameter that must be at least one (kernel size, node count) was
    /// zero.
    EmptyDimension(&'static str),
    /// A negative adjacency weight: transition matrices are normalized
    /// road-network weights, which are non-negative by definition.
    NegativeWeight {
        /// Source node of the offending edge.
        row: usize,
        /// Target node of the offending edge.
        col: usize,
    },
    /// A non-zero self-loop: the adjacency diagonal must be zero (Eq. 4
    /// masks a node's own history out of its diffusion signal).
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            GraphError::EmptyDimension(what) => write!(f, "{what} must be >= 1"),
            GraphError::NegativeWeight { row, col } => {
                write!(f, "adjacency weight ({row}, {col}) is negative")
            }
            GraphError::SelfLoop { node } => {
                write!(
                    f,
                    "adjacency has a self-loop at node {node} (diagonal must be zero)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The crate's single panic funnel for unrecoverable invariant violations.
///
/// Construction keeps its documented panic-on-misuse contract, but every
/// such abort goes through this one function so the `xlint` `no-panic` rule
/// needs exactly one allowlist entry for the whole crate.
#[cold]
#[track_caller]
pub(crate) fn violation(detail: impl fmt::Display) -> ! {
    panic!("{detail}")
}

/// Unwrap a result whose failure is an internal invariant violation.
#[track_caller]
pub(crate) fn require<T, E: fmt::Display>(result: Result<T, E>, context: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => violation(format_args!("{context}: {e}")),
    }
}
