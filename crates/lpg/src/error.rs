//! Errors covering the LPG consistency constraints (Sec. 3) and storage
//! failures raised further up the stack.

use crate::ids::{NodeId, RelId};
use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Everything that can go wrong while mutating or reading a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// "A graph entity g can be added to a graph G only if g ∉ G."
    NodeExists(NodeId),
    /// Same constraint for relationships.
    RelExists(RelId),
    /// "A graph entity g can be deleted if g ∈ G during deletion."
    NodeNotFound(NodeId),
    /// Relationship lookup failed.
    RelNotFound(RelId),
    /// "Relationships also require their src and tgt to exist."
    EndpointMissing {
        /// The relationship being inserted.
        rel: RelId,
        /// The endpoint that does not exist.
        node: NodeId,
    },
    /// "When a node is deleted, we must first delete its relationships."
    NodeHasRelationships(NodeId),
    /// Application time constraint: start must be less than end.
    InvalidApplicationTime,
    /// A query used an empty or inverted time range.
    InvalidTimeRange,
    /// Attempted to commit at or before an already-committed timestamp
    /// ("no further changes are allowed on past updates").
    NonMonotonicCommit {
        /// The attempted commit timestamp.
        attempted: u64,
        /// The latest already-committed timestamp.
        latest: u64,
    },
    /// Underlying storage failure (I/O, …).
    Storage(String),
    /// A stored record failed to decode or violated a structural
    /// invariant: on-disk corruption surfaced as a typed error instead
    /// of a panic, so `aion-fsck` can report it and reads can degrade
    /// gracefully.
    CorruptRecord(String),
    /// A query-execution invariant was violated (malformed plan reached
    /// the executor).
    ExecError(String),
    /// The request's execution budget expired (per-request deadline
    /// passed or the server cancelled it during drain); execution stopped
    /// cooperatively at a check point, never mid-commit.
    DeadlineExceeded,
    /// The request exceeded its row or byte result budget. Distinct from
    /// [`GraphError::DeadlineExceeded`]: the query was not slow, it was
    /// too big. Deterministic for a given query and dataset, so clients
    /// should page or narrow the query rather than retry.
    BudgetExceeded,
    /// A pagination cursor failed revalidation: corrupted or truncated
    /// token, a cursor minted for a different query, or an anchor that no
    /// longer resolves at its pinned snapshot. Resuming would risk
    /// skipped or duplicated rows, so the request is refused instead.
    CursorInvalid(String),
    /// The node was fenced off the write path by a newer replication
    /// epoch: it holds epoch `held` but has observed `seen > held`,
    /// meaning another node was promoted to primary. Accepting the
    /// write would fork history — the commit is refused before anything
    /// reaches the log. Route the write to the current primary.
    Fenced {
        /// The highest epoch this node ever held as primary.
        held: u64,
        /// The higher epoch it has observed from the cluster.
        seen: u64,
    },
    /// The query referenced an unknown label, key, or parameter.
    Unknown(String),
    /// The query has a part the executor cannot evaluate yet, named in the
    /// message; running the query without it would widen the answer.
    Unsupported(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeExists(id) => write!(f, "node {id} already exists"),
            GraphError::RelExists(id) => write!(f, "relationship {id} already exists"),
            GraphError::NodeNotFound(id) => write!(f, "node {id} does not exist"),
            GraphError::RelNotFound(id) => write!(f, "relationship {id} does not exist"),
            GraphError::EndpointMissing { rel, node } => {
                write!(f, "relationship {rel} references missing node {node}")
            }
            GraphError::NodeHasRelationships(id) => {
                write!(f, "node {id} still has incident relationships")
            }
            GraphError::InvalidApplicationTime => {
                write!(f, "application start time must be less than end time")
            }
            GraphError::InvalidTimeRange => write!(f, "empty or inverted time range"),
            GraphError::NonMonotonicCommit { attempted, latest } => write!(
                f,
                "commit timestamp {attempted} is not after latest {latest}"
            ),
            GraphError::Storage(msg) => write!(f, "storage error: {msg}"),
            GraphError::CorruptRecord(msg) => write!(f, "corrupt record: {msg}"),
            GraphError::ExecError(msg) => write!(f, "execution error: {msg}"),
            GraphError::DeadlineExceeded => {
                write!(f, "deadline exceeded: query aborted by execution budget")
            }
            GraphError::BudgetExceeded => {
                write!(f, "budget exceeded: result larger than the row/byte budget")
            }
            GraphError::CursorInvalid(msg) => write!(f, "invalid cursor: {msg}"),
            GraphError::Fenced { held, seen } => write!(
                f,
                "write fenced: this node holds epoch {held} but epoch {seen} \
                 exists; route writes to the current primary"
            ),
            GraphError::Unknown(what) => write!(f, "unknown reference: {what}"),
            GraphError::Unsupported(what) => write!(f, "not supported: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::EndpointMissing {
            rel: RelId::new(7),
            node: NodeId::new(3),
        };
        assert!(e.to_string().contains("missing node 3"));
        let io = std::io::Error::other("boom");
        let g: GraphError = io.into();
        assert!(matches!(g, GraphError::Storage(_)));
    }
}
