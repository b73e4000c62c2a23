//! # aion-lpg — the (temporal) labeled property graph data model
//!
//! This crate implements Section 3 of *Aion: Efficient Temporal Graph Data
//! Management* (EDBT 2024): the labeled property graph (LPG) model, the
//! universe of graph updates ordered by commit timestamp, the temporal LPG
//! whose entities carry `[τ_s, τ_e)` validity intervals, and the consistency
//! constraints every update sequence must satisfy.
//!
//! The types here are shared by every other crate in the workspace:
//!
//! * [`ids`] — strongly-typed identifiers (`NodeId`, `RelId`, `Timestamp`, …).
//! * [`value`] — property values (primitives, strings via the interner,
//!   primitive arrays).
//! * [`interner`] — the string store mapping labels / property keys / string
//!   values to 4-byte references (paper Sec. 4.2).
//! * [`interval`] — `[start, end)` interval algebra and the four temporal
//!   range specifiers of temporal Cypher (`AS OF`, `FROM..TO`, `BETWEEN..AND`,
//!   `CONTAINED IN`).
//! * [`entity`] — node / relationship snapshots and their versioned temporal
//!   counterparts.
//! * [`bfs`](mod@bfs) — the bounded breadth-first expansion (Alg. 1's
//!   loop) over any neighbour source, shared by both stores and the BFS
//!   measurements.
//! * [`bag`] — the property bag and label set an entity holds, the common
//!   one property and one or two labels inline.
//! * [`update`] — the update universe `U` and timestamped update tuples.
//! * [`delta`] — compact diffs between entity versions (paper Fig. 3 "Diff"
//!   records), including merge and apply.
//! * [`graph`] — the in-memory graph: id-ordered copy-on-write chunks, so a
//!   clone shares what later updates do not touch; the latest graph, the
//!   materialization target for snapshots and the oracle in tests.
//! * [`error`] — the crate error type covering the constraint violations of
//!   Sec. 3 ("A graph entity g can be added only if g ∉ G", etc.).

pub mod bag;
pub mod bfs;
pub mod delta;
pub mod entity;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod interval;
pub mod temporal;
pub mod update;
pub mod value;

pub use bag::{LabelSet, PropBag};
pub use bfs::bfs;
pub use delta::{EntityDelta, PropChange};
pub use entity::{Node, Props, Relationship, Version};
pub use error::{GraphError, Result};
pub use graph::{Graph, RelChunk, WeakRelChunk, CHUNK_BITS};
pub use ids::{Direction, EntityId, NodeId, RelId, StrId, Timestamp, TS_MAX, TS_MIN};
pub use interner::Interner;
pub use interval::{Interval, TimeRange};
pub use temporal::TemporalGraph;
pub use update::{TimestampedUpdate, Update};
pub use value::PropertyValue;
