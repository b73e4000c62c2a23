//! # aion-lineagestore — fine-grained temporal storage indexed by entity
//!
//! LineageStore (paper Sec. 4.4) is the half of Aion's hybrid store that
//! accelerates *point and small-subgraph* queries: node/relationship history
//! lookups and n-hop expansions, each an `O(log n)` B+Tree range scan
//! because composite keys order every entity's history contiguously.
//!
//! Four B+Tree indexes (Table 2):
//!
//! | entry           | key                       | value                             |
//! |-----------------|---------------------------|-----------------------------------|
//! | node            | `nodeId, ts`              | chain fields; type, labels, props |
//! | relationship    | `relId, ts`               | chain fields; type, label, props  |
//! | out-neighbours  | `srcId, tgtId, relId, ts` | empty, or `[1]` when deleted      |
//! | in-neighbours   | `tgtId, srcId, relId, ts` | empty, or `[1]` when deleted      |
//!
//! Every key writes each part as a length byte and its significant
//! big-endian bytes (`encoding::keys`): a history key is 2–18 bytes, a
//! neighbour key 4–36. A neighbour entry's key already names the
//! relationship and the time, so its value is empty (the relationship
//! joined the neighbourhood at `ts`) or `[1]` (it left). A history entry's
//! chain fields are written relative to its key's `ts`, on a delta only: a
//! full record is its body alone ([`entry`]). The B+Tree leaves hold the
//! prefix their keys share once (`btree::layout`).
//!
//! Updates are stored **in place** as deltas or fully materialized entities
//! (not as pointers into the TimeStore log), trading space for access
//! locality. The [`entry::LineageEntry`] envelope records each delta's
//! position in its chain and the timestamp of the last materialized version,
//! so reconstruction reads a bounded key range. The chain-length threshold
//! is the materialization strategy evaluated in Sec. 6.5 (the paper settles
//! on materializing every 4 deltas).
//!
//! [`expand`] implements Algorithm 1 (n-hop expansion at a time point).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod audit;
pub mod entry;
pub mod expand;
pub mod store;
pub mod stream;

pub use entry::LineageEntry;
pub use store::{LineageStore, LineageStoreConfig, LineageStoreStats};
pub use stream::NodeIdScan;
