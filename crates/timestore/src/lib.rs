//! # aion-timestore — snapshot-based temporal storage indexed by time
//!
//! TimeStore (paper Sec. 4.3) is the half of Aion's hybrid store that
//! accelerates *global* queries: full-graph restoration at arbitrary time
//! points, diffs between time points, graph windows and temporal graphs.
//!
//! Components, mirroring the paper:
//!
//! * [`log::ChangeLog`] — "a log that contains all graph changes (similar to
//!   a DB write-ahead log with no retention policy)", ordered by
//!   monotonically increasing transaction timestamps, holding fully
//!   materialized entries or deltas in the Sec. 4.2 record format. Frames
//!   are checksummed so recovery can detect a torn tail. The paper seeks
//!   into it with a B+Tree `timestamp → log offset` (Table 2, row 1); here
//!   the log keeps every frame's `(ts, offset)` in memory from the scan at
//!   open on, and a seek is a binary search over them;
//! * eager snapshots written "based on a user-defined policy"
//!   ([`policy::SnapshotPolicy`], operation-based by default) to snapshot
//!   files. The paper references them from "a second B+Tree indexed by
//!   time" (Table 2, row 2); here the files' names are that index, held in
//!   memory from open on (see [`store`]). Each file is logically full but writes only the 64-id
//!   segments an update touched since the previous snapshot and references
//!   the rest in earlier files ([`encoding::snapshot`]). Loading decodes a
//!   relationship segment several files reference once, and the loaded
//!   graphs hold it as one chunk;
//! * [`graphstore::GraphStore`] — the paper's "in-memory Least Recently
//!   Used (LRU) cache for snapshots" becomes a registry of the versions
//!   readers hold, with no copies of its own; it also maintains the
//!   *latest* graph by synchronously applying committed updates (Sec. 5.1
//!   "Snapshot replication", the HTAP-style design).
//!
//! To retrieve a graph at timestamp `t`, [`store::TimeStore`] serves a
//! version a reader holds at `t`, or else fetches the closest base `≤ t`
//! (a held version, the latest graph or a snapshot file) and replays the
//! forward changes from the log (Sec. 4.3), each commit as its frame is
//! read ([`store::TimeStore::replay`]). It also answers Table 1's entity
//! reads itself, as the LineageStore does ([`history`]), when that lags or
//! the planner expects a large expansion.

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
pub mod graphstore;
pub mod history;
pub mod log;
pub mod policy;
pub mod store;

pub use graphstore::GraphStore;
pub use log::{ChangeLog, CommitFrame, Payload};
pub use policy::SnapshotPolicy;
pub use store::{TimeStore, TimeStoreConfig, TimeStoreStats, Versions};
