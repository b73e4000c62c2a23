//! # aion-core — the transactional temporal graph DBMS (Sec. 5)
//!
//! This crate assembles the substrates into the system of Fig. 4:
//!
//! ```text
//!   write txn ──commit──▶ group-commit log writer (stage 1):
//!                         check, log, apply, in commit order
//!                               │
//!                               ▼
//!            TimeStore + latest graph (synchronous, stage 2)
//!                               │ cascade, the one LineageStore applier
//!                               ▼
//!                 LineageStore (asynchronous; `sync_lineage`
//!                 makes the commit wait for it)
//!
//!   temporal query (stage 3) ──▶ planner ──▶ LineageStore | TimeStore
//! ```
//!
//! * [`txn`] — write transactions that buffer updates. Where the paper
//!   hooks Neo4j's after-commit event listener, a batch goes straight to
//!   the group-commit writer, which checks it against the LPG constraints
//!   of the latest graph, assigns monotonically increasing commit
//!   timestamps, and feeds the TimeStore and the cascade.
//! * [`cascade`] — the background workers that apply committed updates to
//!   the LineageStore off the critical path; the LineageStore "lags behind
//!   the TimeStore, and in the rare case that it cannot serve a temporal
//!   query, the TimeStore is used instead" (Sec. 5.1).
//! * `group_commit` — the dedicated log-writer thread, the one place a
//!   commit is checked, logged, applied and handed to the cascade. It
//!   coalesces concurrent commits into one TimeStore append run and one
//!   shared durability fsync (bounded by
//!   `AionConfig::commit_latency_budget`); a batch that breaks a
//!   constraint is refused before anything reaches the log.
//! * [`planner`] — the heuristic store selector: "if less than 30% of the
//!   graph is accessed, Aion uses the LineageStore; otherwise, it
//!   constructs a full graph snapshot with the TimeStore". Its inputs are
//!   the latest graph's |V| and |E|; the paper's label, type and pattern
//!   histograms return with a cost model that reads them.
//! * [`db`] — [`Aion`] itself, exposing the Table 1 temporal graph API.
//! * [`bitemporal`] — application-time handling (Sec. 4.5): application
//!   start/end stored as ordinary properties, filtered after system-time
//!   retrieval, with fallback to system time when unset.
//! * [`procedures`] — the temporal procedures layer (Sec. 5.1): graph
//!   projections plus incremental AVG / BFS / PageRank over snapshot
//!   series (Sec. 6.6).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod bitemporal;
pub mod cascade;
pub mod db;
mod group_commit;
pub mod planner;
pub mod procedures;
pub mod stream;
pub mod txn;

pub use check::{CheckLevel, ConsistencyReport};
pub use db::{Aion, AionConfig, LatestPin, StoreChoice};
pub use planner::Planner;
pub use stream::NodeStream;
pub use txn::{CommitEvent, WriteTxn};
