//! # aion-algo — graph algorithms: static, incremental, temporal
//!
//! The analytics layer of the reproduction. One algorithm per family of
//! Sec. 5.2 "Aion supports three categories of incremental algorithms",
//! the three the paper's evaluation runs (Fig. 12 and Fig. 14):
//!
//! 1. **Non-holistic aggregations** — [`aggregate::IncrementalAvg`]
//!    maintains a running average over a relationship property from
//!    `getDiff` batches using stream-processing-style counters.
//! 2. **Monotonic path algorithms** — [`bfs`] (levels), whose incremental
//!    engine uses the Kickstarter *tag & reset* technique for deletions:
//!    affected vertices are tagged, their values reset, and the tags
//!    propagated before re-relaxation.
//! 3. **Non-monotonic algorithms** — [`pagerank()`] converges independently
//!    of initialization, so the incremental engine warm-starts from the
//!    previous snapshot's ranks and propagates changes until convergence.
//!
//! [`temporal_paths`] implements the single-scan earliest-arrival /
//! latest-departure computation over temporal LPGs (Fig. 2, following
//! Wu et al. and TeGraph's topological-optimum formulation).
//!
//! Static algorithms consume [`csr::Csr`] projections (the GDS-style path,
//! and the sparse → dense id remap of Sec. 5.2); incremental engines consume
//! an [`lpg::Graph`] plus the update diff between snapshots.

pub mod aggregate;
pub mod bfs;
pub mod csr;
pub mod pagerank;
pub mod temporal_paths;

pub use aggregate::IncrementalAvg;
pub use bfs::{bfs_levels, IncrementalBfs};
pub use csr::Csr;
pub use pagerank::{pagerank, IncrementalPageRank, PageRankConfig};
pub use temporal_paths::{earliest_arrival, latest_departure};
