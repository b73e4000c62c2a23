//! # aion-bench — the experiment harness (paper Sec. 6)
//!
//! One module per table/figure of the evaluation. Each experiment builds a
//! scaled-down workload with the Table 3 shape, runs the same measurement
//! protocol as the paper, and prints measured numbers next to the paper's
//! reported values so the *shape* of every result (who wins, by roughly
//! what factor, where the crossovers fall) can be compared directly.
//!
//! Run via the `figures` binary:
//!
//! ```text
//! cargo run -p aion-bench --release --bin figures -- all --edges 20000
//! cargo run -p aion-bench --release --bin figures -- fig8 --edges 50000
//! ```
//!
//! Absolute numbers will differ from the paper (different hardware, scaled
//! datasets, a reimplementation); `EXPERIMENTS.md` records a full run.

pub mod ablations;
pub mod cli;
pub mod common;
pub mod fig06_point_queries;
pub mod fig07_snapshots;
pub mod fig08_nhop;
pub mod fig09_ingest;
pub mod fig10_storage;
pub mod fig11_materialize;
pub mod fig12_incremental;
pub mod fig13_bolt;
pub mod graph_ids;
pub mod table3_datasets;
pub mod table4_complexity;
pub mod write_throughput;

pub use common::{BenchConfig, Timer};
