//! # aion-suite — umbrella crate for the Aion reproduction
//!
//! A standalone Rust reimplementation of *Aion: Efficient Temporal Graph
//! Data Management* (EDBT 2024). This crate re-exports every workspace
//! member and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! ```no_run
//! use aion_suite::aion::{Aion, AionConfig};
//!
//! let db = Aion::open(AionConfig::new("./data")).unwrap();
//! let ts = db
//!     .write(|txn| txn.add_node(aion_suite::lpg::NodeId::new(1), vec![], vec![]))
//!     .unwrap();
//! let node_history = db.get_node(aion_suite::lpg::NodeId::new(1), 0, ts + 1).unwrap();
//! assert_eq!(node_history.len(), 1);
//! ```

pub use aion;
pub use aion_server;
pub use algo;
pub use baselines;
pub use btree;
pub use check;
pub use encoding;
pub use lineagestore;
pub use lpg;
pub use obs;
pub use pagestore;
pub use query;
pub use timestore;
pub use vfs;
pub use workload;
