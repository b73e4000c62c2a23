//! # aion-workload — evaluation datasets and update streams (Sec. 6.1)
//!
//! The paper evaluates on six real-world graphs (Table 3). Those datasets
//! cannot ship with this reproduction, so [`datasets`] carries their shape
//! parameters — |V|, |E|, average degree, directedness — and [`generator`]
//! synthesizes graphs with the same shape at a configurable scale, using a
//! power-law target distribution to reproduce degree skew.
//!
//! Timestamping follows the paper's recipe exactly: "we load and shuffle
//! all relationships, assign them monotonically increasing timestamps, and
//! consume them in timestamp order to emulate relationship additions over
//! time, where node creation always precedes the creation of any incident
//! relationships". Undirected datasets (DBLP, Orkut) have each edge
//! replaced by two directed relationships.
//!
//! [`txmix`] generates the Bolt transaction mixes of Fig. 13 (read-only,
//! 10 % writes, 20 % writes).

pub mod datasets;
pub mod generator;
pub mod simops;
pub mod txmix;

pub use datasets::{Dataset, DATASETS};
pub use generator::{generate, GeneratedWorkload};
pub use simops::{commit_script, spread_ids, SimOpsConfig};
pub use txmix::{ClientOp, TxMix};
