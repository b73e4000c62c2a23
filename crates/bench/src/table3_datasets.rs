//! Table 3 — the evaluation datasets: shape parameters and the in-memory
//! size of the one in-memory representation, `lpg::Graph` (id-ordered
//! copy-on-write chunks of nodes with their adjacency lists, and of
//! relationships).
//!
//! The paper sizes its Fig. 5 layout at 60 B per node, 68 B per
//! relationship and 4 B per adjacency entry (two per relationship), which
//! at full scale gives its 175 MB for DBLP. The table reports what
//! `Graph::heap_size()` charges per node and per relationship beside that
//! accounting.

use crate::common::{banner, BenchConfig};
use lpg::{Graph, Update};
use workload::DATASETS;

/// The paper's accounting, bytes per node.
const PAPER_NODE_BYTES: f64 = 60.0;
/// The paper's accounting, bytes per relationship with its two adjacency
/// entries.
const PAPER_REL_BYTES: f64 = 68.0 + 2.0 * 4.0;

/// One measured row.
pub struct DatasetRow {
    /// Dataset name.
    pub name: String,
    /// Scaled |V|.
    pub nodes: u64,
    /// Scaled |E|.
    pub rels: u64,
    /// |E| / |V|.
    pub avg_degree: f64,
    /// `Graph::heap_size()` of the loaded dataset.
    pub graph_bytes: usize,
    /// Bytes per node: the same graph without its relationships.
    pub node_bytes: f64,
    /// Bytes per relationship: what adding the relationships added.
    pub rel_bytes: f64,
}

/// Runs the accounting.
pub fn run(cfg: &BenchConfig) -> Vec<DatasetRow> {
    banner(
        "Table 3 — datasets (scaled) and in-memory representation size",
        "paper's accounting: 60 B/node, 68 B/rel + 2 x 4 B adjacency entries (DBLP: 175 MB)",
    );
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>6} {:>12} {:>8} {:>8} {:>10}",
        "dataset", "|V|", "|E|", "|E|/|V|", "dir", "graph", "B/node", "B/rel", "vs paper"
    );
    let mut out = Vec::new();
    for d in DATASETS {
        let spec = cfg.spec(d.name);
        let w = workload::generate(spec, cfg.seed);
        let mut nodes_only = Graph::new();
        let mut g = Graph::new();
        for u in &w.updates {
            if matches!(u.op, Update::AddNode { .. }) {
                nodes_only.apply(&u.op).expect("consistent stream");
            }
            g.apply(&u.op).expect("consistent stream");
        }
        let (nodes, rels) = (g.node_count() as f64, g.rel_count() as f64);
        let (graph_bytes, nodes_only_bytes) = (g.heap_size(), nodes_only.heap_size());
        let node_bytes = nodes_only_bytes as f64 / nodes;
        let rel_bytes = (graph_bytes - nodes_only_bytes) as f64 / rels;
        let paper_bytes = nodes * PAPER_NODE_BYTES + rels * PAPER_REL_BYTES;
        let row = DatasetRow {
            name: d.name.to_string(),
            nodes: spec.nodes,
            rels: w.rel_ids.len() as u64,
            avg_degree: d.avg_degree(),
            graph_bytes,
            node_bytes,
            rel_bytes,
        };
        println!(
            "{:<12} {:>10} {:>10} {:>8.1} {:>6} {:>8} KiB {:>8.1} {:>8.1} {:>9.2}x",
            row.name,
            row.nodes,
            row.rels,
            row.avg_degree,
            if d.directed { "yes" } else { "no" },
            row.graph_bytes / 1024,
            row.node_bytes,
            row.rel_bytes,
            graph_bytes as f64 / paper_bytes,
        );
        out.push(row);
    }
    out
}
