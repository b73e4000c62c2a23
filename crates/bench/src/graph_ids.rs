//! The in-memory graph (`lpg::Graph`) under ids it is not laid out for.
//!
//! Ids are chosen by the client. The chunked graph is at its best for ids
//! counted up from 0 (what the Table 3 datasets use); this loads the same
//! number of nodes under ids that are not — counted down, strided, random
//! — and reports what a load, a lookup and a clone cost and how many bytes
//! `heap_size()` charges per node, so the price of sparse ids stays
//! measured. (The first chunked layout moved the whole spine on every
//! insert that was not an append: 200 k random ids loaded in 4 s, 200 k
//! descending strided ones in 9 s.)

use crate::common::{banner, BenchConfig, Timer};
use lpg::{Graph, NodeId, Update};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One id pattern, measured.
pub struct GraphIdsRow {
    /// Pattern name.
    pub pattern: &'static str,
    /// Milliseconds to `AddNode` all ids.
    pub load_ms: f64,
    /// Nanoseconds per `Graph::node` hit, ids probed in random order.
    pub lookup_ns: f64,
    /// Microseconds per `Graph::clone`.
    pub clone_us: f64,
    /// `Graph::heap_size()` per node.
    pub heap_bytes_per_node: f64,
}

fn measure(pattern: &'static str, ids: &[u64], probes: &[usize]) -> GraphIdsRow {
    let mut g = Graph::new();
    let t = Timer::start();
    for id in ids {
        g.apply(&Update::AddNode {
            id: NodeId::new(*id),
            labels: vec![],
            props: vec![],
        })
        .expect("distinct ids");
    }
    let load_ms = t.secs() * 1e3;
    g.check_consistency().expect("consistent graph");
    let t = Timer::start();
    let hits = probes
        .iter()
        .filter(|p| black_box(g.node(NodeId::new(ids[**p]))).is_some())
        .count();
    let lookup_ns = t.secs() * 1e9 / probes.len() as f64;
    assert_eq!(hits, probes.len(), "every loaded id is found");
    const CLONES: usize = 10;
    let t = Timer::start();
    for _ in 0..CLONES {
        black_box(g.clone());
    }
    GraphIdsRow {
        pattern,
        load_ms,
        lookup_ns,
        clone_us: t.secs() * 1e6 / CLONES as f64,
        heap_bytes_per_node: g.heap_size() as f64 / ids.len() as f64,
    }
}

/// Runs the experiment on `cfg.target_edges` nodes per pattern.
pub fn run(cfg: &BenchConfig) -> Vec<GraphIdsRow> {
    banner(
        "lpg::Graph under client-chosen ids",
        "dense ids are the layout's best case; the others get one node per chunk",
    );
    let n = cfg.target_edges;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let probes: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n) as usize).collect();
    // 64 random bits: two equal among a few 100 k has odds of 1 in 10^9.
    let random: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let stride = 1_000;
    let rows = vec![
        measure("dense up", &(0..n).collect::<Vec<_>>(), &probes),
        measure("dense down", &(0..n).rev().collect::<Vec<_>>(), &probes),
        measure(
            "strided up",
            &(0..n).map(|i| i * stride).collect::<Vec<_>>(),
            &probes,
        ),
        measure(
            "strided down",
            &(0..n).rev().map(|i| i * stride).collect::<Vec<_>>(),
            &probes,
        ),
        measure("random u64", &random, &probes),
    ];
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>14}",
        "ids", "load ms", "lookup ns", "clone us", "heap B/node"
    );
    for r in &rows {
        println!(
            "{:<14} {:>10.1} {:>12.1} {:>12.1} {:>14.1}",
            r.pattern, r.load_ms, r.lookup_ns, r.clone_us, r.heap_bytes_per_node
        );
    }
    println!("({n} nodes per pattern; lookups are hits in random order)");
    rows
}
