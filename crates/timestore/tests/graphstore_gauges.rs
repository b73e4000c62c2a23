//! The GraphStore reports its occupancy: `timestore.graphstore.bytes` is
//! what its entries are charged together and `timestore.graphstore.entries`
//! how many it holds, both as of the last `put`, evictions included.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{Graph, NodeId, Update};
use std::sync::Arc;
use timestore::GraphStore;

fn graph(nodes: u64) -> Arc<Graph> {
    let mut g = Graph::new();
    for i in 0..nodes {
        g.apply(&Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
    }
    Arc::new(g)
}

fn gauges() -> (Option<i64>, Option<i64>) {
    let snap = obs::snapshot();
    (
        snap.gauge("timestore.graphstore.bytes"),
        snap.gauge("timestore.graphstore.entries"),
    )
}

#[test]
fn occupancy_gauges_follow_puts_and_evictions() {
    let one = graph(100).heap_size();
    let store = GraphStore::new(2 * one + one / 2);
    store.put(1, graph(100));
    assert_eq!(gauges(), (Some(one as i64), Some(1)));
    store.put(2, graph(100));
    assert_eq!(gauges(), (Some(2 * one as i64), Some(2)));
    // A third entry evicts the least recently used one.
    store.put(3, graph(100));
    assert_eq!(gauges(), (Some(2 * one as i64), Some(2)));
    assert_eq!(store.cached_bytes(), 2 * one);
    // A small entry fits beside them: the gauges count what is charged.
    let small = graph(10);
    store.put(4, small.clone());
    let held = (2 * one + small.heap_size()) as i64;
    assert_eq!(gauges(), (Some(held), Some(3)));
    // An entry larger than the budget is not cached and moves nothing.
    store.put(5, graph(1_000));
    assert_eq!(gauges(), (Some(held), Some(3)));
}
