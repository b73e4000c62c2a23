//! The latest graph is mutated in place on the commit path: writing a
//! snapshot must not leave a reference behind that forces the next commit
//! to deep-copy it. `timestore.latest.cow_copies` counts those copies.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{NodeId, Update};
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

fn cow_copies() -> u64 {
    obs::snapshot()
        .counter("timestore.latest.cow_copies")
        .unwrap_or(0)
}

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![],
        props: vec![],
    }
}

#[test]
fn snapshots_do_not_force_copies_but_a_held_reader_does() {
    let dir = tempfile::tempdir().unwrap();
    let config = TimeStoreConfig {
        policy: SnapshotPolicy::EveryNOps(5),
        ..Default::default()
    };
    let store = TimeStore::open(dir.path(), config).unwrap();
    for ts in 1..=30 {
        store.append_commit(ts, &[add_node(ts)]).unwrap();
    }
    assert!(store.stats().snapshot_count >= 5);
    assert_eq!(cow_copies(), 0, "a commit after a snapshot deep-copied");
    // Snapshot creation parks nothing in the historical cache either.
    assert!(store.graphstore().is_empty());

    // A reader holding the latest graph across a commit costs that commit
    // one copy (the reader keeps its version); the commit after does not.
    let reader = store.latest_graph();
    store.append_commit(31, &[add_node(31)]).unwrap();
    assert_eq!(cow_copies(), 1);
    assert_eq!(reader.node_count(), 30);
    drop(reader);
    store.append_commit(32, &[add_node(32)]).unwrap();
    assert_eq!(cow_copies(), 1);
    assert_eq!(store.latest_graph().node_count(), 32);
}
