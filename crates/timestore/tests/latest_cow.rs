//! The latest graph is mutated in place on the commit path: writing a
//! snapshot must not leave a reference behind that makes the next commit
//! copy anything, and a reader that does hold the graph costs a commit the
//! chunks it touches, not the graph. `timestore.latest.cow_copies` counts
//! the commits that found the graph shared, `timestore.latest.cow_chunks`
//! the chunks they copied.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

fn cow_copies() -> u64 {
    counter("timestore.latest.cow_copies")
}

fn cow_chunks() -> u64 {
    counter("timestore.latest.cow_chunks")
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
    // Snapshot creation registers no version in the GraphStore either.
    assert!((1..=30).all(|ts| store.graphstore().get(ts).is_none()));

    assert_eq!(cow_chunks(), 0);

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

    // What the copy costs does not grow with the graph: on 10 000 nodes a
    // property write under a reader copies the one chunk it lands in, a
    // new relationship its own chunk and its two endpoints'.
    let many: Vec<Update> = (33..=10_000).map(add_node).collect();
    store.append_commit(33, &many).unwrap();
    let chunks_before = cow_chunks();

    let reader = store.latest_graph();
    let key = StrId::new(0);
    let set_prop = Update::SetNodeProp {
        id: NodeId::new(5_000),
        key,
        value: PropertyValue::Int(1),
    };
    store.append_commit(34, &[set_prop]).unwrap();
    assert_eq!(cow_copies(), 2);
    assert_eq!(cow_chunks() - chunks_before, 1);
    assert_eq!(reader.node_count(), 10_000);
    assert_eq!(reader.node(NodeId::new(5_000)).unwrap().prop(key), None);
    drop(reader);

    let reader = store.latest_graph();
    let add_rel = Update::AddRel {
        id: RelId::new(1),
        src: NodeId::new(100),
        tgt: NodeId::new(9_000),
        label: None,
        props: vec![],
    };
    store.append_commit(35, &[add_rel]).unwrap();
    assert_eq!(cow_copies(), 3);
    let rel_chunks = cow_chunks() - chunks_before - 1;
    assert!((1..=3).contains(&rel_chunks), "AddRel copied {rel_chunks}");
    assert_eq!(reader.rel_count(), 0);
    // Everything but the two endpoint chunks is still shared.
    assert_eq!(reader.chunks_diverged_from(&store.latest_graph()), 2);
    drop(reader);

    let (copies, chunks) = (cow_copies(), cow_chunks());
    store.append_commit(36, &[add_node(10_001)]).unwrap();
    assert_eq!((cow_copies(), cow_chunks()), (copies, chunks));
    let latest = store.latest_graph();
    assert_eq!((latest.node_count(), latest.rel_count()), (10_001, 1));
    latest.check_consistency().unwrap();
}
