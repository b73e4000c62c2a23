//! A read at the latest time pins the version it reads: commits that land
//! while it runs leave that version intact and addressable, so
//! `snapshot_at` at the pinned timestamp neither loads a snapshot file nor
//! replays the log. Once the last holder drops it, the version is gone and
//! a read at that timestamp rebuilds it as before.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{Graph, NodeId, Update};
use std::sync::Arc;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

/// `(replays, segments decoded, pinned hits)`.
fn work() -> (u64, u64, u64) {
    (
        counter("timestore.snapshot.replays"),
        counter("timestore.snapshot.segments_decoded"),
        counter("timestore.snapshot.pinned_hits"),
    )
}

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![],
        props: vec![],
    }
}

fn pins() -> Option<i64> {
    obs::snapshot().gauge("timestore.pins")
}

#[test]
fn a_pinned_version_is_served_until_its_last_reader_drops_it() {
    let dir = tempfile::tempdir().unwrap();
    let config = TimeStoreConfig {
        // Snapshots at 7 and 14: the version at 20 is a replay away.
        policy: SnapshotPolicy::EveryNOps(7),
        ..Default::default()
    };
    let store = TimeStore::open(dir.path(), config).unwrap();
    let mut oracle = Graph::new();
    for ts in 1..=20 {
        store.append_commit(ts, &[add_node(ts)]).unwrap();
        oracle.apply(&add_node(ts)).unwrap();
    }

    assert!(store.graphstore().pin_latest(21).is_none(), "not at 21 yet");
    let (ts, pin) = store.graphstore().pin_latest(20).unwrap();
    assert_eq!(ts, 20);
    assert_eq!(pins(), Some(1));
    for t in 21..=25 {
        store.append_commit(t, &[add_node(t)]).unwrap();
    }
    let before = work();
    let got = store.snapshot_at(20).unwrap();
    let after = work();
    assert!(Arc::ptr_eq(&got, &pin), "the pinned version itself");
    assert!(got.same_as(&oracle));
    assert_eq!(
        (after.0, after.1),
        (before.0, before.1),
        "no replay, no load"
    );
    assert_eq!(after.2, before.2 + 1);
    assert!(store.graphstore().is_empty(), "a pin fills no cache entry");
    assert_eq!(store.latest_graph().node_count(), 25);

    drop((got, pin));
    assert!(store.graphstore().pinned(20).is_none());
    let before = work();
    let rebuilt = store.snapshot_at(20).unwrap();
    let after = work();
    assert!(rebuilt.same_as(&oracle));
    assert_eq!(after.0, before.0 + 1, "one replay from the snapshot at 14");
    assert_eq!(after.2, before.2);

    // The next pin sweeps the dead entry: only its own version is alive,
    // and none once it is dropped and a commit moves the latest graph on.
    let (ts, pin) = store.graphstore().pin_latest(25).unwrap();
    assert_eq!(ts, 25);
    assert_eq!(pins(), Some(1));
    drop(pin);
    store.append_commit(26, &[add_node(26)]).unwrap();
    assert!(store.graphstore().pinned(25).is_none());
    let (_, pin) = store.graphstore().pin_latest(26).unwrap();
    assert_eq!(pins(), Some(1));
    drop(pin);
}
