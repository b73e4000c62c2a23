//! The GraphStore holds the versions readers hold. A read at the latest
//! time pins the version it reads: commits that land while it runs leave
//! that version intact and addressable, so `snapshot_at` at the pinned
//! timestamp neither loads a snapshot file nor replays the log. A version
//! `snapshot_at` built is served the same way while a caller holds it, and
//! is the replay base of a later read. Once the last holder drops it, the
//! version is gone and a read at that timestamp rebuilds it as before.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{Graph, NodeId, Update};
use std::sync::Arc;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

/// `(replays, segments decoded, GraphStore hits, segments shared)`.
fn work() -> (u64, u64, u64, u64) {
    (
        counter("timestore.snapshot.replays"),
        counter("timestore.snapshot.segments_decoded"),
        counter("timestore.graphstore.hits"),
        counter("timestore.snapshot.segments_shared"),
    )
}

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![],
        props: vec![],
    }
}

/// Registered versions still alive, as of the last registration.
fn pins() -> Option<i64> {
    obs::snapshot().gauge("timestore.graphstore.versions")
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
    assert_eq!(store.latest_graph().node_count(), 25);

    drop((got, pin));
    assert!(store.graphstore().get(20).is_none());
    let before = work();
    let rebuilt = store.snapshot_at(20).unwrap();
    let after = work();
    assert!(rebuilt.same_as(&oracle));
    assert_eq!(after.0, before.0 + 1, "one replay from the snapshot at 14");
    assert_eq!(after.2, before.2);
    drop(rebuilt);

    // The next pin sweeps the dead entry: only its own version is alive,
    // and none once it is dropped and a commit moves the latest graph on.
    let (ts, pin) = store.graphstore().pin_latest(25).unwrap();
    assert_eq!(ts, 25);
    assert_eq!(pins(), Some(1));
    drop(pin);
    store.append_commit(26, &[add_node(26)]).unwrap();
    assert!(store.graphstore().get(25).is_none());
    let (_, pin) = store.graphstore().pin_latest(26).unwrap();
    assert_eq!(pins(), Some(1));
    drop(pin);

    // A version `snapshot_at` built is served while a caller holds it, and
    // rebuilt, one more replay, once it is dropped.
    let before = work();
    let built = store.snapshot_at(10).unwrap();
    let again = store.snapshot_at(10).unwrap();
    let after = work();
    assert!(Arc::ptr_eq(&built, &again));
    assert!(built.same_as(&oracle_at(10)));
    assert_eq!(after.0, before.0 + 1, "one replay from the snapshot at 7");
    assert_eq!(after.2, before.2 + 1, "the second read is a hit");
    drop((built, again));
    assert!(store.graphstore().get(10).is_none());
    let before = work();
    assert!(store.snapshot_at(10).unwrap().same_as(&oracle_at(10)));
    let after = work();
    assert_eq!(after.0, before.0 + 1, "rebuilt");
    assert_eq!(after.2, before.2);

    // While the version at 15 is held, the read at 19 replays (15, 19] on
    // it: the snapshot file at 14 is not loaded again.
    let held = store.snapshot_at(15).unwrap();
    let before = work();
    let later = store.snapshot_at(19).unwrap();
    let after = work();
    assert!(later.same_as(&oracle_at(19)));
    assert!(held.same_as(&oracle_at(15)));
    assert_eq!(after.0, before.0 + 1, "one replay");
    assert_eq!(
        (after.1, after.3),
        (before.1, before.3),
        "no segment loaded"
    );

    // The pin at 26 stays alive as the latest graph until a commit moves it
    // on. Every holder gone, the next registration sweeps the dead entries:
    // the gauge counts only the version it registers, and once that one is
    // dropped too the GraphStore has nothing left to serve.
    assert_eq!(pins(), Some(3), "the versions at 15, 19 and 26");
    drop((held, later));
    store.append_commit(27, &[add_node(27)]).unwrap();
    let last = store.snapshot_at(12).unwrap();
    assert_eq!(pins(), Some(1));
    drop(last);
    assert!([10, 12, 15, 19, 20, 25, 26]
        .iter()
        .all(|&ts| store.graphstore().get(ts).is_none()));
}

/// The graph of nodes 1..=ts, as every commit up to `ts` left it.
fn oracle_at(ts: u64) -> Graph {
    let mut g = Graph::new();
    for t in 1..=ts {
        g.apply(&add_node(t)).unwrap();
    }
    g
}
