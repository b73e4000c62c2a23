//! Snapshot loads share the relationship segments their files share: a
//! segment that several snapshot files reference is decoded once and held
//! by every loaded graph as one chunk, for as long as one of them holds it.
//! A segment the latest graph still holds as the file was written is not
//! decoded at all: the snapshot writer lent it.
//! `timestore.snapshot.segments_decoded` counts the segments decoded from
//! bytes, `timestore.snapshot.segments_shared` those taken from memory.
//!
//! The obs registry is process-wide, so this file holds exactly one test.

use lpg::{Graph, NodeId, PropertyValue, RelId, StrId, Update};
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

/// `(decoded, shared)` segments since the last call.
fn segments(last: &mut (u64, u64)) -> (u64, u64) {
    let now = (
        counter("timestore.snapshot.segments_decoded"),
        counter("timestore.snapshot.segments_shared"),
    );
    let delta = (now.0 - last.0, now.1 - last.1);
    *last = now;
    delta
}

fn set_rel(id: u64, v: i64) -> Update {
    Update::SetRelProp {
        id: RelId::new(id),
        key: StrId::new(2),
        value: PropertyValue::Int(v),
    }
}

/// 1 280 nodes and 1 280 relationships (20 segments each) at 1, two
/// commits that touch one relationship segment each and one that touches a
/// node, a snapshot after every commit.
fn history() -> Vec<(u64, Vec<Update>)> {
    let bulk = (0..1_280)
        .map(|i| Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![(StrId::new(0), PropertyValue::Int(i as i64))],
        })
        .chain((0..1_280).map(|i| Update::AddRel {
            id: RelId::new(i),
            src: NodeId::new(i),
            tgt: NodeId::new((i * 7 + 1) % 1_280),
            label: Some(StrId::new(1)),
            props: vec![(StrId::new(3), PropertyValue::Float(i as f64))],
        }))
        .collect();
    let set_node = Update::SetNodeProp {
        id: NodeId::new(3),
        key: StrId::new(2),
        value: PropertyValue::Int(0),
    };
    vec![
        (1, bulk),
        (10, vec![set_rel(100, 1)]),
        (20, vec![set_rel(700, 2)]),
        (30, vec![set_node]),
    ]
}

fn oracle_at(commits: &[(u64, Vec<Update>)], ts: u64) -> Graph {
    let mut g = Graph::new();
    for (_, ops) in commits.iter().take_while(|(cts, _)| *cts <= ts) {
        g.apply_all(ops).unwrap();
    }
    g
}

#[test]
fn loads_decode_a_shared_segment_once_and_hold_it_once() {
    let dir = tempfile::tempdir().unwrap();
    let config = || TimeStoreConfig {
        policy: SnapshotPolicy::EveryNOps(1),
        ..Default::default()
    };
    let commits = history();
    let mut last = (0, 0);
    {
        let store = TimeStore::open(dir.path(), config()).unwrap();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        assert_eq!(store.stats().snapshot_count, 4);
        assert_eq!(segments(&mut last), (0, 0), "writing decodes nothing");

        // Every file lent the relationship segments it holds inline. The
        // first load takes from the latest graph all of them but the two
        // that the commits at 10 and 20 changed since, and decodes those
        // and the node segments.
        let at1 = store.snapshot_at(1).unwrap();
        assert!(at1.same_as(&oracle_at(&commits, 1)));
        assert_eq!(segments(&mut last), (22, 18));
        assert_eq!(at1.chunks_diverged_from(&store.latest_graph()), 20 + 2);
        // The second takes segment 1 from the latest graph (lent by the
        // file at 10) and the rest from there or from the first load.
        let at10 = store.snapshot_at(10).unwrap();
        assert_eq!(segments(&mut last), (20, 20));
        assert!(at10.same_as(&oracle_at(&commits, 10)));
        assert_eq!(at10.chunks_diverged_from(&at1), 20 + 1);
        // The file at 20 references segment 1 in the file at 10 and the
        // rest in the file at 1: one hop each, all of them held.
        let at20 = store.snapshot_at(20).unwrap();
        assert_eq!(segments(&mut last), (20, 20));
        assert!(at20.same_as(&oracle_at(&commits, 20)));
        assert_eq!(at20.chunks_diverged_from(&at10), 20 + 1);
        assert_eq!(at20.chunks_diverged_from(&at1), 20 + 2);

        // The audit reads and checks every byte; it takes nothing from
        // memory.
        let report = store.audit(true).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(segments(&mut last), (4 * 40, 0));
        store.sync().unwrap();
    }

    // After a reopen the latest graph is the floor snapshot (30) decoded,
    // and a load of an earlier one shares the chunks it has in common with
    // it: all relationship segments but the one the commit at 20 touched.
    let store = TimeStore::open(dir.path(), config()).unwrap();
    assert_eq!(segments(&mut last), (40, 0));
    let at10 = store.snapshot_at(10).unwrap();
    assert_eq!(segments(&mut last), (21, 19));
    assert_eq!(at10.chunks_diverged_from(&store.latest_graph()), 21);
    // A commit that changes a chunk the two share copies it: the read keeps
    // its version.
    store.append_commit(40, &[set_rel(5, 3)]).unwrap();
    assert!(at10.same_as(&oracle_at(&commits, 10)));
    let rel = store.latest_graph().rel(RelId::new(5)).cloned().unwrap();
    assert_eq!(rel.prop(StrId::new(2)), Some(&PropertyValue::Int(3)));
    assert_eq!(at10.chunks_diverged_from(&store.latest_graph()), 22);
}
