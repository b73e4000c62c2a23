//! The snapshot writer lends the latest graph's relationship chunks to later
//! loads, yet a load never gets a chunk that a commit changed since: a
//! commit that changes a lent chunk nobody else holds moves it away from
//! what loads find, and one that changes a chunk a loaded graph shares
//! copies it, so the reader keeps its version.
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

/// 640 nodes and 640 relationships (10 segments each) at 1, then two
/// commits that each change one relationship in a segment no commit touched
/// before, with one that changes a node between them.
fn history() -> Vec<(u64, Vec<Update>)> {
    let bulk = (0..640)
        .map(|i| Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        })
        .chain((0..640).map(|i| Update::AddRel {
            id: RelId::new(i),
            src: NodeId::new(i),
            tgt: NodeId::new((i * 3 + 1) % 640),
            label: None,
            props: vec![(StrId::new(1), PropertyValue::Int(i as i64))],
        }))
        .collect();
    vec![
        (1, bulk),
        (2, vec![set_rel(130, -1)]),
        (
            3,
            vec![Update::SetNodeProp {
                id: NodeId::new(5),
                key: StrId::new(2),
                value: PropertyValue::Int(0),
            }],
        ),
        (4, vec![set_rel(400, -2)]),
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
fn a_lent_chunk_a_commit_changes_is_never_handed_out() {
    let dir = tempfile::tempdir().unwrap();
    let config = TimeStoreConfig {
        policy: SnapshotPolicy::Never,
        // Nothing is cached: every read below loads its snapshot file.
        graphstore_bytes: 0,
        ..Default::default()
    };
    let store = TimeStore::open(dir.path(), config).unwrap();
    let commits = history();
    let commit = |i: usize| {
        let (ts, ops) = &commits[i];
        store.append_commit(*ts, ops).unwrap();
    };
    let mut last = (0, 0);

    // The file at 1 holds every segment inline and lends the ten
    // relationship chunks.
    commit(0);
    store.write_snapshot().unwrap();
    // No reader holds the latest graph: the commit changes relationship
    // segment 2 in place, which takes it away from what loads find.
    commit(1);
    segments(&mut last);
    let at1 = store.snapshot_at(1).unwrap();
    assert!(at1.same_as(&oracle_at(&commits, 1)));
    assert_eq!(segments(&mut last), (10 + 1, 9), "decodes segment 2");
    drop(at1);

    // The file at 2 lends segment 2 as changed; past the next commit, the
    // load at 2 takes all ten from the latest graph.
    store.write_snapshot().unwrap();
    commit(2);
    let at2 = store.snapshot_at(2).unwrap();
    assert!(at2.same_as(&oracle_at(&commits, 2)));
    assert_eq!(segments(&mut last), (10, 10));
    assert_eq!(at2.chunks_diverged_from(&store.latest_graph()), 10);
    // The reader holds segment 6 with the latest graph: the commit copies
    // it, and the reader keeps its version.
    commit(3);
    assert!(at2.same_as(&oracle_at(&commits, 2)));
    assert_eq!(at2.chunks_diverged_from(&store.latest_graph()), 10 + 1);
    // What a load finds is still the version at 2, and the latest graph
    // has the commit.
    let again = store.snapshot_at(2).unwrap();
    assert!(again.same_as(&oracle_at(&commits, 2)));
    assert_eq!(segments(&mut last), (10, 10));
    assert!(store
        .snapshot_at(3)
        .unwrap()
        .same_as(&oracle_at(&commits, 3)));
    assert!(store.latest_graph().same_as(&oracle_at(&commits, 4)));
}
