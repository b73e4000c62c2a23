//! End-to-end TimeStore tests: ingest → reconstruct → diff → window →
//! temporal graph → recovery, all checked against the naive-replay oracle.

use lpg::{
    Graph, Interval, NodeId, PropertyValue, RelId, StrId, TemporalGraph, TimestampedUpdate, Update,
};
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};
use workload::oracle_at;

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![StrId::new((i % 4) as u32)],
        props: vec![(StrId::new(0), PropertyValue::Int(i as i64))],
    }
}

fn add_rel(id: u64, src: u64, tgt: u64) -> Update {
    Update::AddRel {
        id: RelId::new(id),
        src: NodeId::new(src),
        tgt: NodeId::new(tgt),
        label: Some(StrId::new(9)),
        props: vec![(StrId::new(1), PropertyValue::Float(id as f64))],
    }
}

/// A deterministic update history: nodes, rels, property churn, deletions.
fn history() -> Vec<(u64, Vec<Update>)> {
    let mut commits = Vec::new();
    let mut ts = 0u64;
    for i in 0..30 {
        ts += 1;
        commits.push((ts, vec![add_node(i)]));
    }
    for i in 0..60 {
        ts += 1;
        commits.push((ts, vec![add_rel(i, i % 30, (i * 7 + 1) % 30)]));
    }
    for i in 0..20 {
        ts += 1;
        commits.push((
            ts,
            vec![Update::SetNodeProp {
                id: NodeId::new(i % 30),
                key: StrId::new(2),
                value: PropertyValue::Int(i as i64 * 10),
            }],
        ));
    }
    for i in 0..10 {
        ts += 1;
        commits.push((ts, vec![Update::DeleteRel { id: RelId::new(i) }]));
    }
    commits
}

fn config(policy: SnapshotPolicy) -> TimeStoreConfig {
    TimeStoreConfig {
        policy,
        ..Default::default()
    }
}

#[test]
fn reconstruction_matches_oracle_at_every_commit() {
    let dir = tempdir().unwrap();
    let ts_store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(25))).unwrap();
    let commits = history();
    for (ts, ops) in &commits {
        ts_store.append_commit(*ts, ops).unwrap();
    }
    for probe in [1u64, 5, 30, 31, 45, 90, 100, 111, 120, 200] {
        let got = ts_store.snapshot_at(probe).unwrap();
        let want = oracle_at(&commits, probe);
        assert!(got.same_as(&want), "mismatch at ts {probe}");
    }
}

#[test]
fn snapshots_accelerate_but_do_not_change_results() {
    let commits = history();
    let mut graphs = Vec::new();
    for policy in [SnapshotPolicy::Never, SnapshotPolicy::EveryNOps(10)] {
        let dir = tempdir().unwrap();
        let store = TimeStore::open(dir.path(), config(policy)).unwrap();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        graphs.push((*store.snapshot_at(77).unwrap()).clone());
    }
    assert!(graphs[0].same_as(&graphs[1]));
}

#[test]
fn diff_returns_exactly_the_window() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
    for (ts, ops) in history() {
        store.append_commit(ts, &ops).unwrap();
    }
    let diff = store.diff(31, 41).unwrap();
    assert_eq!(diff.len(), 10, "ten rel-insert commits in [31,41)");
    assert!(diff.iter().all(|u| (31..41).contains(&u.ts)));
    assert!(diff.iter().all(|u| matches!(u.op, Update::AddRel { .. })));
    assert!(store.diff(10, 10).unwrap().is_empty());
    assert!(store.diff(1_000, 2_000).unwrap().is_empty());
}

#[test]
fn monotonic_commit_enforced() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
    store.append_commit(5, &[add_node(1)]).unwrap();
    let err = store.append_commit(5, &[add_node(2)]).unwrap_err();
    assert!(matches!(err, lpg::GraphError::NonMonotonicCommit { .. }));
    store.append_commit(6, &[add_node(2)]).unwrap();
}

#[test]
fn graphs_sequence_with_step() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(40))).unwrap();
    let commits = history();
    for (ts, ops) in &commits {
        store.append_commit(*ts, ops).unwrap();
    }
    let series: Vec<_> = store.versions(10, 110, 25).unwrap().collect();
    assert_eq!(series.len(), 4); // 10, 35, 60, 85
    for (ts, g, _) in series.into_iter().map(Result::unwrap) {
        let want = oracle_at(&commits, ts);
        assert!(g.same_as(&want), "series mismatch at {ts}");
    }
    assert!(store.versions(10, 10, 5).is_err());
    assert!(store.versions(10, 20, 0).is_err());
}

#[test]
fn temporal_graph_matches_naive_replay() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(33))).unwrap();
    let commits = history();
    for (ts, ops) in &commits {
        store.append_commit(*ts, ops).unwrap();
    }
    let (lo, hi) = (20u64, 100u64);
    let got = store.temporal_graph(lo, hi).unwrap();
    // Oracle: build from scratch.
    let base = oracle_at(&commits, lo);
    let updates: Vec<TimestampedUpdate> = commits
        .iter()
        .filter(|(ts, _)| *ts > lo && *ts < hi)
        .flat_map(|(ts, ops)| {
            ops.iter()
                .map(move |o| TimestampedUpdate::new(*ts, o.clone()))
        })
        .collect();
    let want = TemporalGraph::build(&base, Interval::new(lo, hi), &updates);
    assert_eq!(got.version_count(), want.version_count());
    for probe in [20u64, 50, 80, 99] {
        assert!(got.graph_at(probe).same_as(&want.graph_at(probe)));
    }
}

#[test]
fn window_unions_entities_and_prunes_dangling() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
    // ts1-2: two nodes; ts3: rel; ts4: delete rel; ts5: third node.
    store.append_commit(1, &[add_node(0)]).unwrap();
    store.append_commit(2, &[add_node(1)]).unwrap();
    store.append_commit(3, &[add_rel(0, 0, 1)]).unwrap();
    store
        .append_commit(4, &[Update::DeleteRel { id: RelId::new(0) }])
        .unwrap();
    store.append_commit(5, &[add_node(2)]).unwrap();
    // Window [3,5): rel 0 was valid at 3, node 2 not yet present.
    let w = store.window(3, 5).unwrap();
    assert_eq!(w.node_count(), 2);
    assert_eq!(w.rel_count(), 1, "rel valid at window start is included");
    assert!(!w.has_node(NodeId::new(2)));
    // Window [4,6): rel deleted before, node 2 present.
    let w = store.window(4, 6).unwrap();
    assert_eq!(w.rel_count(), 0);
    assert!(w.has_node(NodeId::new(2)));
}

#[test]
fn recovery_after_reopen_preserves_everything() {
    let dir = tempdir().unwrap();
    let commits = history();
    // Snapshots at 50 and 100 of 120 commits: the reopen has to replay.
    {
        let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(50))).unwrap();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        store.sync().unwrap();
    }
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(50))).unwrap();
    assert_eq!(store.latest_ts(), commits.last().unwrap().0);
    let want = oracle_at(&commits, u64::MAX);
    assert!(store.latest_graph().same_as(&want));
    // The latest graph exists once (the store's reference and ours) and
    // the GraphStore holds no historical version: no reader holds one.
    assert_eq!(std::sync::Arc::strong_count(&store.latest_graph()), 2);
    assert!((1..=120).all(|ts| store.graphstore().get(ts).is_none()));
    // Historical reads still work, and the GraphStore serves the version
    // they built while it is held, and only then.
    let got = store.snapshot_at(60).unwrap();
    assert!(got.same_as(&oracle_at(&commits, 60)));
    assert!(std::sync::Arc::ptr_eq(
        &store.graphstore().get(60).unwrap(),
        &got
    ));
    drop(got);
    assert!(store.graphstore().get(60).is_none());
    // Ingestion continues.
    store.append_commit(1_000, &[add_node(999)]).unwrap();
    assert_eq!(store.latest_graph().node_count(), want.node_count() + 1);
}

#[test]
fn replayed_snapshot_shares_untouched_chunks_with_its_base() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
    // 2 000 nodes and 2 000 relationships (≥ 60 chunks), snapshotted at 1.
    let bulk: Vec<Update> = (0..2_000)
        .map(add_node)
        .chain((0..2_000).map(|i| add_rel(i, i, (i * 7 + 1) % 2_000)))
        .collect();
    store.append_commit(1, &bulk).unwrap();
    store.write_snapshot().unwrap();
    // m single-update commits of every kind, then one more so that the
    // latest graph is not the base of the read below.
    let replayed = [
        Update::SetNodeProp {
            id: NodeId::new(70),
            key: StrId::new(2),
            value: PropertyValue::Int(7),
        },
        add_rel(5_000, 3, 1_999),
        Update::DeleteRel {
            id: RelId::new(900),
        },
        add_node(9_999),
        Update::SetRelProp {
            id: RelId::new(64),
            key: StrId::new(1),
            value: PropertyValue::Float(0.5),
        },
    ];
    let m = replayed.len();
    for (i, u) in replayed.iter().enumerate() {
        store
            .append_commit(2 + i as u64, std::slice::from_ref(u))
            .unwrap();
    }
    let end = 1 + m as u64;
    store.append_commit(end + 1, &[add_node(10_000)]).unwrap();

    let base = store.snapshot_at(1).unwrap();
    let got = store.snapshot_at(end).unwrap();
    let mut want = Graph::new();
    want.apply_all(bulk.iter().chain(&replayed)).unwrap();
    assert!(got.same_as(&want));
    let diverged = got.chunks_diverged_from(&base);
    assert!(
        (1..=3 * m).contains(&diverged),
        "{m} replayed updates copied {diverged} chunks"
    );
    // The base was loaded from disk: it shares with the writer's graph the
    // relationship chunks the writer lent and no commit changed since. All
    // 32 node chunks are its own, and the two relationship chunks that the
    // commits at 4 and 6 changed.
    assert_eq!(base.chunks_diverged_from(&store.latest_graph()), 32 + 2);
}

/// A reopen reads every commit back from the log alone, with or without
/// the durable-end record.
#[test]
fn reopen_reads_every_commit_back_from_the_log() {
    let dir = tempdir().unwrap();
    let commits = history();
    {
        let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        store.sync().unwrap();
    }
    let marker = dir.path().join(timestore::store::DURABLE_END_FILE);
    for lose_marker in [false, true] {
        if lose_marker {
            vfs::VfsRef::std().remove_file(&marker).unwrap();
        }
        let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
        assert!(store.repairs().is_empty(), "{:?}", store.repairs());
        assert_eq!(store.latest_ts(), commits.last().unwrap().0);
        for ts in [1, 45, 119] {
            let got = store.snapshot_at(ts).unwrap();
            assert!(got.same_as(&oracle_at(&commits, ts)), "at ts {ts}");
        }
        let diff = store.diff(31, 91).unwrap();
        assert_eq!(diff.len(), 60);
        assert!(diff.iter().all(|u| (31..91).contains(&u.ts)));
    }
}

/// A durable commit costs the log append, the log fsync, and the 16-byte
/// durable-end record with its own fsync: four mutating file operations.
/// Besides `snapshots/` (implicit on a `SimVfs`), the directory holds the
/// log and the record, nothing else.
#[test]
fn a_durable_commit_writes_the_log_and_the_durable_end_record_only() {
    let sim = vfs::SimVfs::new(7);
    let config = TimeStoreConfig {
        vfs: vfs::VfsRef::new(std::sync::Arc::new(sim.clone())),
        ..config(SnapshotPolicy::Never)
    };
    let dir = std::path::Path::new("/ts");
    let store = TimeStore::open(dir, config.clone()).unwrap();
    let before = sim.op_count();
    store.append_commit(1, &[add_node(1)]).unwrap();
    store.sync().unwrap();
    assert_eq!(sim.op_count() - before, 4);
    let before = sim.op_count();
    store.append_commit(2, &[add_node(2)]).unwrap();
    store.sync().unwrap();
    assert_eq!(sim.op_count() - before, 4);
    let mut files: Vec<String> = config
        .vfs
        .read_dir(dir)
        .unwrap()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    files.sort();
    assert_eq!(files, ["timestore.log", "timestore.log.durable"]);
    let record = config.vfs.read(&dir.join("timestore.log.durable")).unwrap();
    assert_eq!(record.len(), 16);
    assert_eq!(record[..8], store.log().end_offset().to_le_bytes());
}

#[test]
fn stats_track_footprint() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(50))).unwrap();
    for (ts, ops) in history() {
        store.append_commit(ts, &ops).unwrap();
    }
    let stats = store.stats();
    assert!(stats.log_bytes > 0);
    assert!(stats.snapshot_count >= 2);
    assert!(stats.snapshot_bytes > 0);
}

#[test]
fn open_reports_every_repair_it_makes() {
    let dir = tempdir().unwrap();
    let commits = history();
    let open = || TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(50))).unwrap();
    let checks = |store: &TimeStore| -> Vec<&'static str> {
        store.repairs().iter().map(|f| f.check).collect()
    };
    // A repair is made once: the open after it finds nothing to repair.
    let reopens_clean = || {
        let store = open();
        assert!(store.repairs().is_empty(), "{:?}", store.repairs());
    };
    {
        let store = open();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        store.sync().unwrap();
    }
    let store = open();
    assert!(store.repairs().is_empty(), "{:?}", store.repairs());
    drop(store);
    let vfs = vfs::VfsRef::std();

    // Half a frame past the durable end: a torn tail, truncated.
    let log = dir.path().join("timestore.log");
    let mut bytes = vfs.read(&log).unwrap();
    let synced = bytes.len();
    bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
    vfs.write(&log, &bytes).unwrap();
    let store = open();
    assert_eq!(checks(&store), ["repair/log-tail"]);
    assert!(store.repairs()[0]
        .detail
        .contains(&format!("offset {synced}")));
    drop(store);
    reopens_clean();

    // A damaged snapshot file: deleted, and with it the file at 100, which
    // patches a node segment whose base the damaged file holds.
    let snap = dir
        .path()
        .join("snapshots/snap_00000000000000000050.aisnap");
    let mut bytes = vfs.read(&snap).unwrap();
    bytes[100] ^= 0xff;
    vfs.write(&snap, &bytes).unwrap();
    let store = open();
    let repairs = store.repairs();
    assert_eq!(
        checks(&store),
        ["repair/snapshot", "repair/snapshot"],
        "{repairs:?}"
    );
    assert!(repairs[0]
        .detail
        .contains("snap_00000000000000000050.aisnap: does not decode"));
    assert!(repairs[1]
        .detail
        .contains("snap_00000000000000000100.aisnap: references the dropped snapshot at ts 50"));
    assert!(!vfs.exists(&snap));
    assert!(store.latest_graph().same_as(&oracle_at(&commits, u64::MAX)));
    store.sync().unwrap();
    drop(store);
    reopens_clean();

    // Without a durable-end record to check it against, every bad frame
    // is a torn tail: truncated, not refused, whether the record is torn or
    // gone.
    let marker = dir.path().join(timestore::store::DURABLE_END_FILE);
    for torn in [true, false] {
        if torn {
            let mut record = vfs.read(&marker).unwrap();
            record[3] ^= 1;
            vfs.write(&marker, &record).unwrap();
        } else {
            vfs.remove_file(&marker).unwrap();
        }
        let mut bytes = vfs.read(&log).unwrap();
        let synced = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        vfs.write(&log, &bytes).unwrap();
        let store = open();
        assert_eq!(checks(&store), ["repair/log-tail"]);
        assert!(store.repairs()[0]
            .detail
            .contains(&format!("offset {synced}")));
        assert!(store
            .snapshot_at(60)
            .unwrap()
            .same_as(&oracle_at(&commits, 60)));
        assert!(store.audit(true).unwrap().findings.is_empty());
        drop(store);
        reopens_clean();
    }
}

#[test]
fn a_snapshot_file_of_an_older_version_is_refused_by_name() {
    use encoding::snapshot;
    let dir = tempdir().unwrap();
    let commits = history();
    let open = || TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(50))).unwrap();
    {
        let store = open();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        store.sync().unwrap();
    }
    // The newest file, which no other references, as an older build wrote
    // it: a version-3 header under a footer that matches.
    let vfs = vfs::VfsRef::std();
    let snap = dir
        .path()
        .join("snapshots/snap_00000000000000000100.aisnap");
    let mut bytes = vfs.read(&snap).unwrap();
    // The version byte follows the header's four-byte magic.
    assert_eq!(snapshot::version(&bytes), Some(snapshot::VERSION));
    assert_eq!(bytes[4], snapshot::VERSION);
    bytes[4] = 3;
    let payload = bytes.len() - 8;
    let footer = vfs::bulk_sum64(&bytes[..payload]);
    bytes[payload..].copy_from_slice(&footer.to_le_bytes());
    assert_eq!(snapshot::version(&bytes), Some(3));
    vfs.write(&snap, &bytes).unwrap();

    let store = open();
    let repairs = store.repairs();
    assert_eq!(repairs.len(), 1, "{repairs:?}");
    assert_eq!(repairs[0].check, "repair/snapshot");
    assert_eq!(
        repairs[0].detail,
        format!(
            "deleted snapshot file snap_00000000000000000100.aisnap: version 3, this build reads {}",
            snapshot::VERSION
        )
    );
    assert!(!vfs.exists(&snap));
    assert!(store.latest_graph().same_as(&oracle_at(&commits, u64::MAX)));
}

/// The snapshot schedule carries over a reopen: the newest snapshot and
/// the updates committed past it are where the policy counts from, so a
/// reopen anywhere in the history leaves the same snapshot files as none.
#[test]
fn snapshot_schedule_survives_a_reopen() {
    let snapshot_files = |policy: SnapshotPolicy, reopen_before: Option<u64>| {
        let dir = tempdir().unwrap();
        let mut store = TimeStore::open(dir.path(), config(policy)).unwrap();
        for ts in 1..=20u64 {
            if reopen_before == Some(ts) {
                store.sync().unwrap();
                drop(store);
                store = TimeStore::open(dir.path(), config(policy)).unwrap();
            }
            store.append_commit(ts, &[add_node(ts)]).unwrap();
        }
        let snapdir = dir.path().join("snapshots");
        let mut names: Vec<String> = vfs::VfsRef::std()
            .read_dir(&snapdir)
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        names.sort();
        names
    };
    let expected = [
        "snap_00000000000000000010.aisnap",
        "snap_00000000000000000020.aisnap",
    ];
    let policy = SnapshotPolicy::EveryNOps(10);
    assert_eq!(snapshot_files(policy, None), expected);
    for reopen_before in [5, 10, 11, 16, 20] {
        assert_eq!(
            snapshot_files(policy, Some(reopen_before)),
            expected,
            "reopened before commit {reopen_before}"
        );
    }
}

/// The store's counter `name`.
fn counter(store: &TimeStore, name: &str) -> u64 {
    store.registry().snapshot().counter(name).unwrap_or(0)
}

/// `(decoded, shared)` segments `store` loaded since the last call.
fn segments(store: &TimeStore, last: &mut (u64, u64)) -> (u64, u64) {
    let now = (
        counter(store, "timestore.snapshot.segments_decoded"),
        counter(store, "timestore.snapshot.segments_shared"),
    );
    let delta = (now.0 - last.0, now.1 - last.1);
    *last = now;
    delta
}

/// A node with no labels and no properties.
fn bare_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![],
        props: vec![],
    }
}

/// The graph of bare nodes 1..=ts, as every commit up to `ts` left it.
fn bare_oracle(ts: u64) -> Graph {
    let mut g = Graph::new();
    for t in 1..=ts {
        g.apply(&bare_node(t)).unwrap();
    }
    g
}

fn set_rel(id: u64, v: i64) -> Update {
    Update::SetRelProp {
        id: RelId::new(id),
        key: StrId::new(2),
        value: PropertyValue::Int(v),
    }
}

/// The latest graph is mutated in place on the commit path: writing a
/// snapshot must not leave a reference behind that makes the next commit
/// copy anything, and a reader that does hold the graph costs a commit the
/// chunks it touches, not the graph. `timestore.latest.cow_copies` counts
/// the commits that found the graph shared, `timestore.latest.cow_chunks`
/// the chunks they copied.
#[test]
fn snapshots_do_not_force_copies_but_a_held_reader_does() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(5))).unwrap();
    let cow_copies = || counter(&store, "timestore.latest.cow_copies");
    let cow_chunks = || counter(&store, "timestore.latest.cow_chunks");
    for ts in 1..=30 {
        store.append_commit(ts, &[bare_node(ts)]).unwrap();
    }
    assert!(store.stats().snapshot_count >= 5);
    assert_eq!(cow_copies(), 0, "a commit after a snapshot deep-copied");
    // Snapshot creation registers no version in the GraphStore either.
    assert!((1..=30).all(|ts| store.graphstore().get(ts).is_none()));

    assert_eq!(cow_chunks(), 0);

    // A reader holding the latest graph across a commit costs that commit
    // one copy (the reader keeps its version); the commit after does not.
    let reader = store.latest_graph();
    store.append_commit(31, &[bare_node(31)]).unwrap();
    assert_eq!(cow_copies(), 1);
    assert_eq!(reader.node_count(), 30);
    drop(reader);
    store.append_commit(32, &[bare_node(32)]).unwrap();
    assert_eq!(cow_copies(), 1);
    assert_eq!(store.latest_graph().node_count(), 32);

    // What the copy costs does not grow with the graph: on 10 000 nodes a
    // property write under a reader copies the one chunk it lands in, a
    // new relationship its own chunk and its two endpoints'.
    let many: Vec<Update> = (33..=10_000).map(bare_node).collect();
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
    store.append_commit(36, &[bare_node(10_001)]).unwrap();
    assert_eq!((cow_copies(), cow_chunks()), (copies, chunks));
    let latest = store.latest_graph();
    assert_eq!((latest.node_count(), latest.rel_count()), (10_001, 1));
    latest.check_consistency().unwrap();
}

/// 640 nodes and 640 relationships (10 segments each) at 1, then two
/// commits that each change one relationship in a segment no commit touched
/// before, with one that changes a node between them.
fn lent_history() -> Vec<(u64, Vec<Update>)> {
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

/// The snapshot writer lends the latest graph's relationship chunks to later
/// loads, yet a load never gets a chunk that a commit changed since: a
/// commit that changes a lent chunk nobody else holds moves it away from
/// what loads find, and one that changes a chunk a loaded graph shares
/// copies it, so the reader keeps its version.
#[test]
fn a_lent_chunk_a_commit_changes_is_never_handed_out() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::Never)).unwrap();
    let commits = lent_history();
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
    segments(&store, &mut last);
    let at1 = store.snapshot_at(1).unwrap();
    assert!(at1.same_as(&oracle_at(&commits, 1)));
    assert_eq!(
        segments(&store, &mut last),
        (10 + 1, 9),
        "decodes segment 2"
    );
    drop(at1);

    // The file at 2 lends segment 2 as changed; past the next commit, the
    // load at 2 takes all ten from the latest graph.
    store.write_snapshot().unwrap();
    commit(2);
    let at2 = store.snapshot_at(2).unwrap();
    assert!(at2.same_as(&oracle_at(&commits, 2)));
    assert_eq!(segments(&store, &mut last), (10, 10));
    assert_eq!(at2.chunks_diverged_from(&store.latest_graph()), 10);
    // The reader holds segment 6 with the latest graph: the commit copies
    // it, and the reader keeps its version.
    commit(3);
    assert!(at2.same_as(&oracle_at(&commits, 2)));
    assert_eq!(at2.chunks_diverged_from(&store.latest_graph()), 10 + 1);
    // A read at 2 is served the held version itself. Once it is dropped,
    // what a load finds is still the version at 2: the segment the commit
    // copied is decoded, since nobody holds its old chunk any more, and the
    // latest graph has the commit.
    let again = store.snapshot_at(2).unwrap();
    assert!(std::sync::Arc::ptr_eq(&again, &at2));
    assert_eq!(segments(&store, &mut last), (0, 0));
    drop((at2, again));
    let again = store.snapshot_at(2).unwrap();
    assert!(again.same_as(&oracle_at(&commits, 2)));
    assert_eq!(segments(&store, &mut last), (10 + 1, 9));
    assert!(store
        .snapshot_at(3)
        .unwrap()
        .same_as(&oracle_at(&commits, 3)));
    assert!(store.latest_graph().same_as(&oracle_at(&commits, 4)));
}

/// The GraphStore holds the versions readers hold. A read at the latest
/// time pins the version it reads: commits that land while it runs leave
/// that version intact and addressable, so `snapshot_at` at the pinned
/// timestamp neither loads a snapshot file nor replays the log. A version
/// `snapshot_at` built is served the same way while a caller holds it, and
/// is the replay base of a later read. Once the last holder drops it, the
/// version is gone and a read at that timestamp rebuilds it as before.
#[test]
fn a_pinned_version_is_served_until_its_last_reader_drops_it() {
    use std::sync::Arc;
    let dir = tempdir().unwrap();
    // Snapshots at 7 and 14: the version at 20 is a replay away.
    let store = TimeStore::open(dir.path(), config(SnapshotPolicy::EveryNOps(7))).unwrap();
    // `(replays, segments decoded, GraphStore hits, segments shared)`.
    let work = || {
        (
            counter(&store, "timestore.snapshot.replays"),
            counter(&store, "timestore.snapshot.segments_decoded"),
            counter(&store, "timestore.graphstore.hits"),
            counter(&store, "timestore.snapshot.segments_shared"),
        )
    };
    // Registered versions still alive, as of the last registration.
    let pins = || {
        let snap = store.registry().snapshot();
        snap.gauge("timestore.graphstore.versions")
    };
    let mut oracle = Graph::new();
    for ts in 1..=20 {
        store.append_commit(ts, &[bare_node(ts)]).unwrap();
        oracle.apply(&bare_node(ts)).unwrap();
    }

    let (ts, pin) = store.graphstore().pin_latest();
    assert_eq!(ts, 20);
    assert_eq!(pins(), Some(1));
    for t in 21..=25 {
        store.append_commit(t, &[bare_node(t)]).unwrap();
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
    let (ts, pin) = store.graphstore().pin_latest();
    assert_eq!(ts, 25);
    assert_eq!(pins(), Some(1));
    drop(pin);
    store.append_commit(26, &[bare_node(26)]).unwrap();
    assert!(store.graphstore().get(25).is_none());
    let (_, pin) = store.graphstore().pin_latest();
    assert_eq!(pins(), Some(1));
    drop(pin);

    // A version `snapshot_at` built is served while a caller holds it, and
    // rebuilt, one more replay, once it is dropped.
    let before = work();
    let built = store.snapshot_at(10).unwrap();
    let again = store.snapshot_at(10).unwrap();
    let after = work();
    assert!(Arc::ptr_eq(&built, &again));
    assert!(built.same_as(&bare_oracle(10)));
    assert_eq!(after.0, before.0 + 1, "one replay from the snapshot at 7");
    assert_eq!(after.2, before.2 + 1, "the second read is a hit");
    drop((built, again));
    assert!(store.graphstore().get(10).is_none());
    let before = work();
    assert!(store.snapshot_at(10).unwrap().same_as(&bare_oracle(10)));
    let after = work();
    assert_eq!(after.0, before.0 + 1, "rebuilt");
    assert_eq!(after.2, before.2);

    // While the version at 15 is held, the read at 19 replays (15, 19] on
    // it: the snapshot file at 14 is not loaded again.
    let held = store.snapshot_at(15).unwrap();
    let before = work();
    let later = store.snapshot_at(19).unwrap();
    let after = work();
    assert!(later.same_as(&bare_oracle(19)));
    assert!(held.same_as(&bare_oracle(15)));
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
    store.append_commit(27, &[bare_node(27)]).unwrap();
    let last = store.snapshot_at(12).unwrap();
    assert_eq!(pins(), Some(1));
    drop(last);
    assert!([10, 12, 15, 19, 20, 25, 26]
        .iter()
        .all(|&ts| store.graphstore().get(ts).is_none()));
}

/// 1 280 nodes and 1 280 relationships (20 segments each) at 1, two
/// commits that touch one relationship segment each and one that touches a
/// node, a snapshot after every commit.
fn shared_history() -> Vec<(u64, Vec<Update>)> {
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

/// Snapshot loads share the relationship segments their files share: a
/// segment that several snapshot files reference is decoded once and held
/// by every loaded graph as one chunk, for as long as one of them holds it.
/// A segment the latest graph still holds as the file was written is not
/// decoded at all: the snapshot writer lent it.
/// `timestore.snapshot.segments_decoded` counts the segments decoded from
/// bytes, `timestore.snapshot.segments_shared` those taken from memory.
#[test]
fn loads_decode_a_shared_segment_once_and_hold_it_once() {
    let dir = tempdir().unwrap();
    let config = || config(SnapshotPolicy::EveryNOps(1));
    let commits = shared_history();
    let mut last = (0, 0);
    {
        let store = TimeStore::open(dir.path(), config()).unwrap();
        for (ts, ops) in &commits {
            store.append_commit(*ts, ops).unwrap();
        }
        assert_eq!(store.stats().snapshot_count, 4);
        assert_eq!(
            segments(&store, &mut last),
            (0, 0),
            "writing decodes nothing"
        );

        // Every file lent the relationship segments it holds inline. The
        // first load takes from the latest graph all of them but the two
        // that the commits at 10 and 20 changed since, and decodes those
        // and the node segments.
        let at1 = store.snapshot_at(1).unwrap();
        assert!(at1.same_as(&oracle_at(&commits, 1)));
        assert_eq!(segments(&store, &mut last), (22, 18));
        assert_eq!(at1.chunks_diverged_from(&store.latest_graph()), 20 + 2);
        // The second takes segment 1 from the latest graph (lent by the
        // file at 10) and the rest from there or from the first load.
        let at10 = store.snapshot_at(10).unwrap();
        assert_eq!(segments(&store, &mut last), (20, 20));
        assert!(at10.same_as(&oracle_at(&commits, 10)));
        assert_eq!(at10.chunks_diverged_from(&at1), 20 + 1);
        // The file at 20 references segment 1 in the file at 10 and the
        // rest in the file at 1: one hop each, all of them held.
        let at20 = store.snapshot_at(20).unwrap();
        assert_eq!(segments(&store, &mut last), (20, 20));
        assert!(at20.same_as(&oracle_at(&commits, 20)));
        assert_eq!(at20.chunks_diverged_from(&at10), 20 + 1);
        assert_eq!(at20.chunks_diverged_from(&at1), 20 + 2);

        // The audit reads and checks every byte; it takes nothing from
        // memory.
        let report = store.audit(true).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(segments(&store, &mut last), (4 * 40, 0));
        store.sync().unwrap();
    }

    // After a reopen the latest graph is the floor snapshot (30) decoded,
    // and a load of an earlier one shares the chunks it has in common with
    // it: all relationship segments but the one the commit at 20 touched.
    // The reopened store counts from zero.
    let store = TimeStore::open(dir.path(), config()).unwrap();
    let mut last = (0, 0);
    assert_eq!(segments(&store, &mut last), (40, 0));
    let at10 = store.snapshot_at(10).unwrap();
    assert_eq!(segments(&store, &mut last), (21, 19));
    assert_eq!(at10.chunks_diverged_from(&store.latest_graph()), 21);
    // A commit that changes a chunk the two share copies it: the read keeps
    // its version.
    store.append_commit(40, &[set_rel(5, 3)]).unwrap();
    assert!(at10.same_as(&oracle_at(&commits, 10)));
    let rel = store.latest_graph().rel(RelId::new(5)).cloned().unwrap();
    assert_eq!(rel.prop(StrId::new(2)), Some(&PropertyValue::Int(3)));
    assert_eq!(at10.chunks_diverged_from(&store.latest_graph()), 22);
}
