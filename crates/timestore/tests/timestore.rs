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
