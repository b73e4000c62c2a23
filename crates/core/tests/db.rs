//! End-to-end Aion tests: transactional writes, Table 1 API, planner
//! routing, async-cascade fallback, bitemporal queries, recovery, and the
//! incremental procedures.

use aion::procedures::ExecMode;
use aion::{Aion, AionConfig, StoreChoice};
use algo::pagerank::PageRankConfig;
use lpg::{Direction, GraphError, NodeId, PropertyValue, RelId, TimeRange};
use tempfile::tempdir;
use timestore::CommitFrame;

fn open(dir: &std::path::Path) -> Aion {
    Aion::open(AionConfig::new(dir)).unwrap()
}

fn nid(i: u64) -> NodeId {
    NodeId::new(i)
}
fn rid(i: u64) -> RelId {
    RelId::new(i)
}

/// Creates a small social graph: n nodes in a ring plus chords.
fn seed(db: &Aion, n: u64) -> Vec<u64> {
    let person = db.intern("Person");
    let knows = db.intern("KNOWS");
    let weight = db.intern("weight");
    let mut commit_ts = Vec::new();
    for i in 0..n {
        let ts = db
            .write(|txn| txn.add_node(nid(i), vec![person], vec![]))
            .unwrap();
        commit_ts.push(ts);
    }
    for i in 0..n {
        let ts = db
            .write(|txn| {
                txn.add_rel(
                    rid(i),
                    nid(i),
                    nid((i + 1) % n),
                    Some(knows),
                    vec![(weight, PropertyValue::Float(i as f64))],
                )
            })
            .unwrap();
        commit_ts.push(ts);
    }
    commit_ts
}

#[test]
fn transactional_writes_and_reads() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    let ts = seed(&db, 10);
    let last = *ts.last().unwrap();
    db.lineage_barrier(last);

    // Latest graph reflects everything.
    let g = db.latest_graph();
    assert_eq!(g.node_count(), 10);
    assert_eq!(g.rel_count(), 10);

    // Point history through the API.
    let hist = db.get_node(nid(3), 0, last + 1).unwrap();
    assert_eq!(hist.len(), 1);
    assert_eq!(hist[0].valid.start, ts[3]);

    // Relationship history.
    let rels = db
        .get_relationships(nid(3), Direction::Both, 0, last + 1)
        .unwrap();
    assert_eq!(rels.len(), 2, "ring: one in, one out");

    // Time travel: before the rel insertions started.
    let g_early = db.get_graph_at(ts[9]).unwrap();
    assert_eq!(g_early.node_count(), 10);
    assert_eq!(g_early.rel_count(), 0);
}

#[test]
fn failed_txn_commits_nothing() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    seed(&db, 3);
    let before = db.latest_ts();
    let err = db.write(|txn| {
        txn.add_node(nid(100), vec![], vec![])?;
        txn.add_rel(rid(100), nid(100), nid(999), None, vec![]) // missing tgt
    });
    assert!(matches!(err, Err(GraphError::EndpointMissing { .. })));
    assert_eq!(db.latest_ts(), before, "nothing committed");
    assert!(!db.latest_graph().has_node(nid(100)));
}

/// A replicated frame is checked as a local commit is: one that adds a
/// node the graph holds is refused, and nothing reaches the log.
#[test]
fn a_frame_that_does_not_apply_is_refused_and_not_logged() {
    let dir = tempdir().unwrap();
    {
        let db = open(dir.path());
        seed(&db, 3);
        let (latest, end) = (db.latest_ts(), db.timestore().log().end_offset());
        let add = [lpg::Update::AddNode {
            id: nid(1),
            labels: vec![],
            props: vec![],
        }];
        let frame = CommitFrame::from_updates(latest + 1, &add);
        assert_eq!(
            db.apply_frame(frame.encode()),
            Err(GraphError::NodeExists(nid(1)))
        );
        assert_eq!(db.latest_ts(), latest);
        assert_eq!(db.timestore().log().end_offset(), end);
        assert_eq!(db.pin_latest().ts(), latest);
        assert!(!db.lineage_wedged());
        // The timestamp was not used up.
        let frame = CommitFrame::from_updates(latest + 1, &[]);
        assert_eq!(db.apply_frame(frame.encode()), Ok(latest + 1));
        db.sync().unwrap();
    }
    let db = open(dir.path());
    assert_eq!(db.latest_graph().node_count(), 3);
}

#[test]
fn planner_routes_small_and_large_expansions() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    let ts = seed(&db, 50);
    let last = *ts.last().unwrap();
    db.lineage_barrier(last);
    let latest = db.latest_graph();
    // Ring of degree 1: 1 hop is tiny, 50 hops covers everything.
    assert_eq!(
        db.planner().choose(&latest, 1, Direction::Outgoing, 1),
        StoreChoice::Lineage
    );
    assert_eq!(
        db.planner().choose(&latest, 1, Direction::Outgoing, 50),
        StoreChoice::Time
    );
    let hits = db.expand(nid(0), Direction::Outgoing, 3, last).unwrap();
    assert_eq!(hits.len(), 3);
}

/// With the LineageStore behind, point reads fall back to the TimeStore,
/// which replays each entity's own updates: they answer as the
/// LineageStore did before it stopped.
#[test]
fn point_reads_fall_back_to_each_entitys_updates() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    seed(&db, 6);
    let age = db.intern("age");
    for i in 0..6 {
        db.write(|txn| txn.set_node_prop(nid(i % 3), age, PropertyValue::Int(i as i64)))
            .unwrap();
    }
    db.write(|txn| txn.delete_rel(rid(4))).unwrap();
    db.lineage_barrier(db.latest_ts());
    // A commit appended to the TimeStore behind the cascade's back: the
    // LineageStore stops before it, so reads at or after it fall back.
    let bad = db.latest_ts() + 1;
    let add = [lpg::Update::AddNode {
        id: nid(999),
        labels: vec![],
        props: vec![],
    }];
    db.timestore().append_commit(bad, &add).unwrap();
    let ls = db.lineagestore();
    assert!(ls.applied_ts() < bad);
    let fallbacks = || db.metrics().counter("core.lineage_fallbacks").unwrap_or(0);
    let before = fallbacks();
    let end = bad + 1;
    for i in 0..6 {
        let want = ls.node_history(nid(i), 0, end).unwrap();
        assert_eq!(db.get_node(nid(i), 0, end).unwrap(), want, "node {i}");
        let want = ls.rel_history(rid(i), 0, end).unwrap();
        assert_eq!(
            db.get_relationship(rid(i), 0, end).unwrap(),
            want,
            "rel {i}"
        );
        let want = ls.rels_history(nid(i), Direction::Both, 0, end).unwrap();
        let got = db.get_relationships(nid(i), Direction::Both, 0, end);
        assert_eq!(got.unwrap(), want, "rels of node {i}");
    }
    // Eighteen reads fell back. Other tests of this binary may add theirs:
    // the registry is process-global.
    assert!(fallbacks() >= before + 18);
}

#[test]
fn diff_window_temporal_graph() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    let ts = seed(&db, 6);
    let first_rel_ts = ts[6];
    let last = *ts.last().unwrap();
    let diff = db.get_diff(first_rel_ts, last + 1).unwrap();
    assert_eq!(diff.len(), 6, "six relationship inserts");
    let w = db.get_window(first_rel_ts, last + 1).unwrap();
    assert_eq!(w.node_count(), 6);
    assert_eq!(w.rel_count(), 6);
    let tg = db.get_temporal_graph(0, last + 1).unwrap();
    assert_eq!(tg.nodes.len(), 6);
    assert_eq!(tg.rels.len(), 6);
    let series = db.get_graphs(1, last + 1, (last / 3).max(1)).unwrap();
    assert!(series.len() >= 2);
    for (t, g) in &series {
        assert!(g.same_as(&db.get_graph_at(*t).unwrap()));
    }
}

#[test]
fn bitemporal_filtering() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    let keys = db.app_time_keys();
    db.write(|txn| {
        txn.add_node(
            nid(1),
            vec![],
            vec![
                (keys.start, PropertyValue::Int(100)),
                (keys.end, PropertyValue::Int(200)),
            ],
        )
    })
    .unwrap();
    db.write(|txn| txn.add_node(nid(2), vec![], vec![]))
        .unwrap();
    let last = db.latest_ts();
    db.lineage_barrier(last);
    // Node 1 is visible only within app time [100, 200).
    let sys = TimeRange::AsOf(last);
    let hit = db
        .get_node_bitemporal(nid(1), sys, TimeRange::ContainedIn(150, 160))
        .unwrap();
    assert_eq!(hit.len(), 1);
    let miss = db
        .get_node_bitemporal(nid(1), sys, TimeRange::ContainedIn(300, 400))
        .unwrap();
    assert!(miss.is_empty());
    // Node 2 has no app time: falls back to system time (passes).
    let fallback = db
        .get_node_bitemporal(nid(2), sys, TimeRange::ContainedIn(300, 400))
        .unwrap();
    assert_eq!(fallback.len(), 1);
    // Invalid app interval rejected at write time.
    let err = db.write(|txn| {
        txn.add_node(
            nid(3),
            vec![],
            vec![
                (keys.start, PropertyValue::Int(9)),
                (keys.end, PropertyValue::Int(3)),
            ],
        )
    });
    assert_eq!(err, Err(GraphError::InvalidApplicationTime));
}

#[test]
fn recovery_reopens_with_lineage_catchup() {
    let dir = tempdir().unwrap();
    let last;
    {
        let db = open(dir.path());
        let ts = seed(&db, 12);
        last = *ts.last().unwrap();
        db.lineage_barrier(last);
        db.sync().unwrap();
    }
    // Wipe the LineageStore entirely: recovery must rebuild it from the log.
    vfs::VfsRef::std()
        .remove_file(&dir.path().join("lineage.db"))
        .unwrap();
    let db = open(dir.path());
    assert_eq!(db.latest_ts(), last);
    let hist = db.get_node(nid(5), 0, last + 1).unwrap();
    assert_eq!(hist.len(), 1);
    let hits = db
        .lineagestore()
        .expand(nid(0), Direction::Outgoing, 2, last)
        .unwrap();
    assert_eq!(hits.len(), 2);
    // Writes continue with fresh timestamps.
    let ts2 = db
        .write(|txn| txn.add_node(nid(1000), vec![], vec![]))
        .unwrap();
    assert!(ts2 > last);
}

/// A LineageStore rebuilt from the log at open is the one the live
/// cascade wrote: the same pages, byte for byte, and a clean audit.
#[test]
fn lineage_rebuilt_from_the_log_equals_the_live_one() {
    let dir = tempdir().unwrap();
    let live = dir.path().join("lineage.db.live");
    let path = dir.path().join("lineage.db");
    {
        let db = open(dir.path());
        seed(&db, 100);
        let (age, person) = (db.intern("age"), db.intern("Person"));
        for i in 0..100 {
            db.write(|txn| match i % 4 {
                0 => txn.set_node_prop(nid(i), age, PropertyValue::Int(i as i64)),
                1 => txn.remove_label(nid(i), person),
                2 => txn.delete_rel(rid(i)),
                // The incoming relationship went in the step before.
                _ => {
                    txn.delete_rel(rid(i))?;
                    txn.delete_node(nid(i))
                }
            })
            .unwrap();
        }
        db.lineage_barrier(db.latest_ts());
        db.sync().unwrap();
    }
    let fs = vfs::VfsRef::std();
    fs.write(&live, &fs.read(&path).unwrap()).unwrap();
    fs.remove_file(&path).unwrap();
    let db = open(dir.path());
    assert_eq!(db.lineagestore().applied_ts(), db.latest_ts());
    db.sync().unwrap();
    let (rebuilt, live) = (fs.read(&path).unwrap(), fs.read(&live).unwrap());
    assert_eq!(rebuilt.len(), live.len());
    let page = pagestore::PAGE_SIZE;
    for (i, (a, b)) in rebuilt
        .chunks(page)
        .zip(live.chunks(page))
        .enumerate()
        .skip(1)
    {
        assert!(a == b, "page {i} differs");
    }
    let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "{report:?}");
}

/// Four sessions that end in `sync`, then a fifth dropped without one:
/// after every reopen the LineageStore equals its rebuild from the log,
/// and a write only the LineageStore sees, at its watermark, is reported.
#[test]
fn lineage_equals_its_rebuild_across_sessions_and_an_unclean_stop() {
    let dir = tempdir().unwrap();
    for session in 0..6u64 {
        let db = open(dir.path());
        let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
        assert!(report.is_clean(), "open {session}:\n{report}");
        if session == 5 {
            db.lineage_barrier(db.latest_ts());
            let w = db.lineagestore().applied_ts();
            db.lineagestore()
                .apply_update(
                    w,
                    &lpg::Update::AddNode {
                        id: nid(7_777_777),
                        labels: vec![],
                        props: vec![],
                    },
                )
                .unwrap();
            let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
            let mut cross = report.by_subsystem(check::Subsystem::CrossStore);
            assert!(cross.any(|f| f.check == "differential"), "{report}");
            return;
        }
        let weight = db.intern("weight");
        // 1 500 updates of each kind in commits of 16. Update `u` is the
        // `n`-th of its kind: node `n` added, relationship `n` from node
        // `n` to `n / 2`, a property of node `n / 3` set (several per
        // commit coalesce), and relationship `n - 750` deleted (in the
        // first half of the first session, node `n / 5`'s property set).
        for commit in 0..375u64 {
            db.write(|txn| {
                let first = session * 6_000 + commit * 16;
                for u in first..first + 16 {
                    let n = u / 4;
                    let value = PropertyValue::Int(u as i64);
                    match u % 4 {
                        0 => txn.add_node(nid(n), vec![], vec![])?,
                        1 => txn.add_rel(rid(n), nid(n), nid(n / 2), None, vec![])?,
                        2 => txn.set_node_prop(nid(n / 3), weight, value)?,
                        _ if n >= 750 => txn.delete_rel(rid(n - 750))?,
                        _ => txn.set_node_prop(nid(n / 5), weight, value)?,
                    }
                }
                Ok(())
            })
            .unwrap();
        }
        if session < 4 {
            db.sync().unwrap();
        }
    }
}

/// A lineage file records the chain threshold it was built with. Opened
/// with another one, or with none recorded, `Aion::open` rebuilds it from
/// the log with the configured threshold; the histories read the same.
#[test]
fn a_changed_chain_threshold_rebuilds_the_lineage_store() {
    let config = |dir: &std::path::Path, k| {
        let mut config = AionConfig::new(dir);
        config.lineage.chain_threshold = Some(k);
        config
    };
    let histories = |db: &Aion| {
        db.lineage_barrier(db.latest_ts());
        let end = db.latest_ts() + 1;
        let nodes: Vec<_> = (0..20)
            .map(|i| db.get_node(nid(i), 0, end).unwrap())
            .collect();
        let rels: Vec<_> = (0..20)
            .map(|i| db.get_relationship(rid(i), 0, end).unwrap())
            .collect();
        format!("{:?}", (nodes, rels))
    };
    // Two copies of one history, built with K = 4.
    let (a, b) = (tempdir().unwrap(), tempdir().unwrap());
    let mut before = Vec::new();
    for dir in [a.path(), b.path()] {
        let db = Aion::open(config(dir, 4)).unwrap();
        seed(&db, 20);
        let weight = db.intern("weight");
        for round in 0..9 {
            for i in 0..20 {
                db.write(|txn| {
                    txn.set_node_prop(nid(i), weight, PropertyValue::Int(round))?;
                    txn.set_rel_prop(rid(i), weight, PropertyValue::Float(round as f64))
                })
                .unwrap();
            }
        }
        before.push(histories(&db));
        db.sync().unwrap();
    }
    assert_eq!(before[0], before[1]);
    let fsck = |dir: &std::path::Path| {
        // The configured threshold (4) is not the one the file recorded.
        let ts = timestore::TimeStore::open(dir.join("timestore"), Default::default()).unwrap();
        let ls = lineagestore::LineageStore::open(dir.join("lineage.db"), Default::default());
        let ls = ls.unwrap();
        let report = check::check_stores(&ts, &ls, aion::CheckLevel::Full).unwrap();
        assert!(report.is_clean(), "{report}");
        ls.chain_threshold()
    };

    // Reopened with K = 2: rebuilt with 2, the same histories.
    {
        let db = Aion::open(config(a.path(), 2)).unwrap();
        assert_eq!(db.lineagestore().chain_threshold(), Some(2));
        assert_eq!(histories(&db), before[0]);
        db.sync().unwrap();
    }
    assert_eq!(fsck(a.path()), Some(2));

    // The record erased, the file sealed again: rebuilt with 4.
    let path = b.path().join("lineage.db");
    let store = pagestore::PageStore::open(&path, 16).unwrap();
    store.set_root(4, u64::MAX); // the chain-threshold slot
    store.sync().unwrap();
    drop(store);
    let err = lineagestore::LineageStore::open(&path, Default::default()).err();
    assert!(err.is_some_and(|e| e.to_string().contains("no chain threshold")));
    {
        let db = Aion::open(config(b.path(), 4)).unwrap();
        assert_eq!(histories(&db), before[0]);
        db.sync().unwrap();
    }
    assert_eq!(fsck(b.path()), Some(4));
}

#[test]
fn incremental_procedures_match_classic() {
    // Paper protocol (Sec. 6.6): load half the relationships, then step
    // through the remaining increments.
    let ring_dir = tempdir().unwrap();
    let ring = open(ring_dir.path());
    let ts = seed(&ring, 60);
    let last = *ts.last().unwrap();
    let half = ts[60 + 30]; // 60 node commits, then 30 of 60 rel commits
    let ring_step = ((last - half) / 8).max(1);

    // Ids are the client's and may be far apart: nothing may size a vector
    // by one. One snapshot per commit, the relationship arriving, changing
    // and leaving inside the series.
    let sparse_dir = tempdir().unwrap();
    let sparse = open(sparse_dir.path());
    let weight = sparse.intern("weight");
    let (far, farthest, rel) = (nid(1 << 32), nid(u64::MAX - 1), rid(1 << 40));
    let first = sparse
        .write(|txn| txn.add_node(nid(0), vec![], vec![]))
        .unwrap();
    sparse
        .write(|txn| txn.add_node(far, vec![], vec![]))
        .unwrap();
    sparse
        .write(|txn| txn.add_node(farthest, vec![], vec![]))
        .unwrap();
    sparse
        .write(|txn| {
            let props = vec![(weight, PropertyValue::Float(2.0))];
            txn.add_rel(rel, nid(0), far, None, props)
        })
        .unwrap();
    sparse
        .write(|txn| txn.set_rel_prop(rel, weight, PropertyValue::Float(5.0)))
        .unwrap();
    sparse.write(|txn| txn.delete_rel(rel)).unwrap();
    let sparse_last = sparse.write(|txn| txn.delete_node(farthest)).unwrap();

    // (database, series start, series end, step, whether the series is long
    // enough for reuse to show in the work counters)
    let cases = [
        (&ring, half, last + 1, ring_step, true),
        (&sparse, first, sparse_last + 1, 1, false),
    ];
    for (db, start, end, step, reuses) in cases {
        db.lineage_barrier(end - 1);
        let weight = db.intern("weight");

        // AVG.
        let classic = db
            .proc_avg_series(weight, start, end, step, ExecMode::Classic)
            .unwrap();
        let incr = db
            .proc_avg_series(weight, start, end, step, ExecMode::Incremental)
            .unwrap();
        assert_eq!(classic.points.len(), incr.points.len());
        for ((t1, a), (t2, b)) in classic.points.iter().zip(incr.points.iter()) {
            assert_eq!(t1, t2);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                (None, None) => {}
                other => panic!("mismatch at {t1}: {other:?}"),
            }
        }
        assert!(
            !reuses || incr.work < classic.work,
            "incremental does less work"
        );

        // BFS reachable counts.
        let classic = db
            .proc_bfs_series(nid(0), start, end, step, ExecMode::Classic)
            .unwrap();
        let incr = db
            .proc_bfs_series(nid(0), start, end, step, ExecMode::Incremental)
            .unwrap();
        assert_eq!(classic.points, incr.points);

        // PageRank.
        let cfg = PageRankConfig {
            damping: 0.85,
            max_iters: 200,
            epsilon: 1e-8,
        };
        let classic = db
            .proc_pagerank_series(cfg, start, end, step, ExecMode::Classic)
            .unwrap();
        let incr = db
            .proc_pagerank_series(cfg, start, end, step, ExecMode::Incremental)
            .unwrap();
        assert_eq!(classic.points.len(), incr.points.len());
        for ((t1, a), (_, b)) in classic.points.iter().zip(incr.points.iter()) {
            assert_eq!(a.len(), b.len(), "pagerank node set at {t1}");
            for (id, ra) in a {
                let rb = b[id];
                assert!(
                    (ra - rb).abs() < 1e-6,
                    "pagerank mismatch at {t1} node {id}"
                );
            }
        }
        assert!(
            !reuses || incr.work <= classic.work,
            "incremental iterations ({}) should not exceed classic ({})",
            incr.work,
            classic.work
        );
    }

    // The sparse series saw the relationship come and go.
    let reached = sparse
        .proc_bfs_series(nid(0), first, sparse_last + 1, 1, ExecMode::Incremental)
        .unwrap();
    let counts: Vec<usize> = reached.points.iter().map(|(_, n)| *n).collect();
    assert_eq!(counts, vec![1, 1, 1, 2, 2, 1, 1]);
}

/// A walk through a seeded history of relationship adds and deletes and
/// property sets, with snapshot files every few commits: every version it
/// yields is the one `getGraph(t)` builds, its diffs put together are
/// `getDiff` over the walk (so it replays that and nothing else), and
/// Classic and Incremental agree at every point.
#[test]
fn version_walk_replays_exactly_the_diff() {
    let dir = tempdir().unwrap();
    let mut config = AionConfig::new(dir.path());
    config.timestore.policy = timestore::SnapshotPolicy::EveryNOps(40);
    let db = Aion::open(config).unwrap();
    let weight = db.intern("weight");
    let mut rng = vfs::SplitMix64::new(41);
    let nodes = 30;
    let first = db
        .write(|txn| (0..nodes).try_for_each(|i| txn.add_node(nid(i), vec![], vec![])))
        .unwrap();
    let (mut live, mut next_rel) = (Vec::new(), 0);
    for _ in 0..300 {
        let pick = rng.below(4);
        let (src, tgt) = (rng.below(nodes), rng.below(nodes));
        let value = PropertyValue::Float(rng.below(100) as f64);
        let victim = (!live.is_empty()).then(|| rng.below(live.len() as u64) as usize);
        db.write(|txn| match (pick, victim) {
            (1, Some(i)) => txn.delete_rel(rid(live.swap_remove(i))),
            (2, Some(i)) => txn.set_rel_prop(rid(live[i]), weight, value),
            (3, _) => txn.set_node_prop(nid(src), weight, value),
            _ => {
                live.push(next_rel);
                next_rel += 1;
                txn.add_rel(
                    rid(next_rel - 1),
                    nid(src),
                    nid(tgt),
                    None,
                    vec![(weight, value)],
                )
            }
        })
        .unwrap();
    }
    let last = db.latest_ts();
    db.lineage_barrier(last);
    let step = 5;

    let mut diffs = Vec::new();
    let mut held: Option<(u64, std::sync::Arc<lpg::Graph>)> = None;
    for version in db.versions(first, last + 1, step).unwrap() {
        let (ts, g, diff) = version.unwrap();
        assert!(g.same_as(&db.get_graph_at(ts).unwrap()), "version at {ts}");
        // A version the caller still holds is not changed by the next one.
        if let Some((held_ts, held)) = held.replace((ts, g)) {
            assert!(held.same_as(&db.get_graph_at(held_ts).unwrap()));
        }
        diffs.extend(diff);
    }
    let (walked_to, _) = held.unwrap();
    let points = (walked_to - first) / step + 1;
    assert!(points >= 50, "{points} points");
    assert_eq!(diffs, db.get_diff(first + 1, walked_to + 1).unwrap());

    let avg = |mode| {
        db.proc_avg_series(weight, first, last + 1, step, mode)
            .unwrap()
            .points
    };
    let classic = avg(ExecMode::Classic);
    assert_eq!(classic.len() as u64, points);
    // The procedures drop each version, so the walk updates it in place.
    for (ts, value) in &classic {
        let g = db.get_graph_at(*ts).unwrap();
        assert_eq!(*value, algo::aggregate::avg_rel_property(&g, weight));
    }
    for ((t1, a), (t2, b)) in classic.iter().zip(avg(ExecMode::Incremental)) {
        assert_eq!(*t1, t2);
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "avg at {t1}"),
            (a, b) => assert_eq!(*a, b, "avg at {t1}"),
        }
    }
    let bfs = |mode| {
        db.proc_bfs_series(nid(0), first, last + 1, step, mode)
            .unwrap()
            .points
    };
    assert_eq!(bfs(ExecMode::Classic), bfs(ExecMode::Incremental));
    let cfg = PageRankConfig {
        damping: 0.85,
        max_iters: 200,
        epsilon: 1e-10,
    };
    let pagerank = |mode| {
        db.proc_pagerank_series(cfg, first, last + 1, step, mode)
            .unwrap()
            .points
    };
    let classic = pagerank(ExecMode::Classic);
    let incremental = pagerank(ExecMode::Incremental);
    assert_eq!(classic.len(), incremental.len());
    for ((t1, a), (t2, b)) in classic.iter().zip(&incremental) {
        assert_eq!(t1, t2);
        assert_eq!(a.len(), b.len(), "pagerank node set at {t1}");
        for (id, ra) in a {
            assert!((ra - b[id]).abs() < 1e-6, "pagerank at {t1} node {id}");
        }
    }
}

/// `start >= end` and a `step` of 0 are one rule for every series: the
/// walk, `getGraph(start, end, step)` and both modes of every procedure
/// refuse them, and a series that ends past the last commit still starts
/// at `start`.
#[test]
fn empty_series_are_refused_in_both_modes() {
    let dir = tempdir().unwrap();
    let db = open(dir.path());
    let last = *seed(&db, 4).last().unwrap();
    let weight = db.intern("weight");
    let cfg = PageRankConfig::default();
    let refused = |r: lpg::Result<()>| r == Err(GraphError::InvalidTimeRange);
    for (start, end, step) in [(5, 5, 1), (6, 5, 1), (1, last + 1, 0)] {
        assert!(refused(db.get_graphs(start, end, step).map(drop)));
        for mode in [ExecMode::Classic, ExecMode::Incremental] {
            let avg = db.proc_avg_series(weight, start, end, step, mode);
            let bfs = db.proc_bfs_series(nid(0), start, end, step, mode);
            let pr = db.proc_pagerank_series(cfg, start, end, step, mode);
            assert!(refused(avg.map(drop)), "avg {mode:?}");
            assert!(refused(bfs.map(drop)), "bfs {mode:?}");
            assert!(refused(pr.map(drop)), "pagerank {mode:?}");
        }
    }
    for mode in [ExecMode::Classic, ExecMode::Incremental] {
        let series = db.proc_bfs_series(nid(0), last, last + 100, 30, mode);
        let times: Vec<u64> = series.unwrap().points.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, [last, last + 30, last + 60, last + 90], "{mode:?}");
    }
}
