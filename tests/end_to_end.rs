//! Cross-crate integration: a generated Table 3-shaped workload ingested
//! into Aion *and* both baseline systems, with every storage path required
//! to answer identically, and the planner/procedure layers exercised on
//! top.

use aion::{Aion, AionConfig};
use aion_suite::*;
use baselines::TemporalBackend;
use lpg::{Direction, GraphError, NodeId, RelId, Update};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tempfile::tempdir;
use workload::datasets;
use workload::simops::{commit_script, spread_ids, SimOpsConfig};

fn ingest(db: &Aion, w: &workload::GeneratedWorkload) {
    for (ts, ops) in w.batches(500) {
        let _ = ts;
        db.write(|txn| {
            for op in &ops {
                match op {
                    lpg::Update::AddNode { id, labels, props } => {
                        txn.add_node(*id, labels.clone(), props.clone())?
                    }
                    lpg::Update::AddRel {
                        id,
                        src,
                        tgt,
                        label,
                        props,
                    } => txn.add_rel(*id, *src, *tgt, *label, props.clone())?,
                    _ => unreachable!("generator emits inserts only"),
                }
            }
            Ok(())
        })
        .expect("ingest batch");
    }
    db.lineage_barrier(db.latest_ts());
}

#[test]
fn all_systems_agree_on_history() {
    let spec = datasets::by_name("WikiTalk").unwrap().scaled(0.0003);
    let w = workload::generate(spec, 77);
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    ingest(&db, &w);

    let mut gradoop = baselines::GradoopLike::new();
    let mut classic = baselines::ClassicStore::new();
    // Aion assigns its own commit timestamps (one per batch); replay the
    // same batching into the baselines so histories align.
    let mut ts = 0u64;
    for (_, ops) in w.batches(500) {
        ts += 1;
        for op in &ops {
            gradoop.apply(ts, op);
            classic.apply(ts, op);
        }
    }
    let last = db.latest_ts();
    assert_eq!(last, ts);

    // Snapshots agree at several probes (Gradoop is the oracle here since
    // it has no multigraph restriction, unlike Raphtory). The workload's own
    // timestamps run past Aion's commit timestamps, so these probes and the
    // ones below draw a historical commit directly.
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..5 {
        let probe = rng.gen_range(1..=last);
        let a = db.get_graph_at(probe).unwrap();
        let g = gradoop.snapshot_at(probe);
        assert!(
            a.same_as(&g),
            "aion vs gradoop snapshot mismatch at ts {probe}"
        );
    }
    // The final snapshot equals the non-temporal store's latest.
    assert!(db.latest_graph().same_as(&classic.snapshot_at(u64::MAX)));

    // Point queries agree between LineageStore and the TimeStore path.
    for _ in 0..200 {
        let rel = w.random_rel(&mut rng);
        let probe = rng.gen_range(1..=last);
        let via_lineage = db.lineagestore().rel_at(rel, probe).unwrap();
        let via_snapshot = db.get_graph_at(probe).unwrap().rel(rel).cloned();
        assert_eq!(via_lineage, via_snapshot, "rel {rel} at ts {probe}");
        assert_eq!(via_lineage, gradoop.rel_at(rel, probe));
    }
}

/// The ids a script created, in ascending order: nodes, then relationships.
fn created_ids(script: &[Vec<Update>]) -> (BTreeSet<NodeId>, BTreeSet<RelId>) {
    let (mut nodes, mut rels) = (BTreeSet::new(), BTreeSet::new());
    for op in script.iter().flatten() {
        match op {
            Update::AddNode { id, .. } => {
                nodes.insert(*id);
            }
            Update::AddRel { id, .. } => {
                rels.insert(*id);
            }
            _ => {}
        }
    }
    (nodes, rels)
}

/// The ids a stream yields, in order.
fn streamed(db: &Aion, ts: u64, whole_graph: bool) -> Vec<NodeId> {
    let mut stream = db.stream_nodes_at(ts, None, whole_graph).unwrap();
    let mut out = Vec::new();
    while let Some(node) = stream.next_node().unwrap() {
        out.push(node.id);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Either store answers every Table 1 entity read alike (Sec. 5.1):
    /// node, relationship and incident-relationship histories over a point,
    /// a short window, the whole history and an inverted window, expansions
    /// of 1–3 hops in every direction (hits in the same order), and node
    /// streams. The histories also equal those of the TimeStore's temporal
    /// graph, the reference model. Every timestamp of a random history is
    /// probed, with every id it created plus one it did not.
    #[test]
    fn history_stores_agree(seed in any::<u64>(), sync_lineage in any::<bool>(), k in 1u64..5) {
        let dir = tempdir().unwrap();
        let mut cfg = AionConfig::new(dir.path());
        cfg.sync_lineage = sync_lineage;
        // Bases come from several snapshot files.
        cfg.timestore.policy = timestore::SnapshotPolicy::EveryNOps(6);
        let db = Aion::open(cfg).unwrap();
        let keys = db.app_time_keys();
        let script = commit_script(
            seed,
            &SimOpsConfig {
                commits: 24,
                ops_per_commit: 4,
                app_start: keys.start,
                app_end: keys.end,
                key: db.intern("k"),
                label: db.intern("L"),
            },
        );
        let script = spread_ids(script, 29);
        for (ts, batch) in (1..).zip(&script) {
            let frame = timestore::CommitFrame::from_updates(ts, batch);
            db.apply_frame(frame.encode()).unwrap();
        }
        let last = db.latest_ts();
        db.lineage_barrier(last);
        let (mut nodes, mut rels) = created_ids(&script);
        // Ids are spread by 29, so 1 is never created.
        nodes.insert(NodeId::new(1));
        rels.insert(RelId::new(1));
        let (ls, ts) = (db.lineagestore(), db.timestore());
        let dirs = [Direction::Outgoing, Direction::Incoming, Direction::Both];
        let whole = (0, last + 1);
        for t in 0..=last + 1 {
            // Held, the version at `t` serves every TimeStore read from it.
            let at_t = db.get_graph_at(t).unwrap();
            for (start, end) in [(t, t), (t, t + k), whole, (t + 1, t)] {
                let reference = (start < end).then(|| db.get_temporal_graph(start, end).unwrap());
                for &id in &nodes {
                    let got = ls.node_history(id, start, end);
                    prop_assert_eq!(&got, &ts.node_history(id, start, end), "node {} [{}, {})", id, start, end);
                    if let Some(tg) = &reference {
                        let want = tg.nodes.get(&id).cloned().unwrap_or_default();
                        prop_assert_eq!(got.unwrap(), want, "node {} against the model", id);
                    }
                    for dir in dirs {
                        prop_assert_eq!(
                            ls.rels_history(id, dir, start, end),
                            ts.rels_history(id, dir, start, end),
                            "rels of {} {:?} [{}, {})", id, dir, start, end
                        );
                    }
                }
                for &id in &rels {
                    let got = ls.rel_history(id, start, end);
                    prop_assert_eq!(&got, &ts.rel_history(id, start, end), "rel {} [{}, {})", id, start, end);
                    if let Some(tg) = &reference {
                        let want = tg.rels.get(&id).cloned().unwrap_or_default();
                        prop_assert_eq!(got.unwrap(), want, "rel {} against the model", id);
                    }
                }
            }
            for &id in &nodes {
                for hops in 1..=3 {
                    for dir in dirs {
                        let a = ls.expand(id, dir, hops, t);
                        let a = a.map(|hits| hits.iter().map(|h| (h.node.id, h.hop)).collect::<Vec<_>>());
                        let b = ts.expand(id, dir, hops, t);
                        if !at_t.has_node(id) {
                            prop_assert!(matches!(a, Err(GraphError::NodeNotFound(_))), "{:?}", a);
                        }
                        prop_assert_eq!(a, b, "expand({}, {:?}, {}) at {}", id, dir, hops, t);
                    }
                }
            }
            prop_assert_eq!(streamed(&db, t, false), streamed(&db, t, true), "stream at {}", t);
        }
    }
}

#[test]
fn temporal_cypher_over_generated_history() {
    let spec = datasets::by_name("DBLP").unwrap().scaled(0.0005);
    let w = workload::generate(spec, 21);
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    ingest(&db, &w);
    let last = db.latest_ts();
    // The generator labels every node with StrId(0); our interner assigns
    // ids on first intern, so intern placeholders to align the vocabulary.
    let label0 = db.intern("GeneratedLabel");
    assert_eq!(label0.raw(), 2, "app-time keys occupy slots 0 and 1");
    // Count all nodes through Cypher at the final timestamp.
    let r = query::execute(
        &db,
        &format!("USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n) RETURN count(n)"),
        &query::Params::new(),
    )
    .unwrap();
    assert_eq!(
        r.rows[0][0],
        query::Value::Int(db.latest_graph().node_count() as i64)
    );
    // Point lookups agree with the API.
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..20 {
        let node = w.random_node(&mut rng);
        let r = query::execute(
            &db,
            &format!("MATCH (n) WHERE id(n) = {} RETURN id(n)", node.raw()),
            &query::Params::new(),
        )
        .unwrap();
        let api = db.latest_graph().has_node(node);
        assert_eq!(r.rows.len() == 1, api, "cypher vs api for node {node}");
    }
}

#[test]
fn procedures_match_reference_algorithms() {
    let spec = datasets::by_name("Pokec").unwrap().scaled(0.0002);
    let w = workload::generate(spec, 31);
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    ingest(&db, &w);
    let last = db.latest_ts();
    let half = last / 2;
    let step = ((last - half) / 5).max(1);
    use aion::procedures::ExecMode;
    // The classic and incremental series must agree point-wise; correctness
    // of each engine against the oracle is covered in the algo crate.
    let weight = lpg::StrId::new(2);
    let c = db
        .proc_avg_series(weight, half, last + 1, step, ExecMode::Classic)
        .unwrap();
    let i = db
        .proc_avg_series(weight, half, last + 1, step, ExecMode::Incremental)
        .unwrap();
    for ((t1, a), (t2, b)) in c.points.iter().zip(i.points.iter()) {
        assert_eq!(t1, t2);
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "avg mismatch at {t1}"),
            (None, None) => {}
            other => panic!("avg mismatch at {t1}: {other:?}"),
        }
    }
    let c = db
        .proc_bfs_series(lpg::NodeId::new(0), half, last + 1, step, ExecMode::Classic)
        .unwrap();
    let i = db
        .proc_bfs_series(
            lpg::NodeId::new(0),
            half,
            last + 1,
            step,
            ExecMode::Incremental,
        )
        .unwrap();
    assert_eq!(c.points, i.points);
}
