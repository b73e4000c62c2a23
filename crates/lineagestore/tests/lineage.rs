//! LineageStore correctness: history reconstruction, delta-chain
//! materialization strategies, and equivalence with the naive-replay oracle
//! under randomized update sequences.

use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::{
    Direction, Graph, Interval, NodeId, PropertyValue, RelId, Relationship, StrId, TemporalGraph,
    TimestampedUpdate, Update, Version,
};
use proptest::prelude::*;
use tempfile::tempdir;

fn open(threshold: Option<u32>) -> (tempfile::TempDir, LineageStore) {
    let dir = tempdir().unwrap();
    let s = LineageStore::open(
        dir.path().join("l.db"),
        LineageStoreConfig {
            cache_pages: 32,
            chain_threshold: threshold,
            ..Default::default()
        },
    )
    .unwrap();
    (dir, s)
}

/// The store's counter `name`.
fn count(s: &LineageStore, name: &str) -> u64 {
    s.registry().snapshot().counter(name).unwrap_or(0)
}

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![StrId::new(0)],
        props: vec![(StrId::new(0), PropertyValue::Int(0))],
    }
}

fn set_prop(i: u64, v: i64) -> Update {
    Update::SetNodeProp {
        id: NodeId::new(i),
        key: StrId::new(1),
        value: PropertyValue::Int(v),
    }
}

#[test]
fn node_history_versions_and_intervals() {
    let (_d, s) = open(Some(4));
    s.apply_update(1, &add_node(7)).unwrap();
    s.apply_update(5, &set_prop(7, 10)).unwrap();
    s.apply_update(9, &set_prop(7, 20)).unwrap();
    s.apply_update(12, &Update::DeleteNode { id: NodeId::new(7) })
        .unwrap();

    let hist = s.node_history(NodeId::new(7), 0, 20).unwrap();
    assert_eq!(hist.len(), 3);
    assert_eq!(hist[0].valid, Interval::new(1, 5));
    assert_eq!(hist[1].valid, Interval::new(5, 9));
    assert_eq!(hist[2].valid, Interval::new(9, 12));
    assert_eq!(hist[0].data.prop(StrId::new(1)), None);
    assert_eq!(
        hist[1].data.prop(StrId::new(1)),
        Some(&PropertyValue::Int(10))
    );
    assert_eq!(
        hist[2].data.prop(StrId::new(1)),
        Some(&PropertyValue::Int(20))
    );

    // Point query: a single clipped version.
    let point = s.node_history(NodeId::new(7), 6, 6).unwrap();
    assert_eq!(point.len(), 1);
    assert_eq!(
        point[0].data.prop(StrId::new(1)),
        Some(&PropertyValue::Int(10))
    );
    // After deletion: nothing.
    assert!(s.node_history(NodeId::new(7), 15, 20).unwrap().is_empty());
    assert!(s.node_at(NodeId::new(7), 12).unwrap().is_none());
    assert!(s.node_at(NodeId::new(7), 11).unwrap().is_some());
}

/// The largest node id has no successor to bound its neighbour scan with;
/// its relationships must still be found (a debug build once panicked on
/// the `+ 1`, a release build wrapped the bound to 0 and found none).
#[test]
fn largest_node_id_keeps_its_relationships() {
    let (_d, s) = open(Some(4));
    let (max, low) = (NodeId::new(u64::MAX), NodeId::new(0));
    s.apply_update(1, &add_node(u64::MAX)).unwrap();
    s.apply_update(2, &add_node(0)).unwrap();
    let rel = |id: u64, src: NodeId, tgt: NodeId| Update::AddRel {
        id: RelId::new(id),
        src,
        tgt,
        label: None,
        props: vec![],
    };
    s.apply_update(3, &rel(1, max, low)).unwrap();
    s.apply_update(4, &rel(2, low, max)).unwrap();

    let ids = |dir| -> Vec<u64> {
        let mut ids: Vec<u64> = s
            .rels_at(max, dir, 5)
            .unwrap()
            .iter()
            .map(|r| r.id.raw())
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(ids(Direction::Outgoing), [1]);
    assert_eq!(ids(Direction::Incoming), [2]);
    assert_eq!(ids(Direction::Both), [1, 2]);
    assert_eq!(
        s.rels_history(max, Direction::Both, 0, 10).unwrap().len(),
        2
    );
    let hits = s.expand(max, Direction::Outgoing, 2, 5).unwrap();
    let mut reached: Vec<u64> = hits.iter().map(|h| h.node.id.raw()).collect();
    reached.sort_unstable();
    assert_eq!(reached, [0]);
    assert_eq!(s.expand(low, Direction::Outgoing, 1, 5).unwrap().len(), 1);
    // Node 0's scan stops before node u64::MAX's entries.
    assert_eq!(s.rels_at(low, Direction::Outgoing, 5).unwrap().len(), 1);
}

/// Ids and timestamps whose significant bytes cross the compact neighbour
/// key's length boundaries (255/256, 65 535/65 536, 2^32, `u64::MAX`),
/// connected both ways, with a multi-edge and deleted relationships:
/// `rels_at`, `rels_history` and `expand` agree with a naive replay at
/// every commit.
#[test]
fn neighbour_queries_across_key_width_boundaries() {
    let (_d, s) = open(Some(4));
    const NODES: [u64; 6] = [0, 255, 256, 65_535, 65_536, u64::MAX];
    let rel = |id: u64, src: u64, tgt: u64| Update::AddRel {
        id: RelId::new(id),
        src: NodeId::new(src),
        tgt: NodeId::new(tgt),
        label: None,
        props: vec![],
    };
    let mut updates: Vec<TimestampedUpdate> = NODES
        .iter()
        .zip(252..)
        .map(|(&id, ts)| TimestampedUpdate::new(ts, add_node(id)))
        .collect();
    let later = [
        rel(255, 255, 256),
        rel(256, 256, 255),
        rel(65_535, 65_535, 65_536),
        rel(65_536, 65_535, 65_536), // a second edge between the same pair
        rel(u64::MAX, u64::MAX, 0),
        rel(1, 0, u64::MAX),
        rel(2, 256, 65_536),
        rel(65_537, 65_536, 255),
        Update::DeleteRel {
            id: RelId::new(65_536),
        },
        Update::SetRelProp {
            id: RelId::new(65_535),
            key: StrId::new(2),
            value: PropertyValue::Int(-1),
        },
        Update::DeleteRel { id: RelId::new(1) },
        rel(3, 65_536, u64::MAX),
    ];
    let stamps = (65_530..).take(later.len() - 1).chain([1 << 32]);
    updates.extend(
        stamps
            .zip(later)
            .map(|(ts, u)| TimestampedUpdate::new(ts, u)),
    );

    let mut graph = Graph::new();
    for (i, commit) in updates.iter().enumerate() {
        let ts = commit.ts;
        s.apply_update(ts, &commit.op).unwrap();
        graph.apply(&commit.op).unwrap();
        let oracle = TemporalGraph::build(&Graph::new(), Interval::new(0, ts + 1), &updates[..=i]);
        for id in NODES.map(NodeId::new) {
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                let mut got = s.rels_at(id, dir, ts).unwrap();
                got.sort_by_key(|r| r.id);
                let mut want: Vec<Relationship> = graph
                    .relationships(id, dir)
                    .filter_map(|rid| graph.rel(rid).cloned())
                    .collect();
                want.sort_by_key(|r| r.id);
                assert_eq!(got, want, "rels_at({id:?}, {dir:?}, {ts})");

                let got = s.rels_history(id, dir, 0, ts + 1).unwrap();
                let mut want: Vec<(RelId, Vec<Version<Relationship>>)> = oracle
                    .rels
                    .iter()
                    .filter(|(_, chain)| {
                        let r = &chain[0].data;
                        (dir.includes_out() && r.src == id) || (dir.includes_in() && r.tgt == id)
                    })
                    .map(|(rid, chain)| (*rid, chain.clone()))
                    .collect();
                want.sort_by_key(|(rid, _)| *rid);
                let want: Vec<_> = want.into_iter().map(|(_, chain)| chain).collect();
                assert_eq!(got, want, "rels_history({id:?}, {dir:?}, 0, {})", ts + 1);

                let got = s.expand(id, dir, 2, ts);
                if graph.node(id).is_none() {
                    assert!(got.is_err(), "expand from absent {id:?} at {ts}");
                    continue;
                }
                let mut got: Vec<(NodeId, u32)> =
                    got.unwrap().iter().map(|h| (h.node.id, h.hop)).collect();
                got.sort_unstable();
                let (mut seen, mut frontier, mut want) = (vec![id], vec![id], Vec::new());
                for hop in 1..=2 {
                    let mut next = Vec::new();
                    for n in frontier.iter().flat_map(|&c| graph.neighbours(c, dir)) {
                        if !seen.contains(&n) {
                            seen.push(n);
                            want.push((n, hop));
                            next.push(n);
                        }
                    }
                    frontier = next;
                }
                want.sort_unstable();
                assert_eq!(got, want, "expand({id:?}, {dir:?}, 2, {ts})");
            }
        }
    }
}

/// Node and relationship ids at every key-width boundary, with histories
/// whose timestamps cross the widths too (1 to 8 bytes) and whose delta
/// chains run past the threshold, so chain bases sit in narrower keys than
/// the deltas built on them. `node_at`, `rel_at`, both histories and
/// `stream_node_ids_from` agree with a naive replay at every commit, with
/// and without materialization.
#[test]
fn entity_histories_across_key_width_boundaries() {
    const IDS: [u64; 7] = [0, 255, 256, 65_535, 65_536, 1 << 56, u64::MAX];
    let stamps: Vec<u64> = (250..=257)
        .chain(65_533..=65_540)
        .chain([
            1 << 32,
            (1 << 32) + 1,
            (1 << 56) - 1,
            1 << 56,
            (1 << 56) + 1,
        ])
        .chain([u64::MAX - 2, u64::MAX - 1])
        .collect();
    let rel = |i: usize| Update::AddRel {
        id: RelId::new(IDS[i]),
        src: NodeId::new(IDS[i]),
        tgt: NodeId::new(IDS[(i + 1) % IDS.len()]),
        label: None,
        props: vec![],
    };
    // The first commit adds every node but the last, the second every
    // relationship that needs no later node; each later commit sets a
    // property on every live entity, and a few add, delete or relabel.
    let mut commits: Vec<Vec<Update>> = vec![
        IDS[..6].iter().map(|&id| add_node(id)).collect(),
        (0..5).map(rel).collect(),
    ];
    let (mut nodes, mut rels) = (IDS[..6].to_vec(), IDS[..5].to_vec());
    for i in 2..stamps.len() {
        let mut ops = Vec::new();
        match i {
            // At 2^32: relationship 256 leaves.
            16 => {
                rels.retain(|&id| id != 256);
                ops.push(Update::DeleteRel {
                    id: RelId::new(256),
                });
            }
            // At 2^56: node 255 gains a label beside its property.
            19 => ops.push(Update::AddLabel {
                id: NodeId::new(255),
                label: StrId::new(3),
            }),
            _ => {}
        }
        let v = i as i64;
        ops.extend(nodes.iter().map(|&id| set_prop(id, v)));
        ops.extend(rels.iter().map(|&id| Update::SetRelProp {
            id: RelId::new(id),
            key: StrId::new(2),
            value: PropertyValue::Int(-v),
        }));
        // At 65 536: the last node and its two relationships.
        if i == 11 {
            ops.extend([add_node(IDS[6]), rel(5), rel(6)]);
            nodes.push(IDS[6]);
            rels.extend(&IDS[5..]);
        }
        commits.push(ops);
    }

    for threshold in [Some(4), None] {
        let (_d, s) = open(threshold);
        let mut graph = Graph::new();
        let mut updates: Vec<TimestampedUpdate> = Vec::new();
        let mut ever: Vec<NodeId> = Vec::new();
        for (&ts, ops) in stamps.iter().zip(&commits) {
            s.apply_commit(ts, ops).unwrap();
            for op in ops {
                graph.apply(op).unwrap();
                updates.push(TimestampedUpdate::new(ts, op.clone()));
                if let Update::AddNode { id, .. } = op {
                    ever.push(*id);
                }
            }
            ever.sort_unstable();
            let oracle = TemporalGraph::build(&Graph::new(), Interval::new(0, ts + 1), &updates);
            for id in IDS {
                let (node, rel) = (NodeId::new(id), RelId::new(id));
                let at = format!("{id} at ts {ts}, threshold {threshold:?}");
                let got = s.node_at(node, ts).unwrap();
                assert_eq!(got.as_ref(), graph.node(node), "node {at}");
                let got = s.rel_at(rel, ts).unwrap();
                assert_eq!(got.as_ref(), graph.rel(rel), "rel {at}");
                // Every earlier commit, and the tick after it.
                for t in stamps
                    .iter()
                    .take_while(|&&t| t < ts)
                    .flat_map(|&t| [t, t + 1])
                {
                    let then = oracle.graph_at(t);
                    let got = s.node_at(node, t).unwrap();
                    assert_eq!(got.as_ref(), then.node(node), "node {id} at {t}, now {ts}");
                    let got = s.rel_at(rel, t).unwrap();
                    assert_eq!(got.as_ref(), then.rel(rel), "rel {id} at {t}, now {ts}");
                }
                let want = oracle.nodes.get(&node).cloned().unwrap_or_default();
                let got = s.node_history(node, 0, ts + 1).unwrap();
                assert_eq!(got, want, "node history {at}");
                let want = oracle.rels.get(&rel).cloned().unwrap_or_default();
                let got = s.rel_history(rel, 0, ts + 1).unwrap();
                assert_eq!(got, want, "rel history {at}");
            }
            let streamed = |after| -> Vec<NodeId> {
                let scan = s.stream_node_ids_from(after).unwrap();
                scan.map(Result::unwrap).collect()
            };
            assert_eq!(streamed(None), ever, "every node id at ts {ts}");
            for &after in &ever {
                let want: Vec<NodeId> = ever.iter().copied().filter(|&n| n > after).collect();
                assert_eq!(
                    streamed(Some(after)),
                    want,
                    "ids after {after:?} at ts {ts}"
                );
            }
        }
        assert!(count(&s, "lineagestore.chain_reconstructions") > 0);
        if threshold.is_some() {
            assert!(count(&s, "lineagestore.materializations") > 0);
        }
    }
}

#[test]
fn chain_thresholds_do_not_change_answers() {
    let mut answers = Vec::new();
    for threshold in [Some(1), Some(2), Some(4), Some(16), None] {
        let (_d, s) = open(threshold);
        s.apply_update(1, &add_node(1)).unwrap();
        for i in 0..40u64 {
            s.apply_update(2 + i, &set_prop(1, i as i64 * 3)).unwrap();
        }
        let at_mid = s.node_at(NodeId::new(1), 21).unwrap().unwrap();
        let at_end = s.node_at(NodeId::new(1), 100).unwrap().unwrap();
        let hist_len = s.node_history(NodeId::new(1), 0, 100).unwrap().len();
        answers.push((
            at_mid.prop(StrId::new(1)).cloned(),
            at_end.prop(StrId::new(1)).cloned(),
            hist_len,
        ));
    }
    for pair in answers.windows(2) {
        assert_eq!(pair[0], pair[1], "threshold changed query results");
    }
}

#[test]
fn materialization_stats_reflect_threshold() {
    let (_d, dense) = open(Some(1));
    let (_d2, sparse) = open(None);
    for s in [&dense, &sparse] {
        s.apply_update(1, &add_node(1)).unwrap();
        for i in 0..20u64 {
            s.apply_update(2 + i, &set_prop(1, i as i64)).unwrap();
        }
    }
    assert_eq!(count(&dense, "lineagestore.materializations"), 20);
    assert_eq!(count(&dense, "lineagestore.deltas"), 0);
    assert_eq!(count(&sparse, "lineagestore.materializations"), 0);
    assert_eq!(count(&sparse, "lineagestore.deltas"), 20);
    // Denser materialization costs more bytes.
    assert!(dense.size_bytes() >= sparse.size_bytes());
}

#[test]
fn same_timestamp_updates_coalesce() {
    let (_d, s) = open(Some(4));
    // One transaction: create a node and immediately set properties.
    s.apply_commit(
        5,
        &[
            add_node(1),
            set_prop(1, 7),
            Update::AddLabel {
                id: NodeId::new(1),
                label: StrId::new(3),
            },
        ],
    )
    .unwrap();
    let n = s.node_at(NodeId::new(1), 5).unwrap().unwrap();
    assert_eq!(n.prop(StrId::new(1)), Some(&PropertyValue::Int(7)));
    assert!(n.has_label(StrId::new(3)));
    // Exactly one version exists.
    assert_eq!(s.node_history(NodeId::new(1), 0, 100).unwrap().len(), 1);
    assert_eq!(s.applied_ts(), 5);
}

#[test]
fn rel_history_and_endpoint_lookup() {
    let (_d, s) = open(Some(4));
    s.apply_update(1, &add_node(1)).unwrap();
    s.apply_update(2, &add_node(2)).unwrap();
    s.apply_update(
        3,
        &Update::AddRel {
            id: RelId::new(9),
            src: NodeId::new(1),
            tgt: NodeId::new(2),
            label: Some(StrId::new(5)),
            props: vec![],
        },
    )
    .unwrap();
    s.apply_update(
        6,
        &Update::SetRelProp {
            id: RelId::new(9),
            key: StrId::new(2),
            value: PropertyValue::Float(1.5),
        },
    )
    .unwrap();
    s.apply_update(8, &Update::DeleteRel { id: RelId::new(9) })
        .unwrap();
    let hist = s.rel_history(RelId::new(9), 0, 10).unwrap();
    assert_eq!(hist.len(), 2);
    assert_eq!(hist[0].valid, Interval::new(3, 6));
    assert_eq!(hist[1].valid, Interval::new(6, 8));
    assert_eq!(hist[1].data.src, NodeId::new(1));
    // rels_at respects the deletion.
    assert_eq!(
        s.rels_at(NodeId::new(1), Direction::Outgoing, 7)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        s.rels_at(NodeId::new(1), Direction::Outgoing, 8)
            .unwrap()
            .len(),
        0
    );
    // rels_history groups by relationship.
    let per_rel = s
        .rels_history(NodeId::new(2), Direction::Incoming, 0, 10)
        .unwrap();
    assert_eq!(per_rel.len(), 1);
    assert_eq!(per_rel[0].len(), 2);
}

#[test]
fn multigraph_edges_between_same_pair() {
    let (_d, s) = open(Some(4));
    s.apply_update(1, &add_node(1)).unwrap();
    s.apply_update(2, &add_node(2)).unwrap();
    for rid in 0..3u64 {
        s.apply_update(
            3 + rid,
            &Update::AddRel {
                id: RelId::new(rid),
                src: NodeId::new(1),
                tgt: NodeId::new(2),
                label: None,
                props: vec![],
            },
        )
        .unwrap();
    }
    // All three parallel edges are retrievable — unlike Raphtory (Sec. 6.2).
    assert_eq!(
        s.rels_at(NodeId::new(1), Direction::Outgoing, 10)
            .unwrap()
            .len(),
        3
    );
    s.apply_update(10, &Update::DeleteRel { id: RelId::new(1) })
        .unwrap();
    assert_eq!(
        s.rels_at(NodeId::new(1), Direction::Outgoing, 10)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn watermark_survives_reopen() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("l.db");
    {
        let s = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
        s.apply_commit(42, &[add_node(1)]).unwrap();
        s.sync().unwrap();
    }
    let s = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
    assert_eq!(s.applied_ts(), 42);
    assert!(s.node_at(NodeId::new(1), 42).unwrap().is_some());
}

// ------------------------------------------------------------------ oracle

/// Random-but-valid update sequences over a small id space.
fn history_strategy() -> impl Strategy<Value = Vec<(u64, Update)>> {
    proptest::collection::vec((0u64..6, 0u64..6, 0u64..4, any::<i64>(), 0u8..6), 1..80).prop_map(
        |raw| {
            let mut live_nodes: Vec<u64> = Vec::new();
            let mut live_rels: Vec<(u64, u64, u64)> = Vec::new(); // (rid, src, tgt)
            let mut next_rel = 0u64;
            let mut out = Vec::new();
            let mut ts = 0u64;
            for (a, b, key, val, kind) in raw {
                ts += 1;
                let op = match kind {
                    0 => {
                        if live_nodes.contains(&a) {
                            continue;
                        }
                        live_nodes.push(a);
                        add_node(a)
                    }
                    1 => {
                        if !live_nodes.contains(&a) || !live_nodes.contains(&b) {
                            continue;
                        }
                        let rid = next_rel;
                        next_rel += 1;
                        live_rels.push((rid, a, b));
                        Update::AddRel {
                            id: RelId::new(rid),
                            src: NodeId::new(a),
                            tgt: NodeId::new(b),
                            label: None,
                            props: vec![],
                        }
                    }
                    2 => {
                        if live_rels.is_empty() {
                            continue;
                        }
                        let (rid, _, _) = live_rels.remove((a as usize) % live_rels.len());
                        Update::DeleteRel {
                            id: RelId::new(rid),
                        }
                    }
                    3 => {
                        if !live_nodes.contains(&a) {
                            continue;
                        }
                        Update::SetNodeProp {
                            id: NodeId::new(a),
                            key: StrId::new(key as u32),
                            value: PropertyValue::Int(val),
                        }
                    }
                    4 => {
                        if live_rels.is_empty() {
                            continue;
                        }
                        let (rid, _, _) = live_rels[(a as usize) % live_rels.len()];
                        Update::SetRelProp {
                            id: RelId::new(rid),
                            key: StrId::new(key as u32),
                            value: PropertyValue::Int(val),
                        }
                    }
                    _ => {
                        // Delete a node only when it has no live rels.
                        if !live_nodes.contains(&a)
                            || live_rels.iter().any(|(_, s, t)| *s == a || *t == a)
                        {
                            continue;
                        }
                        live_nodes.retain(|n| *n != a);
                        Update::DeleteNode { id: NodeId::new(a) }
                    }
                };
                out.push((ts, op));
            }
            out
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lineage_matches_naive_replay(
        ops in history_strategy(),
        threshold in prop_oneof![Just(Some(1u32)), Just(Some(3u32)), Just(None)],
    ) {
        let (_d, s) = open(threshold);
        for (ts, op) in &ops {
            s.apply_update(*ts, op).unwrap();
        }
        let max_ts = ops.last().map(|(t, _)| *t).unwrap_or(0) + 2;
        // Oracle: temporal graph by naive replay.
        let updates: Vec<TimestampedUpdate> = ops
            .iter()
            .map(|(t, o)| TimestampedUpdate::new(*t, o.clone()))
            .collect();
        let oracle = TemporalGraph::build(&Graph::new(), Interval::new(0, max_ts), &updates);

        // Node histories agree (modulo window clipping which both apply).
        for id in 0u64..6 {
            let got = s.node_history(NodeId::new(id), 0, max_ts).unwrap();
            let want = oracle.nodes.get(&NodeId::new(id)).cloned().unwrap_or_default();
            prop_assert_eq!(got.len(), want.len(), "node {} version count", id);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.valid, w.valid);
                prop_assert_eq!(&g.data, &w.data);
            }
        }

        // Relationship histories agree too. The script numbers relationships
        // from 0, one per AddRel, so no id reaches the op count.
        for id in 0..ops.len() as u64 {
            let got = s.rel_history(RelId::new(id), 0, max_ts).unwrap();
            let want = oracle.rels.get(&RelId::new(id)).cloned().unwrap_or_default();
            prop_assert_eq!(got.len(), want.len(), "rel {} history", id);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.valid, w.valid);
                prop_assert_eq!(&g.data, &w.data);
            }
        }
    }
}
