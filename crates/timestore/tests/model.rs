//! Property test: TimeStore reconstruction must equal naive update replay
//! for arbitrary valid commit histories, under every snapshot policy.

use lpg::{Graph, NodeId, PropertyValue, RelId, StrId, Update};
use proptest::prelude::*;
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

/// Random-but-valid commit histories over a small id space; each commit
/// carries 1–3 updates.
fn history_strategy() -> impl Strategy<Value = Vec<Vec<Update>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..5, 0u64..5, any::<i64>(), 0u8..6), 1..4),
        1..40,
    )
    .prop_map(|commits| {
        let mut live_nodes: Vec<u64> = Vec::new();
        let mut live_rels: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_rel = 0u64;
        let mut out = Vec::new();
        for commit in commits {
            let mut batch = Vec::new();
            for (a, b, val, kind) in commit {
                match kind {
                    0 if !live_nodes.contains(&a) => {
                        live_nodes.push(a);
                        batch.push(Update::AddNode {
                            id: NodeId::new(a),
                            labels: vec![StrId::new((a % 3) as u32)],
                            props: vec![],
                        });
                    }
                    1 if live_nodes.contains(&a) && live_nodes.contains(&b) => {
                        let rid = next_rel;
                        next_rel += 1;
                        live_rels.push((rid, a, b));
                        batch.push(Update::AddRel {
                            id: RelId::new(rid),
                            src: NodeId::new(a),
                            tgt: NodeId::new(b),
                            label: None,
                            props: vec![],
                        });
                    }
                    2 if !live_rels.is_empty() => {
                        let i = (a as usize) % live_rels.len();
                        let (rid, _, _) = live_rels.remove(i);
                        batch.push(Update::DeleteRel {
                            id: RelId::new(rid),
                        });
                    }
                    3 if live_nodes.contains(&a) => {
                        batch.push(Update::SetNodeProp {
                            id: NodeId::new(a),
                            key: StrId::new((b % 4) as u32),
                            value: PropertyValue::Int(val),
                        });
                    }
                    4 if live_nodes.contains(&a)
                        && !live_rels.iter().any(|(_, s, t)| *s == a || *t == a) =>
                    {
                        live_nodes.retain(|n| *n != a);
                        batch.push(Update::DeleteNode { id: NodeId::new(a) });
                    }
                    5 if !live_rels.is_empty() => {
                        let (rid, _, _) = live_rels[(a as usize) % live_rels.len()];
                        batch.push(Update::SetRelProp {
                            id: RelId::new(rid),
                            key: StrId::new((b % 4) as u32),
                            value: PropertyValue::Int(val),
                        });
                    }
                    _ => {}
                }
            }
            if !batch.is_empty() {
                out.push(batch);
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reconstruction_equals_naive_replay(
        commits in history_strategy(),
        policy in prop_oneof![
            Just(SnapshotPolicy::Never),
            Just(SnapshotPolicy::EveryNOps(3)),
            Just(SnapshotPolicy::EveryNOps(11)),
        ],
    ) {
        let dir = tempdir().unwrap();
        let store = TimeStore::open(
            dir.path(),
            TimeStoreConfig {
                policy,
                ..Default::default()
            },
        )
        .unwrap();
        // Ingest with gaps between timestamps (ts = 2·i + 1).
        let mut oracle = Graph::new();
        let mut states: Vec<(u64, Graph)> = vec![(0, oracle.clone())];
        for (i, batch) in commits.iter().enumerate() {
            let ts = (i as u64) * 2 + 1;
            store.append_commit(ts, batch).unwrap();
            oracle.apply_all(batch.iter()).unwrap();
            states.push((ts, oracle.clone()));
        }
        // Reconstruction agrees at every commit point and in the gaps
        // between commits (commit timestamps are odd, gaps are even).
        for (ts, want) in &states {
            let got = store.snapshot_at(*ts).unwrap();
            prop_assert!(got.same_as(want), "mismatch at ts {}", ts);
            if *ts > 0 {
                let between = store.snapshot_at(ts + 1).unwrap();
                prop_assert!(between.same_as(want), "mismatch at ts {}", ts + 1);
            }
        }
        // Diffs replayed over any base state reproduce any later state.
        if states.len() >= 3 {
            let (mid_ts, mid) = states[states.len() / 2].clone();
            let (end_ts, end) = states.last().cloned().unwrap();
            let mut replay = mid;
            for u in store.diff(mid_ts + 1, end_ts + 1).unwrap() {
                replay.apply(&u.op).unwrap();
            }
            prop_assert!(replay.same_as(&end));
        }
        // The temporal graph's point-in-time views agree too.
        if let Some((end_ts, _)) = states.last() {
            let tg = store.temporal_graph(0, end_ts + 1).unwrap();
            for (ts, want) in states.iter().take(5) {
                prop_assert!(tg.graph_at(*ts).same_as(want), "tg mismatch at {}", ts);
            }
        }
    }
}
