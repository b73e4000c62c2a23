//! Property test: a CSR projection of an `lpg::Graph` reached by an
//! arbitrary valid update sequence (adds, deletes and re-adds of nodes and
//! relationships) is the graph's adjacency over dense indexes, with no slot
//! for what was deleted.

use algo::{pagerank, Csr, PageRankConfig};
use lpg::{Direction, Graph, NodeId, PropertyValue, RelId, StrId, Update};
use proptest::prelude::*;

/// Half the ids counted up from 0 (where rank and id can coincide), half far
/// apart.
fn node(a: u64) -> NodeId {
    NodeId::new(if a < 4 { a } else { a << 40 })
}

fn ops_strategy() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec((0u64..8, 0u64..8, any::<i64>(), 0u8..6), 1..120).prop_map(|raw| {
        let mut live_nodes: Vec<u64> = Vec::new();
        let mut live_rels: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_rel = 0u64;
        let mut out = Vec::new();
        for (a, b, val, kind) in raw {
            match kind {
                0 if !live_nodes.contains(&a) => {
                    live_nodes.push(a);
                    out.push(Update::AddNode {
                        id: node(a),
                        labels: vec![],
                        props: vec![],
                    });
                }
                1 | 2 if live_nodes.contains(&a) && live_nodes.contains(&b) => {
                    let rid = next_rel;
                    next_rel += 1;
                    live_rels.push((rid, a, b));
                    out.push(Update::AddRel {
                        id: RelId::new(rid),
                        src: node(a),
                        tgt: node(b),
                        label: None,
                        props: vec![],
                    });
                }
                3 if !live_rels.is_empty() => {
                    let i = (a as usize) % live_rels.len();
                    let (rid, _, _) = live_rels.remove(i);
                    out.push(Update::DeleteRel {
                        id: RelId::new(rid),
                    });
                }
                4 if live_nodes.contains(&a)
                    && !live_rels.iter().any(|(_, s, t)| *s == a || *t == a) =>
                {
                    live_nodes.retain(|n| *n != a);
                    out.push(Update::DeleteNode { id: node(a) });
                }
                5 if !live_rels.is_empty() => {
                    let (rid, _, _) = live_rels[(a as usize) % live_rels.len()];
                    out.push(Update::SetRelProp {
                        id: RelId::new(rid),
                        key: StrId::new((b % 2) as u32),
                        value: PropertyValue::Int(val % 1000),
                    });
                }
                _ => {}
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn projection_is_the_graphs_adjacency(ops in ops_strategy()) {
        let mut g = Graph::new();
        for op in &ops {
            g.apply(op).unwrap();
        }
        for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
            let csr = Csr::project(&g, dir);
            prop_assert!(csr.ids.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(csr.ids.iter().copied().eq(g.nodes().map(|n| n.id)));
            prop_assert_eq!(csr.offsets.len(), csr.ids.len() + 1);
            for (d, &id) in csr.ids.iter().enumerate() {
                prop_assert_eq!(csr.dense(id), Some(d as u32));
                // The other end of every incident relationship.
                let mut want: Vec<NodeId> = g
                    .relationships(id, dir)
                    .map(|rid| g.rel(rid).unwrap().other_end(id).unwrap())
                    .collect();
                let mut got: Vec<NodeId> = csr
                    .neighbours(d as u32)
                    .iter()
                    .map(|&t| csr.sparse(t))
                    .collect();
                want.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, want, "node {} {:?}", id, dir);
            }
        }
        // Deleted nodes hold no rank: the vector sums to 1 over the live ones.
        let csr = Csr::project(&g, Direction::Outgoing);
        let ranks = pagerank(&csr, PageRankConfig::default()).ranks;
        prop_assert_eq!(ranks.len(), g.node_count());
        if !ranks.is_empty() {
            prop_assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
