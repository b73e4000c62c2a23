//! Byte-exact known answer for the snapshot file format: `encode_graph` of
//! a fixed 200-entity graph, built in shuffled id order with deletes and
//! property churn, must equal the bytes the previous graph representation
//! (hash maps, sorted at encode time) produced. Round-trip tests pass for
//! any self-consistent order; this pins the one on disk.

use encoding::snapshot::{decode_graph, encode_graph};
use lpg::{Graph, NodeId, PropertyValue, RelId, StrId, Update};

/// `golden/snapshot_200.hex` was written by this same test body at the
/// commit before `lpg::Graph` became id-ordered.
const GOLDEN: &str = include_str!("golden/snapshot_200.hex");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A permutation of `0..n` from a fixed LCG: insertion order must not be
/// id order, or a representation that keeps insertion order would pass.
fn shuffled(n: u64, mut state: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (state >> 33) as usize % (i + 1));
    }
    v
}

fn fixed_graph() -> Graph {
    // 80 nodes: a dense run plus ids at chunk and integer-width edges.
    let mut node_ids: Vec<u64> = (0..70).collect();
    node_ids.extend([
        127,
        128,
        4095,
        1 << 32,
        (1 << 32) + 1,
        1 << 40,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ]);
    let mut g = Graph::new();
    for &slot in &shuffled(80, 7) {
        let id = node_ids[slot as usize];
        let props = match slot % 4 {
            0 => vec![],
            1 => vec![(StrId::new(9), PropertyValue::Int(-(slot as i64)))],
            2 => vec![
                (StrId::new(9), PropertyValue::Float(slot as f64 / 8.0)),
                (StrId::new(2), PropertyValue::Bool(slot % 8 == 2)),
            ],
            _ => vec![
                (StrId::new(11), PropertyValue::IntArray(vec![1, -2, 3])),
                (StrId::new(4), PropertyValue::Str(StrId::new(slot as u32))),
                (StrId::new(7), PropertyValue::FloatArray(vec![0.5, -0.25])),
            ],
        };
        g.apply(&Update::AddNode {
            id: NodeId::new(id),
            labels: (0..slot % 3).map(|l| StrId::new(5 - l as u32)).collect(),
            props,
        })
        .unwrap();
    }
    // 130 relationships, 10 of them deleted again: 120 remain.
    let rel_id = |k: u64| match k % 13 {
        0 => u64::MAX - k,
        1 => (1 << 32) + k,
        _ => k,
    };
    for &k in &shuffled(130, 11) {
        g.apply(&Update::AddRel {
            id: RelId::new(rel_id(k)),
            src: NodeId::new(node_ids[(k * 7 % 80) as usize]),
            tgt: NodeId::new(node_ids[(k * 31 % 80) as usize]),
            label: (k % 5 != 0).then(|| StrId::new((k % 5) as u32)),
            props: if k % 3 == 0 {
                vec![(StrId::new(1), PropertyValue::Float(k as f64 / 2.0))]
            } else {
                vec![]
            },
        })
        .unwrap();
    }
    for k in (0..130).step_by(13) {
        g.apply(&Update::DeleteRel {
            id: RelId::new(rel_id(k)),
        })
        .unwrap();
    }
    for k in 0..20u64 {
        let id = NodeId::new(node_ids[(k * 3) as usize]);
        g.apply(&Update::SetNodeProp {
            id,
            key: StrId::new(3),
            value: PropertyValue::Int(k as i64),
        })
        .unwrap();
        g.apply(&Update::AddLabel {
            id,
            label: StrId::new(1),
        })
        .unwrap();
    }
    g
}

#[test]
fn snapshot_bytes_match_the_previous_representation() {
    let g = fixed_graph();
    assert_eq!(g.node_count() + g.rel_count(), 200);
    let bytes = encode_graph(&g);
    assert_eq!(hex(&bytes), GOLDEN.split_whitespace().collect::<String>());
    let back = decode_graph(&bytes).expect("golden bytes decode");
    assert!(back.same_as(&g));
    back.check_consistency().unwrap();
    assert_eq!(encode_graph(&back), bytes);
}
