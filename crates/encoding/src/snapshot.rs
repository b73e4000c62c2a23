//! Whole-graph snapshot serialization for TimeStore's snapshot files
//! (Sec. 4.3: "snapshots are stored on disk, and references to the files are
//! maintained in a second B+Tree indexed by time").
//!
//! The format reuses the Fig. 3 record bodies: a small header, then every
//! node as `varint id + NodeFull`, then every relationship as
//! `varint id + RelFull`, both ascending by id. Nodes precede relationships
//! so decoding can insert through the constraint-checking [`lpg::Graph`].

use crate::record::{encode_node_full, encode_rel_full, RecordBody};
use crate::varint;
use lpg::{Graph, Node, NodeId, RelId, Relationship};

const MAGIC: u32 = 0x4149_5053; // "AIPS"
const VERSION: u8 = 1;

/// Serializes a graph snapshot.
pub fn encode_graph(graph: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + graph.node_count() * 16 + graph.rel_count() * 24);
    varint::write_u32(&mut out, MAGIC);
    out.push(VERSION);
    varint::write_u64(&mut out, graph.node_count() as u64);
    // Ascending by id, the graph's own order: deterministic bytes aid
    // testing and delta-friendly file diffs.
    for n in graph.nodes() {
        varint::write_u64(&mut out, n.id.raw());
        encode_node_full(&mut out, &n.labels, &n.props);
    }
    varint::write_u64(&mut out, graph.rel_count() as u64);
    for r in graph.rels() {
        varint::write_u64(&mut out, r.id.raw());
        encode_rel_full(&mut out, r.src, r.tgt, r.label, &r.props);
    }
    out
}

/// Deserializes a snapshot, validating structure and graph constraints.
pub fn decode_graph(buf: &[u8]) -> Option<Graph> {
    let mut pos = 0;
    if varint::read_u32(buf, &mut pos)? != MAGIC {
        return None;
    }
    if *buf.get(pos)? != VERSION {
        return None;
    }
    pos += 1;
    let mut graph = Graph::new();
    let nnodes = varint::read_u64(buf, &mut pos)? as usize;
    for _ in 0..nnodes {
        let id = NodeId::new(varint::read_u64(buf, &mut pos)?);
        match RecordBody::decode(buf, &mut pos)? {
            RecordBody::NodeFull { labels, props } => {
                graph.insert_node(Node::new(id, labels, props)).ok()?;
            }
            _ => return None,
        }
    }
    let nrels = varint::read_u64(buf, &mut pos)? as usize;
    for _ in 0..nrels {
        let id = RelId::new(varint::read_u64(buf, &mut pos)?);
        match RecordBody::decode(buf, &mut pos)? {
            RecordBody::RelFull {
                src,
                tgt,
                label,
                props,
            } => {
                graph
                    .insert_rel(Relationship::new(id, src, tgt, label, props))
                    .ok()?;
            }
            _ => return None,
        }
    }
    (pos == buf.len()).then_some(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{PropertyValue, StrId, Update};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20u64 {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![StrId::new((i % 3) as u32)],
                props: vec![(StrId::new(9), PropertyValue::Int(i as i64))],
            })
            .unwrap();
        }
        for i in 0..40u64 {
            g.apply(&Update::AddRel {
                id: RelId::new(i),
                src: NodeId::new(i % 20),
                tgt: NodeId::new((i * 7) % 20),
                label: Some(StrId::new(5)),
                props: vec![(StrId::new(1), PropertyValue::Float(i as f64 / 2.0))],
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample_graph();
        let bytes = encode_graph(&g);
        let g2 = decode_graph(&bytes).expect("decodes");
        assert!(g.same_as(&g2));
        g2.check_consistency().unwrap();
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::new();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.rel_count(), 0);
    }

    #[test]
    fn corruption_detected() {
        let g = sample_graph();
        let mut bytes = encode_graph(&g);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_graph(&bad).is_none());
        // Truncated.
        bytes.truncate(bytes.len() - 3);
        assert!(decode_graph(&bytes).is_none());
        // Trailing garbage.
        let mut padded = encode_graph(&g);
        padded.push(7);
        assert!(decode_graph(&padded).is_none());
    }
}
