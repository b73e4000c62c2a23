//! Algorithm 1: the `expand` method — n-hop neighbourhood retrieval at a
//! time point (Table 1). The BFS is [`lpg::bfs()`]; its neighbour source is
//! the neighbour-index scan, which takes each neighbour from its key `(a,
//! b, relId, ts)`. Only the nodes reached are decoded, each once.

use crate::store::LineageStore;
use lpg::{Direction, GraphError, Node, NodeId, Result, Timestamp};

/// One discovered node with the hop at which it was first reached.
#[derive(Clone, PartialEq, Debug)]
pub struct ExpandHit {
    /// The neighbour node.
    pub node: Node,
    /// Hop distance from the start node (1 = direct neighbour).
    pub hop: u32,
}

impl LineageStore {
    /// Algorithm 1 — expand `id` by `hops` in direction `d` at timestamp
    /// `t`. Returns every reached node tagged with its hop distance; within
    /// a hop, each node's neighbours come in `(neighbour, relId)` order.
    pub fn expand(
        &self,
        id: NodeId,
        dir: Direction,
        hops: u32,
        t: Timestamp,
    ) -> Result<Vec<ExpandHit>> {
        self.metrics.expands.inc();
        if self.node_at(id, t)?.is_none() {
            return Err(GraphError::NodeNotFound(id));
        }
        let mut found = Vec::new();
        let reached = lpg::bfs::<GraphError>(id, hops, |cur, out| {
            found.clear();
            self.valid_neighbours(cur, dir, t, &mut found)?; // line 8
            found.sort_unstable();
            out.extend(found.iter().map(|&(b, _)| b));
            Ok(())
        })?;
        let mut result = Vec::with_capacity(reached.len());
        for (n, hop) in reached {
            // A valid relationship's endpoints are alive (Sec. 3); a node
            // that is not is left out rather than reported.
            if let Some(node) = self.node_at(n, t)? {
                result.push(ExpandHit { node, hop }); // line 12
            }
        }
        self.metrics.expand_fanout.record(result.len() as u64);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LineageStore, LineageStoreConfig};
    use lpg::{RelId, Update};
    use tempfile::tempdir;

    fn store() -> (tempfile::TempDir, LineageStore) {
        let dir = tempdir().unwrap();
        let s = LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap();
        (dir, s)
    }

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        }
    }

    fn add_rel(id: u64, src: u64, tgt: u64) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: NodeId::new(src),
            tgt: NodeId::new(tgt),
            label: None,
            props: vec![],
        }
    }

    /// Chain 0 → 1 → 2 → 3 plus a back edge 2 → 0.
    fn build_chain(s: &LineageStore) {
        for i in 0..4 {
            s.apply_update(i + 1, &add_node(i)).unwrap();
        }
        s.apply_update(10, &add_rel(0, 0, 1)).unwrap();
        s.apply_update(11, &add_rel(1, 1, 2)).unwrap();
        s.apply_update(12, &add_rel(2, 2, 3)).unwrap();
        s.apply_update(13, &add_rel(3, 2, 0)).unwrap();
    }

    #[test]
    fn expand_counts_hops_outgoing() {
        let (_d, s) = store();
        build_chain(&s);
        let hits = s
            .expand(NodeId::new(0), Direction::Outgoing, 3, 20)
            .unwrap();
        let mut by_hop: Vec<(u64, u32)> = hits.iter().map(|h| (h.node.id.raw(), h.hop)).collect();
        by_hop.sort_unstable();
        assert_eq!(by_hop, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn expand_respects_time() {
        let (_d, s) = store();
        build_chain(&s);
        // At ts 10 only rel 0 exists.
        let hits = s
            .expand(NodeId::new(0), Direction::Outgoing, 3, 10)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].node.id, NodeId::new(1));
        // Before any relationship: empty.
        assert!(s
            .expand(NodeId::new(0), Direction::Outgoing, 3, 5)
            .unwrap()
            .is_empty());
        // Before the node existed: error.
        assert!(matches!(
            s.expand(NodeId::new(0), Direction::Outgoing, 1, 0),
            Err(GraphError::NodeNotFound(_))
        ));
    }

    #[test]
    fn expand_incoming_and_both() {
        let (_d, s) = store();
        build_chain(&s);
        let inc = s
            .expand(NodeId::new(0), Direction::Incoming, 1, 20)
            .unwrap();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].node.id, NodeId::new(2));
        let both = s.expand(NodeId::new(0), Direction::Both, 1, 20).unwrap();
        let mut ids: Vec<u64> = both.iter().map(|h| h.node.id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn expand_does_not_revisit() {
        let (_d, s) = store();
        build_chain(&s);
        // The cycle 0→1→2→0 must not produce duplicates.
        let hits = s.expand(NodeId::new(0), Direction::Both, 8, 20).unwrap();
        let mut ids: Vec<u64> = hits.iter().map(|h| h.node.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), hits.len(), "no duplicates");
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn expand_after_deletion_stops_at_gap() {
        let (_d, s) = store();
        build_chain(&s);
        s.apply_update(15, &Update::DeleteRel { id: RelId::new(1) })
            .unwrap();
        let hits = s
            .expand(NodeId::new(0), Direction::Outgoing, 3, 20)
            .unwrap();
        assert_eq!(hits.len(), 1, "path beyond deleted rel unreachable");
        // Time travel back before the deletion still sees the full chain.
        let hits = s
            .expand(NodeId::new(0), Direction::Outgoing, 3, 14)
            .unwrap();
        assert_eq!(hits.len(), 3);
    }
}
