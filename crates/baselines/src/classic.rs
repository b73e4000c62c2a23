//! The classic (non-temporal) baseline: a latest-version-only store, the
//! stand-in for plain Neo4j. Used to normalize ingestion throughput
//! (Fig. 9, "we compute the throughput of Neo4j without temporal storage
//! and use it as a baseline") and as the recompute baseline for
//! incremental analytics (Figs. 12/14) — it can only answer "now", so any
//! historical question forces a full recomputation from retained inputs.

use crate::TemporalBackend;
use lpg::{Graph, RelId, Relationship, Timestamp, Update};

/// Latest-version-only graph store.
#[derive(Default)]
pub struct ClassicStore {
    graph: Graph,
    updates: u64,
}

impl ClassicStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Updates ingested.
    pub fn update_count(&self) -> u64 {
        self.updates
    }
}

impl TemporalBackend for ClassicStore {
    fn name(&self) -> &'static str {
        "classic (non-temporal)"
    }

    fn apply(&mut self, _ts: Timestamp, op: &Update) {
        self.updates += 1;
        // No history is retained; failed updates are ignored as the
        // harness always feeds consistent streams.
        let _ = self.graph.apply(op);
    }

    fn rel_at(&self, id: RelId, _ts: Timestamp) -> Option<Relationship> {
        // A non-temporal store can only answer about the present.
        self.graph.rel(id).cloned()
    }

    fn snapshot_at(&self, _ts: Timestamp) -> Graph {
        self.graph.clone()
    }

    fn heap_size(&self) -> usize {
        self.graph.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::NodeId;

    #[test]
    fn only_latest_is_visible() {
        let mut c = ClassicStore::new();
        c.apply(
            1,
            &Update::AddNode {
                id: NodeId::new(1),
                labels: vec![],
                props: vec![],
            },
        );
        c.apply(
            2,
            &Update::AddNode {
                id: NodeId::new(2),
                labels: vec![],
                props: vec![],
            },
        );
        c.apply(
            3,
            &Update::AddRel {
                id: RelId::new(0),
                src: NodeId::new(1),
                tgt: NodeId::new(2),
                label: None,
                props: vec![],
            },
        );
        c.apply(4, &Update::DeleteRel { id: RelId::new(0) });
        // Historical timestamps return the latest state regardless.
        assert!(c.rel_at(RelId::new(0), 3).is_none());
        assert_eq!(c.snapshot_at(3).rel_count(), 0);
        assert_eq!(c.snapshot_at(100).node_count(), 2);
        assert_eq!(c.update_count(), 4);
    }
}
