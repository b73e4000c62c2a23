//! Snapshot-pinned node streams for the lazy query executor.
//!
//! A [`NodeStream`] yields the nodes alive at one pinned timestamp in
//! strictly ascending id order, one node at a time, without ever holding
//! the full result set. Both backing stores produce the *same* sequence,
//! so a pagination cursor anchored on "last node id emitted" resumes
//! identically regardless of which store serves the next page:
//!
//! - **Lineage source** — a key-only walk of the `(nodeId, ts)` B+Tree
//!   index ([`lineagestore::NodeIdScan`]) resolving each candidate with
//!   `node_at(id, ts)`. Touches O(entries before the cut-off) index
//!   entries, which is what makes pushed-down `LIMIT` cheap.
//! - **Snapshot source** — a pinned `Arc<Graph>` from the TimeStore used
//!   while the lineage applier lags or is wedged, walked in the graph's own
//!   (ascending id) order from the last id emitted. Holding the `Arc` pins
//!   the snapshot for the stream's lifetime, never the rows.
//!
//! Every live stream is visible in the `core.stream.open` gauge; `Drop`
//! decrements it, so tests can assert aborted requests release their
//! pinned snapshots.

use lineagestore::{LineageStore, NodeIdScan};
use lpg::{Graph, Node, NodeId, Result, Timestamp};
use std::sync::Arc;

enum Source {
    Lineage {
        ids: NodeIdScan,
        store: Arc<LineageStore>,
    },
    Snapshot {
        graph: Arc<Graph>,
        /// The last id emitted (or the cursor the scan resumed after).
        last: Option<NodeId>,
    },
}

/// Ascending-id stream of nodes alive at a pinned timestamp.
pub struct NodeStream {
    source: Source,
    ts: Timestamp,
    open: Arc<obs::Gauge>,
}

impl NodeStream {
    pub(crate) fn lineage(
        store: Arc<LineageStore>,
        ts: Timestamp,
        after: Option<NodeId>,
        open: &Arc<obs::Gauge>,
    ) -> Result<NodeStream> {
        let ids = store.stream_node_ids_from(after)?;
        Ok(NodeStream::register(
            Source::Lineage { ids, store },
            ts,
            open,
        ))
    }

    pub(crate) fn snapshot(
        graph: Arc<Graph>,
        ts: Timestamp,
        after: Option<NodeId>,
        open: &Arc<obs::Gauge>,
    ) -> NodeStream {
        NodeStream::register(Source::Snapshot { graph, last: after }, ts, open)
    }

    /// A stream over `source`, counted in `open` while it lives.
    fn register(source: Source, ts: Timestamp, open: &Arc<obs::Gauge>) -> NodeStream {
        open.add(1);
        let open = open.clone();
        NodeStream { source, ts, open }
    }

    /// The timestamp this stream is pinned to.
    pub fn snapshot_ts(&self) -> Timestamp {
        self.ts
    }

    /// The next node alive at the pinned timestamp, in ascending id order.
    pub fn next_node(&mut self) -> Result<Option<Node>> {
        match &mut self.source {
            Source::Lineage { ids, store } => {
                for id in ids.by_ref() {
                    // Ids cover every node that ever existed; only those
                    // alive at the pinned ts are part of the snapshot.
                    if let Some(n) = store.node_at(id?, self.ts)? {
                        return Ok(Some(n));
                    }
                }
                Ok(None)
            }
            Source::Snapshot { graph, last } => {
                let next = graph.nodes_after(*last).next();
                if let Some(n) = next {
                    *last = Some(n.id);
                }
                Ok(next.cloned())
            }
        }
    }
}

impl Drop for NodeStream {
    fn drop(&mut self) {
        self.open.add(-1);
    }
}
