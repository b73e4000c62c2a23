//! Ordered entity-id streaming over the lineage indexes.
//!
//! The node index keys every version as `(nodeId, ts)` in order-preserving
//! parts (`encoding::keys::history_key`), so a key-only walk yields node ids in ascending order with each entity's
//! history contiguous. [`NodeIdScan`] collapses that walk to one item per
//! distinct id without reading values, which is what a streaming query
//! executor needs: it resolves the state at its pinned snapshot lazily,
//! one entity at a time, instead of materializing the graph.

use crate::store::LineageStore;
use btree::KeyScan;
use encoding::keys;
use lpg::{GraphError, NodeId, Result};
use std::sync::Arc;

/// Lazy ascending stream of distinct node ids from the lineage node index.
///
/// Each B+Tree key examined (including same-id history duplicates) bumps
/// the `lineage.stream.entries_touched` counter, so tests can assert that
/// `LIMIT k` touches O(k) index entries rather than the full index.
pub struct NodeIdScan {
    keys: KeyScan,
    last: Option<u64>,
    entries_touched: Arc<obs::Counter>,
}

impl NodeIdScan {
    pub(crate) fn new(keys: KeyScan, after: Option<NodeId>) -> NodeIdScan {
        NodeIdScan {
            keys,
            // Seeding `last` with the anchor also suppresses the anchor
            // itself in the `checked_add` overflow edge case below.
            last: after.map(NodeId::raw),
            entries_touched: obs::counter("lineage.stream.entries_touched"),
        }
    }
}

impl Iterator for NodeIdScan {
    type Item = Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let key = match self.keys.next()? {
                Ok(k) => k,
                Err(e) => return Some(Err(e.into())),
            };
            self.entries_touched.inc();
            let Some((id, _ts)) = keys::decode_history_key(&key) else {
                return Some(Err(GraphError::Storage("bad lineage key".into())));
            };
            // Strictly-monotone guard: one id's history keys collapse to
            // one id.
            if self.last.is_some_and(|l| id <= l) {
                continue;
            }
            self.last = Some(id);
            return Some(Ok(NodeId::new(id)));
        }
    }
}

impl LineageStore {
    /// Streams distinct node ids in ascending order, starting strictly
    /// after `after` (or from the smallest id). Ids are every node that
    /// *ever* existed; callers filter liveness at their snapshot via
    /// [`LineageStore::node_at`].
    pub fn stream_node_ids_from(&self, after: Option<NodeId>) -> Result<NodeIdScan> {
        let low: Vec<u8> = match after {
            Some(id) => match id.raw().checked_add(1) {
                Some(next) => keys::history_key(next, 0).to_vec(),
                // The anchor is u64::MAX: nothing can follow it.
                None => keys::history_key(u64::MAX, u64::MAX).to_vec(),
            },
            None => Vec::new(),
        };
        let scan = self.nodes.scan_keys(&low, &[])?;
        Ok(NodeIdScan::new(scan, after))
    }
}
