//! The four-index LineageStore with chain-aware reconstruction.

use crate::entry::LineageEntry;
use btree::BTree;
use encoding::{keys, RecordBody};
use lpg::{
    EntityDelta, Graph, GraphError, Interval, Node, NodeId, RelId, Relationship, Result, Timestamp,
    Update, Version,
};
use pagestore::PageStore;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use vfs::VfsRef;

const SLOT_NODES: usize = 0;
const SLOT_RELS: usize = 1;
const SLOT_OUT: usize = 2;
const SLOT_IN: usize = 3;
const SLOT_WATERMARK: usize = 7;

/// Tuning knobs for a [`LineageStore`].
#[derive(Clone, Debug)]
pub struct LineageStoreConfig {
    /// Pages held by the index page cache.
    pub cache_pages: usize,
    /// Materialize a full entity once a delta chain would reach this length
    /// (Sec. 6.5; the paper adopts 4). `None` never materializes.
    pub chain_threshold: Option<u32>,
    /// File system the paged file is opened on.
    pub vfs: VfsRef,
    /// Verify the paged file against its checksum sidecar at open and fail
    /// with `Storage` on mismatch. Defaults to `false` here (tools open
    /// lineage files directly, corrupt or not); `Aion::open` enables it
    /// and rebuilds the store from the TimeStore on failure.
    pub verify_pages: bool,
}

impl Default for LineageStoreConfig {
    fn default() -> Self {
        LineageStoreConfig {
            cache_pages: 1024,
            chain_threshold: Some(4),
            vfs: VfsRef::std(),
            verify_pages: false,
        }
    }
}

/// Ingest / lookup counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineageStoreStats {
    /// Updates applied.
    pub updates: u64,
    /// Full records written because a chain hit the threshold.
    pub materializations: u64,
    /// Delta records written.
    pub deltas: u64,
    /// Entity versions reconstructed through a delta chain.
    pub chain_reconstructions: u64,
}

pub(crate) struct Metrics {
    pub(crate) commits_applied: Arc<obs::Counter>,
    pub(crate) updates_applied: Arc<obs::Counter>,
    pub(crate) expands: Arc<obs::Counter>,
    pub(crate) expand_fanout: Arc<obs::Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            commits_applied: obs::counter("lineagestore.commits.applied"),
            updates_applied: obs::counter("lineagestore.updates.applied"),
            expands: obs::counter("lineagestore.expands"),
            expand_fanout: obs::histogram("lineagestore.expand.fanout"),
        }
    }
}

/// Fine-grained temporal storage: history indexed by entity id (Sec. 4.4).
pub struct LineageStore {
    pub(crate) store: Arc<PageStore>,
    pub(crate) nodes: BTree,
    pub(crate) rels: BTree,
    pub(crate) out_n: BTree,
    pub(crate) in_n: BTree,
    threshold: Option<u32>,
    stats: Mutex<LineageStoreStats>,
    pub(crate) metrics: Metrics,
}

impl LineageStore {
    /// Opens (or creates) a LineageStore backed by one paged file at `path`.
    pub fn open<P: AsRef<Path>>(path: P, config: LineageStoreConfig) -> Result<LineageStore> {
        let store = Arc::new(PageStore::open_with_vfs(
            &config.vfs,
            path.as_ref(),
            config.cache_pages,
            config.verify_pages,
        )?);
        let open_tree = |slot| BTree::open(store.clone(), slot);
        Ok(LineageStore {
            nodes: open_tree(SLOT_NODES)?,
            rels: open_tree(SLOT_RELS)?,
            out_n: open_tree(SLOT_OUT)?,
            in_n: open_tree(SLOT_IN)?,
            store,
            threshold: config.chain_threshold,
            stats: Mutex::new(LineageStoreStats::default()),
            metrics: Metrics::new(),
        })
    }

    /// High-water mark: every update with `ts <= applied_ts()` has been
    /// applied. The background cascade (Sec. 5.1 stage 2) advances this;
    /// queries above it fall back to the TimeStore.
    pub fn applied_ts(&self) -> Timestamp {
        let raw = self.store.root(SLOT_WATERMARK);
        if raw == u64::MAX {
            0
        } else {
            raw
        }
    }

    /// Persists the watermark after a batch of updates has been applied.
    pub fn set_applied_ts(&self, ts: Timestamp) {
        self.store.set_root(SLOT_WATERMARK, ts);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LineageStoreStats {
        *self.stats.lock()
    }

    /// On-disk footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.store.size_bytes()
    }

    /// Flushes all indexes.
    pub fn sync(&self) -> Result<()> {
        self.store.sync()?;
        Ok(())
    }

    // ------------------------------------------------------------- ingestion

    /// Applies one committed transaction's updates at timestamp `ts` and
    /// advances the watermark.
    pub fn apply_commit(&self, ts: Timestamp, updates: &[Update]) -> Result<()> {
        self.metrics.commits_applied.inc();
        for u in updates {
            self.apply_update(ts, u)?;
        }
        self.set_applied_ts(ts);
        Ok(())
    }

    /// Applies a single update at timestamp `ts`.
    pub fn apply_update(&self, ts: Timestamp, op: &Update) -> Result<()> {
        self.stats.lock().updates += 1;
        self.metrics.updates_applied.inc();
        match op {
            Update::AddNode { id, labels, props } => self.put_full(
                &self.nodes,
                id.raw(),
                ts,
                RecordBody::NodeFull {
                    labels: labels.clone(),
                    props: props.clone(),
                },
            ),
            Update::DeleteNode { id } => {
                self.put_full(&self.nodes, id.raw(), ts, RecordBody::NodeDeleted)
            }
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => {
                self.put_full(
                    &self.rels,
                    id.raw(),
                    ts,
                    RecordBody::RelFull {
                        src: *src,
                        tgt: *tgt,
                        label: *label,
                        props: props.clone(),
                    },
                )?;
                self.put_neighbours(*src, *tgt, *id, ts, false)
            }
            Update::DeleteRel { id } => {
                // The tombstone needs the endpoints for the neighbour indexes.
                let rel = self.rel_at(*id, ts)?.ok_or(GraphError::RelNotFound(*id))?;
                self.put_full(&self.rels, id.raw(), ts, RecordBody::RelDeleted)?;
                self.put_neighbours(rel.src, rel.tgt, *id, ts, true)
            }
            modify => {
                let Some(delta) = EntityDelta::from_update(modify) else {
                    return Err(GraphError::CorruptRecord(format!(
                        "update at ts {ts} is neither an add/delete nor a modify operation"
                    )));
                };
                // The entity id names the tree; a modify update always
                // carries the same kind as its entity id, so a single
                // exhaustive match replaces the old `unreachable!` arms.
                let (tree, raw, body_of): (&BTree, u64, fn(EntityDelta) -> RecordBody) =
                    match modify.entity() {
                        lpg::EntityId::Rel(RelId(raw)) => (&self.rels, raw, RecordBody::RelDelta),
                        lpg::EntityId::Node(NodeId(raw)) => {
                            (&self.nodes, raw, RecordBody::NodeDelta)
                        }
                    };
                self.put_delta(tree, raw, ts, delta, body_of)
            }
        }
    }

    fn put_full(&self, tree: &BTree, id: u64, ts: Timestamp, body: RecordBody) -> Result<()> {
        let entry = LineageEntry::full(ts, body);
        Ok(tree.insert(&keys::entity_ts_key(id, ts), &entry.to_bytes())?)
    }

    /// Records that `rel` joined (or, `deleted`, left) the neighbourhoods
    /// of its endpoints at `ts`. The key holds both endpoints, the rel id
    /// and the ts, so the value is just the deleted flag.
    fn put_neighbours(
        &self,
        src: NodeId,
        tgt: NodeId,
        rel: RelId,
        ts: Timestamp,
        deleted: bool,
    ) -> Result<()> {
        let value = [u8::from(deleted)];
        self.out_n
            .insert(&keys::neigh_key(src, tgt, rel, ts), &value)?;
        Ok(self
            .in_n
            .insert(&keys::neigh_key(tgt, src, rel, ts), &value)?)
    }

    fn put_delta(
        &self,
        tree: &BTree,
        id: u64,
        ts: Timestamp,
        delta: EntityDelta,
        body_of: fn(EntityDelta) -> RecordBody,
    ) -> Result<()> {
        // Find the previous version to extend its chain.
        let prev = self.floor_entry(tree, id, ts)?;
        let Some((prev_ts, prev_entry)) = prev else {
            return Err(GraphError::Storage(format!(
                "delta for unknown entity {id} at ts {ts}"
            )));
        };
        if prev_entry.body.is_deleted() {
            return Err(GraphError::Storage(format!(
                "delta for deleted entity {id} at ts {ts}"
            )));
        }
        // Several updates in one transaction share a timestamp; coalesce
        // them into a single record so each `(id, ts)` key stays unique.
        if prev_ts == ts {
            let merged = match prev_entry.body.clone() {
                RecordBody::NodeFull { labels, props } => {
                    let mut node = Node::new(NodeId::new(id), labels, props);
                    delta.apply_to_node(&mut node);
                    RecordBody::NodeFull {
                        labels: node.labels.to_vec(),
                        props: node.props.into(),
                    }
                }
                RecordBody::RelFull {
                    src,
                    tgt,
                    label,
                    props,
                } => {
                    let mut rel = Relationship::new(RelId::new(id), src, tgt, label, props);
                    delta.apply_to_rel(&mut rel);
                    RecordBody::RelFull {
                        src: rel.src,
                        tgt: rel.tgt,
                        label: rel.label,
                        props: rel.props.into(),
                    }
                }
                RecordBody::NodeDelta(mut prev_d) => {
                    prev_d.merge(&delta);
                    RecordBody::NodeDelta(prev_d)
                }
                RecordBody::RelDelta(mut prev_d) => {
                    prev_d.merge(&delta);
                    RecordBody::RelDelta(prev_d)
                }
                other => {
                    return Err(GraphError::Storage(format!(
                        "cannot coalesce delta over {other:?}"
                    )))
                }
            };
            let entry = LineageEntry {
                base_ts: prev_entry.base_ts,
                pos: prev_entry.pos,
                body: merged,
            };
            return Ok(tree.insert(&keys::entity_ts_key(id, ts), &entry.to_bytes())?);
        }
        let next_pos = prev_entry.pos + 1;
        let materialize = self.threshold.is_some_and(|k| next_pos >= k);
        if materialize {
            // Reconstruct the current state, apply the delta, store full.
            let full = self.reconstruct(tree, id, prev_ts, &prev_entry)?;
            let body = match full {
                RecordBody::NodeFull { labels, props } => {
                    let mut node = Node::new(NodeId::new(id), labels, props);
                    delta.apply_to_node(&mut node);
                    RecordBody::NodeFull {
                        labels: node.labels.to_vec(),
                        props: node.props.into(),
                    }
                }
                RecordBody::RelFull {
                    src,
                    tgt,
                    label,
                    props,
                } => {
                    let mut rel = Relationship::new(RelId::new(id), src, tgt, label, props);
                    delta.apply_to_rel(&mut rel);
                    RecordBody::RelFull {
                        src: rel.src,
                        tgt: rel.tgt,
                        label: rel.label,
                        props: rel.props.into(),
                    }
                }
                other => {
                    return Err(GraphError::Storage(format!(
                        "unexpected reconstruction result {other:?}"
                    )))
                }
            };
            self.stats.lock().materializations += 1;
            self.put_full(tree, id, ts, body)
        } else {
            self.stats.lock().deltas += 1;
            let entry = LineageEntry::delta(prev_entry.base_ts, next_pos, body_of(delta));
            Ok(tree.insert(&keys::entity_ts_key(id, ts), &entry.to_bytes())?)
        }
    }

    // --------------------------------------------------------- reconstruction

    /// Latest entry for `id` at or before `ts`.
    fn floor_entry(
        &self,
        tree: &BTree,
        id: u64,
        ts: Timestamp,
    ) -> Result<Option<(Timestamp, LineageEntry)>> {
        let Some((key, value)) = tree.seek_floor(&keys::entity_ts_key(id, ts))? else {
            return Ok(None);
        };
        let (kid, kts) = keys::decode_entity_ts_key(&key)
            .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
        if kid != id {
            return Ok(None);
        }
        let entry = LineageEntry::from_bytes(&value)
            .ok_or_else(|| GraphError::Storage("bad lineage entry".into()))?;
        Ok(Some((kts, entry)))
    }

    /// Materializes the full record for the version written at `at_ts` by
    /// replaying its bounded delta chain `[(id, base_ts), (id, at_ts)]`.
    fn reconstruct(
        &self,
        tree: &BTree,
        id: u64,
        at_ts: Timestamp,
        entry: &LineageEntry,
    ) -> Result<RecordBody> {
        if entry.pos == 0 {
            return Ok(entry.body.clone());
        }
        self.stats.lock().chain_reconstructions += 1;
        let low = keys::entity_ts_key(id, entry.base_ts);
        let high = keys::entity_ts_key(id, at_ts.saturating_add(1));
        let mut current: Option<RecordBody> = None;
        for item in tree.scan(&low, &high)? {
            let (_, value) = item?;
            let e = LineageEntry::from_bytes(&value)
                .ok_or_else(|| GraphError::Storage("bad lineage entry".into()))?;
            current = Some(apply_entry(current, e.body, id)?);
        }
        current.ok_or_else(|| GraphError::Storage(format!("empty chain for entity {id}")))
    }

    // ---------------------------------------------------------- point queries

    /// The node state valid at `ts` (None if absent/deleted).
    pub fn node_at(&self, id: NodeId, ts: Timestamp) -> Result<Option<Node>> {
        let Some((kts, entry)) = self.floor_entry(&self.nodes, id.raw(), ts)? else {
            return Ok(None);
        };
        if entry.body.is_deleted() {
            return Ok(None);
        }
        match self.reconstruct(&self.nodes, id.raw(), kts, &entry)? {
            RecordBody::NodeFull { labels, props } => Ok(Some(Node::new(id, labels, props))),
            other => Err(GraphError::Storage(format!("node index held {other:?}"))),
        }
    }

    /// The relationship state valid at `ts`.
    pub fn rel_at(&self, id: RelId, ts: Timestamp) -> Result<Option<Relationship>> {
        let Some((kts, entry)) = self.floor_entry(&self.rels, id.raw(), ts)? else {
            return Ok(None);
        };
        if entry.body.is_deleted() {
            return Ok(None);
        }
        match self.reconstruct(&self.rels, id.raw(), kts, &entry)? {
            RecordBody::RelFull {
                src,
                tgt,
                label,
                props,
            } => Ok(Some(Relationship::new(id, src, tgt, label, props))),
            other => Err(GraphError::Storage(format!("rel index held {other:?}"))),
        }
    }

    /// `getNode(nodeId, start, end)`: version history over `[start, end)`,
    /// clipped to the window (Table 1).
    pub fn node_history(
        &self,
        id: NodeId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Node>>> {
        let make = |id: u64, body: RecordBody| -> Result<Node> {
            match body {
                RecordBody::NodeFull { labels, props } => {
                    Ok(Node::new(NodeId::new(id), labels, props))
                }
                other => Err(GraphError::Storage(format!("node index held {other:?}"))),
            }
        };
        self.history(&self.nodes, id.raw(), start, end, make)
    }

    /// `getRelationship(relId, start, end)`: version history over
    /// `[start, end)` (Table 1).
    pub fn rel_history(
        &self,
        id: RelId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Relationship>>> {
        let make = |id: u64, body: RecordBody| -> Result<Relationship> {
            match body {
                RecordBody::RelFull {
                    src,
                    tgt,
                    label,
                    props,
                } => Ok(Relationship::new(RelId::new(id), src, tgt, label, props)),
                other => Err(GraphError::Storage(format!("rel index held {other:?}"))),
            }
        };
        self.history(&self.rels, id.raw(), start, end, make)
    }

    fn history<T: Clone>(
        &self,
        tree: &BTree,
        id: u64,
        start: Timestamp,
        end: Timestamp,
        make: impl Fn(u64, RecordBody) -> Result<T>,
    ) -> Result<Vec<Version<T>>> {
        if start > end {
            return Err(GraphError::InvalidTimeRange);
        }
        let end = end.max(start.saturating_add(1)); // point query: [t, t+1)
        let mut versions: Vec<Version<T>> = Vec::new();
        // State at window start.
        let mut current: Option<RecordBody> = None;
        if let Some((kts, entry)) = self.floor_entry(tree, id, start)? {
            if !entry.body.is_deleted() {
                current = Some(self.reconstruct(tree, id, kts, &entry)?);
            }
        }
        let mut open_since = start;
        // Forward entries inside the window.
        let low = keys::entity_ts_key(id, start.saturating_add(1));
        let high = keys::entity_ts_key(id, end);
        for item in tree.scan(&low, &high)? {
            let (key, value) = item?;
            let (_, ts) = keys::decode_entity_ts_key(&key)
                .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
            let entry = LineageEntry::from_bytes(&value)
                .ok_or_else(|| GraphError::Storage("bad lineage entry".into()))?;
            // Close the open version. A racing writer can split pages
            // mid-scan and replay a key at or behind `open_since`; such a
            // version is zero-width at best, so drop it instead of
            // constructing an invalid interval.
            let prior = current.take();
            if let Some(body) = prior.clone() {
                if ts > open_since {
                    versions.push(Version {
                        valid: Interval::new(open_since, ts),
                        data: make(id, body)?,
                    });
                }
            }
            current = if entry.body.is_deleted() {
                None
            } else if entry.pos == 0 {
                Some(entry.body)
            } else {
                match prior {
                    // Common case: extend the state we just closed.
                    Some(p) => Some(apply_entry(Some(p), entry.body, id)?),
                    // A delta whose base precedes the window: bounded replay.
                    None => Some(self.reconstruct(tree, id, ts, &entry)?),
                }
            };
            open_since = open_since.max(ts);
        }
        if let Some(body) = current {
            versions.push(Version {
                valid: Interval::new(open_since, end.max(open_since + 1)),
                data: make(id, body)?,
            });
        }
        Ok(versions)
    }

    // ----------------------------------------------- neighbourhood queries

    /// The relationships incident to `node` that are valid at `ts`, in the
    /// given direction (Alg. 1 line 8). `Both` deduplicates self-loops.
    pub fn rels_at(
        &self,
        node: NodeId,
        dir: lpg::Direction,
        ts: Timestamp,
    ) -> Result<Vec<Relationship>> {
        let mut rel_ids = Vec::new();
        if dir.includes_out() {
            self.valid_neighbour_rels(&self.out_n, node, ts, &mut rel_ids)?;
        }
        if dir.includes_in() {
            self.valid_neighbour_rels(&self.in_n, node, ts, &mut rel_ids)?;
        }
        rel_ids.sort_unstable();
        rel_ids.dedup();
        let mut out = Vec::with_capacity(rel_ids.len());
        for rid in rel_ids {
            if let Some(rel) = self.rel_at(rid, ts)? {
                out.push(rel);
            }
        }
        Ok(out)
    }

    /// Scans one neighbour index for `anchor`, collecting relationships
    /// whose latest entry at or before `ts` is an addition.
    fn valid_neighbour_rels(
        &self,
        tree: &BTree,
        anchor: NodeId,
        ts: Timestamp,
        out: &mut Vec<RelId>,
    ) -> Result<()> {
        let (low, high) = keys::neigh_range(anchor);
        let mut current: Option<(RelId, bool)> = None; // (rel, alive)
        for item in tree.scan(&low, &high)? {
            let (key, value) = item?;
            let (_, _, rel, ets) = keys::decode_neigh_key(&key)
                .ok_or_else(|| GraphError::Storage("bad neigh key".into()))?;
            let deleted = neighbour_deleted(&value)
                .ok_or_else(|| GraphError::Storage("bad neigh entry".into()))?;
            match current {
                Some((cur, _)) if cur == rel => {
                    if ets <= ts {
                        current = Some((rel, !deleted));
                    }
                }
                _ => {
                    // Flush the previous group.
                    if let Some((cur, true)) = current {
                        out.push(cur);
                    }
                    current = Some((rel, ets <= ts && !deleted));
                    if ets > ts {
                        current = Some((rel, false));
                    }
                }
            }
        }
        if let Some((cur, true)) = current {
            out.push(cur);
        }
        Ok(())
    }

    /// `getRelationships(nodeId, direction, start, end)`: the history of
    /// every relationship that touched `node` during `[start, end)`
    /// (Table 1), one version list per relationship.
    pub fn rels_history(
        &self,
        node: NodeId,
        dir: lpg::Direction,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Vec<Version<Relationship>>>> {
        let mut rel_ids = Vec::new();
        let collect = |tree: &BTree, out: &mut Vec<RelId>| -> Result<()> {
            let (low, high) = keys::neigh_range(node);
            for item in tree.scan(&low, &high)? {
                let (key, _) = item?;
                let (_, _, rel, _) = keys::decode_neigh_key(&key)
                    .ok_or_else(|| GraphError::Storage("bad neigh key".into()))?;
                out.push(rel);
            }
            Ok(())
        };
        if dir.includes_out() {
            collect(&self.out_n, &mut rel_ids)?;
        }
        if dir.includes_in() {
            collect(&self.in_n, &mut rel_ids)?;
        }
        rel_ids.sort_unstable();
        rel_ids.dedup();
        let mut out = Vec::new();
        for rid in rel_ids {
            let hist = self.rel_history(rid, start, end)?;
            if !hist.is_empty() {
                out.push(hist);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------- global queries

    /// Every node id that ever existed (full index scan).
    pub fn all_node_ids(&self) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        for item in self.nodes.scan(&[], &[])? {
            let (key, _) = item?;
            let (id, _) = keys::decode_entity_ts_key(&key)
                .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
            if out.last() != Some(&NodeId::new(id)) {
                out.push(NodeId::new(id));
            }
        }
        Ok(out)
    }

    /// Full-graph reconstruction at `ts` via an all-entities scan — the
    /// expensive global path of fine-grained storage the paper contrasts
    /// with TimeStore ("their processing cost depends solely on the graph
    /// history size", Sec. 4.4).
    pub fn snapshot_at(&self, ts: Timestamp) -> Result<Graph> {
        let mut g = Graph::new();
        // Nodes first so relationships validate.
        for id in self.all_node_ids()? {
            if let Some(n) = self.node_at(id, ts)? {
                g.insert_node(n)?;
            }
        }
        let mut last: Option<RelId> = None;
        let mut rel_ids = Vec::new();
        for item in self.rels.scan(&[], &[])? {
            let (key, _) = item?;
            let (id, _) = keys::decode_entity_ts_key(&key)
                .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
            if last != Some(RelId::new(id)) {
                rel_ids.push(RelId::new(id));
                last = Some(RelId::new(id));
            }
        }
        for rid in rel_ids {
            if let Some(r) = self.rel_at(rid, ts)? {
                g.insert_rel(r)?;
            }
        }
        Ok(g)
    }
}

/// Applies one record body on top of an optional current full state.
fn apply_entry(current: Option<RecordBody>, body: RecordBody, id: u64) -> Result<RecordBody> {
    match body {
        full @ (RecordBody::NodeFull { .. } | RecordBody::RelFull { .. }) => Ok(full),
        RecordBody::NodeDeleted | RecordBody::RelDeleted => Err(GraphError::Storage(format!(
            "tombstone inside chain for {id}"
        ))),
        RecordBody::NodeDelta(d) => match current {
            Some(RecordBody::NodeFull { labels, props }) => {
                let mut node = Node::new(NodeId::new(id), labels, props);
                d.apply_to_node(&mut node);
                Ok(RecordBody::NodeFull {
                    labels: node.labels.to_vec(),
                    props: node.props.into(),
                })
            }
            other => Err(GraphError::Storage(format!(
                "node delta over {other:?} for {id}"
            ))),
        },
        RecordBody::RelDelta(d) => match current {
            Some(RecordBody::RelFull {
                src,
                tgt,
                label,
                props,
            }) => {
                let mut rel = Relationship::new(RelId::new(id), src, tgt, label, props);
                d.apply_to_rel(&mut rel);
                Ok(RecordBody::RelFull {
                    src: rel.src,
                    tgt: rel.tgt,
                    label: rel.label,
                    props: rel.props.into(),
                })
            }
            other => Err(GraphError::Storage(format!(
                "rel delta over {other:?} for {id}"
            ))),
        },
    }
}

/// Decodes a neighbour-index value: `[0]` added, `[1]` deleted.
pub(crate) fn neighbour_deleted(value: &[u8]) -> Option<bool> {
    match value {
        [0] => Some(false),
        [1] => Some(true),
        _ => None,
    }
}
