//! The four-index LineageStore with chain-aware reconstruction.

use crate::entry::{self, LineageEntry};
use btree::BTree;
use encoding::{keys, record, RecordBody};
use lock::{Mutex, Rank};
use lpg::{
    EntityDelta, GraphError, Interval, Node, NodeId, RelId, Relationship, Result, Timestamp,
    Update, Version,
};
use pagestore::PageStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vfs::VfsRef;

const SLOT_NODES: usize = 0;
const SLOT_RELS: usize = 1;
const SLOT_OUT: usize = 2;
const SLOT_IN: usize = 3;
/// The chain threshold the file was built with: `k`, [`NO_THRESHOLD`], or
/// unset (`u64::MAX`) in a file an older build wrote.
const SLOT_CHAIN_THRESHOLD: usize = 4;
const SLOT_WATERMARK: usize = 7;
/// The chain-threshold record of a store that never materializes: above
/// every `u32`.
const NO_THRESHOLD: u64 = 1 << 32;

/// Tuning knobs for a [`LineageStore`].
#[derive(Clone, Debug)]
pub struct LineageStoreConfig {
    /// Pages held by the index page cache.
    pub cache_pages: usize,
    /// Materialize a full entity once a delta chain would reach this length
    /// (Sec. 6.5; the paper adopts 4). `None` never materializes. Only a new
    /// file takes it: the file records it, and an existing file keeps the
    /// threshold it was built with ([`LineageStore::chain_threshold`]).
    pub chain_threshold: Option<u32>,
    /// File system the paged file is opened on.
    pub vfs: VfsRef,
    /// Verify the paged file against the seal its last sync wrote on the
    /// meta page at open, and fail with `Storage` on mismatch. Defaults to
    /// `false` here (tools open lineage files directly, corrupt or not);
    /// `Aion::open` enables it and rebuilds the store from the TimeStore on
    /// failure.
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

pub(crate) struct Metrics {
    pub(crate) commits_applied: Arc<obs::Counter>,
    pub(crate) updates_applied: Arc<obs::Counter>,
    /// Full records written because a chain hit the threshold.
    materializations: Arc<obs::Counter>,
    /// Delta records written.
    deltas: Arc<obs::Counter>,
    /// Entity versions reconstructed through a delta chain.
    chain_reconstructions: Arc<obs::Counter>,
    pub(crate) expands: Arc<obs::Counter>,
    pub(crate) expand_fanout: Arc<obs::Histogram>,
    /// Node-index keys examined by id streams.
    pub(crate) entries_touched: Arc<obs::Counter>,
}

impl Metrics {
    fn new(registry: &obs::Registry) -> Metrics {
        Metrics {
            commits_applied: registry.counter("lineagestore.commits.applied"),
            updates_applied: registry.counter("lineagestore.updates.applied"),
            materializations: registry.counter("lineagestore.materializations"),
            deltas: registry.counter("lineagestore.deltas"),
            chain_reconstructions: registry.counter("lineagestore.chain_reconstructions"),
            expands: registry.counter("lineagestore.expands"),
            expand_fanout: registry.histogram("lineagestore.expand.fanout"),
            entries_touched: registry.counter("lineage.stream.entries_touched"),
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
    /// Where the file lives: a rebuild ([`LineageStore::with_rebuild`])
    /// is written beside it.
    vfs: VfsRef,
    path: PathBuf,
    /// Held while a rebuild exists, so two never share its file.
    rebuild: Mutex<()>,
    pub(crate) metrics: Metrics,
}

/// The timestamp in a key of one index; `None` for a key that index never
/// writes.
pub type KeyTs = fn(&[u8]) -> Option<Timestamp>;

impl LineageStore {
    /// Opens (or creates) a LineageStore backed by one paged file at `path`.
    /// A new file records `config.chain_threshold`; an existing one is
    /// opened with the threshold it recorded, and one that records none
    /// (an older build wrote it) fails with `Storage`. The store counts
    /// into a registry of its own.
    pub fn open<P: AsRef<Path>>(path: P, config: LineageStoreConfig) -> Result<LineageStore> {
        let registry = Arc::new(obs::Registry::scoped());
        LineageStore::open_in(path.as_ref(), config, registry)
    }

    /// [`LineageStore::open`], counting into `registry`: the store, its
    /// page store and its four B+Trees.
    pub fn open_in(
        path: &Path,
        config: LineageStoreConfig,
        registry: Arc<obs::Registry>,
    ) -> Result<LineageStore> {
        let metrics = Metrics::new(&registry);
        let store = Arc::new(PageStore::open_with_vfs(
            &config.vfs,
            path,
            config.cache_pages,
            config.verify_pages,
            registry,
        )?);
        let threshold = match store.root(SLOT_CHAIN_THRESHOLD) {
            u64::MAX if store.root(SLOT_NODES) == u64::MAX => {
                let record = config.chain_threshold.map_or(NO_THRESHOLD, u64::from);
                store.set_root(SLOT_CHAIN_THRESHOLD, record);
                config.chain_threshold
            }
            NO_THRESHOLD => None,
            k => Some(u32::try_from(k).map_err(|_| {
                GraphError::Storage(format!(
                    "{}: no chain threshold recorded (slot holds {k:#x})",
                    path.display()
                ))
            })?),
        };
        let open_tree = |slot| BTree::open(store.clone(), slot);
        Ok(LineageStore {
            nodes: open_tree(SLOT_NODES)?,
            rels: open_tree(SLOT_RELS)?,
            out_n: open_tree(SLOT_OUT)?,
            in_n: open_tree(SLOT_IN)?,
            store,
            threshold,
            vfs: config.vfs,
            path: path.to_path_buf(),
            rebuild: Mutex::new(Rank::LineageRebuild, ()),
            metrics,
        })
    }

    /// The chain threshold this store materializes at: the one its file
    /// recorded when it was created.
    pub fn chain_threshold(&self) -> Option<u32> {
        self.threshold
    }

    /// The four indexes, each with its name and the timestamp decoder of
    /// its keys.
    pub fn indexes(&self) -> [(&'static str, &BTree, KeyTs); 4] {
        let entity: KeyTs = |key| keys::decode_history_key(key).map(|(_, ts)| ts);
        let neighbour: KeyTs = |key| keys::decode_neigh_key(key).map(|(.., ts)| ts);
        [
            ("nodes", &self.nodes, entity),
            ("rels", &self.rels, entity),
            ("out-neighbours", &self.out_n, neighbour),
            ("in-neighbours", &self.in_n, neighbour),
        ]
    }

    /// Runs `f` on an empty store beside this one: at `<path>.rebuild`, on
    /// the same Vfs, with the same chain threshold. The file is deleted
    /// before `f` runs (a crash can leave one) and after it returns. The
    /// store counts into a detached registry, so a rebuild is counted
    /// neither as this store's work nor as the process's.
    pub fn with_rebuild<R>(&self, f: impl FnOnce(&LineageStore) -> Result<R>) -> Result<R> {
        let _held = self.rebuild.lock();
        let mut path = self.path.clone().into_os_string();
        path.push(".rebuild");
        let path = PathBuf::from(path);
        if self.vfs.exists(&path) {
            self.vfs.remove_file(&path)?;
        }
        let config = LineageStoreConfig {
            chain_threshold: self.threshold,
            vfs: self.vfs.clone(),
            ..LineageStoreConfig::default()
        };
        let registry = Arc::new(obs::Registry::new());
        let out = LineageStore::open_in(&path, config, registry).and_then(|r| f(&r));
        self.vfs.remove_file(&path)?;
        out
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

    /// The registry the store counts into.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        self.store.registry()
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
        // One buffer encodes every entry of the commit.
        let mut buf = Vec::new();
        for u in updates {
            self.apply(ts, u, &mut buf)?;
        }
        self.set_applied_ts(ts);
        Ok(())
    }

    /// Applies a single update at timestamp `ts`.
    pub fn apply_update(&self, ts: Timestamp, op: &Update) -> Result<()> {
        self.apply(ts, op, &mut Vec::new())
    }

    /// Applies `op` at `ts`, encoding each entry in `buf`.
    fn apply(&self, ts: Timestamp, op: &Update, buf: &mut Vec<u8>) -> Result<()> {
        self.metrics.updates_applied.inc();
        buf.clear();
        match op {
            Update::AddNode { id, .. } | Update::DeleteNode { id } => {
                // A full record or a tombstone is its body alone.
                record::encode_update(buf, op);
                self.put(&self.nodes, id.raw(), ts, buf)
            }
            Update::AddRel { id, src, tgt, .. } => {
                record::encode_update(buf, op);
                self.put(&self.rels, id.raw(), ts, buf)?;
                self.put_neighbours(*src, *tgt, *id, ts, false)
            }
            Update::DeleteRel { id } => {
                // The tombstone needs the endpoints for the neighbour indexes.
                let rel = self.rel_at(*id, ts)?.ok_or(GraphError::RelNotFound(*id))?;
                record::encode_update(buf, op);
                self.put(&self.rels, id.raw(), ts, buf)?;
                self.put_neighbours(rel.src, rel.tgt, *id, ts, true)
            }
            modify => {
                // The entity id names the tree; a modify update always
                // carries the same kind as its entity id.
                let (tree, raw) = match modify.entity() {
                    lpg::EntityId::Rel(RelId(raw)) => (&self.rels, raw),
                    lpg::EntityId::Node(NodeId(raw)) => (&self.nodes, raw),
                };
                self.put_delta(tree, raw, ts, modify, buf)
            }
        }
    }

    /// Writes the encoded entry `entry` for `id` at `ts`.
    fn put(&self, tree: &BTree, id: u64, ts: Timestamp, entry: &[u8]) -> Result<()> {
        Ok(tree.insert(&keys::history_key(id, ts), entry)?)
    }

    /// Records that `rel` joined (or, `deleted`, left) the neighbourhoods
    /// of its endpoints at `ts`. The key holds both endpoints, the rel id
    /// and the ts, so the value is empty, or `[1]` for a deletion.
    fn put_neighbours(
        &self,
        src: NodeId,
        tgt: NodeId,
        rel: RelId,
        ts: Timestamp,
        deleted: bool,
    ) -> Result<()> {
        let value: &[u8] = if deleted { &[1] } else { &[] };
        self.out_n
            .insert(&keys::neigh_key(src, tgt, rel, ts), value)?;
        Ok(self
            .in_n
            .insert(&keys::neigh_key(tgt, src, rel, ts), value)?)
    }

    /// Writes the modify update `op` for `id` at `ts` as the next link of
    /// the entity's chain. The insert reads the entity's previous version
    /// from the leaf it writes (`BTree::insert_with`); a plain delta reads
    /// only that version's chain fields, and only a version that coalesces
    /// with this one or a chain that reaches the threshold is decoded.
    fn put_delta(
        &self,
        tree: &BTree,
        id: u64,
        ts: Timestamp,
        op: &Update,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let key = keys::history_key(id, ts);
        tree.insert_with(&key, |floor| {
            let unknown =
                || GraphError::Storage(format!("delta for unknown entity {id} at ts {ts}"));
            let bad_entry = || GraphError::Storage("bad lineage entry".into());
            let delta = || {
                EntityDelta::from_update(op).ok_or_else(|| {
                    GraphError::CorruptRecord(format!(
                        "update at ts {ts} is neither an add/delete nor a modify operation"
                    ))
                })
            };
            // The entity's latest version at or before `ts`.
            let (prev_key, prev) = floor.ok_or_else(unknown)?;
            let (kid, prev_ts) = keys::decode_history_key(prev_key)
                .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
            if kid != id {
                return Err(unknown());
            }
            let (base_ts, pos, deleted) = entry::peek_chain(prev_ts, prev).ok_or_else(bad_entry)?;
            if deleted {
                return Err(GraphError::Storage(format!(
                    "delta for deleted entity {id} at ts {ts}"
                )));
            }
            if prev_ts == ts {
                // Several updates in one transaction share a timestamp;
                // coalesce them into a single record so each `(id, ts)`
                // key stays unique.
                let prev = LineageEntry::from_bytes(prev_ts, prev).ok_or_else(bad_entry)?;
                let merged = match prev.body {
                    full @ (RecordBody::NodeFull { .. } | RecordBody::RelFull { .. }) => {
                        apply_delta(full, &delta()?, id)?
                    }
                    RecordBody::NodeDelta(mut prev_d) => {
                        prev_d.merge(&delta()?);
                        RecordBody::NodeDelta(prev_d)
                    }
                    RecordBody::RelDelta(mut prev_d) => {
                        prev_d.merge(&delta()?);
                        RecordBody::RelDelta(prev_d)
                    }
                    other => {
                        return Err(GraphError::Storage(format!(
                            "cannot coalesce delta over {other:?}"
                        )))
                    }
                };
                LineageEntry {
                    base_ts,
                    pos,
                    body: merged,
                }
                .encode(ts, buf);
            } else if self.threshold.is_some_and(|k| pos + 1 >= k) {
                // Reconstruct the current state, apply the delta, store full.
                let prev = LineageEntry::from_bytes(prev_ts, prev).ok_or_else(bad_entry)?;
                let full = self.reconstruct(tree, id, prev_ts, &prev)?;
                let body = apply_delta(full, &delta()?, id)?;
                self.metrics.materializations.inc();
                LineageEntry::full(ts, body).encode(ts, buf);
            } else {
                self.metrics.deltas.inc();
                entry::encode(buf, ts, base_ts, pos + 1, |buf| {
                    record::encode_update(buf, op)
                });
            }
            // The value borrows `buf`, which outlives the insert.
            let buf: &Vec<u8> = buf;
            Ok(buf.as_slice())
        })
    }

    // --------------------------------------------------------- reconstruction

    /// Latest entry for `id` at or before `ts`.
    fn floor_entry(
        &self,
        tree: &BTree,
        id: u64,
        ts: Timestamp,
    ) -> Result<Option<(Timestamp, LineageEntry)>> {
        let Some((key, value)) = tree.seek_floor(&keys::history_key(id, ts))? else {
            return Ok(None);
        };
        let (kid, kts) = keys::decode_history_key(&key)
            .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
        if kid != id {
            return Ok(None);
        }
        let entry = LineageEntry::from_bytes(kts, &value)
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
        self.metrics.chain_reconstructions.inc();
        let low = keys::history_key(id, entry.base_ts);
        let high = keys::history_key(id, at_ts.saturating_add(1));
        let mut current: Option<RecordBody> = None;
        for item in tree.scan(&low, &high)? {
            let (key, value) = item?;
            let e = keys::decode_history_key(&key)
                .and_then(|(_, ts)| LineageEntry::from_bytes(ts, &value))
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
        let low = keys::history_key(id, start.saturating_add(1));
        let high = keys::history_key(id, end);
        for item in tree.scan(&low, &high)? {
            let (key, value) = item?;
            let (_, ts) = keys::decode_history_key(&key)
                .ok_or_else(|| GraphError::Storage("bad lineage key".into()))?;
            let entry = LineageEntry::from_bytes(ts, &value)
                .ok_or_else(|| GraphError::Storage("bad lineage entry".into()))?;
            // Close the open version. The scan starts past `start` and
            // yields keys in strictly ascending order, so `ts > open_since`.
            let prior = current.take();
            if let Some(body) = prior.clone() {
                versions.push(Version {
                    valid: Interval::new(open_since, ts),
                    data: make(id, body)?,
                });
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
            open_since = ts;
        }
        // `open_since` is `start` or the ts of a key the scan below
        // `(id, end)` yielded: before `end` either way.
        if let Some(body) = current {
            versions.push(Version {
                valid: Interval::new(open_since, end),
                data: make(id, body)?,
            });
        }
        Ok(versions)
    }

    // ----------------------------------------------- neighbourhood queries

    /// The relationships incident to `node` that are valid at `ts`, in the
    /// given direction. `Both` deduplicates self-loops.
    pub fn rels_at(
        &self,
        node: NodeId,
        dir: lpg::Direction,
        ts: Timestamp,
    ) -> Result<Vec<Relationship>> {
        let mut found = Vec::new();
        self.valid_neighbours(node, dir, ts, &mut found)?;
        let mut rel_ids: Vec<RelId> = found.into_iter().map(|(_, rel)| rel).collect();
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

    /// Appends `(other end, rel)` for every relationship incident to `node`
    /// in `dir` whose latest neighbour entry at or before `ts` is an
    /// addition (Alg. 1 line 8), read from the neighbour keys alone: each
    /// index's entries in key order, so in `(other end, rel)` order.
    pub(crate) fn valid_neighbours(
        &self,
        node: NodeId,
        dir: lpg::Direction,
        ts: Timestamp,
        out: &mut Vec<(NodeId, RelId)>,
    ) -> Result<()> {
        for tree in self.neighbour_trees(dir) {
            // A relationship's entries are adjacent, oldest first.
            let mut current: Option<(NodeId, RelId, bool)> = None; // (b, rel, alive)
            scan_neighbours(tree, node, |b, rel, ets, deleted| match &mut current {
                Some((_, cur, alive)) if *cur == rel => {
                    if ets <= ts {
                        *alive = !deleted;
                    }
                }
                _ => {
                    if let Some((b, rel, true)) = current {
                        out.push((b, rel));
                    }
                    current = Some((b, rel, ets <= ts && !deleted));
                }
            })?;
            if let Some((b, rel, true)) = current {
                out.push((b, rel));
            }
        }
        Ok(())
    }

    /// The neighbour indexes `dir` reads: outgoing first, then incoming.
    fn neighbour_trees(&self, dir: lpg::Direction) -> impl Iterator<Item = &BTree> {
        [
            (dir.includes_out(), &self.out_n),
            (dir.includes_in(), &self.in_n),
        ]
        .into_iter()
        .filter_map(|(read, tree)| read.then_some(tree))
    }

    /// `getRelationships(nodeId, direction, start, end)`: the history of
    /// every relationship that touched `node` during `[start, end)`
    /// (Table 1), one version list per relationship; `start > end` is invalid.
    pub fn rels_history(
        &self,
        node: NodeId,
        dir: lpg::Direction,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Vec<Version<Relationship>>>> {
        if start > end {
            return Err(GraphError::InvalidTimeRange);
        }
        let mut rel_ids = Vec::new();
        for tree in self.neighbour_trees(dir) {
            scan_neighbours(tree, node, |_, rel, _, _| rel_ids.push(rel))?;
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
}

/// Applies `delta` to the full record `full`.
fn apply_delta(full: RecordBody, delta: &EntityDelta, id: u64) -> Result<RecordBody> {
    match full {
        RecordBody::NodeFull { labels, props } => {
            let mut node = Node::new(NodeId::new(id), labels, props);
            delta.apply_to_node(&mut node);
            Ok(RecordBody::NodeFull {
                labels: node.labels.to_vec(),
                props: node.props.into(),
            })
        }
        RecordBody::RelFull {
            src,
            tgt,
            label,
            props,
        } => {
            let mut rel = Relationship::new(RelId::new(id), src, tgt, label, props);
            delta.apply_to_rel(&mut rel);
            Ok(RecordBody::RelFull {
                src: rel.src,
                tgt: rel.tgt,
                label: rel.label,
                props: rel.props.into(),
            })
        }
        other => Err(GraphError::Storage(format!(
            "unexpected reconstruction result {other:?}"
        ))),
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
            Some(full @ RecordBody::NodeFull { .. }) => apply_delta(full, &d, id),
            other => Err(GraphError::Storage(format!(
                "node delta over {other:?} for {id}"
            ))),
        },
        RecordBody::RelDelta(d) => match current {
            Some(full @ RecordBody::RelFull { .. }) => apply_delta(full, &d, id),
            other => Err(GraphError::Storage(format!(
                "rel delta over {other:?} for {id}"
            ))),
        },
    }
}

/// Calls `f(other end, rel, ts, deleted)` for each entry of `anchor`'s
/// range in one neighbour index, in key order.
fn scan_neighbours(
    tree: &BTree,
    anchor: NodeId,
    mut f: impl FnMut(NodeId, RelId, Timestamp, bool),
) -> Result<()> {
    let (low, high) = keys::neigh_range(anchor);
    for item in tree.scan(&low, &high)? {
        let (key, value) = item?;
        let (_, b, rel, ts) = keys::decode_neigh_key(&key)
            .ok_or_else(|| GraphError::Storage("bad neigh key".into()))?;
        let deleted = neighbour_deleted(&value)
            .ok_or_else(|| GraphError::Storage("bad neigh entry".into()))?;
        f(b, rel, ts, deleted);
    }
    Ok(())
}

/// Decodes a neighbour-index value: empty added, `[1]` deleted.
fn neighbour_deleted(value: &[u8]) -> Option<bool> {
    match value {
        [] => Some(false),
        [1] => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rebuild counts into a registry of its own, which feeds neither
    /// the store it rebuilds nor the process-wide totals a `--metrics` run
    /// prints.
    #[test]
    fn a_rebuild_counts_into_a_private_registry() {
        let dir = tempfile::tempdir().unwrap();
        let store = LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default());
        let store = store.unwrap();
        let applied = |s: &LineageStore| {
            let snap = s.registry().snapshot();
            snap.counter("lineagestore.commits.applied")
        };
        store
            .with_rebuild(|rebuild| {
                assert!(!Arc::ptr_eq(rebuild.registry(), store.registry()));
                rebuild.apply_commit(1, &[])?;
                assert_eq!(applied(rebuild), Some(1));
                Ok(())
            })
            .unwrap();
        assert_eq!(applied(&store), Some(0));
    }
}
