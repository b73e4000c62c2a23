//! [`Aion`] — the assembled temporal graph DBMS.

use crate::bitemporal;
use crate::cascade::Cascade;
use crate::group_commit::{self, LogWriter};
use crate::planner::Planner;
use crate::txn::{AppTimeKeys, WriteTxn};
use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::{
    Direction, Graph, GraphError, Interner, Node, NodeId, RelId, Relationship, Result,
    TemporalGraph, TimeRange, Timestamp, TimestampedUpdate, Update, Version,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use timestore::{CommitFrame, Payload, TimeStore, TimeStoreConfig, Versions};
use vfs::VfsRef;

pub use crate::planner::StoreChoice;

/// The query executor's metric handles (the `query` crate records into
/// them), resolved in the instance's registry when it opens, so a query
/// looks nothing up.
pub struct QueryMetrics {
    /// Queries parsed and executed.
    pub executed: Arc<obs::Counter>,
    /// Parse time.
    pub parse_latency: Arc<obs::Histogram>,
    /// Parse and execution time.
    pub exec_latency: Arc<obs::Histogram>,
    /// Result rows built by `MATCH … RETURN` pipelines.
    pub rows_streamed: Arc<obs::Counter>,
    /// Pages served by paged executions.
    pub pages_served: Arc<obs::Counter>,
    /// Queries aborted by the result row cap.
    pub budget_aborts: Arc<obs::Counter>,
    /// Cursor tokens rejected as invalid (corrupt, mismatched, stale
    /// anchor).
    pub cursor_rejects: Arc<obs::Counter>,
}

impl QueryMetrics {
    fn new(registry: &obs::Registry) -> QueryMetrics {
        QueryMetrics {
            executed: registry.counter("query.executed"),
            parse_latency: registry.histogram("query.parse.latency_ns"),
            exec_latency: registry.histogram("query.exec.latency_ns"),
            rows_streamed: registry.counter("query.rows_streamed"),
            pages_served: registry.counter("query.pages_served"),
            budget_aborts: registry.counter("query.budget_aborts"),
            cursor_rejects: registry.counter("query.cursor_rejects"),
        }
    }
}

/// A read's hold on the version it reads at the implicit latest time (see
/// [`Aion::pin_latest`]). Dropping it releases the version.
pub struct LatestPin {
    ts: Timestamp,
    _graph: Arc<Graph>,
}

impl LatestPin {
    /// The timestamp to read at: the pinned version's commit timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }
}

/// Configuration of an [`Aion`] instance.
#[derive(Clone, Debug)]
pub struct AionConfig {
    /// Data directory.
    pub dir: PathBuf,
    /// TimeStore tuning.
    pub timestore: TimeStoreConfig,
    /// LineageStore tuning.
    pub lineage: LineageStoreConfig,
    /// Make each commit wait until the LineageStore holds it: `write`
    /// returns once the cascade applied the commit (the `TS+LS`
    /// configuration of Fig. 9). Default `false`: `write` returns once the
    /// TimeStore holds the commit, and the cascade catches up in the
    /// background. Either way the cascade is the one LineageStore applier,
    /// and a LineageStore failure does not fail the commit: it wedges the
    /// LineageStore (see [`Aion::lineage_wedged`]), whose next open
    /// replays the gap from the log.
    pub sync_lineage: bool,
    /// Fsync the TimeStore after every commit before acknowledging it.
    /// Default `false`: commits become durable only at an explicit
    /// [`Aion::sync`] (group durability — the paper's ingest numbers assume
    /// batched flushing). With `true`, every acknowledged commit survives a
    /// crash, at the cost of one fsync per commit.
    pub sync_on_commit: bool,
    /// How long the group-commit log writer may keep a durability group
    /// open waiting for more concurrent committers, trading commit
    /// latency for fsync amortization. Only meaningful with
    /// [`sync_on_commit`]: that is when every acknowledgement costs an
    /// fsync worth sharing. The default (zero) adds no latency — groups
    /// then form only from the natural queueing that happens while the
    /// previous group's I/O is in flight.
    ///
    /// [`sync_on_commit`]: AionConfig::sync_on_commit
    pub commit_latency_budget: Duration,
    /// The file system every storage layer runs on. Defaults to the
    /// production passthrough ([`VfsRef::std`]); the crash-consistency
    /// harness swaps in [`vfs::SimVfs`]. Overrides the `vfs` handles inside
    /// `timestore` and `lineage` sub-configs.
    pub vfs: VfsRef,
}

impl AionConfig {
    /// Defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> AionConfig {
        AionConfig {
            dir: dir.into(),
            timestore: TimeStoreConfig::default(),
            lineage: LineageStoreConfig::default(),
            sync_lineage: false,
            sync_on_commit: false,
            commit_latency_budget: Duration::ZERO,
            vfs: VfsRef::std(),
        }
    }
}

/// The transactional temporal graph DBMS (Fig. 4).
///
/// ```
/// use aion::{Aion, AionConfig};
/// use lpg::NodeId;
///
/// let dir = tempfile::tempdir().unwrap();
/// let db = Aion::open(AionConfig::new(dir.path())).unwrap();
/// let name = db.intern("name");
///
/// // Commits get monotonically increasing system timestamps.
/// let t1 = db.write(|txn| txn.add_node(NodeId::new(1), vec![], vec![])).unwrap();
/// let t2 = db.write(|txn| {
///     txn.set_node_prop(NodeId::new(1), name, lpg::PropertyValue::Int(7))
/// }).unwrap();
///
/// // Time travel: the node had no property at t1.
/// assert!(db.get_graph_at(t1).unwrap().node(NodeId::new(1)).unwrap().prop(name).is_none());
/// assert!(db.get_graph_at(t2).unwrap().node(NodeId::new(1)).unwrap().prop(name).is_some());
///
/// // Point history: two versions with adjacent validity intervals.
/// db.lineage_barrier(t2);
/// let versions = db.get_node(NodeId::new(1), 0, t2 + 1).unwrap();
/// assert_eq!(versions.len(), 2);
/// ```
pub struct Aion {
    interner: Arc<Interner>,
    timestore: Arc<TimeStore>,
    lineage: Arc<LineageStore>,
    cascade: Arc<Cascade>,
    /// [`AionConfig::sync_lineage`]: each commit waits for the cascade.
    sync_lineage: bool,
    planner: Planner,
    app_keys: AppTimeKeys,
    lineage_wedged: Arc<AtomicBool>,
    /// The group-commit log writer (see [`crate::group_commit`]): all
    /// commits funnel through its queue, so there is no commit lock —
    /// ordering comes from the single writer thread.
    pipeline: group_commit::Pipeline,
    /// What this instance and everything under it count into.
    registry: Arc<obs::Registry>,
    commit_latency: Arc<obs::Histogram>,
    forced_flushes: Arc<obs::Counter>,
    lineage_fallbacks: Arc<obs::Counter>,
    streams_open: Arc<obs::Gauge>,
    query_metrics: QueryMetrics,
    /// Replication-epoch fence (DESIGN.md §17). `held` is the highest
    /// epoch this node ever owned as primary; `max_seen` the highest it
    /// has observed anywhere in the cluster. `max_seen > held` means a
    /// newer primary exists and direct writes must be refused
    /// ([`GraphError::Fenced`]) — accepting one would fork history.
    /// Replicated applies bypass the fence: they carry the *new*
    /// primary's commits and are exactly what a demoted node should
    /// accept.
    held_epoch: AtomicU64,
    max_seen_epoch: AtomicU64,
}

impl Aion {
    /// Opens (or creates) a database, recovering both stores and catching
    /// the LineageStore up with the TimeStore log if it lags (crash during
    /// the asynchronous cascade).
    pub fn open(config: AionConfig) -> Result<Aion> {
        let fs = config.vfs.clone();
        fs.create_dir_all(&config.dir)?;
        let registry = Arc::new(obs::Registry::scoped());
        let mut ts_config = config.timestore.clone();
        ts_config.vfs = fs.clone();
        let timestore =
            TimeStore::open_in(&config.dir.join("timestore"), ts_config, registry.clone());
        let timestore = Arc::new(timestore?);
        // The LineageStore is derived state: open it with page verification
        // on, and if that (or catch-up replay) fails — torn pages from a
        // crash mid-cascade, a corrupt index, a file that records no chain
        // threshold or another one than configured — wipe it and rebuild
        // from the TimeStore log, which is the source of truth.
        let mut ls_config = config.lineage.clone();
        ls_config.vfs = fs.clone();
        ls_config.verify_pages = true;
        let lineage_path = config.dir.join("lineage.db");
        // Earlier builds kept the page sums in this sidecar; the seal on the
        // meta page replaces it.
        let old_sums = config.dir.join("lineage.db.sums");
        if fs.exists(&old_sums) {
            fs.remove_file(&old_sums)?;
        }
        let open_lineage =
            |config| Self::open_lineage(&timestore, &lineage_path, config, &registry);
        let lineage = match open_lineage(ls_config.clone()) {
            Ok(l) => l,
            Err(_) => {
                let _ = fs.remove_file(&lineage_path);
                open_lineage(ls_config)?
            }
        };
        let interner = Arc::new(Interner::new());
        let app_keys = AppTimeKeys {
            start: interner.intern("_app_start"),
            end: interner.intern("_app_end"),
        };
        let lineage_wedged = Arc::new(AtomicBool::new(false));
        let cascade = Arc::new(Cascade::spawn(lineage.clone(), lineage_wedged.clone())?);
        let pipeline = group_commit::Pipeline::spawn(LogWriter {
            timestore: timestore.clone(),
            cascade: cascade.clone(),
            lineage_wedged: lineage_wedged.clone(),
            sync_on_commit: config.sync_on_commit,
            latency_budget: config.commit_latency_budget,
            next_ts: timestore.latest_ts() + 1,
            commits: registry.counter("core.commits"),
            commits_failed: registry.counter("core.commits_failed"),
            group_size: registry.histogram("core.group_commit.size"),
        })?;
        Ok(Aion {
            interner,
            lineage_wedged,
            timestore,
            lineage,
            cascade,
            sync_lineage: config.sync_lineage,
            planner: Planner::new(),
            app_keys,
            pipeline,
            commit_latency: registry.histogram("core.commit.latency_ns"),
            forced_flushes: registry.counter("core.group_commit.forced_flushes"),
            lineage_fallbacks: registry.counter("core.lineage_fallbacks"),
            streams_open: registry.gauge("core.stream.open"),
            query_metrics: QueryMetrics::new(&registry),
            registry,
            held_epoch: AtomicU64::new(0),
            max_seen_epoch: AtomicU64::new(0),
        })
    }

    /// Opens the LineageStore and replays any TimeStore commits it missed
    /// (crash during the asynchronous cascade). Fails if the file was built
    /// with another chain threshold than `config`'s.
    fn open_lineage(
        timestore: &TimeStore,
        path: &std::path::Path,
        config: LineageStoreConfig,
        registry: &Arc<obs::Registry>,
    ) -> Result<Arc<LineageStore>> {
        let threshold = config.chain_threshold;
        let lineage = Arc::new(LineageStore::open_in(path, config, registry.clone())?);
        // A file built with another chain threshold would mix two layouts
        // of the same history: rebuild it with the configured one.
        if lineage.chain_threshold() != threshold {
            return Err(GraphError::Storage(format!(
                "lineage file built with chain threshold {:?}, configured {threshold:?}",
                lineage.chain_threshold()
            )));
        }
        // Catch-up replay: the TimeStore log is the source of truth. Each
        // commit is applied as its frame is read, so a rebuild from ts 1
        // holds one frame in memory, not the history.
        let lag_from = lineage.applied_ts();
        let latest = timestore.latest_ts();
        if lag_from < latest {
            timestore.replay(lag_from + 1, latest.saturating_add(1), |ts, ops| {
                lineage.apply_commit(ts, ops)
            })?;
        }
        Ok(lineage)
    }

    /// The database string store.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Interns a label/key/value string.
    pub fn intern(&self, s: &str) -> lpg::StrId {
        self.interner.intern(s)
    }

    /// Application-time property keys.
    pub fn app_time_keys(&self) -> AppTimeKeys {
        self.app_keys
    }

    /// The planner.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Direct TimeStore access (benchmarks and ablations).
    pub fn timestore(&self) -> &TimeStore {
        &self.timestore
    }

    /// Direct LineageStore access (benchmarks and ablations).
    pub fn lineagestore(&self) -> &Arc<LineageStore> {
        &self.lineage
    }

    /// A point-in-time snapshot of every metric this instance has
    /// recorded: pagestore cache behaviour, btree structure work, timestore
    /// log and snapshot activity, lineagestore ingest/expand traffic, query
    /// stage timings and commit latency. Other instances in the process
    /// count into their own registries; `obs::snapshot()` has the totals.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The query executor's metric handles in this instance's registry.
    pub fn query_metrics(&self) -> &QueryMetrics {
        &self.query_metrics
    }

    /// Audits both stores and their agreement at `level`; see
    /// [`check::CheckLevel`] for what each level covers. A clean report
    /// ([`check::ConsistencyReport::is_clean`]) means every invariant held.
    pub fn check_consistency(&self, level: check::CheckLevel) -> Result<check::ConsistencyReport> {
        check::check_stores(&self.timestore, &self.lineage, level)
    }

    // ----------------------------------------------------- epoch fencing

    /// Declares this node the owner of `epoch` (it was just promoted, or
    /// restarted as a primary that had persisted this epoch). Also raises
    /// `max_seen`, so holding an epoch always implies having seen it.
    pub fn set_held_epoch(&self, epoch: u64) {
        self.held_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.max_seen_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Records that `epoch` exists somewhere in the cluster (seen in a
    /// replication handshake, frame, or heartbeat). Monotone: epochs are
    /// only ever raised. If this exceeds the held epoch, direct writes
    /// start failing with [`GraphError::Fenced`].
    pub fn observe_epoch(&self, epoch: u64) {
        self.max_seen_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The highest epoch this node ever owned as primary (0 = never
    /// explicitly promoted; the seed single-node deployment).
    pub fn held_epoch(&self) -> u64 {
        self.held_epoch.load(Ordering::Acquire)
    }

    /// The highest epoch this node has observed anywhere.
    pub fn max_seen_epoch(&self) -> u64 {
        self.max_seen_epoch.load(Ordering::Acquire)
    }

    /// Whether direct writes are currently fenced (a newer epoch exists).
    pub fn is_fenced(&self) -> bool {
        self.max_seen_epoch.load(Ordering::Acquire) > self.held_epoch.load(Ordering::Acquire)
    }

    /// The fence gate on the direct write path. Checked *before* the
    /// commit pipeline so a deposed primary's write never consumes a
    /// timestamp or touches the log.
    fn check_fence(&self) -> Result<()> {
        let held = self.held_epoch.load(Ordering::Acquire);
        let seen = self.max_seen_epoch.load(Ordering::Acquire);
        if seen > held {
            return Err(GraphError::Fenced { held, seen });
        }
        Ok(())
    }

    // ------------------------------------------------------------ writes

    /// Latest committed timestamp.
    pub fn latest_ts(&self) -> Timestamp {
        self.timestore.latest_ts()
    }

    /// The latest graph version (unaffected by temporal machinery).
    pub fn latest_graph(&self) -> Arc<Graph> {
        self.timestore.latest_graph()
    }

    /// Pins the latest version for a read: its timestamp and graph, taken
    /// in one step. While the guard lives, every TimeStore read at
    /// [`LatestPin::ts`] is served from the pinned graph, however many
    /// commits land meanwhile (see `timestore::GraphStore`).
    ///
    /// The pin is never older than [`Aion::latest_ts`] as read on entry,
    /// so a caller that checked a watermark against it reads at or after
    /// that watermark: a commit is published under the GraphStore's lock
    /// and applied before the lock is released, and the log writer checked
    /// the batch against that graph before it logged it, so the apply does
    /// not fail.
    pub fn pin_latest(&self) -> LatestPin {
        let (ts, graph) = self.timestore.graphstore().pin_latest();
        LatestPin { ts, _graph: graph }
    }

    /// Runs `f` inside a write transaction and commits it, returning the
    /// commit timestamp. On error nothing is persisted: an error of `f`,
    /// or a constraint error (Sec. 3) the log writer finds when it checks
    /// the batch against the latest graph at commit.
    pub fn write<F>(&self, f: F) -> Result<Timestamp>
    where
        F: FnOnce(&mut WriteTxn) -> Result<()>,
    {
        self.write_txn(None, f)
    }

    /// Like [`write`], but commits at an explicit system timestamp (which
    /// must exceed the latest committed one). Useful when replaying an
    /// external event stream whose event times should become system time —
    /// e.g. bulk-loading the evaluation datasets with their original
    /// ordering (Sec. 6.1).
    ///
    /// [`write`]: Aion::write
    pub fn write_at<F>(&self, ts: Timestamp, f: F) -> Result<Timestamp>
    where
        F: FnOnce(&mut WriteTxn) -> Result<()>,
    {
        self.write_txn(Some(ts), f)
    }

    /// The body of [`write`] and [`write_at`]: `forced_ts` is the explicit
    /// commit timestamp, `None` takes the next one.
    ///
    /// [`write`]: Aion::write
    /// [`write_at`]: Aion::write_at
    fn write_txn<F>(&self, forced_ts: Option<Timestamp>, f: F) -> Result<Timestamp>
    where
        F: FnOnce(&mut WriteTxn) -> Result<()>,
    {
        self.check_fence()?;
        let mut txn = WriteTxn::new(self.app_keys);
        f(&mut txn)?;
        let updates = txn.into_updates();
        self.commit(Payload::records(&updates), updates, forced_ts)
    }

    /// Applies one replicated commit, a frame payload as the primary's log
    /// holds it: the log appends it byte for byte. It is checked as a
    /// local commit is. A payload that does not decode fails with
    /// [`GraphError::CorruptRecord`]; one over the frame cap, at or below
    /// the local latest timestamp, or whose batch does not apply to the
    /// latest graph fails as a commit does. Nothing is appended then.
    pub fn apply_frame(&self, payload: Vec<u8>) -> Result<Timestamp> {
        let frame = CommitFrame::decode(&payload)
            .ok_or_else(|| GraphError::CorruptRecord("shipped frame does not decode".into()))?;
        self.commit(Payload::Whole(payload), frame.updates(), Some(frame.ts))
    }

    /// Commits an update batch (stage 1 + 2 of Fig. 4) through the
    /// group-commit pipeline: enqueue and park until the log writer has
    /// checked and appended the batch (and group-fsynced it under
    /// `sync_on_commit`); under `sync_lineage`, also until the cascade
    /// applied it or the LineageStore wedged.
    fn commit(
        &self,
        payload: Payload,
        updates: Vec<Update>,
        forced_ts: Option<Timestamp>,
    ) -> Result<Timestamp> {
        let _timer = self.commit_latency.start_timer();
        let ts = self.pipeline.commit(payload, updates, forced_ts)?;
        if self.sync_lineage {
            self.cascade.barrier(ts);
        }
        Ok(ts)
    }

    /// Blocks until the LineageStore caught up with `ts`, or wedged (tests,
    /// recovery).
    pub fn lineage_barrier(&self, ts: Timestamp) {
        self.cascade.barrier(ts);
    }

    /// Whether the LineageStore stopped advancing: its applier hit an
    /// error, or a commit's durability became uncertain (queries fall back
    /// to the TimeStore; a reopen replays the gap).
    pub fn lineage_wedged(&self) -> bool {
        self.lineage_wedged.load(Ordering::Acquire)
    }

    /// Whether the LineageStore serves a read at `ts` (Sec. 5.1): its watermark
    /// covers `min(ts, latest)` and it is not wedged. Every read that wants it
    /// asks here; the TimeStore serves a refusal, counted in `lineage_fallbacks`.
    fn lineage_serves(&self, ts: Timestamp) -> bool {
        let serves = self.cascade.applied_ts() >= ts.min(self.timestore.latest_ts())
            && !self.lineage_wedged();
        if !serves {
            self.lineage_fallbacks.inc();
        }
        serves
    }

    // --------------------------------------------------- Table 1: points

    /// `getNode(nodeId, start, end)` — node history over `[start, end)`;
    /// `start == end` is the point lookup.
    pub fn get_node(
        &self,
        id: NodeId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Node>>> {
        if self.lineage_serves(end.max(start)) {
            self.lineage.node_history(id, start, end)
        } else {
            self.timestore.node_history(id, start, end)
        }
    }

    /// `getRelationship(relId, start, end)`.
    pub fn get_relationship(
        &self,
        id: RelId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Relationship>>> {
        if self.lineage_serves(end.max(start)) {
            self.lineage.rel_history(id, start, end)
        } else {
            self.timestore.rel_history(id, start, end)
        }
    }

    /// `getRelationships(nodeId, direction, start, end)` — one version list
    /// per relationship incident to `id` during the window.
    pub fn get_relationships(
        &self,
        id: NodeId,
        dir: Direction,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Vec<Version<Relationship>>>> {
        if self.lineage_serves(end.max(start)) {
            self.lineage.rels_history(id, dir, start, end)
        } else {
            self.timestore.rels_history(id, dir, start, end)
        }
    }

    // ------------------------------------------------- Table 1: subgraph

    /// `expand(nodeId, direction, hops, t)` — planner-routed (Sec. 5.1):
    /// small expansions go to the LineageStore, large ones to a TimeStore
    /// snapshot. Both yield the same hits in the same order.
    pub fn expand(
        &self,
        id: NodeId,
        dir: Direction,
        hops: u32,
        t: Timestamp,
    ) -> Result<Vec<(NodeId, u32)>> {
        // The latest graph's `Arc` drops with this statement: held, it
        // would make a concurrent commit copy the chunks it touches.
        let choice = self.planner.choose(&self.latest_graph(), 1, dir, hops);
        if choice == StoreChoice::Lineage && self.lineage_serves(t) {
            let hits = self.lineage.expand(id, dir, hops, t)?;
            Ok(hits.into_iter().map(|h| (h.node.id, h.hop)).collect())
        } else {
            self.timestore.expand(id, dir, hops, t)
        }
    }

    // --------------------------------------------------- Table 1: global

    /// `getDiff(start, end)` — all updates in `[start, end)`.
    pub fn get_diff(&self, start: Timestamp, end: Timestamp) -> Result<Vec<TimestampedUpdate>> {
        self.timestore.diff(start, end)
    }

    /// `getGraph(t)` — the snapshot at `t`.
    pub fn get_graph_at(&self, t: Timestamp) -> Result<Arc<Graph>> {
        self.timestore.snapshot_at(t)
    }

    /// Lazy ascending-id stream of the nodes alive at `ts`, starting
    /// strictly after `after`. Both sources yield the identical sequence,
    /// so pagination cursors are source-independent (see
    /// [`crate::stream::NodeStream`]). The planner's rule (Sec. 5.1):
    ///
    /// - `whole_graph` — the consumer folds over every node (an aggregate,
    ///   a sort, a write), so it accesses the whole graph: the TimeStore
    ///   snapshot serves it, as it does `get_graph_at`.
    /// - otherwise the consumer may stop early (`LIMIT`, one page), so the
    ///   scan walks the lineage index (O(log n) to the resume point, O(1)
    ///   memory), unless `lineage_serves` refuses it: then a pinned
    ///   snapshot serves it.
    pub fn stream_nodes_at(
        &self,
        ts: Timestamp,
        after: Option<NodeId>,
        whole_graph: bool,
    ) -> Result<crate::stream::NodeStream> {
        if !whole_graph && self.lineage_serves(ts) {
            let lineage = Arc::clone(&self.lineage);
            crate::stream::NodeStream::lineage(lineage, ts, after, &self.streams_open)
        } else {
            let graph = self.timestore.snapshot_at(ts)?;
            let stream = crate::stream::NodeStream::snapshot(graph, ts, after, &self.streams_open);
            Ok(stream)
        }
    }

    /// Whether `id` was alive at `ts` — cursor-anchor revalidation: a
    /// resumed cursor's last-emitted node must still resolve at its pinned
    /// snapshot, otherwise resuming could skip or duplicate rows. The
    /// LineageStore answers when it serves `ts`, the TimeStore otherwise.
    pub fn node_alive_at(&self, id: NodeId, ts: Timestamp) -> Result<bool> {
        if self.lineage_serves(ts) {
            return Ok(self.lineage.node_at(id, ts)?.is_some());
        }
        Ok(self.timestore.snapshot_at(ts)?.node(id).is_some())
    }

    /// `getGraph(start, end, step)` — a snapshot series, collected from
    /// [`Aion::versions`].
    pub fn get_graphs(
        &self,
        start: Timestamp,
        end: Timestamp,
        step: u64,
    ) -> Result<Vec<(Timestamp, Arc<Graph>)>> {
        self.versions(start, end, step)?
            .map(|v| v.map(|(ts, graph, _)| (ts, graph)))
            .collect()
    }

    /// The lazy walk behind `getGraph(start, end, step)` and the temporal
    /// procedures: each version with the diff that led to it (see
    /// [`TimeStore::versions`]).
    pub fn versions(&self, start: Timestamp, end: Timestamp, step: u64) -> Result<Versions<'_>> {
        self.timestore.versions(start, end, step)
    }

    /// `getWindow(start, end)` — the union graph of the window.
    pub fn get_window(&self, start: Timestamp, end: Timestamp) -> Result<Graph> {
        self.timestore.window(start, end)
    }

    /// `getTemporalGraph(start, end)` — the temporal LPG over the window.
    pub fn get_temporal_graph(&self, start: Timestamp, end: Timestamp) -> Result<TemporalGraph> {
        self.timestore.temporal_graph(start, end)
    }

    // ---------------------------------------------------- bitemporal

    /// Bitemporal node lookup (Fig. 1c): system-time first, then the
    /// application-time filter over the retrieved versions (Sec. 4.5).
    pub fn get_node_bitemporal(
        &self,
        id: NodeId,
        system: TimeRange,
        application: TimeRange,
    ) -> Result<Vec<Version<Node>>> {
        let w = system.to_half_open();
        let versions = self.get_node(id, w.start, w.end)?;
        Ok(bitemporal::filter_versions(
            versions,
            application,
            self.app_keys,
        ))
    }

    /// Flushes all storage to disk. When commits are outstanding beyond
    /// the durable log prefix (`sync_on_commit = false` ingest, or the
    /// replication shipper forcing unshipped backlog onto disk), this is
    /// a *forced* group flush — counted so the fsync-amortization story
    /// is observable end to end.
    pub fn sync(&self) -> Result<()> {
        if self.timestore.log().end_offset() > self.timestore.durable_log_end() {
            self.forced_flushes.inc();
        }
        self.timestore.sync()?;
        self.lineage.sync()?;
        Ok(())
    }
}
