//! The TimeStore facade: log + snapshots + GraphStore.
//!
//! The paper indexes the log and the snapshots with two B+Trees keyed by
//! time (Sec. 4.3). Here neither is a tree on disk. The log is its own
//! `ts → log offset` index (see [`crate::log`]). The snapshot directory is
//! the `ts → snapshot file` index: each file is named `snap_<ts>.aisnap`,
//! open lists and checks every file anyway, and the valid ones it finds are
//! kept in memory as the store's snapshot set (ts → file bytes), which
//! every snapshot written joins once it is synced. A floor lookup is a
//! range over that set.
//!
//! The directory holds `timestore.log`, `timestore.log.durable` (the
//! durable-end record, see [`TimeStore::sync`]) and `snapshots/`.

use crate::graphstore::GraphStore;
use crate::log::{ChangeLog, CommitFrame};
use crate::policy::SnapshotPolicy;
use btree::Finding;
use encoding::snapshot::{self, Manifest, Segment, SharedSegments};
use lpg::{
    Graph, GraphError, Interval, Result, TemporalGraph, Timestamp, TimestampedUpdate, Update,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vfs::{fnv64, VfsFile, VfsRef};

/// Tuning knobs for a [`TimeStore`].
#[derive(Clone, Debug)]
pub struct TimeStoreConfig {
    /// Read by nothing since the TimeStore keeps no page file; kept only
    /// because the benchmark harness still sets it.
    pub cache_pages: usize,
    /// Snapshot creation policy.
    pub policy: SnapshotPolicy,
    /// Read by nothing since the GraphStore keeps only the versions
    /// readers hold; kept only because the benchmark harness still sets it.
    pub graphstore_bytes: usize,
    /// File system every file of the store is opened on. Defaults to the
    /// production `StdVfs`; the crash harness passes a `SimVfs`.
    pub vfs: VfsRef,
}

impl Default for TimeStoreConfig {
    fn default() -> Self {
        TimeStoreConfig {
            cache_pages: 1024,
            policy: SnapshotPolicy::default(),
            graphstore_bytes: 256 << 20,
            vfs: VfsRef::std(),
        }
    }
}

/// Parses the timestamp out of a `snap_<ts>.aisnap` file name.
pub(crate) fn snapshot_name_ts(name: &str) -> Option<Timestamp> {
    name.strip_prefix("snap_")?
        .strip_suffix(".aisnap")?
        .parse()
        .ok()
}

pub(crate) fn snapshot_name(ts: Timestamp) -> String {
    format!("snap_{ts:020}.aisnap")
}

/// Why a snapshot file did not load.
#[derive(Debug)]
pub(crate) enum LoadError {
    /// The file itself could not be read.
    Unreadable(std::io::Error),
    /// Its footer, version, name or contents, or a range it references.
    Fault(snapshot::Fault),
}

/// Size/footprint counters for the storage-overhead experiments (Fig. 10).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeStoreStats {
    /// Change-log bytes.
    pub log_bytes: u64,
    /// Total bytes of serialized snapshot files.
    pub snapshot_bytes: u64,
    /// Number of on-disk snapshots.
    pub snapshot_count: u64,
}

struct Metrics {
    log_appends: Arc<obs::Counter>,
    snapshot_creates: Arc<obs::Counter>,
    snapshot_create_latency: Arc<obs::Histogram>,
    snapshot_replays: Arc<obs::Counter>,
    snapshot_replay_latency: Arc<obs::Histogram>,
    segments_decoded: Arc<obs::Counter>,
    segments_shared: Arc<obs::Counter>,
    graphstore_hits: Arc<obs::Counter>,
    graphstore_misses: Arc<obs::Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            log_appends: obs::counter("timestore.log.appends"),
            snapshot_creates: obs::counter("timestore.snapshot.creates"),
            snapshot_create_latency: obs::histogram("timestore.snapshot.create.latency_ns"),
            snapshot_replays: obs::counter("timestore.snapshot.replays"),
            snapshot_replay_latency: obs::histogram("timestore.snapshot.replay.latency_ns"),
            segments_decoded: obs::counter("timestore.snapshot.segments_decoded"),
            segments_shared: obs::counter("timestore.snapshot.segments_shared"),
            graphstore_hits: obs::counter("timestore.graphstore.hits"),
            graphstore_misses: obs::counter("timestore.graphstore.misses"),
        }
    }
}

struct MutableState {
    latest_ts: Timestamp,
    /// Updates committed past the newest snapshot.
    ops_since_snapshot: u64,
    /// The snapshot set: every valid snapshot file's ts → its size in
    /// bytes.
    snapshots: BTreeMap<Timestamp, u64>,
}

/// What the next snapshot file may reference, and what it must rewrite.
/// Only the writer takes this lock (commits, snapshots, recovery).
#[derive(Default)]
struct Chain {
    /// The manifest of the last snapshot written (after open: of the floor
    /// snapshot); `None` makes the next snapshot stand alone.
    last: Option<Arc<Manifest>>,
    /// Every segment an update named since `last`'s snapshot, with the
    /// timestamp of the last such update. Exact, never a content hash: a
    /// segment absent here holds what `last` says it holds. The timestamp
    /// lets a snapshot at `ts` clear only entries up to `ts`, keeping those
    /// of a commit that raced with it.
    touched: HashMap<Segment, Timestamp>,
}

/// Snapshot-based temporal storage indexed by time (Sec. 4.3).
pub struct TimeStore {
    pub(crate) vfs: VfsRef,
    pub(crate) log: ChangeLog,
    /// `timestore.log.durable`, which [`TimeStore::sync`] rewrites.
    durable_end_file: Mutex<Box<dyn VfsFile>>,
    graphstore: GraphStore,
    /// The relationship segments loaded graphs and the latest graph hold,
    /// so that a load shares them instead of decoding them again.
    segments: SharedSegments,
    pub(crate) snap_dir: PathBuf,
    policy: SnapshotPolicy,
    state: Mutex<MutableState>,
    chain: Mutex<Chain>,
    /// In-memory mirror of `timestore.log.durable`: how many log bytes
    /// the last successful [`TimeStore::sync`] provably fsynced.
    /// Replication ships only below this point — bytes past it could
    /// still be lost in a crash.
    durable_log_end: AtomicU64,
    metrics: Metrics,
    /// What `open` repaired; see [`TimeStore::repairs`].
    repairs: Vec<Finding>,
}

/// Name of the durable-end record: `u64 end, u64 fnv64(end)`, both
/// little-endian.
pub const DURABLE_END_FILE: &str = "timestore.log.durable";

/// The log end a durable-end record holds; `None` when it is not exactly
/// 16 bytes or its sum does not match (torn or damaged).
fn decode_durable_end(record: &[u8]) -> Option<u64> {
    let end: [u8; 8] = record.get(..8)?.try_into().ok()?;
    let sum: [u8; 8] = record.get(8..)?.try_into().ok()?;
    (fnv64(&end) == u64::from_le_bytes(sum)).then_some(u64::from_le_bytes(end))
}

impl TimeStore {
    /// Opens a TimeStore rooted at directory `dir`, recovering state from
    /// the log, the source of truth.
    ///
    /// A bad log frame below the durable end `timestore.log.durable`
    /// records is damage, not a crash artifact, and fails the open with
    /// the log left as found. A missing or torn record reads as 0: every
    /// bad frame is then a torn tail and is truncated.
    ///
    /// Every repair made on the way is kept in [`TimeStore::repairs`].
    /// When the record did not cover the whole log, open syncs, so the next
    /// open can tell damage from a torn tail everywhere.
    pub fn open<P: AsRef<Path>>(dir: P, config: TimeStoreConfig) -> Result<TimeStore> {
        let dir = dir.as_ref();
        let vfs = config.vfs.clone();
        let snap_dir = dir.join("snapshots");
        vfs.create_dir_all(&snap_dir)?;
        // Earlier builds kept a `ts → log offset` B+Tree in this page file
        // and its checksum sidecar; the log is that index now.
        for old in ["timestore.idx", "timestore.idx.sums"] {
            let path = dir.join(old);
            if vfs.exists(&path) {
                vfs.remove_file(&path)?;
            }
        }
        let marker = dir.join(DURABLE_END_FILE);
        let record = vfs.read(&marker).ok();
        let durable_end = record.as_deref().and_then(decode_durable_end).unwrap_or(0);
        let durable_end_file = Mutex::new(vfs.open(&marker)?);
        let log = ChangeLog::open_with_vfs(&vfs, &dir.join("timestore.log"), durable_end)?;
        let mut repairs = Vec::new();
        if let Some((end, len)) = log.torn_tail() {
            let detail = format!("truncated a torn log tail at offset {end} of {len} bytes");
            repairs.push(Finding::new("repair/log-tail", detail));
        }
        let covered = durable_end == log.end_offset();
        // The record can trail the surviving log (syncs are batched) but
        // never lead it; clamp defensively in case the file shrank.
        let durable_log_end = AtomicU64::new(durable_end.min(log.end_offset()));
        let mut store = TimeStore {
            vfs,
            log,
            durable_end_file,
            graphstore: GraphStore::new(),
            segments: SharedSegments::default(),
            snap_dir,
            policy: config.policy,
            state: Mutex::new(MutableState {
                latest_ts: 0,
                ops_since_snapshot: 0,
                snapshots: BTreeMap::new(),
            }),
            chain: Mutex::new(Chain::default()),
            durable_log_end,
            metrics: Metrics::new(),
            repairs: Vec::new(),
        };
        store.recover(&mut repairs)?;
        if !covered {
            store.sync()?;
        }
        store.repairs = repairs;
        Ok(store)
    }

    /// Recovery: collect the snapshot set, then rebuild the latest graph.
    /// Each snapshot file it deletes and floor it cannot decode is reported
    /// in `repairs`.
    fn recover(&self, repairs: &mut Vec<Finding>) -> Result<()> {
        // The last frame is the latest commit.
        let latest_ts = self.log.last_ts().unwrap_or(0);
        // The snapshot set is the valid files, checked in ascending ts: a
        // file is valid when its footer verifies, it names its own ts, that
        // ts is one the durable log reached, and every file it references
        // is valid. So a torn file (crash), one from a future the log never
        // reached, or one of an older format is deleted together with every
        // file that references it, and the log re-derives them.
        let mut files: Vec<(Timestamp, String)> = self
            .vfs
            .read_dir(&self.snap_dir)?
            .into_iter()
            .filter_map(|(name, _)| Some((snapshot_name_ts(&name)?, name)))
            .collect();
        files.sort_unstable();
        let mut snapshots = BTreeMap::new();
        let mut floor: Option<(Manifest, Vec<u8>)> = None;
        for (sts, name) in files {
            let checked = if sts == 0 || sts > latest_ts {
                Err(format!(
                    "its ts is not in (0, {latest_ts}], the span the log reaches"
                ))
            } else {
                match self.read_snapshot_file(sts) {
                    Err(LoadError::Unreadable(e)) => Err(format!("unreadable: {e}")),
                    Err(LoadError::Fault(_)) => Err("does not decode".into()),
                    Ok((m, bytes)) => {
                        match m.sources().into_iter().find(|s| !snapshots.contains_key(s)) {
                            Some(s) => Err(format!("references the dropped snapshot at ts {s}")),
                            None => Ok((m, bytes)),
                        }
                    }
                }
            };
            match checked {
                Ok((manifest, bytes)) => {
                    snapshots.insert(sts, bytes.len() as u64);
                    floor = Some((manifest, bytes));
                }
                Err(why) => {
                    let _ = self.vfs.remove_file(&self.snap_dir.join(&name));
                    let detail = format!("deleted snapshot file {name}: {why}");
                    repairs.push(Finding::new("repair/snapshot", detail));
                }
            }
        }
        // The updates past the newest snapshot count towards the next one.
        let newest = snapshots.last_key_value().map_or(0, |(t, _)| *t);
        let mut ops_since_snapshot = 0;
        if latest_ts > 0 {
            // Built in place, not through `snapshot_at`: the latest graph is
            // not a version a reader holds. The floor is the last valid file.
            let (mut base_ts, mut graph, mut last) = (0, Graph::new(), None);
            if let Some((manifest, bytes)) = floor {
                match self.decode_snapshot(&manifest, &bytes, &self.segments) {
                    Ok(g) => (base_ts, graph, last) = (manifest.ts(), g, Some(Arc::new(manifest))),
                    Err(fault) => repairs.push(Finding::new(
                        "repair/floor",
                        format!(
                            "the snapshot at ts {} did not decode ({fault:?}): the latest graph \
                             was replayed from the log",
                            manifest.ts()
                        ),
                    )),
                }
            }
            // The updates replayed past the floor are what the next snapshot
            // must not reference.
            let mut touched = HashMap::new();
            if base_ts < latest_ts {
                let _timer = self.metrics.snapshot_replay_latency.start_timer();
                self.metrics.snapshot_replays.inc();
                for u in &self.diff(base_ts + 1, latest_ts.saturating_add(1))? {
                    graph.apply(&u.op)?;
                    touched.insert(Segment::of(u.op.entity()), u.ts);
                    ops_since_snapshot += u64::from(u.ts > newest);
                }
            }
            self.graphstore.set_latest(graph, latest_ts);
            *self.chain.lock() = Chain { last, touched };
        }
        *self.state.lock() = MutableState {
            latest_ts,
            ops_since_snapshot,
            snapshots,
        };
        Ok(())
    }

    /// Reads the snapshot file at `ts` and checks its footer, version and
    /// name; the referenced ranges are checked by [`Self::decode_snapshot`].
    fn read_snapshot_file(
        &self,
        ts: Timestamp,
    ) -> std::result::Result<(Manifest, Vec<u8>), LoadError> {
        let bytes = self
            .vfs
            .read(&self.snap_dir.join(snapshot_name(ts)))
            .map_err(LoadError::Unreadable)?;
        match snapshot::open(&bytes) {
            Some(manifest) if manifest.ts() == ts => Ok((manifest, bytes)),
            _ => Err(LoadError::Fault(snapshot::Fault::Corrupt)),
        }
    }

    /// Decodes a snapshot file read by [`Self::read_snapshot_file`],
    /// taking the relationship segments `shared` holds from there and
    /// fetching the other ranges it references with one read per run of
    /// consecutive ranges of one file; each range read must match its sum.
    fn decode_snapshot(
        &self,
        manifest: &Manifest,
        bytes: &[u8],
        shared: &SharedSegments,
    ) -> std::result::Result<Graph, snapshot::Fault> {
        // Extents come grouped by file: each source is opened once.
        let mut source: Option<(Timestamp, Box<dyn vfs::VfsFile>, u64)> = None;
        let decoded = snapshot::decode(manifest, bytes, shared, |extent, buf| {
            if source.as_ref().is_none_or(|(ts, ..)| *ts != extent.ts) {
                // `open` would create a missing file.
                let path = self.snap_dir.join(snapshot_name(extent.ts));
                let file = self
                    .vfs
                    .exists(&path)
                    .then(|| self.vfs.open(&path).ok())??;
                let len = file.len().ok()?;
                source = Some((extent.ts, file, len));
            }
            let (_, file, len) = source.as_ref()?;
            if extent.offset.checked_add(extent.len)? > *len {
                return None;
            }
            let start = buf.len();
            buf.resize(start.checked_add(usize::try_from(extent.len).ok()?)?, 0);
            file.read_exact_at(&mut buf[start..], extent.offset).ok()
        })?;
        self.metrics.segments_decoded.add(decoded.decoded as u64);
        self.metrics.segments_shared.add(decoded.shared as u64);
        Ok(decoded.graph)
    }

    /// The one snapshot loader (`snapshot_at`, `recover`, the audit):
    /// the file at `ts` with its footer checked, and its graph with every
    /// referenced range it reads checked. Reads share segments through the
    /// store's [`SharedSegments`]; the audit passes its own, so that it
    /// checks every byte as it is now.
    pub(crate) fn load_snapshot(
        &self,
        ts: Timestamp,
        shared: &SharedSegments,
    ) -> std::result::Result<(Manifest, Graph), LoadError> {
        let (manifest, bytes) = self.read_snapshot_file(ts)?;
        let graph = self
            .decode_snapshot(&manifest, &bytes, shared)
            .map_err(LoadError::Fault)?;
        Ok((manifest, graph))
    }

    /// Ingests one committed transaction. Timestamps must be strictly
    /// increasing across commits ("no further changes are allowed on past
    /// updates").
    pub fn append_commit(&self, ts: Timestamp, updates: &[Update]) -> Result<()> {
        {
            // The first commit may take any timestamp, 0 included.
            let logged = self.log.end_offset() > 0;
            let state = self.state.lock();
            if logged && ts <= state.latest_ts {
                return Err(GraphError::NonMonotonicCommit {
                    attempted: ts,
                    latest: state.latest_ts,
                });
            }
        }
        let frame = CommitFrame::from_updates(ts, updates);
        // The commit is in the log, and in its time index, from here on:
        // recovery replays it even if the in-memory apply below fails, and
        // a reader that rebuilds the version at `latest_ts()` finds every
        // commit up to it. `latest_ts` is published whether or not the
        // apply fails, so a caller seeing an error can classify it:
        // `latest_ts() < ts` means the log rejected the frame cleanly
        // (nothing persisted, the same timestamp may be retried),
        // `latest_ts() >= ts` means the commit reached the log and its
        // durability is uncertain.
        self.log.append(&frame)?;
        self.metrics.log_appends.inc();
        {
            let mut chain = self.chain.lock();
            for u in updates {
                chain.touched.insert(Segment::of(u.entity()), ts);
            }
        }
        // Returns whether a snapshot is due.
        let publish = || {
            let mut state = self.state.lock();
            state.latest_ts = ts;
            state.ops_since_snapshot += updates.len() as u64;
            let last_snapshot_ts = state.snapshots.last_key_value().map_or(0, |(t, _)| *t);
            self.policy
                .should_snapshot(state.ops_since_snapshot, last_snapshot_ts, ts)
        };
        // Published under the GraphStore's lock, so a read that pins the
        // latest graph after seeing `ts` gets this commit applied.
        if self.graphstore.apply_commit(ts, updates, publish)? {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the latest graph at its own timestamp; a no-op
    /// when there is no commit yet or the last snapshot is at that
    /// timestamp already.
    ///
    /// The file references every segment of the previous snapshot that no
    /// update touched since, and holds the rest inline. The relationship
    /// chunks it holds inline are lent to later loads (see
    /// `encoding::snapshot`'s module doc), so a snapshot loaded from it
    /// shares them with the latest graph until a commit changes them.
    pub fn write_snapshot(&self) -> Result<()> {
        // The latest graph is borrowed only while it is encoded: an `Arc`
        // still alive at the next commit would make `apply_commit` copy
        // every chunk it touches.
        let (graph, ts) = self.graphstore.latest();
        let (prev, dirty) = {
            let chain = self.chain.lock();
            let prev = chain.last.clone();
            if ts == 0 || prev.as_ref().is_some_and(|m| m.ts() >= ts) {
                return Ok(());
            }
            let since = prev.as_ref().map_or(0, |m| m.ts());
            let dirty: HashSet<Segment> = chain
                .touched
                .iter()
                .filter(|(_, t)| **t > since)
                .map(|(s, _)| *s)
                .collect();
            (prev, dirty)
        };
        let _timer = self.metrics.snapshot_create_latency.start_timer();
        self.metrics.snapshot_creates.inc();
        let (bytes, manifest) =
            snapshot::encode(&graph, ts, prev.as_deref(), |s| dirty.contains(&s));
        // The relationship chunks this file holds inline, taken while the
        // graph is still the one encoded.
        let loan = snapshot::Loan::new(&manifest, &graph);
        drop(graph);
        let path = self.snap_dir.join(snapshot_name(ts));
        // Write through a handle and sync before the file joins the
        // snapshot set: no read loads it, and no later snapshot references
        // it, before it is durable. A crash can only leave a torn (deleted
        // at open) or absent file.
        let file = self.vfs.open(&path)?;
        file.set_len(0)?;
        file.write_all_at(&bytes, 0)?;
        file.sync_data()?;
        drop(file);
        {
            let mut state = self.state.lock();
            state.snapshots.insert(ts, bytes.len() as u64);
            state.ops_since_snapshot = 0;
        }
        // Loads can name this file's bytes from here on: they take the
        // chunks the latest graph still holds unchanged instead.
        self.segments.lend(loan);
        // Only a snapshot that made it becomes what the next one references;
        // a failure above leaves the chain as it was.
        {
            let mut chain = self.chain.lock();
            if chain.last.as_ref().is_none_or(|m| m.ts() < ts) {
                chain.last = Some(Arc::new(manifest));
            }
            chain.touched.retain(|_, t| *t > ts);
        }
        Ok(())
    }

    /// The latest committed timestamp.
    pub fn latest_ts(&self) -> Timestamp {
        self.state.lock().latest_ts
    }

    /// The latest graph, zero-copy.
    pub fn latest_graph(&self) -> Arc<Graph> {
        self.graphstore.latest().0
    }

    /// Direct access to the in-memory GraphStore.
    pub fn graphstore(&self) -> &GraphStore {
        &self.graphstore
    }

    /// `getDiff(start, end)`: every update with commit ts in `[start, end)`,
    /// in timestamp order — the primitive behind incremental execution.
    pub fn diff(&self, start: Timestamp, end: Timestamp) -> Result<Vec<TimestampedUpdate>> {
        let mut out = Vec::new();
        for entry in self.log.iter_ts(start, end) {
            out.extend(entry?.frame.to_updates());
        }
        Ok(out)
    }

    /// `getGraph` at a single point: the full graph as of `ts` (inclusive).
    ///
    /// A version a reader holds at exactly `ts` is the answer. Otherwise
    /// fetches the closest snapshot `≤ ts` from the GraphStore or disk,
    /// then replays forward log changes (Sec. 4.3). The graph built is
    /// registered in the GraphStore for as long as a reader holds it.
    pub fn snapshot_at(&self, ts: Timestamp) -> Result<Arc<Graph>> {
        if let Some(g) = self.graphstore.get(ts) {
            self.metrics.graphstore_hits.inc();
            return Ok(g);
        }
        self.metrics.graphstore_misses.inc();
        // Every commit at or before the latest timestamp is in the log:
        // the version at such a `ts` never changes, so readers may share
        // it. A later `ts` is not history yet.
        let settled = ts <= self.latest_ts();
        // Best base from memory or disk.
        let mem = self.graphstore.floor(ts);
        let disk = self
            .state
            .lock()
            .snapshots
            .range(..=ts)
            .next_back()
            .map(|(t, _)| *t);
        let (base_ts, mut graph): (Timestamp, Arc<Graph>) = match (mem, disk) {
            (Some((mts, g)), Some(disk_ts)) if mts >= disk_ts => (mts, g),
            (Some((mts, g)), None) => (mts, g),
            (mem, Some(disk_ts)) => match self.load_snapshot(disk_ts, &self.segments) {
                Ok((_, g)) => (disk_ts, Arc::new(g)),
                // A corrupt or missing snapshot file is recoverable: the
                // change log holds the full history. Prefer any older
                // in-memory base, else replay from the start.
                Err(_) => mem.unwrap_or_else(|| (0, Arc::new(Graph::new()))),
            },
            (None, None) => (0, Arc::new(Graph::new())),
        };
        if base_ts < ts {
            // Replay (base_ts, ts]. A base someone else holds is cloned
            // first, and the clone shares every chunk the replay does not
            // touch with it.
            let _timer = self.metrics.snapshot_replay_latency.start_timer();
            self.metrics.snapshot_replays.inc();
            let deltas = self.diff(base_ts.saturating_add(1), ts.saturating_add(1))?;
            if !deltas.is_empty() {
                let replayed = Arc::make_mut(&mut graph);
                for u in &deltas {
                    replayed.apply(&u.op)?;
                }
            }
        }
        if settled {
            self.graphstore.register(ts, &graph);
        }
        Ok(graph)
    }

    /// `getGraph(start, end, step)`: materializes snapshots every `step`
    /// time units over `[start, end)` with one base + incremental forward
    /// replay.
    pub fn graphs(
        &self,
        start: Timestamp,
        end: Timestamp,
        step: u64,
    ) -> Result<Vec<(Timestamp, Arc<Graph>)>> {
        if start >= end || step == 0 {
            return Err(GraphError::InvalidTimeRange);
        }
        let mut out = Vec::new();
        let mut current = (*self.snapshot_at(start)?).clone();
        out.push((start, Arc::new(current.clone())));
        let mut t = start;
        while t.saturating_add(step) < end {
            let next = t + step;
            for u in &self.diff(t + 1, next + 1)? {
                current.apply(&u.op)?;
            }
            out.push((next, Arc::new(current.clone())));
            t = next;
        }
        Ok(out)
    }

    /// `getWindow(start, end)`: the union graph of everything valid at some
    /// point in `[start, end)`. For each member entity the state is its
    /// latest within the window; relationships keep membership even when an
    /// endpoint was deleted mid-window only if both endpoints are members.
    pub fn window(&self, start: Timestamp, end: Timestamp) -> Result<Graph> {
        if start >= end {
            return Err(GraphError::InvalidTimeRange);
        }
        let tg = self.temporal_graph(start, end)?;
        let mut out = Graph::new();
        // Latest state of every node seen in the window.
        for chain in tg.nodes.values() {
            // temporal_graph never emits empty chains; skip defensively.
            let Some(last) = chain.last() else { continue };
            out.insert_node(last.data.clone())?;
        }
        for chain in tg.rels.values() {
            let Some(last) = chain.last() else { continue };
            let r = &last.data;
            // Dangling relationships (an endpoint never present in the
            // window) are pruned, mirroring Gradoop's verification join.
            if out.has_node(r.src) && out.has_node(r.tgt) {
                out.insert_rel(r.clone())?;
            }
        }
        Ok(out)
    }

    /// `getTemporalGraph(start, end)`: the full temporal LPG over
    /// `[start, end)` with per-entity version intervals.
    pub fn temporal_graph(&self, start: Timestamp, end: Timestamp) -> Result<TemporalGraph> {
        if start >= end {
            return Err(GraphError::InvalidTimeRange);
        }
        let base = self.snapshot_at(start)?;
        let updates = self.diff(start.saturating_add(1), end)?;
        Ok(TemporalGraph::build(
            &base,
            Interval::new(start, end),
            &updates,
        ))
    }

    /// The underlying commit log. Replication tails this directly with
    /// [`ChangeLog::iter_from`]; the log is append-only so concurrent
    /// readers see a consistent prefix.
    pub fn log(&self) -> &ChangeLog {
        &self.log
    }

    /// Footprint and ingest counters (Fig. 10).
    pub fn stats(&self) -> TimeStoreStats {
        let state = self.state.lock();
        TimeStoreStats {
            log_bytes: self.log.size_bytes(),
            snapshot_bytes: state.snapshots.values().sum(),
            snapshot_count: state.snapshots.len() as u64,
        }
    }

    /// The snapshot set's timestamps, ascending.
    pub(crate) fn snapshot_timestamps(&self) -> Vec<Timestamp> {
        self.state.lock().snapshots.keys().copied().collect()
    }

    /// Every repair [`TimeStore::open`] made to the directory: a torn log
    /// tail truncated, a snapshot file deleted, a floor snapshot that did
    /// not decode. Empty when the directory opened as it was last synced.
    pub fn repairs(&self) -> &[Finding] {
        &self.repairs
    }

    /// Makes the log durable, then records how far in
    /// `timestore.log.durable`.
    pub fn sync(&self) -> Result<()> {
        // Capture the end *before* the fsync: a frame appended while the
        // fsync is in flight is not covered by it and must not be marked
        // durable.
        let end = self.log.end_offset();
        self.log.sync()?;
        // Everything below `end` is now on disk; publish that to
        // in-process readers (replication ships only the durable prefix).
        // fetch_max keeps concurrent syncs from regressing the marker.
        self.durable_log_end.fetch_max(end, Ordering::AcqRel);
        // Record how far the log is now provably durable (log fsync above,
        // record made durable by its own fsync below, so it can trail the
        // log but never lead it). Read under the file's lock, the value a
        // write records never goes back.
        let file = self.durable_end_file.lock();
        let end = self.durable_log_end.load(Ordering::Acquire);
        let mut record = end.to_le_bytes().to_vec();
        record.extend_from_slice(&fnv64(&record).to_le_bytes());
        file.write_all_at(&record, 0)?;
        file.sync_data()?;
        Ok(())
    }

    /// How many log bytes the last successful [`TimeStore::sync`]
    /// provably fsynced. Log bytes past this point could still be lost
    /// in a crash, so replication must not ship them: a replica that
    /// durably applied (and acked) a commit the primary then forgot
    /// would silently diverge when recovery reuses the lost timestamps.
    pub fn durable_log_end(&self) -> u64 {
        self.durable_log_end.load(Ordering::Acquire)
    }
}
