//! The TimeStore facade: log + time index + snapshots + GraphStore.
//!
//! The paper indexes snapshots with a second B+Tree, `ts → snapshot file`
//! (Sec. 4.3). Here the snapshot directory is that index: each file is
//! named `snap_<ts>.aisnap`, open lists and checks every file anyway, and
//! the valid ones it finds are kept in memory as the store's snapshot set
//! (ts → file bytes), which every snapshot written joins once it is synced.
//! A floor lookup is a range over that set.

use crate::graphstore::GraphStore;
use crate::log::{ChangeLog, CommitFrame};
use crate::policy::SnapshotPolicy;
use btree::{BTree, Finding};
use encoding::keys;
use encoding::snapshot::{self, Manifest, Segment, SharedSegments};
use lpg::{
    Graph, GraphError, Interval, Result, TemporalGraph, Timestamp, TimestampedUpdate, Update,
    TS_MAX,
};
use pagestore::PageStore;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vfs::VfsRef;

/// Tuning knobs for a [`TimeStore`].
#[derive(Clone, Debug)]
pub struct TimeStoreConfig {
    /// Pages held by the index page cache.
    pub cache_pages: usize,
    /// Snapshot creation policy.
    pub policy: SnapshotPolicy,
    /// Byte budget of the in-memory GraphStore snapshot cache.
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
    /// Index file bytes (the time index).
    pub index_bytes: u64,
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
    pinned_hits: Arc<obs::Counter>,
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
            pinned_hits: obs::counter("timestore.snapshot.pinned_hits"),
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
    /// B+Tree: commit ts → log offset.
    pub(crate) time_index: BTree,
    pub(crate) index_store: Arc<PageStore>,
    graphstore: GraphStore,
    /// The relationship segments loaded graphs and the latest graph hold,
    /// so that a load shares them instead of decoding them again.
    segments: SharedSegments,
    pub(crate) snap_dir: PathBuf,
    policy: SnapshotPolicy,
    state: Mutex<MutableState>,
    chain: Mutex<Chain>,
    /// In-memory mirror of [`SLOT_DURABLE_LOG_END`]: how many log bytes
    /// the last successful [`TimeStore::sync`] provably fsynced.
    /// Replication ships only below this point — bytes past it could
    /// still be lost in a crash.
    durable_log_end: AtomicU64,
    metrics: Metrics,
    /// What `open` repaired; see [`TimeStore::repairs`].
    repairs: Vec<Finding>,
}

const SLOT_TIME_INDEX: usize = 0;
/// Root slot of the `ts → snapshot file` tree older versions kept. An
/// index file with it set is rebuilt from the log at open.
const SLOT_RETIRED: usize = 1;
/// Root slot recording how many log bytes were covered by the last
/// [`TimeStore::sync`]. Set *after* the log fsync and made durable by the
/// subsequent index fsync, so it never exceeds the durable log length; at
/// open it separates mid-log corruption (bad frame below it — hard error)
/// from a crash's torn tail (bad frame past it — truncated).
const SLOT_DURABLE_LOG_END: usize = 2;

impl TimeStore {
    /// Opens a TimeStore rooted at directory `dir`, recovering state from
    /// the log (the log is the source of truth; index tails are rebuilt).
    ///
    /// When the index page file fails checksum verification (or recovery
    /// through it fails), the index is deleted and rebuilt wholesale from
    /// the log — the slow path a crash mid-index-writeback leads to.
    ///
    /// Every repair made on the way is kept in [`TimeStore::repairs`]. What
    /// open wrote to the index is synced, so the next open does not repair
    /// it again.
    pub fn open<P: AsRef<Path>>(dir: P, config: TimeStoreConfig) -> Result<TimeStore> {
        let dir = dir.as_ref();
        config.vfs.create_dir_all(dir)?;
        config.vfs.create_dir_all(&dir.join("snapshots"))?;
        let mut repairs = Vec::new();
        let mut store = match Self::try_open(dir, &config, true, &mut repairs) {
            Ok(store) => store,
            // Corruption below the durable log end is diagnosed against a
            // checksum-verified index: real damage, not a crash artifact.
            // Wiping the index would discard the evidence and silently
            // truncate acknowledged commits — surface it instead. Every
            // other failure (torn index pages, stale index tail) is
            // recoverable by rebuilding the index from the log.
            Err(e @ GraphError::CorruptRecord(_)) if e.to_string().contains("durable end") => {
                return Err(e)
            }
            Err(e) => {
                let detail = format!("timestore.idx rebuilt from the log after: {e}");
                repairs.push(Finding::new("repair/time-index", detail));
                Self::try_open(dir, &config, false, &mut repairs)?
            }
        };
        store.repairs = repairs;
        Ok(store)
    }

    /// One attempt at opening: with `verify`, the index must match its
    /// checksum sidecar; without, it is deleted and rebuilt from the log.
    fn try_open(
        dir: &Path,
        config: &TimeStoreConfig,
        verify: bool,
        repairs: &mut Vec<Finding>,
    ) -> Result<TimeStore> {
        let vfs = config.vfs.clone();
        let snap_dir = dir.join("snapshots");
        let idx_path = dir.join("timestore.idx");
        if !verify {
            let _ = vfs.remove_file(&idx_path);
            let _ = vfs.remove_file(&PageStore::sums_path(&idx_path));
        }
        let index_store = Arc::new(PageStore::open_with_vfs(
            &vfs,
            &idx_path,
            config.cache_pages,
            verify,
        )?);
        if index_store.root(SLOT_RETIRED) != u64::MAX {
            return Err(GraphError::Storage(
                "timestore.idx was written by an older version: root slot 1 is set".into(),
            ));
        }
        let time_index = BTree::open(index_store.clone(), SLOT_TIME_INDEX)?;
        // The durable-end marker is only trustworthy when the index file
        // verified against its checksum sidecar (i.e. is exactly the image
        // of its last successful sync); otherwise fall back to
        // truncate-only torn-tail recovery.
        let durable_end = match index_store.root(SLOT_DURABLE_LOG_END) {
            _ if !verify => 0,
            u64::MAX => 0,
            end => end,
        };
        let log = ChangeLog::open_with_vfs(&vfs, &dir.join("timestore.log"), durable_end)?;
        if let Some((end, len)) = log.torn_tail() {
            let detail = format!("truncated a torn log tail at offset {end} of {len} bytes");
            repairs.push(Finding::new("repair/log-tail", detail));
        }
        // The marker can trail the surviving log (syncs are batched) but
        // never lead it; clamp defensively in case the file shrank.
        let durable_log_end = AtomicU64::new(durable_end.min(log.end_offset()));
        let store = TimeStore {
            vfs,
            log,
            time_index,
            index_store,
            graphstore: GraphStore::new(config.graphstore_bytes),
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
        // What open wrote to the index is synced now: left to the next
        // sync, a store closed before it would fail verification at the
        // next open and be rebuilt again.
        if store.recover(repairs)? || !verify {
            store.sync()?;
        }
        Ok(store)
    }

    /// Recovery: reindex any log frames missing from the time index (crash
    /// between log append and index flush), collect the snapshot set, then
    /// rebuild the latest graph. Each snapshot file it deletes and floor it
    /// cannot decode is reported in `repairs`. Returns whether it indexed
    /// any frame.
    fn recover(&self, repairs: &mut Vec<Finding>) -> Result<bool> {
        // Scan the log past the highest indexed frame (or from the start);
        // the last frame indexed or scanned is the latest commit.
        let mut latest_ts = 0;
        let mut scan_from = 0;
        if let Some((_, v)) = self.time_index.seek_floor(&keys::ts_key(TS_MAX))? {
            let (frame, next) = self.log.read_at(decode_u64(&v)?)?;
            (latest_ts, scan_from) = (frame.ts, next);
        }
        let mut indexed = false;
        for entry in self.log.iter_from(scan_from) {
            let entry = entry?;
            latest_ts = entry.frame.ts;
            self.time_index
                .insert(&keys::ts_key(latest_ts), &entry.offset.to_le_bytes())?;
            indexed = true;
        }
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
            // Built in place, not through `snapshot_at`: that caches what it
            // loads and replays, and nobody asked for those snapshots to be
            // resident. The floor is the last valid file.
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
        Ok(indexed)
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
        let offset = self.log.append(&frame)?;
        // The commit is in the log from here on: recovery replays it even
        // if the index insert or in-memory apply below fails. `latest_ts`
        // is published whether or not those steps fail, so a caller seeing
        // an error can classify it: `latest_ts() < ts` means the log
        // rejected the frame cleanly (nothing persisted, the same timestamp
        // may be retried), `latest_ts() >= ts` means the commit reached the
        // log and its durability is uncertain.
        self.metrics.log_appends.inc();
        {
            let mut chain = self.chain.lock();
            for u in updates {
                chain.touched.insert(Segment::of(u.entity()), ts);
            }
        }
        // Indexed before it is published, so a reader that rebuilds the
        // version at `latest_ts()` finds every commit up to it.
        let indexed = self
            .time_index
            .insert(&keys::ts_key(ts), &offset.to_le_bytes());
        // Returns whether a snapshot is due.
        let publish = || {
            let mut state = self.state.lock();
            state.latest_ts = ts;
            state.ops_since_snapshot += updates.len() as u64;
            let last_snapshot_ts = state.snapshots.last_key_value().map_or(0, |(t, _)| *t);
            self.policy
                .should_snapshot(state.ops_since_snapshot, last_snapshot_ts, ts)
        };
        let should_snapshot = match indexed {
            // Published under the GraphStore's lock, so a read that pins
            // the latest graph after seeing `ts` gets this commit applied.
            Ok(()) => self.graphstore.apply_commit(ts, updates, publish)?,
            Err(e) => {
                publish();
                return Err(e.into());
            }
        };
        if should_snapshot {
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
        // The latest graph is borrowed only while it is encoded, and not
        // parked in the GraphStore's cache (reads fill that on demand): an
        // `Arc` still alive at the next commit would make `apply_commit`
        // copy every chunk it touches.
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
        if start >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let scan = self
            .time_index
            .scan(&keys::ts_key(start), &keys::ts_key(end))?;
        for entry in scan {
            let (_, v) = entry?;
            let offset = decode_u64(&v)?;
            let (frame, _) = self.log.read_at(offset)?;
            out.extend(frame.to_updates());
        }
        Ok(out)
    }

    /// `getGraph` at a single point: the full graph as of `ts` (inclusive).
    ///
    /// A version a reader pinned at exactly `ts` and still holds is the
    /// answer. Otherwise fetches the closest snapshot `≤ ts` from the
    /// GraphStore or disk, then replays forward log changes (Sec. 4.3).
    pub fn snapshot_at(&self, ts: Timestamp) -> Result<Arc<Graph>> {
        if let Some(g) = self.graphstore.pinned(ts) {
            self.metrics.pinned_hits.inc();
            return Ok(g);
        }
        // Exact in-memory hit?
        if let Some(g) = self.graphstore.get(ts) {
            self.metrics.graphstore_hits.inc();
            return Ok(g);
        }
        self.metrics.graphstore_misses.inc();
        // Best base from memory or disk.
        let mem = self.graphstore.floor(ts);
        let disk = self
            .state
            .lock()
            .snapshots
            .range(..=ts)
            .next_back()
            .map(|(t, _)| *t);
        let (base_ts, base): (Timestamp, Arc<Graph>) = match (mem, disk) {
            (Some((mts, g)), Some(disk_ts)) if mts >= disk_ts => (mts, g),
            (Some((mts, g)), None) => (mts, g),
            (mem, Some(disk_ts)) => match self.load_snapshot(disk_ts, &self.segments) {
                Ok((_, g)) => {
                    let g = Arc::new(g);
                    self.graphstore.put(disk_ts, g.clone());
                    (disk_ts, g)
                }
                // A corrupt or missing snapshot file is recoverable: the
                // change log holds the full history. Prefer any older
                // in-memory base, else replay from the start.
                Err(_) => mem.unwrap_or_else(|| (0, Arc::new(Graph::new()))),
            },
            (None, None) => (0, Arc::new(Graph::new())),
        };
        if base_ts == ts {
            return Ok(base);
        }
        // Replay (base_ts, ts] on a clone: it shares every chunk the replay
        // does not touch with `base`.
        let _timer = self.metrics.snapshot_replay_latency.start_timer();
        self.metrics.snapshot_replays.inc();
        let deltas = self.diff(base_ts.saturating_add(1), ts.saturating_add(1))?;
        if deltas.is_empty() {
            return Ok(base);
        }
        let mut graph = (*base).clone();
        for u in &deltas {
            graph.apply(&u.op)?;
        }
        let graph = Arc::new(graph);
        self.graphstore.put(ts, graph.clone());
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
            index_bytes: self.index_store.size_bytes(),
            snapshot_bytes: state.snapshots.values().sum(),
            snapshot_count: state.snapshots.len() as u64,
        }
    }

    /// The snapshot set's timestamps, ascending.
    pub(crate) fn snapshot_timestamps(&self) -> Vec<Timestamp> {
        self.state.lock().snapshots.keys().copied().collect()
    }

    /// Every repair [`TimeStore::open`] made to the directory: a torn log
    /// tail truncated, an index rebuilt from the log, a snapshot file
    /// deleted, a floor snapshot that did not decode. Empty when the directory opened as it was last synced.
    pub fn repairs(&self) -> &[Finding] {
        &self.repairs
    }

    /// Flushes the time index and log to disk.
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
        // marker made durable by the index fsync below — the marker can
        // trail the log but never lead it).
        self.index_store.set_root(SLOT_DURABLE_LOG_END, end);
        self.index_store.sync()?;
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

fn decode_u64(v: &[u8]) -> Result<u64> {
    v.try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| GraphError::Storage("bad index value".into()))
}
