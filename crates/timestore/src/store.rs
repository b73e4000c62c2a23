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
use crate::log::{ChangeLog, Payload};
use crate::policy::SnapshotPolicy;
use btree::Finding;
use encoding::snapshot::{self, Change, Decoded, Inline, Manifest, Segment, SharedSegments};
use lock::{Mutex, Rank};
use lpg::{
    EntityId, Graph, GraphError, Interval, Result, TemporalGraph, Timestamp, TimestampedUpdate,
    Update,
};
use std::collections::{BTreeMap, HashMap};
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
    /// Its footer matches, and it is of this format version, which this
    /// build does not read.
    Version(u8),
    /// Its footer, name or contents, or a range it references.
    Fault(snapshot::Fault),
}

/// The snapshot files' bytes by what they hold, read from their manifests
/// (Fig. 10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotBytes {
    /// Snapshot files read.
    pub files: u64,
    /// Their bytes.
    pub total: u64,
    /// What they hold inline, summed: node bases, patches and relationship
    /// segments.
    pub inline: Inline,
    /// The newest file's bytes that are no segment or patch: its header,
    /// manifest and footer. A file writes only the runs that changed, so
    /// this stays flat as the history grows.
    pub newest_manifest: u64,
    /// The newest file's runs: how many it holds inline, and how many it
    /// references.
    pub newest_runs: (u64, u64),
}

impl SnapshotBytes {
    /// The bytes that are no segment or patch: headers, manifests and
    /// footers.
    pub fn manifests(&self) -> u64 {
        self.total - self.inline.segment_bytes()
    }
}

impl std::fmt::Display for SnapshotBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = &self.inline;
        write!(
            f,
            "{} files, {} B: node bases {} B, patches {} B in {}, relationship segments {} B, \
             manifests {} B; the newest manifest {} B, runs {} inline and {} referenced",
            self.files,
            self.total,
            i.node_bytes,
            i.patch_bytes,
            i.patches,
            i.rel_bytes,
            self.manifests(),
            self.newest_manifest,
            self.newest_runs.0,
            self.newest_runs.1,
        )
    }
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
    patched_segments: Arc<obs::Counter>,
    snapshot_create_latency: Arc<obs::Histogram>,
    snapshot_replays: Arc<obs::Counter>,
    snapshot_replay_latency: Arc<obs::Histogram>,
    segments_decoded: Arc<obs::Counter>,
    segments_shared: Arc<obs::Counter>,
    graphstore_hits: Arc<obs::Counter>,
    graphstore_misses: Arc<obs::Counter>,
}

impl Metrics {
    fn new(registry: &obs::Registry) -> Metrics {
        Metrics {
            log_appends: registry.counter("timestore.log.appends"),
            snapshot_creates: registry.counter("timestore.snapshot.creates"),
            patched_segments: registry.counter("timestore.snapshot.patched_segments"),
            snapshot_create_latency: registry.histogram("timestore.snapshot.create.latency_ns"),
            snapshot_replays: registry.counter("timestore.snapshot.replays"),
            snapshot_replay_latency: registry.histogram("timestore.snapshot.replay.latency_ns"),
            segments_decoded: registry.counter("timestore.snapshot.segments_decoded"),
            segments_shared: registry.counter("timestore.snapshot.segments_shared"),
            graphstore_hits: registry.counter("timestore.graphstore.hits"),
            graphstore_misses: registry.counter("timestore.graphstore.misses"),
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
    /// For each node segment, the mask of the nodes an update named since
    /// the segment's base was last written whole ([`Segment::of_node`]):
    /// what its next patch lists. Exact in the same way: a node whose bit is
    /// clear has the state its segment's base in `last` holds.
    changed: HashMap<Segment, u64>,
}

impl Chain {
    /// Notes that the update `op` at `ts` changed its entity.
    fn note(&mut self, ts: Timestamp, op: &Update) {
        let entity = op.entity();
        self.touched.insert(Segment::of(entity), ts);
        if let EntityId::Node(id) = entity {
            let (segment, bit) = Segment::of_node(id);
            *self.changed.entry(segment).or_default() |= bit;
        }
    }
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
    /// What the store and its GraphStore count into.
    registry: Arc<obs::Registry>,
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
    ///
    /// The store counts into a registry of its own.
    pub fn open<P: AsRef<Path>>(dir: P, config: TimeStoreConfig) -> Result<TimeStore> {
        let registry = Arc::new(obs::Registry::scoped());
        TimeStore::open_in(dir.as_ref(), config, registry)
    }

    /// [`TimeStore::open`], counting into `registry`.
    pub fn open_in(
        dir: &Path,
        config: TimeStoreConfig,
        registry: Arc<obs::Registry>,
    ) -> Result<TimeStore> {
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
        let durable_end_file = Mutex::new(Rank::DurableEnd, vfs.open(&marker)?);
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
            graphstore: GraphStore::new(&registry),
            segments: SharedSegments::default(),
            snap_dir,
            policy: config.policy,
            state: Mutex::new(
                Rank::TimeStoreState,
                MutableState {
                    latest_ts: 0,
                    ops_since_snapshot: 0,
                    snapshots: BTreeMap::new(),
                },
            ),
            chain: Mutex::new(Rank::TimeStoreChain, Chain::default()),
            durable_log_end,
            metrics: Metrics::new(&registry),
            registry,
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
                    Err(LoadError::Version(v)) => Err(format!(
                        "version {v}, this build reads {}",
                        snapshot::VERSION
                    )),
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
            let mut chain = Chain::default();
            let (mut base_ts, mut graph) = (0, Graph::new());
            if let Some((manifest, bytes)) = floor {
                match self.decode_snapshot(&manifest, &bytes, &self.segments) {
                    Ok(decoded) => {
                        (base_ts, graph) = (manifest.ts(), decoded.graph);
                        // A node the floor's patches do not list has its
                        // base's state there.
                        chain.changed = decoded.patched.into_iter().collect();
                        // Resolved: the next file copies its runs.
                        chain.last = Some(Arc::new(decoded.manifest));
                    }
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
            // must not copy from it.
            if base_ts < latest_ts {
                let _timer = self.metrics.snapshot_replay_latency.start_timer();
                self.metrics.snapshot_replays.inc();
                self.replay(base_ts + 1, latest_ts.saturating_add(1), |ts, ops| {
                    for op in ops {
                        graph.apply(op)?;
                        chain.note(ts, op);
                    }
                    if ts > newest {
                        ops_since_snapshot += ops.len() as u64;
                    }
                    Ok(())
                })?;
            }
            self.graphstore.set_latest(graph, latest_ts);
            *self.chain.lock() = chain;
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
    /// A sealed file of another version is refused by its version.
    fn read_snapshot_file(
        &self,
        ts: Timestamp,
    ) -> std::result::Result<(Manifest, Vec<u8>), LoadError> {
        let bytes = self
            .vfs
            .read(&self.snap_dir.join(snapshot_name(ts)))
            .map_err(LoadError::Unreadable)?;
        match (snapshot::open(&bytes), snapshot::version(&bytes)) {
            (Some(manifest), _) if manifest.ts() == ts => Ok((manifest, bytes)),
            (None, Some(v)) if v != snapshot::VERSION => Err(LoadError::Version(v)),
            _ => Err(LoadError::Fault(snapshot::Fault::Corrupt)),
        }
    }

    /// Decodes a snapshot file read by [`Self::read_snapshot_file`]: reads
    /// the runs it references, then takes the relationship segments
    /// `shared` holds from there and fetches the other segments it
    /// references, each time with one read per stretch of nearby ranges of
    /// one file; each range read must match its sum.
    fn decode_snapshot(
        &self,
        manifest: &Manifest,
        bytes: &[u8],
        shared: &SharedSegments,
    ) -> std::result::Result<Decoded, snapshot::Fault> {
        // Extents come grouped by file: each source is opened once for its
        // runs and once for its segments.
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
        Ok(decoded)
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
        let decoded = self
            .decode_snapshot(&manifest, &bytes, shared)
            .map_err(LoadError::Fault)?;
        Ok((decoded.manifest, decoded.graph))
    }

    /// Ingests one committed transaction. Timestamps must be strictly
    /// increasing across commits ("no further changes are allowed on past
    /// updates").
    pub fn append_commit(&self, ts: Timestamp, updates: &[Update]) -> Result<()> {
        self.append_payload(ts, &Payload::records(updates), updates)
    }

    /// Ingests one committed transaction whose log payload is already
    /// encoded: `payload` holds `updates` at `ts` (see
    /// [`ChangeLog::append_payload`]). A batch that does not apply to the
    /// latest graph ([`GraphStore::check`]) is refused with its constraint
    /// error before anything reaches the log.
    pub fn append_payload(
        &self,
        ts: Timestamp,
        payload: &Payload,
        updates: &[Update],
    ) -> Result<()> {
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
        // Appends come from one thread (`aion`'s log writer), so the graph
        // checked here is the one the batch is applied to below.
        self.graphstore.check(updates)?;
        // The commit is in the log, and in its time index, from here on:
        // recovery replays it even if the snapshot write below fails, and
        // a reader that rebuilds the version at `latest_ts()` finds every
        // commit up to it. `latest_ts` is published whether or not a later
        // step fails, so a caller seeing an error can classify it:
        // `latest_ts() < ts` means the commit was refused cleanly (nothing
        // persisted, the same timestamp may be retried), `latest_ts() >=
        // ts` means the commit reached the log and its durability is
        // uncertain.
        self.log.append_payload(ts, payload)?;
        self.metrics.log_appends.inc();
        {
            let mut chain = self.chain.lock();
            for u in updates {
                chain.note(ts, u);
            }
        }
        // Returns whether a snapshot is due.
        let publish = || {
            let mut state = self.state.lock();
            state.latest_ts = ts;
            state.ops_since_snapshot += updates.len() as u64;
            self.policy.should_snapshot(state.ops_since_snapshot)
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
    /// update touched since, with its patch if it has one. A touched node
    /// segment the previous snapshot holds gets a patch listing every node
    /// changed since its base was written whole (see `encoding::snapshot`'s
    /// module doc), or is written whole when that patch would be more than
    /// half the base; every other touched segment is written whole. A run of
    /// 64 segments none of which was touched, joined or left is a copy of
    /// the previous snapshot's reference to it; the runs that hold a touched
    /// segment are written inline. The relationship chunks the file holds
    /// inline are lent to later loads, so a snapshot loaded from it shares
    /// them with the latest graph until a commit changes them.
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
            // What changed in each touched segment: in a node segment, the
            // nodes changed since its base.
            let dirty: HashMap<Segment, Change> = chain
                .touched
                .iter()
                .filter(|(_, t)| **t > since)
                .map(|(&s, _)| match s {
                    // Every update notes both maps, so a touched node
                    // segment has a mask; without one it is written whole.
                    Segment::Node(_) => {
                        let mask = chain.changed.get(&s).copied();
                        (s, mask.map_or(Change::Any, Change::Nodes))
                    }
                    Segment::Rel(_) => (s, Change::Any),
                })
                .collect();
            (prev, dirty)
        };
        let _timer = self.metrics.snapshot_create_latency.start_timer();
        self.metrics.snapshot_creates.inc();
        let change = |s| dirty.get(&s).copied().unwrap_or(Change::None);
        let (bytes, manifest) = snapshot::encode(&graph, ts, prev.as_deref(), change);
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
        self.metrics.patched_segments.add(manifest.inline().patches);
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
            // A node segment the newest file holds without a patch has that
            // file's base state there: it lists nothing until an update
            // touches it, unless one after ts already did (listing more is
            // harmless).
            let Chain {
                last,
                touched,
                changed,
            } = &mut *chain;
            if let Some(last) = last {
                changed.retain(|s, _| last.patched(*s) || touched.contains_key(s));
            }
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
            let frame = entry?.frame;
            let stamp = |op| TimestampedUpdate::new(frame.ts, op);
            out.extend(frame.updates().into_iter().map(stamp));
        }
        Ok(out)
    }

    /// Replays the commits with a timestamp in `[start, end)` in order:
    /// `apply(ts, updates)` runs once per commit, as its frame is read, so
    /// one frame is in memory at a time. The first error stops the replay
    /// and is returned.
    pub fn replay(
        &self,
        start: Timestamp,
        end: Timestamp,
        mut apply: impl FnMut(Timestamp, &[Update]) -> Result<()>,
    ) -> Result<()> {
        for entry in self.log.iter_ts(start, end) {
            let frame = entry?.frame;
            apply(frame.ts, &frame.updates())?;
        }
        Ok(())
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
            // when the first update arrives, and the clone shares every
            // chunk the replay does not touch with it; an empty range
            // clones nothing.
            let _timer = self.metrics.snapshot_replay_latency.start_timer();
            self.metrics.snapshot_replays.inc();
            self.replay(base_ts.saturating_add(1), ts.saturating_add(1), |_, ops| {
                ops.iter()
                    .try_for_each(|op| Arc::make_mut(&mut graph).apply(op))
            })?;
        }
        if settled {
            self.graphstore.register(ts, &graph);
        }
        Ok(graph)
    }

    /// `getGraph(start, end, step)`: the versions at `start`, `start +
    /// step`, … below `end`, one at a time, as one forward walk through
    /// history (Sec. 4.3). The first is [`TimeStore::snapshot_at`]`(start)`;
    /// each later one is the previous version with the log's commits in
    /// `(prev, ts]` applied, and comes with those commits as its diff (the
    /// first comes with none). The walk holds only the version it last
    /// yielded: when the caller has let go of it, the next one is made in
    /// place, otherwise from a copy-on-write clone that shares every chunk
    /// the diff does not touch. `start >= end` or a `step` of 0 is
    /// [`GraphError::InvalidTimeRange`].
    pub fn versions(&self, start: Timestamp, end: Timestamp, step: u64) -> Result<Versions<'_>> {
        if start >= end || step == 0 {
            return Err(GraphError::InvalidTimeRange);
        }
        Ok(Versions {
            store: self,
            next: Some(start),
            end,
            step,
            prev: None,
        })
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

    /// The registry the store counts into.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
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
            log_bytes: self.log.end_offset(),
            snapshot_bytes: state.snapshots.values().sum(),
            snapshot_count: state.snapshots.len() as u64,
        }
    }

    /// What the snapshot set's files hold, by kind. A file that does not
    /// read or open is left out: [`TimeStore::audit`] reports it.
    pub fn snapshot_bytes(&self) -> SnapshotBytes {
        let mut out = SnapshotBytes::default();
        for ts in self.snapshot_timestamps() {
            let Ok((manifest, bytes)) = self.read_snapshot_file(ts) else {
                continue;
            };
            let inline = manifest.inline();
            out.inline += inline;
            out.files += 1;
            out.total += bytes.len() as u64;
            out.newest_manifest = bytes.len() as u64 - inline.segment_bytes();
            out.newest_runs = manifest.runs();
        }
        out
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

/// The lazy walk [`TimeStore::versions`] returns: `(ts, graph as of ts,
/// the commits applied since the previous point)` per point. The first
/// error ends it.
pub struct Versions<'a> {
    store: &'a TimeStore,
    /// The next point; `None` once the walk is over.
    next: Option<Timestamp>,
    end: Timestamp,
    step: u64,
    /// The point last yielded and its graph.
    prev: Option<(Timestamp, Arc<Graph>)>,
}

impl Versions<'_> {
    fn version_at(&mut self, ts: Timestamp) -> Result<(Arc<Graph>, Vec<TimestampedUpdate>)> {
        let Some((prev_ts, mut graph)) = self.prev.take() else {
            return Ok((self.store.snapshot_at(ts)?, Vec::new()));
        };
        let diff = self.store.diff(prev_ts + 1, ts + 1)?;
        if !diff.is_empty() {
            Arc::make_mut(&mut graph).apply_all(diff.iter().map(|u| &u.op))?;
        }
        Ok((graph, diff))
    }
}

impl Iterator for Versions<'_> {
    type Item = Result<(Timestamp, Arc<Graph>, Vec<TimestampedUpdate>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let ts = self.next.filter(|ts| *ts < self.end)?;
        self.next = ts.checked_add(self.step);
        match self.version_at(ts) {
            Ok((graph, diff)) => {
                self.prev = Some((ts, Arc::clone(&graph)));
                Some(Ok((ts, graph, diff)))
            }
            Err(e) => {
                self.next = None;
                Some(Err(e))
            }
        }
    }
}
