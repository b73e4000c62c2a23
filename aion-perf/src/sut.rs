//! The system under test: one `Aion` on a directory with the paper's
//! defaults, served by an in-process `Server` over loopback.

use crate::dataset::{Dataset, Sizes, INTERNED};
use aion::{Aion, AionConfig};
use aion_server::{Client, Server, ServerConfig};
use lineagestore::LineageStoreConfig;
use lpg::Update;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use timestore::{SnapshotPolicy, TimeStoreConfig};
use vfs::VfsRef;

/// Updates between TimeStore snapshots.
pub const SNAPSHOT_EVERY: u64 = 5000;
/// Delta-chain length at which the LineageStore materialises an entity.
pub const CHAIN_THRESHOLD: u32 = 4;
/// Closed-loop client connections of `mixed_rw`'s window, a writer and a
/// reader. The read-only workloads use one (see `timed`).
pub const CLIENTS: usize = 2;

/// GraphStore budget: three times the final graph. Snapshots grow linearly
/// with history, so the mean one is about half the final graph and the
/// budget holds about six of the roughly two dozen on disk, a quarter.
pub fn graphstore_bytes(data: &Dataset) -> usize {
    3 * data.final_graph.heap_size()
}

/// The paper's defaults with caches deliberately smaller than the data.
pub fn config(dir: &Path, sizes: &Sizes, graphstore_bytes: usize, vfs: VfsRef) -> AionConfig {
    let mut cfg = AionConfig::new(dir);
    cfg.sync_on_commit = true;
    cfg.vfs = vfs;
    cfg.timestore = TimeStoreConfig {
        cache_pages: sizes.cache_pages,
        policy: SnapshotPolicy::EveryNOps(SNAPSHOT_EVERY),
        graphstore_bytes,
        ..Default::default()
    };
    cfg.lineage = LineageStoreConfig {
        cache_pages: sizes.cache_pages,
        chain_threshold: Some(CHAIN_THRESHOLD),
        ..Default::default()
    };
    cfg
}

/// An open database and its server.
pub struct Sut {
    pub db: Arc<Aion>,
    pub server: Server,
    cfg: AionConfig,
}

impl Sut {
    /// Opens (or reopens) the database and starts serving it.
    pub fn open(cfg: AionConfig) -> Sut {
        let db = Arc::new(Aion::open(cfg.clone()).expect("open the database"));
        for name in INTERNED {
            db.intern(name);
        }
        let server = Server::start_with(
            db.clone(),
            ServerConfig {
                slow_log_per_sec: 0,
                ..Default::default()
            },
        )
        .expect("start the server");
        Sut { db, server, cfg }
    }

    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.server.addr()).expect("connect over loopback")
    }

    /// Ingests the generated history commit by commit, waits for the
    /// LineageStore to catch up and flushes everything.
    pub fn ingest(&self, data: &Dataset) {
        for (ts, ops) in &data.commits {
            self.db
                .write_at(*ts, |txn| {
                    for op in ops {
                        match op {
                            Update::AddNode { id, labels, props } => {
                                txn.add_node(*id, labels.clone(), props.clone())?
                            }
                            Update::AddRel {
                                id,
                                src,
                                tgt,
                                label,
                                props,
                            } => txn.add_rel(*id, *src, *tgt, *label, props.clone())?,
                            Update::SetNodeProp { id, key, value } => {
                                txn.set_node_prop(*id, *key, value.clone())?
                            }
                            other => unreachable!("the generator emits no {other:?}"),
                        }
                    }
                    Ok(())
                })
                .expect("ingest a generated commit");
        }
        self.db.lineage_barrier(self.db.latest_ts());
        self.db.sync().expect("flush after ingest");
    }

    /// A clean shutdown: stops the server, flushes both stores and closes the
    /// database. Returns its configuration for a reopen. (Without the flush
    /// the next open finds the LineageStore's pages newer than its checksum
    /// sidecar and rebuilds it from the log — crash recovery, not a reopen.)
    pub fn close(self) -> AionConfig {
        let Sut {
            db,
            mut server,
            cfg,
        } = self;
        server.shutdown();
        drop(server);
        db.lineage_barrier(db.latest_ts());
        db.sync().expect("flush at close");
        let db =
            Arc::try_unwrap(db).unwrap_or_else(|_| panic!("the database is still shared at close"));
        drop(db);
        cfg
    }
}

/// One complete set-up: generate the data, open a fresh database in `dir`,
/// ingest, wait for the cascade, flush and start the server. Returns the
/// seconds all of that took.
pub fn setup(seed: u64, sizes: &Sizes, dir: &Path, vfs: VfsRef) -> (Dataset, Sut, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let data = Dataset::generate(seed, sizes);
    let sut = Sut::open(config(dir, sizes, graphstore_bytes(&data), vfs));
    sut.ingest(&data);
    let secs = start.elapsed().as_secs_f64();
    (data, sut, secs)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes per top-level entry of the data directory, for the size report.
pub fn dir_breakdown(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let path: PathBuf = e.path();
            let bytes = if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            };
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    out.sort();
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
