//! Fig. 10 — on-disk storage footprint: the base store versus the two
//! temporal stores.
//!
//! Paper shape: relative to the full Neo4j footprint (data + indexes +
//! transaction logs), Aion's hybrid store adds 29–41 %, roughly a quarter
//! of which is serialized snapshots — despite indexing every update twice,
//! thanks to the variable-size record format.

use crate::common::{banner, ingest_aion, open_aion, BenchConfig};
use btree::TreeFill;
use encoding::LogRecord;
use tempfile::tempdir;
use timestore::SnapshotBytes;

/// Datasets measured.
pub const DATASETS: [&str; 4] = ["DBLP", "WikiTalk", "Pokec", "LiveJournal"];

/// One measured row (bytes).
pub struct StorageRow {
    /// Dataset name.
    pub dataset: String,
    /// TimeStore bytes (log + snapshots).
    pub timestore: u64,
    /// The snapshot files' share of `timestore`, by what they hold.
    pub snapshots: SnapshotBytes,
    /// LineageStore bytes (four B+Tree indexes).
    pub lineagestore: u64,
    /// Pages, leaves and leaf fill of each LineageStore index.
    pub indexes: Vec<(&'static str, TreeFill)>,
    /// The user bytes: every input update as its log record encodes it
    /// (`disk_bytes_per_user_byte`'s denominator in `aion-perf`).
    pub base: u64,
    /// Both stores' bytes per user byte.
    pub overhead: f64,
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) -> Vec<StorageRow> {
    banner(
        "Fig. 10 — storage footprint of the temporal stores",
        "paper: +29-41% over the full Neo4j footprint; log dominates, ~25% snapshots",
    );
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>14} {:>12} {:>10} {:>14} {:>12} {:>10}",
        "dataset",
        "user (KiB)",
        "TimeStore",
        "snapshots",
        "LineageStore",
        "total",
        "overhead",
        "snap: nodes",
        "rels",
        "manifests"
    );
    let mut out = Vec::new();
    for name in DATASETS {
        let w = cfg.workload(name);
        let dir = tempdir().expect("tempdir");
        let db = open_aion(dir.path(), true);
        ingest_aion(&db, &w);
        db.sync().expect("sync");

        let ts_stats = db.timestore().stats();
        let timestore = ts_stats.log_bytes + ts_stats.snapshot_bytes;
        let lineagestore = db.lineagestore().size_bytes();
        let indexes = db.lineagestore().audit().expect("audit").fill;
        // The yardstick is what the user wrote, not anything the stores
        // write: a change to the snapshot format then moves the overhead
        // alone.
        let base: u64 = w
            .updates
            .iter()
            .map(|u| {
                let mut buf = Vec::new();
                LogRecord::from_update(u.ts, &u.op).encode(&mut buf);
                buf.len() as u64
            })
            .sum();
        let overhead = (timestore + lineagestore) as f64 / base as f64;
        // The snapshot bytes by what they are: node segments (bases and
        // patches), relationship segments, and the rest — manifests,
        // headers and footers.
        let snapshots = db.timestore().snapshot_bytes();
        assert_eq!(snapshots.total, ts_stats.snapshot_bytes, "every file opens");
        let nodes = snapshots.inline.node_bytes + snapshots.inline.patch_bytes;
        let kib = |bytes: u64| format!("{} KiB", bytes / 1024);
        println!(
            "{:<12} {:>12} {:>14} {:>14} {:>14} {:>12} {:>9.1}x {:>14} {:>12} {:>10}",
            name,
            base / 1024,
            kib(timestore),
            kib(ts_stats.snapshot_bytes),
            kib(lineagestore),
            kib(timestore + lineagestore),
            overhead,
            kib(nodes),
            kib(snapshots.inline.rel_bytes),
            kib(snapshots.manifests()),
        );
        // The LineageStore bytes by index.
        for (index, fill) in &indexes {
            println!("{:<12}   LineageStore {index}: {fill}", "");
        }
        out.push(StorageRow {
            dataset: name.to_string(),
            timestore,
            snapshots,
            lineagestore,
            indexes,
            base,
            overhead,
        });
    }
    println!(
        "(overhead = (TimeStore + LineageStore) / user bytes, the updates as their\n\
         log records encode them; the paper's +29-41% is against the full Neo4j\n\
         footprint incl. retained txn logs, so the two are not the same ratio)"
    );
    out
}
