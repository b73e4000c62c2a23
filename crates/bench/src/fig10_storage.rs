//! Fig. 10 — on-disk storage footprint: the base store versus the two
//! temporal stores.
//!
//! Paper shape: relative to the full Neo4j footprint (data + indexes +
//! transaction logs), Aion's hybrid store adds 29–41 %, roughly a quarter
//! of which is serialized snapshots — despite indexing every update twice,
//! thanks to the variable-size record format.

use crate::common::{banner, ingest_aion, open_aion, BenchConfig};
use tempfile::tempdir;

/// Datasets measured.
pub const DATASETS: [&str; 4] = ["DBLP", "WikiTalk", "Pokec", "LiveJournal"];

/// One measured row (bytes).
pub struct StorageRow {
    /// Dataset name.
    pub dataset: String,
    /// TimeStore bytes (log + index + snapshots).
    pub timestore: u64,
    /// The snapshot files' share of `timestore`.
    pub snapshots: u64,
    /// LineageStore bytes (four B+Tree indexes).
    pub lineagestore: u64,
    /// Base graph bytes (the snapshot-file equivalent of the data).
    pub base: u64,
    /// Temporal overhead relative to base.
    pub overhead: f64,
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) -> Vec<StorageRow> {
    banner(
        "Fig. 10 — storage footprint of the temporal stores",
        "paper: +29-41% over the full Neo4j footprint; log dominates, ~25% snapshots",
    );
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>14} {:>12} {:>10}",
        "dataset", "base (KiB)", "TimeStore", "snapshots", "LineageStore", "total", "overhead"
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
        // Base cost: one serialized snapshot of the final graph — the
        // "graph data" a non-temporal store must hold anyway. The paper's
        // Neo4j baseline additionally keeps indexes and retained txn logs
        // (6-9× the raw data), which makes its reported relative overhead
        // smaller; we report against raw data, the conservative comparison.
        let base = encoding::snapshot::encode(&db.latest_graph(), 1, None, |_| true)
            .0
            .len() as u64;
        let overhead = (timestore + lineagestore) as f64 / base as f64;
        println!(
            "{:<12} {:>12} {:>14} {:>14} {:>14} {:>12} {:>9.1}x",
            name,
            base / 1024,
            format!("{} KiB", timestore / 1024),
            format!("{} KiB", ts_stats.snapshot_bytes / 1024),
            format!("{} KiB", lineagestore / 1024),
            format!("{} KiB", (timestore + lineagestore) / 1024),
            overhead,
        );
        out.push(StorageRow {
            dataset: name.to_string(),
            timestore,
            snapshots: ts_stats.snapshot_bytes,
            lineagestore,
            base,
            overhead,
        });
    }
    println!(
        "(paper's +29-41% is vs the FULL Neo4j footprint incl. retained txn logs,\n\
         i.e. 6-9x the raw data; against raw data the same hybrid store measures\n\
         a few x, dominated by the no-retention change log — same shape as here)"
    );
    out
}
