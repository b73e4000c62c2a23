//! Fig. 9 — ingestion overhead of the temporal stores, normalized to a
//! plain (non-temporal) baseline.
//!
//! Paper shape: synchronously updating both stores (TS+LS) costs ~40 % of
//! throughput; LineageStore alone is the expensive part (composite-key
//! B+Trees); TimeStore alone costs < 15 % — which is why production Aion
//! updates TimeStore synchronously and LineageStore in the background.

use crate::common::{banner, BenchConfig, Timer};
use baselines::{ClassicStore, TemporalBackend};
use lineagestore::{LineageStore, LineageStoreConfig};
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};

/// Datasets measured.
pub const DATASETS: [&str; 4] = ["DBLP", "WikiTalk", "Pokec", "LiveJournal"];

/// One measured row of normalized throughputs (baseline = 1.0).
pub struct IngestRow {
    /// Dataset name.
    pub dataset: String,
    /// TimeStore + LineageStore, both synchronous.
    pub ts_ls: f64,
    /// LineageStore only.
    pub ls_only: f64,
    /// TimeStore only.
    pub ts_only: f64,
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) -> Vec<IngestRow> {
    banner(
        "Fig. 9 — ingestion overhead (normalized to non-temporal baseline)",
        "paper: TS+LS ~0.6, LS-only ~0.6-0.7, TS-only >0.85",
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10}   (paper: ~0.60 ~0.65 ~0.87)",
        "dataset", "TS+LS", "LS only", "TS only"
    );
    let mut out = Vec::new();
    for name in DATASETS {
        let w = cfg.workload(name);
        let batches: Vec<(u64, Vec<lpg::Update>)> = w.batches(1_000).collect();

        // Baseline: latest-only store plus a write-ahead log — a plain
        // transactional store is durable too, so its ingestion includes a
        // per-commit log append (like Neo4j's transaction log).
        let base_dir = tempdir().expect("tempdir");
        let wal = timestore::ChangeLog::open(base_dir.path().join("wal.log")).expect("wal");
        let mut classic = ClassicStore::new();
        let t = Timer::start();
        for (ts, ops) in &batches {
            wal.append(&timestore::CommitFrame::from_updates(*ts, ops))
                .expect("wal append");
            for op in ops {
                classic.apply(*ts, op);
            }
        }
        let base_rate = t.ops_per_sec(w.updates.len());

        // TimeStore only.
        let dir = tempdir().expect("tempdir");
        let ts_store = TimeStore::open(
            dir.path().join("ts"),
            TimeStoreConfig {
                policy: SnapshotPolicy::EveryNOps(5_000),
                ..Default::default()
            },
        )
        .expect("open");
        let t = Timer::start();
        for (ts, ops) in &batches {
            ts_store.append_commit(*ts, ops).expect("append");
        }
        let ts_rate = t.ops_per_sec(w.updates.len());

        // LineageStore only.
        let ls_store = LineageStore::open(
            dir.path().join("ls.db"),
            LineageStoreConfig {
                cache_pages: 4096,
                chain_threshold: Some(4),
                ..Default::default()
            },
        )
        .expect("open");
        let t = Timer::start();
        for (ts, ops) in &batches {
            ls_store.apply_commit(*ts, ops).expect("apply");
        }
        let ls_rate = t.ops_per_sec(w.updates.len());

        // Both, synchronously (the Fig. 9 TS+LS configuration).
        let dir2 = tempdir().expect("tempdir");
        let ts2 = TimeStore::open(
            dir2.path().join("ts"),
            TimeStoreConfig {
                policy: SnapshotPolicy::EveryNOps(5_000),
                ..Default::default()
            },
        )
        .expect("open");
        let ls2 = LineageStore::open(
            dir2.path().join("ls.db"),
            LineageStoreConfig {
                cache_pages: 4096,
                chain_threshold: Some(4),
                ..Default::default()
            },
        )
        .expect("open");
        let t = Timer::start();
        for (ts, ops) in &batches {
            ts2.append_commit(*ts, ops).expect("append");
            ls2.apply_commit(*ts, ops).expect("apply");
        }
        let both_rate = t.ops_per_sec(w.updates.len());

        let row = IngestRow {
            dataset: name.to_string(),
            ts_ls: both_rate / base_rate,
            ls_only: ls_rate / base_rate,
            ts_only: ts_rate / base_rate,
        };
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2}",
            name, row.ts_ls, row.ls_only, row.ts_only
        );
        out.push(row);
    }
    println!("(normalized: 1.0 = plain non-temporal ingestion)");
    out
}
