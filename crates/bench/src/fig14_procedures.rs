//! Fig. 14 — incremental speedups when invoked as *temporal procedures*
//! (the server-side path with dedicated worker state, Sec. 6.7).
//!
//! Compared to Fig. 12, the procedure path removes repeated query
//! compilation and task scheduling, so the paper measures even higher
//! speedups: AVG 9–61×, BFS 3.5–12×. In this reproduction both paths are
//! the temporal procedures (`proc_avg_series`, `proc_bfs_series`) over one
//! forward walk through history: the procedure path keeps its engine state
//! across the series and feeds it each diff, the classic path recomputes
//! on every version. Embedded calls compile no query either, so this is
//! Fig. 12's measurement at exactly 10 and 100 points.

use crate::common::{banner, ingest_aion, open_aion, BenchConfig, Timer};
use aion::procedures::ExecMode;
use lpg::StrId;
use tempfile::tempdir;

/// Datasets measured.
pub const DATASETS: [&str; 4] = ["DBLP", "WikiTalk", "Pokec", "LiveJournal"];

/// One measured row.
pub struct ProcRow {
    /// Dataset.
    pub dataset: String,
    /// Algorithm label.
    pub algo: &'static str,
    /// Snapshot count.
    pub snapshots: usize,
    /// Speedup over classic recomputation.
    pub speedup: f64,
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) -> Vec<ProcRow> {
    banner(
        "Fig. 14 — incremental speedup via temporal procedures",
        "paper: AVG 9-61x, BFS 3.5-12x (higher than Fig. 12: no per-query overheads)",
    );
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "dataset/algo(snaps)", "classic(s)", "proc(s)", "speedup"
    );
    let weight = StrId::new(2);
    let mut out = Vec::new();
    for name in DATASETS {
        let w = cfg.workload(name);
        let dir = tempdir().expect("tempdir");
        let db = open_aion(dir.path(), true);
        ingest_aion(&db, &w);
        let half = w.max_ts / 2;
        for snapshots in [10usize, 100] {
            let step = ((w.max_ts + 1 - half) / snapshots as u64).max(1);
            // Exactly `snapshots` points (fewer if history ends first).
            let end = (half + snapshots as u64 * step).min(w.max_ts + 1);

            // Classic re-scans every version; the procedure keeps a
            // running aggregate.
            let t = Timer::start();
            db.proc_avg_series(weight, half, end, step, ExecMode::Classic)
                .expect("avg classic");
            let classic_s = t.secs();
            let t = Timer::start();
            db.proc_avg_series(weight, half, end, step, ExecMode::Incremental)
                .expect("avg procedure");
            let proc_s = t.secs();
            report(&mut out, name, "AVG", snapshots, classic_s, proc_s);

            let src = lpg::NodeId::new(0);
            let t = Timer::start();
            db.proc_bfs_series(src, half, end, step, ExecMode::Classic)
                .expect("bfs classic");
            let classic_s = t.secs();
            let t = Timer::start();
            db.proc_bfs_series(src, half, end, step, ExecMode::Incremental)
                .expect("bfs procedure");
            let proc_s = t.secs();
            report(&mut out, name, "BFS", snapshots, classic_s, proc_s);
        }
    }
    out
}

fn report(
    out: &mut Vec<ProcRow>,
    dataset: &str,
    algo: &'static str,
    snapshots: usize,
    classic_s: f64,
    proc_s: f64,
) {
    let speedup = classic_s / proc_s.max(1e-9);
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>9.1}x",
        format!("{dataset}/{algo}({snapshots})"),
        classic_s,
        proc_s,
        speedup
    );
    out.push(ProcRow {
        dataset: dataset.to_string(),
        algo,
        snapshots,
        speedup,
    });
}
