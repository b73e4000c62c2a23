//! Write-path throughput under group commit (Fig. 13-style).
//!
//! Measures durable commit throughput through the full `Aion` write path
//! (`sync_on_commit`: every acknowledgement implies an fsync) in two
//! configurations:
//!
//! * **single_writer** — one thread, zero latency budget: every commit is
//!   its own group, so throughput is bounded by one fsync per commit.
//! * **group_N_writers** — N concurrent committers with a small latency
//!   budget: the log-writer thread coalesces them, and N commits share
//!   one fsync.
//!
//! Two ratios are reported:
//!
//! * `commits_per_fsync` — histogram `core.group_commit.size` sum/count
//!   delta: ~1.0 single-writer, approaching N for the group run. This is
//!   the direct evidence that group commit coalesces.
//! * `rel_throughput` — durable commits/sec relative to the
//!   single-writer run. How much of the coalescing turns into end-to-end
//!   throughput depends on how expensive fsync is on the machine, so the
//!   ratio is only comparable between runs on the same machine.

use crate::common::banner;
use aion::{Aion, AionConfig};
use lpg::NodeId;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;

/// Knobs for the write-throughput experiment. Separate from
/// [`crate::BenchConfig`]: this experiment drives the commit pipeline,
/// not the dataset-shaped read workloads.
#[derive(Clone, Debug)]
pub struct WriteThroughputConfig {
    /// Total commits per configuration (split evenly across writers).
    pub commits: u64,
    /// Concurrent committers in the group run.
    pub writers: u64,
    /// Seed spread into node ids so runs do not collide.
    pub seed: u64,
    /// Latency budget for the group run, in microseconds.
    pub budget_us: u64,
}

impl Default for WriteThroughputConfig {
    fn default() -> Self {
        WriteThroughputConfig {
            commits: 2_000,
            writers: 8,
            seed: 7,
            budget_us: 500,
        }
    }
}

/// One measured configuration.
pub struct WriteRow {
    /// Configuration name: `single_writer` or `group_<N>_writers`.
    pub metric: String,
    /// Mean commits per durability point (fsync) — histogram delta.
    pub commits_per_fsync: f64,
    /// Durable commits/sec relative to the single-writer run.
    pub rel_throughput: f64,
    /// Absolute durable commits/sec (machine-specific).
    pub commits_per_sec: f64,
}

/// Runs `commits` durable commits across `writers` threads and returns
/// `(elapsed_secs, fsync_groups, grouped_commits)`; the last two are the
/// database's `core.group_commit.size` histogram.
fn run_writers(cfg: &WriteThroughputConfig, writers: u64, budget: Duration) -> (f64, u64, u64) {
    let dir = tempdir().expect("tempdir");
    let mut acfg = AionConfig::new(dir.path());
    acfg.sync_on_commit = true;
    acfg.commit_latency_budget = budget;
    let db = Arc::new(Aion::open(acfg).expect("open"));

    let per_writer = cfg.commits / writers;
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            let base = cfg.seed * 1_000_000_000 + w * 1_000_000;
            std::thread::spawn(move || {
                for i in 0..per_writer {
                    db.write(|txn| txn.add_node(NodeId::new(base + i), vec![], vec![]))
                        .expect("durable commit");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let groups = db.metrics().histogram("core.group_commit.size").cloned();
    groups.map_or((elapsed, 0, 0), |h| (elapsed, h.count, h.sum))
}

/// Runs the experiment.
pub fn run(cfg: &WriteThroughputConfig) -> Vec<WriteRow> {
    banner(
        "Write throughput — group commit vs per-commit fsync",
        "one fsync per group: commits_per_fsync ~1 single-writer, >1 grouped",
    );
    println!(
        "{:<18} {:>16} {:>16} {:>14}",
        "config", "commits/fsync", "rel throughput", "commits/sec"
    );

    let (single_secs, single_groups, single_commits) = run_writers(cfg, 1, Duration::ZERO);
    let single_rate = single_commits as f64 / single_secs.max(1e-9);
    let single = WriteRow {
        metric: "single_writer".to_string(),
        commits_per_fsync: single_commits as f64 / (single_groups.max(1)) as f64,
        rel_throughput: 1.0,
        commits_per_sec: single_rate,
    };

    let budget = Duration::from_micros(cfg.budget_us);
    let (group_secs, group_groups, group_commits) = run_writers(cfg, cfg.writers, budget);
    let group_rate = group_commits as f64 / group_secs.max(1e-9);
    let group = WriteRow {
        metric: format!("group_{}_writers", cfg.writers),
        commits_per_fsync: group_commits as f64 / (group_groups.max(1)) as f64,
        rel_throughput: group_rate / single_rate.max(1e-9),
        commits_per_sec: group_rate,
    };

    let rows = vec![single, group];
    for r in &rows {
        println!(
            "{:<18} {:>16.2} {:>16.2} {:>14.0}",
            r.metric, r.commits_per_fsync, r.rel_throughput, r.commits_per_sec
        );
    }
    println!("(rel throughput: 1.0 = the single-writer per-commit-fsync run)");
    rows
}
