//! Shared harness plumbing: workload construction, ingestion into every
//! system, and wall-clock timing.

use aion::{Aion, AionConfig};
use baselines::{GradoopLike, RaphtoryLike, TemporalBackend};
use lineagestore::LineageStoreConfig;
use std::path::Path;
use std::time::Instant;
use timestore::{SnapshotPolicy, TimeStoreConfig};
use workload::{datasets, generator, GeneratedWorkload};

/// Harness-wide knobs (from the `figures` CLI).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Target |E| per dataset after scaling (keeps every dataset tractable
    /// on the benchmark machine while preserving its |E|/|V| shape).
    pub target_edges: u64,
    /// Operations per point-query measurement.
    pub point_ops: usize,
    /// Runs per global-query measurement.
    pub snapshot_runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            target_edges: 20_000,
            point_ops: 5_000,
            snapshot_runs: 15,
            seed: 42,
        }
    }
}

impl BenchConfig {
    /// The Table 3 dataset scaled so |E| ≈ `target_edges`.
    pub fn spec(&self, name: &str) -> workload::Dataset {
        let d = datasets::by_name(name).expect("known dataset");
        let scale = self.target_edges as f64 / d.rels as f64;
        d.scaled(scale.min(1.0))
    }

    /// Generates the update stream for a dataset.
    pub fn workload(&self, name: &str) -> GeneratedWorkload {
        generator::generate(self.spec(name), self.seed)
    }
}

/// Simple wall-clock timer.
pub struct Timer(Instant);

impl Timer {
    /// Starts timing.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Operations per second for `ops` operations.
    pub fn ops_per_sec(&self, ops: usize) -> f64 {
        ops as f64 / self.secs().max(1e-9)
    }
}

/// Opens an Aion instance in `dir` tuned for benchmarking (synchronous
/// lineage so reads never race the cascade; snapshot every 5 k updates).
pub fn open_aion(dir: &Path, sync_lineage: bool) -> Aion {
    let mut cfg = AionConfig::new(dir);
    cfg.sync_lineage = sync_lineage;
    cfg.timestore = TimeStoreConfig {
        policy: SnapshotPolicy::EveryNOps(5_000),
        ..Default::default()
    };
    cfg.lineage = LineageStoreConfig {
        cache_pages: 4096,
        chain_threshold: Some(4),
        ..Default::default()
    };
    Aion::open(cfg).expect("open aion")
}

/// Ingests a workload into Aion in paper-style batches of 1000 updates.
///
/// Commits via [`Aion::write_at`] with each batch's last workload tick so
/// Aion's system-time domain matches the baselines' — random-timestamp
/// probes then hit the same history distribution in every system.
pub fn ingest_aion(db: &Aion, w: &GeneratedWorkload) {
    for (ts, ops) in w.batches(1_000) {
        db.write_at(ts, |txn| apply_batch(txn, &ops))
            .expect("ingest");
    }
    db.lineage_barrier(db.latest_ts());
}

fn apply_batch(txn: &mut aion::WriteTxn<'_>, batch: &[lpg::Update]) -> lpg::Result<()> {
    for op in batch {
        match op {
            lpg::Update::AddNode { id, labels, props } => {
                txn.add_node(*id, labels.clone(), props.clone())?
            }
            lpg::Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => txn.add_rel(*id, *src, *tgt, *label, props.clone())?,
            lpg::Update::DeleteRel { id } => txn.delete_rel(*id)?,
            lpg::Update::DeleteNode { id } => txn.delete_node(*id)?,
            lpg::Update::SetNodeProp { id, key, value } => {
                txn.set_node_prop(*id, *key, value.clone())?
            }
            lpg::Update::SetRelProp { id, key, value } => {
                txn.set_rel_prop(*id, *key, value.clone())?
            }
            lpg::Update::RemoveNodeProp { id, key } => txn.remove_node_prop(*id, *key)?,
            lpg::Update::RemoveRelProp { id, key } => txn.remove_rel_prop(*id, *key)?,
            lpg::Update::AddLabel { id, label } => txn.add_label(*id, *label)?,
            lpg::Update::RemoveLabel { id, label } => txn.remove_label(*id, *label)?,
        }
    }
    Ok(())
}

/// Ingests a workload into a baseline backend (stream-style, as Raphtory
/// and Gradoop ingest).
pub fn ingest_backend(backend: &mut dyn TemporalBackend, w: &GeneratedWorkload) {
    for u in &w.updates {
        backend.apply(u.ts, &u.op);
    }
}

/// Builds a Raphtory-like store from a workload.
pub fn build_raphtory(w: &GeneratedWorkload) -> RaphtoryLike {
    let mut r = RaphtoryLike::new();
    ingest_backend(&mut r, w);
    r
}

/// Builds a Gradoop-like store from a workload.
pub fn build_gradoop(w: &GeneratedWorkload) -> GradoopLike {
    let mut g = GradoopLike::new();
    ingest_backend(&mut g, w);
    g
}

/// Prints a header for one experiment.
pub fn banner(title: &str, note: &str) {
    println!("\n=== {title} ===");
    if !note.is_empty() {
        println!("{note}");
    }
}

/// Formats ops/s in the paper's 10^x conventions.
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M ops/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k ops/s", rate / 1e3)
    } else {
        format!("{rate:.1} ops/s")
    }
}
