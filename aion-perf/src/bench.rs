//! One benchmark process: the data, the system under test and the phases
//! run against it (set-up, output checks, traced pass, reopen, timed window,
//! durability check).

use crate::check::{check_durable, check_outputs, CheckOutcome};
use crate::dataset::{single_client_ops, Dataset, Op, Sizes, Workload};
use crate::report::Metrics;
use crate::span::{self_times_by_name, write_jsonl, Tracer};
use crate::stats::{median_us, quantile_sorted};
use crate::sut::{self, Sut, CLIENTS};
use crate::timed::run_window;
use crate::traced::traced_pass;
use crate::tracing_vfs::{IoCounts, TracingVfs};
use lpg::Graph;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use vfs::VfsRef;

pub struct Bench {
    pub sizes: Sizes,
    pub data: Dataset,
    sut: Option<Sut>,
    pub tracer: Arc<Tracer>,
    /// Set while the database runs on the counting file system.
    pub tvfs: Option<TracingVfs>,
    /// The latest graph by naive replay, with acknowledged writes applied.
    oracle: Graph,
    /// Index of the next unused write of the `mixed_rw` write sequence.
    pub next_write: u64,
    acked: Vec<Op>,
    pub setup_s: f64,
    pub disk_bytes_per_user_byte: f64,
    out: PathBuf,
}

fn db_dir(out: &Path, n: usize) -> PathBuf {
    out.join(format!("db-{}-{n}", std::process::id()))
}

impl Bench {
    /// Sets the data up. On plain `StdVfs` (`traced == false`) it does so
    /// `sizes.setups` times, each from nothing in a fresh directory, reports
    /// the lower decile of the times and keeps the last database. On the
    /// counting file system it sets up once.
    pub fn set_up(seed: u64, sizes: Sizes, out: &Path, traced: bool) -> Bench {
        std::fs::create_dir_all(out).expect("create the output directory");
        let tracer = Arc::new(Tracer::new());
        let tvfs = traced.then(|| TracingVfs::new(tracer.clone()));
        let repeats = if traced { 1 } else { sizes.setups.max(1) };
        let mut times = Vec::new();
        let mut kept: Option<(Dataset, Sut)> = None;
        for n in 0..repeats {
            if let Some((_, previous)) = kept.take() {
                let dir = previous.dir().to_path_buf();
                previous.close();
                let _ = std::fs::remove_dir_all(dir);
            }
            let vfs = tvfs.as_ref().map_or_else(VfsRef::std, TracingVfs::vfs_ref);
            let (data, sut, secs) = sut::setup(seed, &sizes, &db_dir(out, n), vfs);
            times.push(secs);
            kept = Some((data, sut));
        }
        let (data, sut) = kept.expect("at least one set-up ran");
        let disk = sut::dir_bytes(sut.dir());
        Bench {
            sizes,
            oracle: data.final_graph.clone(),
            disk_bytes_per_user_byte: disk as f64 / data.user_bytes as f64,
            data,
            sut: Some(sut),
            tracer,
            tvfs,
            next_write: 0,
            acked: Vec::new(),
            setup_s: {
                // The host only ever slows a set-up down (its fsyncs take
                // 0.2 ms or 15 ms): what it takes when left alone.
                times.sort_by(f64::total_cmp);
                quantile_sorted(&times, 0.1)
            },
            out: out.to_path_buf(),
        }
    }

    pub fn sut(&self) -> &Sut {
        self.sut.as_ref().expect("the database is open")
    }

    /// Records an acknowledged write: the durability check will look for it.
    pub fn acknowledge(&mut self, op: &Op) {
        if let Some(update) = op.as_update() {
            self.oracle
                .apply(&update)
                .expect("generated writes are valid");
        }
        self.acked.push(op.clone());
    }

    pub fn io_counts(&self) -> IoCounts {
        self.tvfs
            .as_ref()
            .map_or_else(IoCounts::default, TracingVfs::total)
    }

    /// File I/O on the TimeStore's change log only.
    pub fn log_io_counts(&self) -> IoCounts {
        self.tvfs.as_ref().map_or_else(IoCounts::default, |t| {
            t.total_where(|p| p.file_name().is_some_and(|n| n == "timestore.log"))
        })
    }

    /// Sizes the run header prints: data against caches.
    pub fn describe_sizes(&self) -> String {
        let sut = self.sut();
        let mut s = format!(
            "data: {} nodes, {} relationships, {} updates in {} commits, {} user bytes\n",
            self.data.node_count(),
            self.data.rel_created.len(),
            self.data.updates,
            self.data.commits.len(),
            self.data.user_bytes
        );
        for (name, bytes) in sut::dir_breakdown(sut.dir()) {
            s += &format!(
                "  on disk: {name:<14} {:>9.2} MiB\n",
                bytes as f64 / 1048576.0
            );
        }
        let pages = self.sizes.cache_pages;
        s += &format!(
            "caches: lineage {pages} pages ({} MiB), timestore index {pages} pages, GraphStore {:.1} MiB (final graph {:.1} MiB)\n",
            pages * 8192 / 1048576,
            sut::graphstore_bytes(&self.data) as f64 / 1048576.0,
            self.data.final_graph.heap_size() as f64 / 1048576.0,
        );
        s += &format!(
            "policy: fsync on every commit, snapshot every {} updates, chain threshold {}, closed-loop clients: 1 (read-only workloads) or {} (mixed_rw), hot set {} nodes + {} relationships\n",
            sut::SNAPSHOT_EVERY,
            sut::CHAIN_THRESHOLD,
            CLIENTS,
            self.data.hot_nodes.len(),
            self.data.hot_rels.len()
        );
        s
    }

    /// The first operations of `workload`, answered over the wire and
    /// compared with the oracle.
    pub fn check(&mut self, workload: Workload) -> CheckOutcome {
        let ops = single_client_ops(
            &self.data,
            workload,
            self.sizes.checked_ops[workload.index()],
            self.next_write,
        );
        let writes: Vec<Op> = ops.iter().filter(|o| o.kind.is_write()).cloned().collect();
        self.next_write += writes.len() as u64;
        let sut = self.sut.as_ref().expect("the database is open");
        let outcome = check_outputs(sut, &self.data, &ops, &mut self.oracle);
        // `check_outputs` applied the writes to the oracle already.
        self.acked.extend(writes);
        outcome
    }

    /// The traced pass of `workload` plus the live-store `diff` probe; the
    /// spans go to `out/trace-<workload>.jsonl`.
    pub fn traced(&mut self, workload: Workload) -> crate::traced::TracedPass {
        let mut pass = traced_pass(self, workload);
        let spans = self.tracer.drain();
        let path = self.out.join(format!("trace-{}.jsonl", workload.name()));
        write_jsonl(&path, &spans).expect("write the span dump");
        println!(
            "spans of {}: {} in {} (self = span minus covered children)",
            workload.name(),
            spans.len(),
            path.display()
        );
        for (name, selfs) in self_times_by_name(&spans) {
            println!(
                "  {name:<28} {:>8} spans, median self {:>10.2} us",
                selfs.len(),
                median_us(&selfs)
            );
        }
        pass.metrics
            .insert("timestore.diff_us_per_kupdate", self.diff_probe());
        pass
    }

    /// Workload-independent probes on scratch stores.
    pub fn probes(&self) -> Metrics {
        let budget = (self.sizes.edges / 5) as usize;
        crate::probes::run(
            &self.data,
            &self.out.join(format!("probe-{}", std::process::id())),
            self.sizes.cache_pages,
            budget,
        )
    }

    /// Microseconds `TimeStore::diff` takes per thousand updates returned,
    /// over five commits in the middle of history (fastest of three).
    fn diff_probe(&self) -> f64 {
        let commits = &self.data.commits;
        let mid = commits.len() / 2;
        let from = commits[mid.saturating_sub(2)].0;
        let to = commits[(mid + 2).min(commits.len() - 1)].0 + 1;
        let ts = self.sut().db.timestore();
        (0..3)
            .map(|_| {
                let began = Instant::now();
                let n = ts
                    .diff(from, to)
                    .expect("diff over generated history")
                    .len();
                began.elapsed().as_secs_f64() * 1e6 * 1000.0 / n.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Closes the database and the server and reopens them, on the counting
    /// file system or on plain `StdVfs`. Returns the seconds close plus
    /// reopen took.
    pub fn reopen(&mut self, traced: bool) -> f64 {
        let began = Instant::now();
        let mut cfg = self.sut.take().expect("the database is open").close();
        if !traced {
            self.tvfs = None;
        }
        cfg.vfs = self
            .tvfs
            .as_ref()
            .map_or_else(VfsRef::std, TracingVfs::vfs_ref);
        self.sut = Some(Sut::open(cfg));
        began.elapsed().as_secs_f64()
    }

    /// Warm-up plus measured window of `workload`, tracing off. Returns the
    /// window's `client.*` metrics with `peak_rss_mb`, and the operations
    /// attempted and failed.
    pub fn timed(&mut self, workload: Workload, seconds: f64) -> (Metrics, u64, u64) {
        assert!(!self.tracer.is_enabled(), "timed windows run untraced");
        assert!(self.tvfs.is_none(), "timed windows run on plain StdVfs");
        let w = run_window(
            self.sut.as_ref().expect("the database is open"),
            &self.data,
            workload,
            self.sizes.cycle_ops[workload.index()],
            self.sizes.warmup_s,
            seconds,
            self.next_write,
        );
        // Read before the statistics below make their copies of the samples.
        let peak_rss_mb = sut::peak_rss_mb();
        self.next_write += w.writes_issued;
        for op in &w.acked {
            self.acknowledge(op);
        }
        println!(
            "window of {}: {seconds:.1} s, {} read samples, {} write samples",
            workload.name(),
            w.reads.all.len(),
            w.writes.all.len()
        );
        let mut metrics = w.metrics();
        metrics.insert("peak_rss_mb", peak_rss_mb);
        (metrics, w.attempted, w.failed)
    }

    /// Closes and reopens the database and checks that every acknowledged
    /// write is there (`sync_on_commit` contract).
    pub fn durability(&mut self) -> CheckOutcome {
        let traced = self.tvfs.is_some();
        self.reopen(traced);
        let sut = self.sut.as_ref().expect("the database is open");
        check_durable(sut, &self.data, &self.acked, &mut self.oracle)
    }

    /// Stops the server, closes the database and removes its directory.
    pub fn finish(mut self) {
        if let Some(sut) = self.sut.take() {
            let dir = sut.dir().to_path_buf();
            sut.close();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
