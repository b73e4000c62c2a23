//! `figures` — regenerates every table and figure of the paper's
//! evaluation (Sec. 6) at a configurable scale.
//!
//! ```text
//! figures <experiment|all> [--edges N] [--ops N] [--runs N] [--seed N]
//!         [--metrics-dir DIR]
//!
//! experiments: table3 table4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!              fig14 writes ablations ids
//! ```
//!
//! With `--metrics-dir DIR`, the harness drops one
//! `BENCH_<experiment>_metrics.json` sidecar per experiment: the
//! process-wide metrics snapshot (cumulative across the run, so diff
//! successive sidecars for per-experiment deltas).

use aion_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    let mut which: Vec<String> = Vec::new();
    let mut metrics_dir: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--edges" => {
                cfg.target_edges = args[i + 1].parse().expect("--edges N");
                i += 2;
            }
            "--ops" => {
                cfg.point_ops = args[i + 1].parse().expect("--ops N");
                i += 2;
            }
            "--runs" => {
                cfg.snapshot_runs = args[i + 1].parse().expect("--runs N");
                i += 2;
            }
            "--seed" => {
                cfg.seed = args[i + 1].parse().expect("--seed N");
                i += 2;
            }
            "--metrics-dir" => {
                metrics_dir = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            other => {
                which.push(other.to_lowercase());
                i += 1;
            }
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = vec![
            "table3".into(),
            "table4".into(),
            "fig6".into(),
            "fig7".into(),
            "fig8".into(),
            "fig9".into(),
            "fig10".into(),
            "fig11".into(),
            "fig12".into(),
            "fig13".into(),
            "fig14".into(),
            "writes".into(),
            "ablations".into(),
            "ids".into(),
        ];
    }
    println!(
        "aion-bench: target |E| = {}, point ops = {}, snapshot runs = {}, seed = {}",
        cfg.target_edges, cfg.point_ops, cfg.snapshot_runs, cfg.seed
    );
    for exp in which {
        match exp.as_str() {
            "table3" => {
                table3_datasets::run(&cfg);
            }
            "table4" => {
                table4_complexity::run(&cfg);
            }
            "fig6" => {
                fig06_point_queries::run(&cfg);
            }
            "fig7" => {
                fig07_snapshots::run(&cfg);
            }
            "fig8" => {
                fig08_nhop::run(&cfg);
            }
            "fig9" => {
                fig09_ingest::run(&cfg);
            }
            "fig10" => {
                fig10_storage::run(&cfg);
            }
            "fig11" => {
                fig11_materialize::run(&cfg);
            }
            "fig12" => {
                fig12_incremental::run(&cfg);
            }
            "fig13" => {
                fig13_bolt::run(&cfg);
            }
            "fig14" => {
                fig14_procedures::run(&cfg);
            }
            "writes" => {
                write_throughput::run(&write_throughput::WriteThroughputConfig {
                    seed: cfg.seed,
                    ..Default::default()
                });
            }
            "ablations" => {
                ablations::run(&cfg);
            }
            "ids" => {
                graph_ids::run(&cfg);
            }
            other => {
                eprintln!("unknown experiment: {other}");
                continue;
            }
        }
        if let Some(dir) = &metrics_dir {
            write_metrics_sidecar(dir, &exp);
        }
    }
}

/// Dumps the cumulative metrics snapshot next to the experiment output so
/// perf investigations can correlate figures with storage-layer behaviour
/// (cache hit rates, replay counts, commit latency) without a rerun.
fn write_metrics_sidecar(dir: &std::path::Path, exp: &str) {
    let path = dir.join(format!("BENCH_{exp}_metrics.json"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, obs::snapshot().to_json()))
    {
        eprintln!("aion-bench: cannot write {}: {e}", path.display());
    } else {
        println!("metrics sidecar: {}", path.display());
    }
}
