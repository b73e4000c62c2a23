//! `figures` — regenerates every table and figure of the paper's
//! evaluation (Sec. 6) at a configurable scale.
//!
//! Usage is [`aion_bench::cli::USAGE`]; a bad flag value or an unknown
//! experiment prints it and exits 2.
//!
//! With `--metrics-dir DIR`, the harness drops one
//! `BENCH_<experiment>_metrics.json` sidecar per experiment: the
//! process-wide metrics snapshot (cumulative across the run, so diff
//! successive sidecars for per-experiment deltas).

use aion_bench::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli::FiguresArgs {
        cfg,
        experiments,
        metrics_dir,
    } = match cli::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    println!(
        "aion-bench: target |E| = {}, point ops = {}, snapshot runs = {}, seed = {}",
        cfg.target_edges, cfg.point_ops, cfg.snapshot_runs, cfg.seed
    );
    for exp in experiments {
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
            other => unreachable!("parse_args accepted unknown experiment {other}"),
        }
        if let Some(dir) = &metrics_dir {
            write_metrics_sidecar(dir, &exp);
        }
    }
    ExitCode::SUCCESS
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
