//! `aion-fsck` — offline consistency checker for an Aion data directory.
//!
//! ```text
//! aion-fsck check <dir> [--level quick|full] [--metrics]
//! aion-fsck gen <dir> [--scale F] [--seed N] [--metrics]
//! ```
//!
//! `--metrics` prints the process-wide metrics registry in Prometheus
//! text exposition format after the run — CI smoke tests parse it to
//! assert the storage layers actually recorded work.
//!
//! `<dir>` is an Aion data directory: `<dir>/timestore/` (change log, its
//! durable-end record, snapshots) and `<dir>/lineage.db` (the four history
//! indexes).
//!
//! `quick` verifies the structure of the lineage file. `full`, the
//! default, adds the TimeStore's audit and compares `lineage.db` with its
//! rebuild from the log up to its watermark, written beside it as
//! `lineage.db.rebuild` and deleted afterwards; the rebuild uses the chain
//! threshold `lineage.db` recorded, whatever the default is.
//! Exit status: 0 = clean, 1 = violations found, 2 = usage or IO error.
//! Opening the TimeStore may repair the directory (truncate a torn log
//! tail, delete a snapshot file that does not verify);
//! `check` reports each such repair as a `timestore repair/…` violation,
//! since the damage it mended is gone by the time the audit runs.
//!
//! The `gen` subcommand drives the two stores directly (not through the
//! `aion` facade — the checker must not depend on the system under test)
//! with a scaled Table 3 workload plus property churn and deletions, so CI
//! can round-trip "generate, then fsck" on a fresh database.

use check::{check_stores, CheckLevel, Subsystem};
use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::{NodeId, PropertyValue, StrId, Update};
use std::process::ExitCode;
use timestore::{TimeStore, TimeStoreConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("gen") => run_gen(&args[1..]),
        _ => {
            eprintln!(
                "usage: aion-fsck check <dir> [--level quick|full] [--metrics]\n       aion-fsck gen <dir> [--scale F] [--seed N] [--metrics]"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses `--flag value` pairs after the positional directory argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Prints the metrics registry as Prometheus text exposition when the
/// `--metrics` flag is present.
fn maybe_print_metrics(args: &[String]) {
    if args.iter().any(|a| a == "--metrics") {
        print!("{}", obs::snapshot().to_prometheus());
    }
}

fn open_stores(dir: &std::path::Path) -> Result<(TimeStore, LineageStore), lpg::GraphError> {
    let ts = TimeStore::open(dir.join("timestore"), TimeStoreConfig::default())?;
    let ls = LineageStore::open(dir.join("lineage.db"), LineageStoreConfig::default())?;
    Ok((ts, ls))
}

fn run_check(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("aion-fsck check: missing <dir>");
        return ExitCode::from(2);
    };
    let level = match flag_value(args, "--level") {
        None => CheckLevel::Full,
        Some(s) => match CheckLevel::parse(s) {
            Some(l) => l,
            None => {
                eprintln!("aion-fsck check: unknown level {s:?} (quick|full)");
                return ExitCode::from(2);
            }
        },
    };
    // Opening a store creates missing files, so a typo'd path would
    // otherwise audit a freshly created empty database as "clean".
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("aion-fsck check: no such database directory: {dir}");
        return ExitCode::from(2);
    }
    let (ts, ls) = match open_stores(std::path::Path::new(dir)) {
        Ok(stores) => stores,
        Err(e) => {
            eprintln!("aion-fsck: cannot open {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    match check_stores(&ts, &ls, level) {
        Ok(mut report) => {
            let repairs = ts
                .repairs()
                .iter()
                .map(|f| (Subsystem::TimeStore, f.clone()));
            report.findings.splice(0..0, repairs);
            print!("{report}");
            maybe_print_metrics(args);
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("aion-fsck: audit aborted: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_gen(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("aion-fsck gen: missing <dir>");
        return ExitCode::from(2);
    };
    let scale: f64 = match flag_value(args, "--scale").unwrap_or("0.001").parse() {
        Ok(s) if f64::is_finite(s) && s > 0.0 => s,
        _ => {
            eprintln!("aion-fsck gen: --scale must be a positive number");
            return ExitCode::from(2);
        }
    };
    let seed: u64 = match flag_value(args, "--seed").unwrap_or("42").parse() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("aion-fsck gen: --seed must be an integer");
            return ExitCode::from(2);
        }
    };
    match generate_db(std::path::Path::new(dir), scale, seed) {
        Ok((commits, max_ts)) => {
            println!("generated {commits} commit(s) up to ts {max_ts} in {dir}");
            maybe_print_metrics(args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aion-fsck gen: {e}");
            ExitCode::from(2)
        }
    }
}

/// Builds a workload database by driving both stores in lock-step: the
/// scaled dataset stream, then property churn (exercising delta chains and
/// materialization) and relationship deletions (exercising tombstones and
/// neighbour-index updates).
fn generate_db(
    dir: &std::path::Path,
    scale: f64,
    seed: u64,
) -> Result<(u64, u64), lpg::GraphError> {
    std::fs::create_dir_all(dir)?;
    let (ts, ls) = open_stores(dir)?;
    let dataset = workload::DATASETS[0].scaled(scale);
    let generated = workload::generate(dataset, seed);
    let mut commits = 0u64;
    // Updates sharing a timestamp form one commit (append_commit requires
    // strictly increasing timestamps).
    let mut i = 0;
    while i < generated.updates.len() {
        let batch_ts = generated.updates[i].ts;
        let mut batch = Vec::new();
        while i < generated.updates.len() && generated.updates[i].ts == batch_ts {
            batch.push(generated.updates[i].op.clone());
            i += 1;
        }
        ts.append_commit(batch_ts, &batch)?;
        ls.apply_commit(batch_ts, &batch)?;
        commits += 1;
    }
    let weight = StrId::new(2);
    let mut t = generated.max_ts;
    // Property churn: long chains on a handful of nodes cross the
    // materialization threshold several times.
    for round in 0..10u64 {
        for node in 0..generated.node_count.min(8) {
            t += 1;
            let op = Update::SetNodeProp {
                id: NodeId::new(node),
                key: weight,
                value: PropertyValue::Int((round * 100 + node) as i64),
            };
            ts.append_commit(t, std::slice::from_ref(&op))?;
            ls.apply_commit(t, std::slice::from_ref(&op))?;
            commits += 1;
        }
    }
    // Deletions: every 7th relationship gets a tombstone.
    for rel in generated.rel_ids.iter().step_by(7) {
        t += 1;
        let op = Update::DeleteRel { id: *rel };
        ts.append_commit(t, std::slice::from_ref(&op))?;
        ls.apply_commit(t, std::slice::from_ref(&op))?;
        commits += 1;
    }
    ts.write_snapshot()?;
    // Read back a few historical points: this exercises snapshot replay,
    // the GraphStore's registry and lineage expansion, so a `--metrics` run
    // reports the read path of every layer, not just ingest.
    let mid = ts.snapshot_at(t / 2)?;
    let latest = ts.snapshot_at(t)?;
    if latest.node(NodeId::new(0)).is_none() || mid.node(NodeId::new(0)).is_none() {
        return Err(lpg::GraphError::Storage(
            "generated database lost node 0".into(),
        ));
    }
    match ls.expand(NodeId::new(0), lpg::Direction::Both, 2, t) {
        Ok(_) | Err(lpg::GraphError::NodeNotFound(_)) => {}
        Err(e) => return Err(e),
    }
    ts.sync()?;
    ls.sync()?;
    Ok((commits, t))
}
