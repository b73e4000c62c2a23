//! `cargo xtask analyze` — the workspace invariant gate.
//!
//! Thin CLI over the [`analyze`] crate (crates/analyze), which lexes and
//! structurally parses every workspace source and runs the rule registry
//! (vfs-bypass, lock-order, budget-loops, panic-freedom,
//! unsafe-inventory, manifest-lints). See DESIGN.md §12.
//!
//! Exit codes: 0 clean, 1 findings, 2 analyzer error (I/O, malformed
//! allow file).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    match cmd.as_str() {
        "analyze" => analyze_cmd(args.collect()),
        "" | "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n");
            print!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  analyze   run the workspace invariant analyzer
            --json           machine-readable output
            --list           print the rule catalogue and exit
            --rule <id>      run only this rule (repeatable)
            --root <dir>     analyze a different tree (testing)
  help      show this message
";

fn analyze_cmd(args: Vec<String>) -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut only: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--rule" => match it.next() {
                Some(r) => only.push(r),
                None => return flag_err("--rule needs a rule id"),
            },
            "--root" => match it.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return flag_err("--root needs a directory"),
            },
            other => return flag_err(&format!("unknown flag `{other}`")),
        }
    }

    if list {
        for (id, desc) in analyze::catalogue() {
            println!("{id:<18} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(workspace_root);
    let cfg = analyze::Config { root, only };
    match analyze::run(&cfg) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag_err(msg: &str) -> ExitCode {
    eprintln!("xtask analyze: {msg}\n");
    print!("{USAGE}");
    ExitCode::from(2)
}

/// The workspace root: parent of this crate's manifest dir.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}
