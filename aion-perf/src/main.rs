//! `aion-perf`: the end-to-end and per-layer benchmark of the Aion
//! reproduction. See `README.md` for the metric catalogue and the workloads.
//!
//! ```text
//! aion-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! aion-perf all --seed <n> [--seconds <s>] [--smoke] [--json <file>]
//! aion-perf noise --seed <n> [--seconds <s>] [--smoke]
//! aion-perf compare <base.json> <change.json>
//! aion-perf ops --seed <n> [--smoke]
//! ```

mod bench;
mod check;
mod compare;
mod dataset;
mod json;
mod probes;
mod report;
mod span;
mod stats;
mod sut;
mod timed;
mod traced;
mod tracing_vfs;

use bench::Bench;
use check::CheckOutcome;
use dataset::{Sizes, Workload, FULL, SMOKE};
use report::{Metrics, RunResult, WorkloadResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The package directory: `cargo run` exports it; a binary started by hand
/// falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where databases, span dumps and noise results go; inside the checkout.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository has none.
fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn print_header(seed: u64, sizes: &Sizes, seconds: f64) {
    // The machine's processors, not this (pinned) process's.
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    println!(
        "aion-perf: seed {seed}, nproc {nproc}, load average {}, commit {}, {}",
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
        git_commit(),
        std::env::var(PINNED).map_or_else(
            |_| "not pinned (no taskset): expect noisier numbers".to_string(),
            |cpu| format!("pinned to CPU {cpu}, one malloc arena")
        )
    );
    println!(
        "windows: {:.1} s warm-up + {seconds:.1} s measured, {} set-ups per timed run, {:?} checked and {:?} traced operations per workload",
        sizes.warmup_s, sizes.setups, sizes.checked_ops, sizes.traced_ops
    );
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    json: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        json: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string());
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn add_check(result: &mut WorkloadResult, what: &str, outcome: &CheckOutcome) {
    println!(
        "check {what}: {} compared, {} wrong{}",
        outcome.attempted,
        outcome.wrong,
        outcome
            .first_mismatch
            .as_ref()
            .map_or(String::new(), |m| format!(" — first: {m}"))
    );
    result.attempted += outcome.attempted;
    result.failed += outcome.wrong;
}

/// One workload, the one way anything is measured here. `--trace 0` sets
/// up on plain `StdVfs` and reports the end-to-end metrics; `--trace 1` sets
/// up on the counting file system, runs the traced pass and the probes, and
/// reports the per-layer metrics. Both check the outputs first, then run
/// the untraced window on plain `StdVfs` (the per-layer `client.*` metrics
/// come from it), and check durability last. The last line printed is the
/// result line; the exit code is non-zero when anything failed.
fn run_driver(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> ExitCode {
    print_header(seed, &sizes, seconds);
    let mut bench = Bench::set_up(seed, sizes, &out_dir(), trace);
    print!("{}", bench.describe_sizes());
    println!("set-up: {:.3} s", bench.setup_s);
    let mut result = WorkloadResult::default();
    let mut measured = Metrics::new();
    if !trace {
        measured.insert("setup_s", bench.setup_s);
        measured.insert("disk_bytes_per_user_byte", bench.disk_bytes_per_user_byte);
    }
    let checked = bench.check(workload);
    add_check(&mut result, workload.name(), &checked);
    if trace {
        let pass = bench.traced(workload);
        result.attempted += pass.attempted;
        result.failed += pass.failed;
        measured.extend(pass.metrics);
        measured.extend(bench.probes());
        // Leaves the database on plain `StdVfs`, where the window runs.
        let untraced = traced::untraced_rate(&mut bench, workload);
        measured.insert("trace.overhead_frac", 1.0 - pass.ops_per_s / untraced);
    }
    let (window, attempted, failed) = bench.timed(workload, seconds);
    result.attempted += attempted;
    result.failed += failed;
    if !trace {
        // Per-layer metrics, which this run does not report: shown only.
        for d in &report::catalogue().per_layer {
            if let Some(value) = window.get(d.name.as_str()) {
                println!("  {:<40} {value:>16.4} {}", d.name, d.unit);
            }
        }
    }
    measured.extend(window);
    let durable = bench.durability();
    add_check(&mut result, "durability after reopen", &durable);
    bench.finish();
    result.set_metrics(&measured, trace);
    result.print(workload.name());
    println!("{}", result.driver_line(trace));
    if result.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs this program as the driver would, echoes what it prints and
/// returns its last line and whether it exited with 0.
fn run_child(args: &Args, workload: Workload, seconds: f64, trace: bool) -> (String, bool) {
    use std::io::BufRead;
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.arg("--workload").arg(workload.name());
    cmd.arg("--seed").arg(args.seed.to_string());
    cmd.arg("--seconds").arg(seconds.to_string());
    cmd.arg("--trace").arg(if trace { "1" } else { "0" });
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a driver run");
    let mut last = String::new();
    let stdout = child.stdout.take().expect("the pipe asked for");
    for line in std::io::BufReader::new(stdout).lines() {
        last = line.expect("the run's output is text");
        println!("{last}");
    }
    let status = child.wait().expect("wait for the run");
    (last, status.success())
}

/// Every workload in one invocation: per workload one `--trace 1` and one
/// `--trace 0` driver run, as child processes, their result lines merged.
fn run_all(args: &Args, seconds: f64) -> ExitCode {
    let mut run = RunResult {
        seed: args.seed,
        commit: git_commit(),
        ..Default::default()
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut result = WorkloadResult::default();
        for trace in [true, false] {
            let (line, ok) = run_child(args, w, seconds, trace);
            all_ok &= ok;
            if let Err(e) = result.merge_driver_line(&line, trace) {
                eprintln!("aion-perf: {} --trace {}: {e}", w.name(), u8::from(trace));
                return ExitCode::from(2);
            }
        }
        run.workloads.insert(w.name().to_string(), result);
    }
    if let Some(path) = &args.json {
        if let Err(e) = report::append_to_result_set(path, &run) {
            eprintln!("aion-perf: {e}");
            return ExitCode::from(2);
        }
        println!("appended this run to {}", path.display());
    }
    let failed: u64 = run.workloads.values().map(|w| w.failed).sum();
    if failed > 0 || !all_ok {
        println!("FAILED: {failed} operations failed or answered wrongly");
        return ExitCode::FAILURE;
    }
    println!("all output checks passed; failed_frac = 0 on every workload");
    ExitCode::SUCCESS
}

/// Runs `all` twice as child processes with the same seed and compares.
fn run_noise(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create the output directory");
    let mut sets = Vec::new();
    for name in ["noise-a.json", "noise-b.json"] {
        let path = out.join(name);
        let _ = std::fs::remove_file(&path);
        let mut cmd = Command::new(&exe);
        cmd.arg("all").arg("--seed").arg(args.seed.to_string());
        cmd.arg("--json").arg(&path);
        if let Some(s) = args.seconds {
            cmd.arg("--seconds").arg(s.to_string());
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().expect("run the benchmark");
        if !status.success() {
            eprintln!("aion-perf noise: a run failed ({status})");
            return ExitCode::FAILURE;
        }
        match report::read_result_set(&path) {
            Ok(mut runs) if runs.len() == 1 => sets.push(runs.remove(0)),
            Ok(_) => {
                eprintln!("aion-perf noise: {} does not hold one run", path.display());
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("aion-perf noise: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if compare::noise_report(&sets[0], &sets[1]) {
        println!("the two runs agree within the benchmark's bounds");
        ExitCode::SUCCESS
    } else {
        println!("the two runs DISAGREE");
        ExitCode::FAILURE
    }
}

/// Prints the first operations of every workload's list: what the program
/// under test is sent for this seed.
fn print_ops(seed: u64, sizes: &Sizes) -> ExitCode {
    let data = dataset::Dataset::generate(seed, sizes);
    for w in Workload::ALL {
        for op in dataset::single_client_ops(&data, w, 8, 0) {
            println!("{} {} {:?}", w.name(), op.text, op.params);
        }
    }
    ExitCode::SUCCESS
}

fn run_compare(files: &[PathBuf]) -> ExitCode {
    let [base, change] = files else {
        eprintln!("usage: aion-perf compare <base.json> <change.json>");
        return ExitCode::from(2);
    };
    match (
        report::read_result_set(base),
        report::read_result_set(change),
    ) {
        (Ok(b), Ok(c)) => {
            if compare::compare(&b, &c) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("aion-perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Set, to the CPU number, in the environment of a pinned rerun.
const PINNED: &str = "AION_PERF_PINNED";

/// Runs this same command again under `taskset`, pinned to the first CPU
/// this process may use and with one `malloc` arena, and returns its exit
/// code; `None` when already pinned or when `taskset` cannot be run.
///
/// Two closed-loop connections on two cores make four threads that hand
/// requests back and forth; where the scheduler happens to place them moves
/// throughput by a quarter from one run to the next. (Affinity cannot be set
/// from safe Rust, hence the helper program.) With glibc's per-thread
/// arenas, which thread's arena a graph happens to be built in moves the
/// peak resident set of `global_asof` between 257 and 322 MiB with one seed;
/// with one arena — all one CPU can use at a time — it is 177 to 186 MiB.
fn rerun_pinned() -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: String = allowed
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED, &cpu)
        .env("MALLOC_ARENA_MAX", "1")
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |c| c as u8)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aion-perf: {e}");
            return ExitCode::from(2);
        }
    };
    // Only a driver run measures; `all` and `noise` start driver runs.
    if args.command.is_none() && args.workload.is_some() {
        if let Some(code) = rerun_pinned() {
            return code;
        }
    }
    let sizes = if args.smoke { SMOKE } else { FULL };
    let default_seconds = if args.smoke { 2.0 } else { 15.0 };
    let seconds = args.seconds.unwrap_or(default_seconds);
    match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => match Workload::from_name(name) {
            Some(w) => run_driver(w, args.seed, seconds, args.trace, sizes),
            None => {
                eprintln!("aion-perf: unknown workload {name}");
                ExitCode::from(2)
            }
        },
        (Some("all"), None) => run_all(&args, seconds),
        (Some("noise"), None) => run_noise(&args),
        (Some("compare"), None) => run_compare(&args.files),
        (Some("ops"), None) => print_ops(args.seed, &sizes),
        _ => {
            eprintln!(
                "usage: aion-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       aion-perf all|noise --seed <n> [--seconds <s>] [--smoke] [--json <file>]\n       aion-perf compare <base.json> <change.json>\n       aion-perf ops --seed <n> [--smoke]"
            );
            ExitCode::from(2)
        }
    }
}
