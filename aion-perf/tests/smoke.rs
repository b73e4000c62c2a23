//! Drives the built binary in `--smoke` mode (small data, 2 s windows, small
//! traced counts) and checks that what it prints is exactly what
//! `BENCHMARK.json` declares: no metric or workload missing, none extra.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn benchmark() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn units(list: &Json) -> BTreeMap<String, String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_aion-perf"))
        .args(args)
        .output()
        .expect("run aion-perf");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "aion-perf {args:?} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `== <workload>: <section> (…) ==` headers and the `  name value unit`
/// lines under them, as `(workload, section) → {name → unit}`.
fn printed_sections(stdout: &str) -> BTreeMap<(String, String), BTreeMap<String, String>> {
    let mut sections = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            let (workload, rest) = header.split_once(": ").expect("workload: section");
            let section = if rest.starts_with("end to end") {
                "end_to_end"
            } else {
                "per_layer"
            };
            current = Some((workload.to_string(), section.to_string()));
            sections.insert(current.clone().unwrap(), BTreeMap::new());
        } else if let (Some(key), Some(body)) = (&current, line.strip_prefix("  ")) {
            let mut words = body.split_whitespace();
            if let (Some(name), Some(value), Some(unit)) =
                (words.next(), words.next(), words.next())
            {
                value.parse::<f64>().expect("a metric value");
                sections
                    .get_mut(key)
                    .unwrap()
                    .insert(name.to_string(), unit.to_string());
            }
        } else {
            current = None;
        }
    }
    sections
}

#[test]
fn benchmark_json_meets_the_contract() {
    let b = benchmark();
    let keys: BTreeSet<&str> = b.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        // The contract allows a quarter; the issue fixes a tenth, and only
        // `setup_s` (which the contract gives the largest bound) has more.
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let most = if name == "setup_s" { 0.25 } else { 0.1 };
        assert!(bound > 0.0 && bound <= most, "{name}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let per_layer = b.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<String> = names(b.get("workloads").unwrap())
        .into_iter()
        .chain(names(b.get("end_to_end").unwrap()))
        .chain(names(b.get("per_layer").unwrap()))
        .collect();
    assert_eq!(
        all.len(),
        all.iter().collect::<BTreeSet<_>>().len(),
        "a name is used once"
    );
}

#[test]
fn all_prints_exactly_the_declared_names() {
    let b = benchmark();
    let stdout = run(&["all", "--smoke", "--seed", "11"]);
    assert!(
        stdout.contains("nproc") && stdout.contains("load average") && stdout.contains("commit")
    );
    assert!(stdout.contains("all output checks passed"));
    let sections = printed_sections(&stdout);
    let mut e2e = units(b.get("end_to_end").unwrap());
    e2e.insert("failed_frac".into(), "frac".into());
    let per_layer = units(b.get("per_layer").unwrap());
    let mut seen = BTreeSet::new();
    for ((workload, section), printed) in &sections {
        seen.insert(workload.clone());
        let declared = if section == "end_to_end" {
            &e2e
        } else {
            &per_layer
        };
        assert_eq!(printed, declared, "{workload} {section}");
    }
    assert_eq!(seen, names(b.get("workloads").unwrap()));
    assert_eq!(
        sections.len(),
        2 * seen.len(),
        "both sections for every workload"
    );
}

#[test]
fn driver_mode_prints_the_result_line() {
    let b = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "12",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        let line = Json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        let keys: BTreeSet<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            BTreeSet::from(["correct", "attempted", "failed", "metrics"])
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: BTreeMap<String, String> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(printed, units(b.get(list).unwrap()), "--trace {trace}");
    }
}

#[test]
fn a_different_seed_changes_the_inputs_not_the_names() {
    let ops = |seed: &str| -> Vec<String> {
        run(&["ops", "--seed", seed, "--smoke"])
            .lines()
            .map(str::to_string)
            .collect()
    };
    let (a, again, b) = (ops("3"), ops("3"), ops("4"));
    assert_eq!(a, again, "the same seed gives the same inputs");
    assert_ne!(a, b, "another seed gives other inputs");
    let workloads = |lines: &[String]| -> BTreeSet<String> {
        lines
            .iter()
            .filter_map(|l| l.split_whitespace().next().map(str::to_string))
            .collect()
    };
    assert_eq!(workloads(&a), workloads(&b));
    assert_eq!(workloads(&a), names(benchmark().get("workloads").unwrap()));
}
