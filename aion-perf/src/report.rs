//! The metric catalogue (read from `BENCHMARK.json`), result records, and how
//! they are printed and stored.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

/// Metric values by name, as the phases of a run produce them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// The share of the parent's median by which the metric may worsen;
    /// end-to-end metrics have one, per-layer metrics do not.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares: the one place names, units, directions
/// and bounds are written down.
pub struct Catalogue {
    /// What a user of the system sees; measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Single layers, from the traced pass, the probes and the window.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(benchmark: &Json, list: &str) -> Vec<MetricDef> {
    let text = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a metric of {list} lacks {key}"))
            .to_string()
    };
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The embedded `BENCHMARK.json`, parsed once.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let b = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        Catalogue {
            end_to_end: metric_defs(&b, "end_to_end"),
            per_layer: metric_defs(&b, "per_layer"),
        }
    })
}

/// Counts that depend only on the seed on a read-only workload (one client,
/// traced pass straight after set-up): two runs must agree exactly.
pub const DETERMINISTIC_COUNTS: &[&str] = &[
    "server.protocol.req_bytes_per_op",
    "server.protocol.resp_bytes_per_op",
    "query.rows_per_op",
    "lineagestore.expand.fanout_per_op",
    "btree.page_reads_per_op",
    "btree.overflow_walks_per_op",
    "pagestore.cache.hit_frac",
    "pagestore.cache.misses_per_op",
    "pagestore.cache.evictions_per_op",
    "vfs.read_calls_per_op",
    "vfs.read_bytes_per_op",
];

/// What one workload produced: in one driver run (one of the two sections
/// filled) or in one run of `all` (both).
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// The values of the metrics `defs` declares; every one must have been
/// measured.
fn declared(defs: &[MetricDef], measured: &Metrics) -> BTreeMap<String, f64> {
    defs.iter()
        .map(|d| {
            let value = measured
                .get(d.name.as_str())
                .unwrap_or_else(|| panic!("{} was not measured", d.name));
            (d.name.clone(), *value)
        })
        .collect()
}

impl WorkloadResult {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Files what a driver run measured under the section it reports:
    /// `--trace 1` the per-layer metrics, `--trace 0` the end-to-end ones.
    /// A measured name that `BENCHMARK.json` does not declare is a bug here.
    pub fn set_metrics(&mut self, measured: &Metrics, trace: bool) {
        let c = catalogue();
        for name in measured.keys() {
            assert!(
                c.end_to_end
                    .iter()
                    .chain(&c.per_layer)
                    .any(|d| d.name == *name),
                "{name} is measured but not declared in BENCHMARK.json"
            );
        }
        if trace {
            self.per_layer = declared(&c.per_layer, measured);
        } else {
            self.end_to_end = declared(&c.end_to_end, measured);
        }
    }

    /// Prints whichever sections are filled, one metric per line with its
    /// unit.
    pub fn print(&self, workload: &str) {
        let c = catalogue();
        let section = |defs: &[MetricDef], values: &BTreeMap<String, f64>| {
            for d in defs {
                println!("  {:<40} {:>16.4} {}", d.name, values[&d.name], d.unit);
            }
        };
        if !self.end_to_end.is_empty() {
            println!("== {workload}: end to end (tracing off) ==");
            section(&c.end_to_end, &self.end_to_end);
            println!(
                "  {:<40} {:>16.6} frac ({} of {} attempted)",
                "failed_frac",
                self.failed_frac(),
                self.failed,
                self.attempted
            );
        }
        if !self.per_layer.is_empty() {
            println!("== {workload}: per layer (traced pass with one client, probes, untraced window) ==");
            section(&c.per_layer, &self.per_layer);
        }
    }

    fn to_json(&self) -> Json {
        let nums = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
        };
        Json::obj([
            ("end_to_end", nums(&self.end_to_end)),
            ("per_layer", nums(&self.per_layer)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ])
    }

    fn from_json(j: &Json) -> WorkloadResult {
        let nums = |key: &str| -> BTreeMap<String, f64> {
            j.get(key)
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let count = |key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        WorkloadResult {
            end_to_end: nums("end_to_end"),
            per_layer: nums("per_layer"),
            attempted: count("attempted"),
            failed: count("failed"),
        }
    }

    /// The driver's result line: `--trace 0` carries every end-to-end
    /// metric, `--trace 1` every per-layer metric.
    pub fn driver_line(&self, trace: bool) -> String {
        let c = catalogue();
        let (defs, values) = if trace {
            (&c.per_layer, &self.per_layer)
        } else {
            (&c.end_to_end, &self.end_to_end)
        };
        let metrics = Json::obj(defs.iter().map(|d| {
            (
                d.name.clone(),
                Json::obj([
                    ("value", Json::Num(values[&d.name])),
                    ("unit", Json::Str(d.unit.clone())),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// Adds what a driver run's result line reports to this result: the
    /// section the line carries, and its operation counts.
    pub fn merge_driver_line(&mut self, line: &str, trace: bool) -> Result<(), String> {
        let j = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let values: BTreeMap<String, f64> = j
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line: no metrics")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        if trace {
            self.per_layer = values;
        } else {
            self.end_to_end = values;
        }
        let count = |key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        self.attempted += count("attempted");
        self.failed += count("failed");
        Ok(())
    }
}

/// One run of `all`: every workload's result, with where it ran.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub seed: u64,
    pub commit: String,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Str(self.seed.to_string())),
            ("commit", Json::Str(self.commit.clone())),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
        ])
    }

    fn from_json(j: &Json) -> RunResult {
        RunResult {
            seed: j
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            commit: j
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            workloads: j
                .get("workloads")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| (k.clone(), WorkloadResult::from_json(v)))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// Reads a result set: a JSON array of runs.
pub fn read_result_set(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(json
        .as_arr()
        .ok_or_else(|| format!("{}: expected an array of runs", path.display()))?
        .iter()
        .map(RunResult::from_json)
        .collect())
}

/// Appends `run` to the result set at `path` (created if absent), one run
/// per line.
pub fn append_to_result_set(path: &Path, run: &RunResult) -> Result<(), String> {
    let mut runs = if path.exists() {
        read_result_set(path)?
    } else {
        Vec::new()
    };
    runs.push(run.clone());
    let lines: Vec<String> = runs.iter().map(|r| r.to_json().render()).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalogue_is_the_benchmark_file() {
        let c = catalogue();
        assert!(c.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
        for name in DETERMINISTIC_COUNTS {
            assert!(c.per_layer.iter().any(|d| d.name == *name), "{name}");
        }
    }

    #[test]
    fn a_driver_line_merges_back() {
        let c = catalogue();
        let measured: BTreeMap<String, f64> = c
            .end_to_end
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
            .collect();
        let run = WorkloadResult {
            end_to_end: measured.clone(),
            attempted: 7,
            failed: 1,
            ..Default::default()
        };
        let line = run.driver_line(false);
        assert!(line.contains("\"correct\": false"));
        let mut merged = WorkloadResult {
            attempted: 3,
            ..Default::default()
        };
        merged.merge_driver_line(&line, false).unwrap();
        assert_eq!(merged.end_to_end, measured);
        assert_eq!((merged.attempted, merged.failed), (10, 1));
        assert!(merged.per_layer.is_empty());
    }

    #[test]
    fn result_sets_round_trip() {
        let mut w = WorkloadResult::default();
        w.end_to_end.insert("setup_s".into(), 1234.5678);
        w.per_layer.insert("query.parse_us".into(), 3.25);
        w.attempted = 10;
        let run = RunResult {
            seed: u64::MAX,
            commit: "abc".into(),
            workloads: BTreeMap::from([("point_hot".to_string(), w)]),
        };
        let dir = crate::out_dir().join(format!("report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        append_to_result_set(&path, &run).unwrap();
        append_to_result_set(&path, &run).unwrap();
        let back = read_result_set(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].seed, u64::MAX);
        assert_eq!(
            back[1].workloads["point_hot"].end_to_end["setup_s"],
            1234.5678
        );
        assert_eq!(back[0].workloads["point_hot"].attempted, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
