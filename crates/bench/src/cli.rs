//! Command-line parsing for the `figures` binary.

use crate::common::BenchConfig;
use std::path::PathBuf;

/// Every experiment `figures` runs, in the order `all` runs them.
pub const EXPERIMENTS: [&str; 13] = [
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "writes",
    "ablations",
    "ids",
];

/// Usage text printed with every argument error.
pub const USAGE: &str = "\
Usage: figures <experiment|all>... [--edges N] [--ops N] [--runs N] [--seed N]
               [--metrics-dir DIR]

experiments: table3 table4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
             writes ablations ids
";

/// A parsed `figures` command line.
#[derive(Debug)]
pub struct FiguresArgs {
    /// Harness scale and seed.
    pub cfg: BenchConfig,
    /// Experiments to run, in command-line order (all of them if none named).
    pub experiments: Vec<String>,
    /// Where to drop per-experiment metrics sidecars, if anywhere.
    pub metrics_dir: Option<PathBuf>,
}

/// Parses `figures` arguments (without the program name). A flag with a
/// missing or unparsable value, or an unknown experiment name, is an error.
pub fn parse_args(args: &[String]) -> Result<FiguresArgs, String> {
    let mut cfg = BenchConfig::default();
    let mut experiments = Vec::new();
    let mut metrics_dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--edges" => cfg.target_edges = number(flag, it.next())?,
            "--ops" => cfg.point_ops = number(flag, it.next())?,
            "--runs" => cfg.snapshot_runs = number(flag, it.next())?,
            "--seed" => cfg.seed = number(flag, it.next())?,
            "--metrics-dir" => {
                let dir = it.next().ok_or("--metrics-dir needs a directory")?;
                metrics_dir = Some(PathBuf::from(dir));
            }
            name => {
                let name = name.to_lowercase();
                if name != "all" && !EXPERIMENTS.contains(&name.as_str()) {
                    return Err(format!("unknown experiment `{name}`"));
                }
                experiments.push(name);
            }
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = EXPERIMENTS.iter().map(|e| e.to_string()).collect();
    }
    Ok(FiguresArgs {
        cfg,
        experiments,
        metrics_dir,
    })
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a number"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FiguresArgs, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_and_experiments_parse() {
        let a = parse(&["fig9", "writes", "--edges", "2000", "--seed", "7"]).unwrap();
        assert_eq!(a.experiments, ["fig9", "writes"]);
        assert_eq!(a.cfg.target_edges, 2000);
        assert_eq!(a.cfg.seed, 7);
        assert!(a.metrics_dir.is_none());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--edges"]).is_err());
        assert!(parse(&["fig9", "--metrics-dir"]).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        assert!(parse(&["fig9", "--edges", "lots"]).is_err());
        assert!(parse(&["fig9", "--runs", "-1"]).is_err());
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(parse(&["fgi9"]).is_err());
        assert!(parse(&["--edge", "2000"]).is_err());
    }

    #[test]
    fn all_expands_to_every_experiment() {
        for args in [&["all"][..], &[], &["fig9", "ALL"]] {
            assert_eq!(parse(args).unwrap().experiments, EXPERIMENTS);
        }
        assert!(EXPERIMENTS.iter().all(|e| USAGE.contains(e)));
    }
}
