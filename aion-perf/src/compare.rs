//! `compare`: two result sets side by side with a verdict per metric and
//! workload; `noise`: the same code run twice, which must agree within the
//! benchmark's own bounds.

use crate::report::{catalogue, MetricDef, RunResult, WorkloadResult, DETERMINISTIC_COUNTS};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;

/// Pairs needed before a gain is claimed, and the share of them the change
/// must win (ties count for neither side).
const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// At least ten pairs, the change wins nine tenths of them, and the
    /// medians differ by more than the base's own spread.
    Better,
    /// The median is worse by more than the bound, and the spread is small
    /// enough to say so.
    Worse,
    /// No worse than the bound allows (and no gain shown).
    Within,
    /// Run-to-run spread exceeds the bound: neither "unchanged" nor "worse"
    /// can be said.
    Unresolved,
    /// A per-layer metric: it has no bound, and no gain was shown.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE beyond the bound",
            Verdict::Within => "within the bound",
            Verdict::Unresolved => "unresolved (spread exceeds the bound)",
            Verdict::Unbounded => "no bound",
        }
    }
}

/// Judges `change` against `base` for one metric of one workload. Values
/// are paired by position: run `i` of one side ran next to run `i` of the
/// other. A per-layer metric has no `bound`: it can only be better or not.
pub fn judge(base: &[f64], change: &[f64], higher_is_better: bool, bound: Option<f64>) -> Verdict {
    let (b_q1, b_med, b_q3) = quartiles(base);
    let c_med = median(change);
    if b_med == 0.0 {
        return bound.map_or(Verdict::Unbounded, |_| Verdict::Unresolved);
    }
    let spread = relative_spread(base).max(relative_spread(change));
    // Positive when the change is worse.
    let worse_by = if higher_is_better {
        (b_med - c_med) / b_med.abs()
    } else {
        (c_med - b_med) / b_med.abs()
    };
    if bound.is_some_and(|bound| spread > bound) {
        return Verdict::Unresolved;
    }
    if bound.is_some_and(|bound| worse_by > bound) {
        return Verdict::Worse;
    }
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| if higher_is_better { c > b } else { c < b })
        .count();
    let beyond_own_spread = (c_med - b_med).abs() > (b_q3 - b_q1);
    if pairs >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs as f64
        && worse_by < 0.0
        && beyond_own_spread
    {
        Verdict::Better
    } else if bound.is_some() {
        Verdict::Within
    } else {
        Verdict::Unbounded
    }
}

/// The section of a workload's result a metric is filed under.
type Section = fn(&WorkloadResult) -> &BTreeMap<String, f64>;

fn values(runs: &[RunResult], workload: &str, section: Section, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| section(r.workloads.get(workload)?).get(metric).copied())
        .collect()
}

fn workload_names(runs: &[RunResult]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for w in crate::dataset::Workload::ALL {
        if runs.iter().any(|r| r.workloads.contains_key(w.name())) {
            names.push(w.name().to_string());
        }
    }
    names
}

/// Prints one row per metric and workload, end-to-end metrics first, then
/// the per-layer ones (those that are 0 throughout are left out). Returns
/// whether any row is worse beyond its bound.
pub fn compare(base: &[RunResult], change: &[RunResult]) -> bool {
    let c = catalogue();
    let pairs = base.len().min(change.len());
    println!(
        "base: {} runs, change: {} runs, {pairs} pairs (a gain needs at least {MIN_PAIRS} alternating pairs)",
        base.len(),
        change.len()
    );
    println!(
        "{:<12} {:<40} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "bound"
    );
    let sections: [(&[MetricDef], Section); 2] = [
        (&c.end_to_end, |w| &w.end_to_end),
        (&c.per_layer, |w| &w.per_layer),
    ];
    let mut any_worse = false;
    for workload in workload_names(base) {
        for (defs, section) in sections {
            for d in defs {
                let (b, c) = (
                    values(base, &workload, section, &d.name),
                    values(change, &workload, section, &d.name),
                );
                if b.is_empty() || c.is_empty() || b.iter().chain(&c).all(|v| *v == 0.0) {
                    continue;
                }
                let verdict = judge(&b, &c, d.higher_is_better, d.bound);
                any_worse |= verdict == Verdict::Worse;
                let show = |v: &[f64]| {
                    let (q1, q2, q3) = quartiles(v);
                    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
                };
                let rel = (median(&c) - median(&b)) / median(&b).abs().max(f64::MIN_POSITIVE);
                println!(
                    "{workload:<12} {:<40} {:>38} {:>38} {:>+7.1}% {:>6}  {}",
                    d.name,
                    show(&b),
                    show(&c),
                    rel * 100.0,
                    d.bound
                        .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                    verdict.label()
                );
            }
        }
    }
    any_worse
}

/// Two runs of the same code with the same seed: every end-to-end metric
/// must agree within its bound, and on the read-only workloads the counts
/// that depend only on the seed must repeat exactly. Returns whether they do.
pub fn noise_report(a: &RunResult, b: &RunResult) -> bool {
    let mut agree = true;
    let mut counts_repeat = true;
    println!(
        "{:<12} {:<26} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "run a", "run b", "differ", "bound"
    );
    for (workload, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(workload) else {
            continue;
        };
        for d in &catalogue().end_to_end {
            let (va, vb) = (wa.end_to_end[&d.name], wb.end_to_end[&d.name]);
            let rel = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
            let bound = d.bound.expect("an end-to-end metric has a bound");
            let ok = rel <= bound;
            agree &= ok;
            println!(
                "{workload:<12} {:<26} {va:>16.4} {vb:>16.4} {:>7.2}% {:>5.0}%{}",
                d.name,
                rel * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
        if wa.failed + wb.failed > 0 {
            agree = false;
            println!(
                "{workload:<12} failed operations: {} and {}",
                wa.failed, wb.failed
            );
        }
        if workload != crate::dataset::Workload::MixedRw.name() {
            for name in DETERMINISTIC_COUNTS {
                let (va, vb) = (wa.per_layer[*name], wb.per_layer[*name]);
                if va != vb {
                    counts_repeat = false;
                    println!("{workload:<12} {name:<40} {va} != {vb}  COUNT DOES NOT REPEAT");
                }
            }
        }
    }
    println!(
        "deterministic counts on the read-only workloads: {}",
        if counts_repeat {
            "repeat exactly"
        } else {
            "see above"
        }
    );
    agree && counts_repeat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize, jitter: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn worse_beyond_the_bound() {
        let base = around(100.0, 10, 0.01);
        let change = around(120.0, 10, 0.01);
        assert_eq!(judge(&base, &change, false, Some(0.1)), Verdict::Worse);
        assert_eq!(judge(&change, &base, true, Some(0.1)), Verdict::Worse);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_tenths_wins() {
        let base = around(100.0, 10, 0.01);
        let change = around(80.0, 10, 0.01);
        assert_eq!(judge(&base, &change, false, Some(0.1)), Verdict::Better);
        // Same medians, but only nine pairs: no claim.
        assert_eq!(
            judge(&base[..9], &change[..9], false, Some(0.1)),
            Verdict::Within
        );
        // Ten pairs of which the change wins only eight.
        let mut mixed = change.clone();
        mixed[0] = 101.0;
        mixed[5] = 101.0;
        assert_eq!(judge(&base, &mixed, false, Some(0.1)), Verdict::Within);
    }

    #[test]
    fn a_gain_must_exceed_the_base_spread() {
        let base = around(100.0, 10, 0.08);
        let change = around(99.0, 10, 0.0);
        assert_eq!(judge(&base, &change, false, Some(0.1)), Verdict::Within);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let base = around(100.0, 10, 0.3);
        let change = around(100.0, 10, 0.3);
        assert_eq!(judge(&base, &change, false, Some(0.1)), Verdict::Unresolved);
        let worse = around(130.0, 10, 0.3);
        assert_eq!(judge(&base, &worse, false, Some(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn a_per_layer_metric_is_better_or_unbounded() {
        let base = around(100.0, 10, 0.01);
        assert_eq!(
            judge(&base, &around(80.0, 10, 0.01), false, None),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &around(150.0, 10, 0.3), false, None),
            Verdict::Unbounded
        );
    }

    #[test]
    fn small_moves_are_within_the_bound() {
        let base = around(100.0, 10, 0.01);
        let change = around(104.0, 10, 0.01);
        assert_eq!(judge(&base, &change, false, Some(0.1)), Verdict::Within);
    }
}
