//! # aion-check — deep consistency audits for Aion's hybrid stores
//!
//! The library behind the `aion-fsck` binary and
//! `Aion::check_consistency`. It puts into one report, each finding tagged
//! with its [`Subsystem`]:
//!
//! * [`timestore::TimeStore::audit`] — the structural pass over the index
//!   file ([`btree::audit_page_file`]: [`btree::BTree::verify`] on every
//!   tree, page accounting), then log ↔ index ↔ snapshot agreement and
//!   snapshot + delta replay of the live graph;
//! * [`lineagestore::LineageStore::audit`] — the same structural pass over
//!   the lineage file, then per-entity interval chains, delta-chain
//!   termination and neighbour-index mirroring;
//! * a cross-store differential: the graph reconstructed from the
//!   TimeStore (snapshot + forward replay) and from the LineageStore
//!   (all-entities floor scan) must agree at every sampled timestamp.
//!
//! Every finding is a [`btree::Finding`]. The report also carries each
//! index's pages and leaf fill, measured by the structural pass, so
//! `aion-fsck` shows how densely the stores use their pages. What
//! [`timestore::TimeStore::open`] repaired is not in the report:
//! `aion-fsck` adds it ([`timestore::TimeStore::repairs`]).

use btree::{Audit, Finding, TreeFill};
use lineagestore::LineageStore;
use lpg::Result;
use std::fmt;
use timestore::TimeStore;

/// How much work the consistency check performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckLevel {
    /// Structural only: B+Tree verification and page accounting.
    Quick,
    /// Structural plus the per-store deep audits (log/index/snapshot
    /// agreement, lineage chain invariants, neighbour mirroring).
    #[default]
    Deep,
    /// Everything in `Deep` plus the cross-store differential at sampled
    /// timestamps.
    Full,
}

impl CheckLevel {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Option<CheckLevel> {
        match s {
            "quick" => Some(CheckLevel::Quick),
            "deep" => Some(CheckLevel::Deep),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }
}

impl fmt::Display for CheckLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckLevel::Quick => "quick",
            CheckLevel::Deep => "deep",
            CheckLevel::Full => "full",
        })
    }
}

/// The subsystem a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subsystem {
    /// The snapshot-based TimeStore (log, time index, snapshots).
    TimeStore,
    /// The entity-indexed LineageStore (four history indexes).
    LineageStore,
    /// The differential between the two stores.
    CrossStore,
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Subsystem::TimeStore => "timestore",
            Subsystem::LineageStore => "lineagestore",
            Subsystem::CrossStore => "cross-store",
        })
    }
}

/// The outcome of [`check_stores`].
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// The level the check ran at.
    pub level: CheckLevel,
    /// Every violation found, in discovery order, with the subsystem that
    /// reported it.
    pub findings: Vec<(Subsystem, Finding)>,
    /// Pages and leaf fill of every index, by subsystem and index name: the
    /// TimeStore's two, then the LineageStore's four.
    pub fill: Vec<(Subsystem, &'static str, TreeFill)>,
    /// Timestamps the cross-store differential compared (empty below
    /// [`CheckLevel::Full`]).
    pub sampled_timestamps: Vec<u64>,
}

impl ConsistencyReport {
    /// Whether no violation was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings belonging to `subsystem`.
    pub fn by_subsystem(&self, subsystem: Subsystem) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(move |(s, _)| *s == subsystem)
            .map(|(_, finding)| finding)
    }

    /// Adds one store's audit under `subsystem`.
    fn add(&mut self, subsystem: Subsystem, audit: Audit) {
        let findings = audit.findings.into_iter();
        self.findings.extend(findings.map(|f| (subsystem, f)));
        let fill = audit.fill.into_iter();
        self.fill
            .extend(fill.map(|(index, fill)| (subsystem, index, fill)));
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "consistency check (level {}): {}",
            self.level,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.findings.len())
            }
        )?;
        if !self.sampled_timestamps.is_empty() {
            writeln!(
                f,
                "cross-store differential at {} timestamp(s)",
                self.sampled_timestamps.len()
            )?;
        }
        for (subsystem, finding) in &self.findings {
            writeln!(f, "  {subsystem} {finding}")?;
        }
        if !self.fill.is_empty() {
            writeln!(f, "index pages and leaf fill:")?;
        }
        for (subsystem, index, fill) in &self.fill {
            writeln!(f, "  {subsystem} {index}: {fill}")?;
        }
        Ok(())
    }
}

/// Timestamps the cross-store differential samples: up to `max` points
/// spread evenly over `[1, upper]`, always including `upper`.
pub fn sample_timestamps(upper: u64, max: usize) -> Vec<u64> {
    if upper == 0 || max == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(max);
    let n = (max as u64).min(upper);
    for i in 1..=n {
        out.push(upper * i / n);
    }
    out.dedup();
    out
}

/// Reconstructs the graph at each sampled timestamp from both stores and
/// diffs them. Divergence at a timestamp the LineageStore has fully applied
/// means one of the stores is corrupt (the paper's design makes the two
/// stores fully redundant below the lineage watermark).
pub fn cross_store_differential(
    ts: &TimeStore,
    ls: &LineageStore,
    samples: &[u64],
) -> Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for &t in samples {
        let from_time = ts.snapshot_at(t)?;
        let from_lineage = ls.snapshot_at(t)?;
        if !from_time.same_as(&from_lineage) {
            findings.push(Finding::new(
                "differential",
                format!(
                    "stores disagree at ts {t}: TimeStore has {}N/{}R, LineageStore has {}N/{}R",
                    from_time.node_count(),
                    from_time.rel_count(),
                    from_lineage.node_count(),
                    from_lineage.rel_count()
                ),
            ));
        }
    }
    Ok(findings)
}

/// Runs the full consistency check over both stores at `level`.
pub fn check_stores(
    ts: &TimeStore,
    ls: &LineageStore,
    level: CheckLevel,
) -> Result<ConsistencyReport> {
    let mut report = ConsistencyReport {
        level,
        findings: Vec::new(),
        fill: Vec::new(),
        sampled_timestamps: Vec::new(),
    };
    let deep = level != CheckLevel::Quick;
    report.add(Subsystem::TimeStore, ts.audit(deep)?);
    report.add(Subsystem::LineageStore, ls.audit(deep)?);
    if level == CheckLevel::Full {
        // Only compare below the lineage watermark: above it the
        // LineageStore legitimately lags the TimeStore.
        let upper = ts.latest_ts().min(ls.applied_ts());
        report.sampled_timestamps = sample_timestamps(upper, 8);
        let findings = cross_store_differential(ts, ls, &report.sampled_timestamps)?;
        let findings = findings.into_iter().map(|f| (Subsystem::CrossStore, f));
        report.findings.extend(findings);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{NodeId, RelId, StrId, Update};
    use tempfile::tempdir;

    fn seed(ts: &TimeStore, ls: &LineageStore) {
        let mut t = 0u64;
        for i in 0..30u64 {
            t += 1;
            let add = vec![Update::AddNode {
                id: NodeId::new(i),
                labels: vec![StrId::new(0)],
                props: vec![],
            }];
            ts.append_commit(t, &add).unwrap();
            ls.apply_commit(t, &add).unwrap();
            if i > 0 {
                t += 1;
                let rel = vec![Update::AddRel {
                    id: RelId::new(i),
                    src: NodeId::new(i - 1),
                    tgt: NodeId::new(i),
                    label: Some(StrId::new(1)),
                    props: vec![],
                }];
                ts.append_commit(t, &rel).unwrap();
                ls.apply_commit(t, &rel).unwrap();
            }
        }
        ts.sync().unwrap();
        ls.sync().unwrap();
    }

    fn open_stores(dir: &std::path::Path) -> (TimeStore, LineageStore) {
        let ts =
            TimeStore::open(dir.join("timestore"), timestore::TimeStoreConfig::default()).unwrap();
        let ls = LineageStore::open(
            dir.join("lineage.db"),
            lineagestore::LineageStoreConfig::default(),
        )
        .unwrap();
        (ts, ls)
    }

    #[test]
    fn consistent_stores_report_clean_at_full() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed(&ts, &ls);
        let report = check_stores(&ts, &ls, CheckLevel::Full).unwrap();
        assert!(report.is_clean(), "unexpected findings:\n{report}");
        assert!(!report.sampled_timestamps.is_empty());
        let text = report.to_string();
        for index in [
            "timestore time-index",
            "lineagestore nodes",
            "lineagestore rels",
            "lineagestore out-neighbours",
            "lineagestore in-neighbours",
        ] {
            assert!(text.contains(&format!("  {index}: ")), "{index}:\n{text}");
        }
        assert!(
            text.contains(" pages, ") && text.contains(" leaves, leaf fill "),
            "{text}"
        );
    }

    #[test]
    fn lineage_only_update_detected_as_divergence() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed(&ts, &ls);
        // An update only the LineageStore sees: divergence at the watermark.
        let t = ts.latest_ts();
        ls.apply_update(
            t,
            &Update::AddNode {
                id: NodeId::new(9_999),
                labels: vec![],
                props: vec![],
            },
        )
        .unwrap();
        let report = check_stores(&ts, &ls, CheckLevel::Full).unwrap();
        assert!(report
            .by_subsystem(Subsystem::CrossStore)
            .any(|f| f.check == "differential"));
    }

    #[test]
    fn sampling_is_bounded_and_hits_the_upper_end() {
        assert!(sample_timestamps(0, 8).is_empty());
        assert_eq!(sample_timestamps(3, 8), vec![1, 2, 3]);
        let s = sample_timestamps(1_000_000, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(*s.last().unwrap(), 1_000_000);
    }
}
