//! # aion-check — consistency audits for Aion's hybrid stores
//!
//! The library behind the `aion-fsck` binary and
//! `Aion::check_consistency`. It puts into one report, each finding tagged
//! with its [`Subsystem`]:
//!
//! * [`lineagestore::LineageStore::audit`] — the structural pass over the
//!   lineage file ([`btree::audit_page_file`]: [`btree::BTree::verify`] on
//!   every tree, page accounting); the TimeStore keeps no page file, so it
//!   has no structural pass;
//! * at [`CheckLevel::Full`], [`timestore::TimeStore::audit`] — log order,
//!   log ↔ snapshot agreement and snapshot + delta replay of the live
//!   graph;
//! * at [`CheckLevel::Full`], the cross-store differential: below its
//!   watermark the LineageStore is derived state, so the log is replayed
//!   up to the watermark into a scratch store beside it, and the two must
//!   hold the same bytes under the same keys in all four indexes at every
//!   timestamp up to the watermark.
//!
//! Every finding is a [`btree::Finding`]. The report also carries each
//! index's pages and leaf fill, measured by the structural pass, and the
//! snapshot files' bytes by what they hold
//! ([`timestore::TimeStore::snapshot_bytes`]), so `aion-fsck` shows how
//! densely the stores use their pages and files. What
//! [`timestore::TimeStore::open`] repaired is not in the report:
//! `aion-fsck` adds it ([`timestore::TimeStore::repairs`]).

use btree::{Audit, Finding, TreeFill};
use lineagestore::LineageStore;
use lpg::Result;
use std::fmt;
use std::io;
use timestore::{SnapshotBytes, TimeStore};

/// How much work the consistency check performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckLevel {
    /// Structural only: B+Tree verification and page accounting.
    Quick,
    /// Structural plus the TimeStore's audit (log order, log/snapshot
    /// agreement) and the comparison of the LineageStore with its rebuild
    /// from the log.
    #[default]
    Full,
}

impl CheckLevel {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Option<CheckLevel> {
        match s {
            "quick" => Some(CheckLevel::Quick),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }
}

impl fmt::Display for CheckLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckLevel::Quick => "quick",
            CheckLevel::Full => "full",
        })
    }
}

/// The subsystem a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subsystem {
    /// The snapshot-based TimeStore (log, snapshots).
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
    /// LineageStore's four.
    pub fill: Vec<(Subsystem, &'static str, TreeFill)>,
    /// The TimeStore's snapshot files' bytes, by what they hold.
    pub snapshots: SnapshotBytes,
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
        for (subsystem, finding) in &self.findings {
            writeln!(f, "  {subsystem} {finding}")?;
        }
        if !self.fill.is_empty() {
            writeln!(f, "index pages and leaf fill:")?;
        }
        for (subsystem, index, fill) in &self.fill {
            writeln!(f, "  {subsystem} {index}: {fill}")?;
        }
        writeln!(f, "snapshot bytes: {}", self.snapshots)
    }
}

/// Replays the log up to the LineageStore's watermark `w` into a scratch
/// store beside it and compares the two, index by index, in key order.
/// Every entry at a timestamp up to `w` must be byte-equal; a key that
/// does not decode, or one past the TimeStore's latest timestamp, is a
/// difference too. Entries above `w` whose commit the TimeStore holds are
/// the live cascade's and are skipped. The first difference in each index
/// is one finding naming the index, the key and both values.
fn lineage_differential(ts: &TimeStore, ls: &LineageStore) -> Result<Vec<Finding>> {
    let w = ls.applied_ts();
    ls.with_rebuild(|rebuild| {
        ts.replay(1, w.saturating_add(1), |t, ops| rebuild.apply_commit(t, ops))?;
        let mut findings = Vec::new();
        for ((index, live, key_ts), (_, rebuilt, _)) in ls.indexes().into_iter().zip(rebuild.indexes()) {
            // The latest timestamp is read again for each entry above `w`:
            // commits land while the walk runs.
            let cascaded = |key: &[u8]| key_ts(key).is_some_and(|t| t > w && t <= ts.latest_ts());
            let live = live.scan(&[], &[])?.filter(|item| !matches!(item, Ok((key, _)) if cascaded(key)));
            if let Some((key, a, b)) = first_difference(live, rebuilt.scan(&[], &[])?)? {
                findings.push(Finding::new(
                    "differential",
                    format!(
                        "{index} key {key:?}: the store holds {}, its rebuild from the log up to ts {w} holds {}",
                        show(a.as_deref()),
                        show(b.as_deref()),
                    ),
                ));
            }
        }
        Ok(findings)
    })
}

/// An index entry as a scan yields it.
type Entry = io::Result<(Vec<u8>, Vec<u8>)>;

/// A key and each side's value under it.
type Difference = (Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>);

/// The first key at which two key-ordered entry streams differ, with each
/// side's value there (`None` on the side that lacks the key).
fn first_difference(
    mut a: impl Iterator<Item = Entry>,
    mut b: impl Iterator<Item = Entry>,
) -> io::Result<Option<Difference>> {
    loop {
        match (a.next().transpose()?, b.next().transpose()?) {
            (None, None) => return Ok(None),
            (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                if va != vb {
                    return Ok(Some((ka, Some(va), Some(vb))));
                }
            }
            // The smaller key is the one the other side lacks; a side that
            // ended lacks every key.
            (Some((ka, va)), Some((kb, _))) if ka < kb => return Ok(Some((ka, Some(va), None))),
            (Some((ka, va)), None) => return Ok(Some((ka, Some(va), None))),
            (_, Some((kb, vb))) => return Ok(Some((kb, None, Some(vb)))),
        }
    }
}

/// A value for a finding: its first 32 bytes, or `nothing`.
fn show(value: Option<&[u8]>) -> String {
    match value {
        None => "nothing".to_string(),
        Some(v) if v.len() <= 32 => format!("{v:?}"),
        Some(v) => format!("{:?}… ({} bytes)", &v[..32], v.len()),
    }
}

/// Runs the consistency check over both stores at `level`.
pub fn check_stores(
    ts: &TimeStore,
    ls: &LineageStore,
    level: CheckLevel,
) -> Result<ConsistencyReport> {
    let mut report = ConsistencyReport {
        level,
        findings: Vec::new(),
        fill: Vec::new(),
        snapshots: ts.snapshot_bytes(),
    };
    let full = level == CheckLevel::Full;
    report.add(Subsystem::TimeStore, ts.audit(full)?);
    report.add(Subsystem::LineageStore, ls.audit()?);
    if full {
        let findings = lineage_differential(ts, ls)?;
        let findings = findings.into_iter().map(|f| (Subsystem::CrossStore, f));
        report.findings.extend(findings);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::{keys, RecordBody};
    use lineagestore::LineageEntry;
    use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
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

    /// 40 nodes in a chain of relationships, each node's property set
    /// once, and relationship 5 deleted at ts 200: commit `i * 3 + 1` adds
    /// node `i`, `i * 3 + 2` its incoming relationship `i`.
    fn seed_chains(ts: &TimeStore, ls: &LineageStore) {
        let commit = |t: u64, op: Update| {
            ts.append_commit(t, std::slice::from_ref(&op)).unwrap();
            ls.apply_commit(t, &[op]).unwrap();
        };
        for i in 0..40u64 {
            commit(
                i * 3 + 1,
                Update::AddNode {
                    id: NodeId::new(i),
                    labels: vec![StrId::new(0)],
                    props: vec![],
                },
            );
            if i > 0 {
                commit(
                    i * 3 + 2,
                    Update::AddRel {
                        id: RelId::new(i),
                        src: NodeId::new(i - 1),
                        tgt: NodeId::new(i),
                        label: Some(StrId::new(1)),
                        props: vec![],
                    },
                );
            }
            commit(
                i * 3 + 3,
                Update::SetNodeProp {
                    id: NodeId::new(i),
                    key: StrId::new(2),
                    value: PropertyValue::Int(i as i64),
                },
            );
        }
        commit(200, Update::DeleteRel { id: RelId::new(5) });
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
        let text = report.to_string();
        for index in [
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

    /// The index named `name`.
    fn index<'a>(ls: &'a LineageStore, name: &str) -> &'a btree::BTree {
        let mut indexes = ls.indexes().into_iter();
        indexes.find(|(n, ..)| *n == name).unwrap().1
    }

    /// The cross-store findings of a full check.
    fn differentials(ts: &TimeStore, ls: &LineageStore) -> Vec<Finding> {
        let report = check_stores(ts, ls, CheckLevel::Full).unwrap();
        report
            .by_subsystem(Subsystem::CrossStore)
            .cloned()
            .collect()
    }

    #[test]
    fn one_sided_neighbour_entry_detected() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed_chains(&ts, &ls);
        // Inject an out-neighbour entry with no in-neighbour mirror.
        index(&ls, "out-neighbours")
            .insert(
                &keys::neigh_key(NodeId::new(1), NodeId::new(2), RelId::new(999), 777),
                &[],
            )
            .unwrap();
        let findings = differentials(&ts, &ls);
        assert!(
            findings.iter().any(|f| f.check == "differential"
                && f.detail.starts_with("out-neighbours key")
                && f.detail.contains("the store holds [], its rebuild")),
            "{findings:?}"
        );
    }

    #[test]
    fn non_canonical_neighbour_key_detected() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed_chains(&ts, &ls);
        // Node 0 written as `[1, 0]`, with a leading zero byte: it sorts
        // among the one-byte ids but is no key `neigh_key` writes.
        index(&ls, "out-neighbours")
            .insert(&[1, 0, 1, 1, 1, 1, 1, 2], &[])
            .unwrap();
        let findings = differentials(&ts, &ls);
        assert!(
            findings.iter().any(|f| f.check == "differential"
                && f.detail
                    .starts_with("out-neighbours key [1, 0, 1, 1, 1, 1, 1, 2]:")),
            "{findings:?}"
        );
    }

    #[test]
    fn non_canonical_history_key_detected() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed_chains(&ts, &ls);
        // Node 1's version at ts 4 with its id written as `[1, 0, 1]`, a
        // zero byte ahead of the digit: it sorts among the two-byte ids but
        // is no key `history_key` writes. The value is node 1's own.
        let nodes = index(&ls, "nodes");
        let value = nodes
            .get(&keys::history_key(1, 4))
            .unwrap()
            .expect("node 1 was added at ts 4");
        let padded = [2, 0, 1, 1, 4];
        assert_eq!(keys::decode_history_key(&padded), None);
        nodes.insert(&padded, &value).unwrap();
        let findings = differentials(&ts, &ls);
        assert!(
            findings
                .iter()
                .any(|f| f.check == "differential"
                    && f.detail.starts_with("nodes key [2, 0, 1, 1, 4]:")),
            "{findings:?}"
        );
    }

    #[test]
    fn neighbour_value_other_than_the_deleted_flag_detected() {
        let dir = tempdir().unwrap();
        let (ts, ls) = open_stores(dir.path());
        seed_chains(&ts, &ls);
        // Rel 3 (2 -> 3, added at ts 11): its in-neighbour value is empty.
        // Overwrite it with a byte that is no flag, with the `[0]` an
        // addition once wrote, then with a whole record.
        let key = keys::neigh_key(NodeId::new(3), NodeId::new(2), RelId::new(3), 11);
        let in_n = index(&ls, "in-neighbours");
        for value in [
            vec![2u8],
            vec![0u8],
            LineageEntry::full(11, RecordBody::RelDeleted).to_bytes(11),
        ] {
            in_n.insert(&key, &value).unwrap();
            let findings = differentials(&ts, &ls);
            let expected = format!(
                "in-neighbours key {:?}: the store holds {value:?}, its rebuild from the log up to ts 200 holds []",
                &key[..]
            );
            assert!(
                findings.iter().any(|f| f.detail == expected),
                "{value:?}: {findings:?}"
            );
        }
        in_n.insert(&key, &[]).unwrap();
        assert!(differentials(&ts, &ls).is_empty());
    }
}
