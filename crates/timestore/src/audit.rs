//! Deep consistency audit of a [`TimeStore`] (the TimeStore half of
//! `aion-fsck`).
//!
//! Structural pass (always), [`btree::audit_page_file`] over the index
//! file:
//!
//! * both index B+Trees pass [`btree::BTree::verify`];
//! * page accounting: every allocated index page is either reachable from
//!   a tree root or on the free list, and never both.
//!
//! Deep pass (`deep = true`) additionally checks the log/index/snapshot
//! agreement the recovery path relies on:
//!
//! * every time-index entry decodes, is monotone in both timestamp and log
//!   offset, and points at a log frame carrying exactly that timestamp;
//! * every log frame is indexed (no orphaned commits);
//! * every snapshot-index entry names an existing, decodable snapshot file
//!   whose references are to valid earlier snapshots and match their sums,
//!   and whose contents equal an independent log replay at that timestamp;
//! * a full log replay reproduces the live in-memory graph.
//!
//! The structural pass also measures each index's pages and leaf fill.
//! Findings are [`btree::Finding`]s. Damage [`TimeStore::open`] repaired
//! is gone before any audit runs; [`TimeStore::repairs`] reports it.

use crate::store::{LoadError, TimeStore};
use btree::{audit_page_file, Audit, Finding};
use encoding::keys;
use encoding::snapshot::{Fault, SharedSegments};
use lpg::{Graph, Result};
use std::collections::BTreeSet;

impl TimeStore {
    /// Runs the audit; see the module docs for the invariant list. Returns
    /// every violation found (empty = consistent) and each index's fill.
    /// IO errors abort the audit; corruption is reported, never panicked on.
    pub fn audit(&self, deep: bool) -> Result<Audit> {
        let trees = [
            ("time-index", "time-index/structure", &self.time_index),
            (
                "snapshot-index",
                "snapshot-index/structure",
                &self.snap_index,
            ),
        ];
        let mut audit = audit_page_file(&self.index_store, &trees, "index-pages/accounting")?;
        if !deep {
            return Ok(audit);
        }
        let findings = &mut audit.findings;

        // Deep pass: time index ↔ log agreement.
        let mut indexed_offsets = BTreeSet::new();
        let mut prev: Option<(u64, u64)> = None; // (ts, offset)
        for item in self.time_index.scan(&[], &[])? {
            let (key, value) = item?;
            let Some(ts) = keys::decode_ts_key(&key) else {
                findings.push(Finding::new(
                    "time-index/key",
                    format!("undecodable {}-byte key {key:?}", key.len()),
                ));
                continue;
            };
            let Ok(bytes) = <[u8; 8]>::try_from(value.as_slice()) else {
                findings.push(Finding::new(
                    "time-index/value",
                    format!("entry at ts {ts} holds a {}-byte offset", value.len()),
                ));
                continue;
            };
            let offset = u64::from_le_bytes(bytes);
            if let Some((pts, poff)) = prev {
                if ts <= pts {
                    findings.push(Finding::new(
                        "time-index/order",
                        format!("timestamp {ts} not above predecessor {pts}"),
                    ));
                }
                if offset <= poff {
                    findings.push(Finding::new(
                        "time-index/order",
                        format!("offset {offset} at ts {ts} not above predecessor offset {poff}"),
                    ));
                }
            }
            prev = Some((ts, offset));
            indexed_offsets.insert(offset);
            match self.log.read_at(offset) {
                Ok((frame, _)) => {
                    if frame.ts != ts {
                        findings.push(Finding::new(
                            "time-index/envelope",
                            format!(
                                "index says ts {ts} at offset {offset}, frame carries ts {}",
                                frame.ts
                            ),
                        ));
                    }
                }
                Err(e) => findings.push(Finding::new(
                    "time-index/envelope",
                    format!("offset {offset} (ts {ts}) is unreadable: {e}"),
                )),
            }
        }

        // Every log frame must be indexed, and the replay of the whole log
        // must reproduce the live graph; snapshots are compared against the
        // running replay as it passes their timestamps.
        let mut snaps: Vec<(u64, String)> = Vec::new();
        for item in self.snap_index.scan(&[], &[])? {
            let (key, value) = item?;
            let Some(ts) = keys::decode_ts_key(&key) else {
                findings.push(Finding::new(
                    "snapshot-index/key",
                    format!("undecodable {}-byte key {key:?}", key.len()),
                ));
                continue;
            };
            snaps.push((ts, String::from_utf8_lossy(&value).into_owned()));
        }
        let mut snap_iter = snaps.iter().peekable();
        let mut valid = BTreeSet::new();
        let mut replay = Graph::new();
        let mut replay_ok = true;
        for entry in self.log.iter_from(0) {
            let crate::log::LogEntry { offset, frame, .. } = entry?;
            if !indexed_offsets.contains(&offset) {
                findings.push(Finding::new(
                    "time-index/coverage",
                    format!(
                        "log frame at offset {offset} (ts {}) is unindexed",
                        frame.ts
                    ),
                ));
            }
            for u in frame.to_updates() {
                if let Err(e) = replay.apply(&u.op) {
                    findings.push(Finding::new(
                        "log/replay",
                        format!("update at ts {} does not apply: {e}", u.ts),
                    ));
                    replay_ok = false;
                }
            }
            while let Some((sts, name)) = snap_iter.peek() {
                if *sts > frame.ts {
                    break;
                }
                self.audit_snapshot(
                    *sts,
                    name,
                    replay_ok.then_some(&replay),
                    &mut valid,
                    findings,
                );
                snap_iter.next();
            }
        }
        for (sts, name) in snap_iter {
            findings.push(Finding::new(
                "snapshot-index/envelope",
                format!("snapshot {name} at ts {sts} is beyond the last log frame"),
            ));
        }
        if replay_ok && !replay.same_as(&self.latest_graph()) {
            findings.push(Finding::new(
                "log/replay",
                "full log replay does not reproduce the live graph",
            ));
        }
        if let Err(e) = self.latest_graph().check_consistency() {
            findings.push(Finding::new(
                "graph/consistency",
                format!("live graph fails self-check: {e}"),
            ));
        }
        Ok(audit)
    }

    /// Checks one snapshot file through the loader: readable, decodable,
    /// every range it references present and matching its sum, every file
    /// it references itself valid (`valid`, filled in ascending ts),
    /// internally consistent and (when the log replay is trustworthy) equal
    /// to the replayed state at its timestamp.
    fn audit_snapshot(
        &self,
        ts: u64,
        name: &str,
        replay: Option<&Graph>,
        valid: &mut BTreeSet<u64>,
        findings: &mut Vec<Finding>,
    ) {
        // Nothing shared: the audit checks every byte as it is now, not
        // what a read decoded earlier.
        let (manifest, graph) = match self.load_snapshot(ts, &SharedSegments::default()) {
            Ok(loaded) => loaded,
            Err(LoadError::Unreadable(e)) => {
                findings.push(Finding::new(
                    "snapshot/file",
                    format!("snapshot {name} at ts {ts} unreadable: {e}"),
                ));
                return;
            }
            Err(LoadError::Fault(Fault::Corrupt)) => {
                findings.push(Finding::new(
                    "snapshot/decode",
                    format!("snapshot {name} at ts {ts} does not decode"),
                ));
                return;
            }
            Err(LoadError::Fault(Fault::Reference(source))) => {
                findings.push(Finding::new(
                    "snapshot/reference",
                    format!(
                        "snapshot {name} at ts {ts} references bytes of the snapshot at ts \
                         {source} that are missing or do not match their sum"
                    ),
                ));
                return;
            }
        };
        match manifest.sources().into_iter().find(|s| !valid.contains(s)) {
            Some(source) => findings.push(Finding::new(
                "snapshot/reference",
                format!(
                    "snapshot {name} at ts {ts} references the snapshot at ts {source}, \
                     which is not a valid snapshot"
                ),
            )),
            None => {
                valid.insert(ts);
            }
        }
        if let Err(e) = graph.check_consistency() {
            findings.push(Finding::new(
                "snapshot/consistency",
                format!("snapshot {name} at ts {ts} fails self-check: {e}"),
            ));
        }
        if let Some(expected) = replay {
            if !graph.same_as(expected) {
                findings.push(Finding::new(
                    "snapshot/replay",
                    format!(
                        "snapshot {name} at ts {ts} diverges from the log replay at that point"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TimeStoreConfig;
    use lpg::{NodeId, Update};
    use tempfile::tempdir;

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        }
    }

    #[test]
    fn fresh_store_audits_clean() {
        let dir = tempdir().unwrap();
        let ts = TimeStore::open(dir.path(), TimeStoreConfig::default()).unwrap();
        for i in 1..200u64 {
            ts.append_commit(i, &[add_node(i)]).unwrap();
        }
        ts.write_snapshot().unwrap();
        ts.sync().unwrap();
        let findings = ts.audit(true).unwrap().findings;
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn missing_snapshot_file_detected() {
        let dir = tempdir().unwrap();
        let ts = TimeStore::open(dir.path(), TimeStoreConfig::default()).unwrap();
        for i in 1..50u64 {
            ts.append_commit(i, &[add_node(i)]).unwrap();
        }
        ts.write_snapshot().unwrap();
        ts.sync().unwrap();
        let vfs = vfs::VfsRef::std();
        let snapdir = dir.path().join("snapshots");
        for (name, _) in vfs.read_dir(&snapdir).unwrap() {
            vfs.remove_file(&snapdir.join(name)).unwrap();
        }
        let findings = ts.audit(true).unwrap().findings;
        assert!(findings.iter().any(|f| f.check == "snapshot/file"));
    }

    #[test]
    fn missing_referenced_snapshot_detected_and_dropped_with_its_dependant() {
        let dir = tempdir().unwrap();
        let config = || TimeStoreConfig {
            policy: crate::SnapshotPolicy::Never,
            ..TimeStoreConfig::default()
        };
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        // 300 nodes over five segments, snapshotted whole at 300; node 7
        // changes, so the snapshot at 301 holds one segment and references
        // four in the one at 300.
        for i in 1..=300u64 {
            ts.append_commit(i, &[add_node(i)]).unwrap();
        }
        ts.write_snapshot().unwrap();
        let label = Update::AddLabel {
            id: NodeId::new(7),
            label: lpg::StrId::new(1),
        };
        ts.append_commit(301, &[label]).unwrap();
        ts.write_snapshot().unwrap();
        ts.append_commit(302, &[add_node(1_000)]).unwrap();
        ts.sync().unwrap();
        assert!(ts.audit(true).unwrap().findings.is_empty());
        let snapdir = dir.path().join("snapshots");
        let vfs = vfs::VfsRef::std();
        let (anchor, dependant) = (
            "snap_00000000000000000300.aisnap",
            "snap_00000000000000000301.aisnap",
        );
        let sizes: Vec<u64> = vfs
            .read_dir(&snapdir)
            .unwrap()
            .iter()
            .map(|f| f.1)
            .collect();
        assert!(sizes[1] * 3 < sizes[0], "{sizes:?}");
        vfs.remove_file(&snapdir.join(anchor)).unwrap();

        let findings = ts.audit(true).unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check == "snapshot/reference" && f.detail.contains(dependant)),
            "{findings:?}"
        );
        drop(ts);
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        assert!(vfs.read_dir(&snapdir).unwrap().is_empty(), "both dropped");
        assert_eq!(ts.stats().snapshot_count, 0);
        let mut replay = Graph::new();
        for t in 1..=302 {
            for u in ts.diff(t, t + 1).unwrap() {
                replay.apply(&u.op).unwrap();
            }
            assert!(ts.snapshot_at(t).unwrap().same_as(&replay), "at ts {t}");
        }
        assert!(ts.audit(true).unwrap().findings.is_empty());
    }
}
