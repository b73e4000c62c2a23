//! Deep consistency audit of a [`TimeStore`] (the TimeStore half of
//! `aion-fsck`).
//!
//! The TimeStore keeps no page file, so it has no structural pass. The
//! deep pass (`deep = true`) checks the log/snapshot agreement reads and
//! recovery rely on:
//!
//! * frame timestamps strictly increase along the log, which the binary
//!   search of [`TimeStore::diff`] relies on;
//! * every snapshot in the store's snapshot set (the valid files open found
//!   and those written since) is an existing, decodable file whose
//!   references are to valid earlier snapshots and match their sums, and
//!   whose contents equal an independent log replay at that timestamp;
//! * a full log replay reproduces the live in-memory graph.
//!
//! Findings are [`btree::Finding`]s. Damage [`TimeStore::open`] repaired
//! is gone before any audit runs; [`TimeStore::repairs`] reports it.

use crate::log::LogEntry;
use crate::store::{snapshot_name, LoadError, TimeStore};
use btree::{Audit, Finding};
use encoding::snapshot::{Fault, SharedSegments};
use lpg::{Graph, Result};
use std::collections::BTreeSet;

impl TimeStore {
    /// Runs the audit; see the module docs for the invariant list. Returns
    /// every violation found (empty = consistent); it measures no index
    /// fill. IO errors abort the audit; corruption is reported, never
    /// panicked on.
    pub fn audit(&self, deep: bool) -> Result<Audit> {
        let mut audit = Audit::default();
        if !deep {
            return Ok(audit);
        }
        let findings = &mut audit.findings;

        // One pass over the log: timestamps must increase, and the replay
        // of the whole log must reproduce the live graph; snapshots are
        // compared against the running replay as it passes their
        // timestamps.
        let mut snap_iter = self.snapshot_timestamps().into_iter().peekable();
        let mut valid = BTreeSet::new();
        let mut replay = Graph::new();
        let mut replay_ok = true;
        let mut prev_ts = None;
        for entry in self.log.iter_from(0) {
            let LogEntry { offset, frame, .. } = entry?;
            if let Some(prev) = prev_ts.filter(|prev| frame.ts <= *prev) {
                findings.push(Finding::new(
                    "log/order",
                    format!(
                        "frame at offset {offset} has ts {}, not above its predecessor's {prev}",
                        frame.ts
                    ),
                ));
            }
            prev_ts = Some(frame.ts);
            for u in frame.to_updates() {
                if let Err(e) = replay.apply(&u.op) {
                    findings.push(Finding::new(
                        "log/replay",
                        format!("update at ts {} does not apply: {e}", u.ts),
                    ));
                    replay_ok = false;
                }
            }
            while let Some(sts) = snap_iter.next_if(|sts| *sts <= frame.ts) {
                self.audit_snapshot(sts, replay_ok.then_some(&replay), &mut valid, findings);
            }
        }
        for sts in snap_iter {
            findings.push(Finding::new(
                "snapshot/envelope",
                format!(
                    "snapshot {} at ts {sts} is beyond the last log frame",
                    snapshot_name(sts)
                ),
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
        replay: Option<&Graph>,
        valid: &mut BTreeSet<u64>,
        findings: &mut Vec<Finding>,
    ) {
        let name = snapshot_name(ts);
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

    /// A log whose timestamps go back is reported: `diff`'s binary
    /// search would miss frames in it.
    #[test]
    fn log_timestamps_out_of_order_detected() {
        let dir = tempdir().unwrap();
        {
            let log = crate::ChangeLog::open(dir.path().join("timestore.log")).unwrap();
            for ts in [1, 5, 3] {
                let frame = crate::CommitFrame::from_updates(ts, &[add_node(ts)]);
                log.append(&frame).unwrap();
            }
            log.sync().unwrap();
        }
        let ts = TimeStore::open(dir.path(), TimeStoreConfig::default()).unwrap();
        let findings = ts.audit(true).unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check == "log/order" && f.detail.contains("has ts 3")),
            "{findings:?}"
        );
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
