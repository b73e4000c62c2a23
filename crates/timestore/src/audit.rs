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
            for op in frame.updates() {
                if let Err(e) = replay.apply(&op) {
                    findings.push(Finding::new(
                        "log/replay",
                        format!("update at ts {} does not apply: {e}", frame.ts),
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
            Err(LoadError::Version(v)) => {
                findings.push(Finding::new(
                    "snapshot/decode",
                    format!(
                        "snapshot {name} at ts {ts} is version {v}, this build reads {}",
                        encoding::snapshot::VERSION
                    ),
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

    #[test]
    fn damaged_patch_detected_and_dropped_with_the_file_that_references_it() {
        let dir = tempdir().unwrap();
        let config = || TimeStoreConfig {
            policy: crate::SnapshotPolicy::Never,
            ..TimeStoreConfig::default()
        };
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        // 300 nodes over five segments, snapshotted whole at 300. Node 7
        // changes at 301: the snapshot there patches segment 0. Node 100
        // changes at 302: the snapshot there patches segment 1 and
        // references segment 0's base at 300 and its patch at 301.
        for i in 1..=300u64 {
            ts.append_commit(i, &[add_node(i)]).unwrap();
        }
        ts.write_snapshot().unwrap();
        for (at, node) in [(301, 7), (302, 100)] {
            let label = Update::AddLabel {
                id: NodeId::new(node),
                label: lpg::StrId::new(1),
            };
            ts.append_commit(at, &[label]).unwrap();
            ts.write_snapshot().unwrap();
        }
        ts.sync().unwrap();
        assert!(ts.audit(true).unwrap().findings.is_empty());
        let snapdir = dir.path().join("snapshots");
        let vfs = vfs::VfsRef::std();
        let (patch_file, dependant) = (
            snapdir.join("snap_00000000000000000301.aisnap"),
            "snap_00000000000000000302.aisnap",
        );
        let later = vfs.read(&snapdir.join(dependant)).unwrap();
        let referenced = encoding::snapshot::open(&later).unwrap().extents();
        let patch = referenced
            .iter()
            .find(|e| e.ts == 301)
            .expect("the patch at 301");
        let mut bytes = vfs.read(&patch_file).unwrap();
        bytes[(patch.offset + patch.len / 2) as usize] ^= 0x10;
        vfs.write(&patch_file, &bytes).unwrap();

        let findings = ts.audit(true).unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check == "snapshot/reference" && f.detail.contains(dependant)),
            "{findings:?}"
        );
        drop(ts);
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        let left: Vec<String> = vfs
            .read_dir(&snapdir)
            .unwrap()
            .into_iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(left, ["snap_00000000000000000300.aisnap"], "both dropped");
        let mut replay = Graph::new();
        for t in 1..=302 {
            for u in ts.diff(t, t + 1).unwrap() {
                replay.apply(&u.op).unwrap();
            }
            assert!(ts.snapshot_at(t).unwrap().same_as(&replay), "at ts {t}");
        }
        assert!(ts.audit(true).unwrap().findings.is_empty());
    }

    #[test]
    fn damaged_run_detected_and_dropped_with_the_file_that_references_it() {
        let dir = tempdir().unwrap();
        let config = || TimeStoreConfig {
            policy: crate::SnapshotPolicy::Never,
            ..TimeStoreConfig::default()
        };
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        // 4 160 nodes: node runs 0 (segments 0..64) and 1 (64 and 65),
        // snapshotted whole at 1. Node 4 100 (run 1) changes at 2: the
        // snapshot there holds run 1 inline and references run 0 at 1. Node
        // 7 (run 0) changes at 3: the snapshot there holds run 0 inline and
        // references run 1 where the one at 2 holds it.
        let nodes: Vec<Update> = (0..4_160).map(add_node).collect();
        ts.append_commit(1, &nodes).unwrap();
        ts.write_snapshot().unwrap();
        for (at, node) in [(2, 4_100), (3, 7)] {
            let label = Update::AddLabel {
                id: NodeId::new(node),
                label: lpg::StrId::new(1),
            };
            ts.append_commit(at, &[label]).unwrap();
            ts.write_snapshot().unwrap();
        }
        ts.sync().unwrap();
        assert!(ts.audit(true).unwrap().findings.is_empty());
        let snapdir = dir.path().join("snapshots");
        let vfs = vfs::VfsRef::std();
        let (holder, dependant) = (
            snapdir.join("snap_00000000000000000002.aisnap"),
            "snap_00000000000000000003.aisnap",
        );
        let later = vfs.read(&snapdir.join(dependant)).unwrap();
        let manifest = encoding::snapshot::open(&later).unwrap();
        assert_eq!(manifest.runs(), (1, 1));
        let run = manifest
            .extents()
            .into_iter()
            .find(|e| e.ts == 2)
            .expect("run 1 at 2");
        let mut bytes = vfs.read(&holder).unwrap();
        bytes[(run.offset + run.len / 2) as usize] ^= 0x10;
        vfs.write(&holder, &bytes).unwrap();

        // The holder's load fails on its footer, the dependant's on the
        // run's sum.
        let loaded = ts.load_snapshot(3, &SharedSegments::default());
        assert!(
            matches!(loaded, Err(LoadError::Fault(Fault::Reference(2)))),
            "{:?}",
            loaded.map(|(m, _)| m)
        );
        let findings = ts.audit(true).unwrap().findings;
        assert!(
            findings.iter().any(|f| f.check == "snapshot/reference"
                && f.detail.contains(dependant)
                && f.detail.contains("at ts 2 ")),
            "{findings:?}"
        );
        drop(ts);
        let ts = TimeStore::open(dir.path(), config()).unwrap();
        let left: Vec<String> = vfs
            .read_dir(&snapdir)
            .unwrap()
            .into_iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(left, ["snap_00000000000000000001.aisnap"], "both dropped");
        let repairs: Vec<&str> = ts.repairs().iter().map(|f| f.detail.as_str()).collect();
        assert!(
            repairs.contains(&&*format!(
                "deleted snapshot file {dependant}: references the dropped snapshot at ts 2"
            )),
            "{repairs:?}"
        );
        assert!(ts.audit(true).unwrap().findings.is_empty());
    }
}
