//! Deep consistency audit of a [`LineageStore`] (the LineageStore half of
//! `aion-fsck`).
//!
//! Structural pass (always), [`btree::audit_page_file`] over the one page
//! file:
//!
//! * all four index B+Trees pass [`btree::BTree::verify`];
//! * page accounting: every allocated page is either reachable from a tree
//!   root or on the free list, and never both.
//!
//! Deep pass (`deep = true`) additionally checks the lineage invariants
//! reconstruction depends on:
//!
//! * per-entity version chains are temporally monotone (the derived
//!   validity intervals `[ts_i, ts_{i+1})` are contiguous and
//!   non-overlapping), every delta chain starts at a materialized record,
//!   chain positions increment from it, its `base_ts` is propagated
//!   unchanged, and no delta extends a tombstone;
//! * record bodies match their index (node records in the node tree, …);
//! * every neighbour value is exactly `[0]` or `[1]` (the deleted flag),
//!   the out- and in-neighbour indexes hold mirror-image entry sets, and
//!   every neighbour entry agrees with the relationship index about the
//!   endpoints and liveness of its relationship at that timestamp.
//!
//! The structural pass also measures each index's pages and leaf fill.
//! Findings are [`btree::Finding`]s.

use crate::entry::LineageEntry;
use crate::store::{neighbour_deleted, LineageStore};
use btree::{audit_page_file, Audit, BTree, Finding};
use encoding::{keys, RecordBody};
use lpg::{NodeId, RelId, Result};
use std::collections::BTreeSet;

/// Whether `body` belongs in the node history index.
fn is_node_body(body: &RecordBody) -> bool {
    matches!(
        body,
        RecordBody::NodeFull { .. } | RecordBody::NodeDelta(_) | RecordBody::NodeDeleted
    )
}

/// Whether `body` belongs in the relationship history index.
fn is_rel_body(body: &RecordBody) -> bool {
    matches!(
        body,
        RecordBody::RelFull { .. } | RecordBody::RelDelta(_) | RecordBody::RelDeleted
    )
}

impl LineageStore {
    /// Runs the audit; see the module docs for the invariant list. Returns
    /// every violation found (empty = consistent) and each index's fill.
    /// IO errors abort the audit; corruption is reported, never panicked on.
    pub fn audit(&self, deep: bool) -> Result<Audit> {
        let trees = [
            ("nodes", "nodes/structure", &self.nodes),
            ("rels", "rels/structure", &self.rels),
            ("out-neighbours", "out-neighbours/structure", &self.out_n),
            ("in-neighbours", "in-neighbours/structure", &self.in_n),
        ];
        let mut audit = audit_page_file(&self.store, &trees, "pages/accounting")?;
        if deep {
            let findings = &mut audit.findings;
            self.audit_entity_chains(&self.nodes, "node", is_node_body, findings)?;
            self.audit_entity_chains(&self.rels, "rel", is_rel_body, findings)?;
            self.audit_neighbour_indexes(findings)?;
        }
        Ok(audit)
    }

    /// Walks one history index checking per-entity chain invariants.
    fn audit_entity_chains(
        &self,
        tree: &BTree,
        kind: &'static str,
        body_fits: fn(&RecordBody) -> bool,
        findings: &mut Vec<Finding>,
    ) -> Result<()> {
        // (entity id, ts, entry) of the previous record.
        let mut prev: Option<(u64, u64, LineageEntry)> = None;
        for item in tree.scan(&[], &[])? {
            let (key, value) = item?;
            let Some((id, ts)) = keys::decode_entity_ts_key(&key) else {
                findings.push(Finding::new(
                    "chain/key",
                    format!("{kind} index holds an undecodable {}-byte key", key.len()),
                ));
                prev = None;
                continue;
            };
            let Some(entry) = LineageEntry::from_bytes(&value) else {
                findings.push(Finding::new(
                    "chain/entry",
                    format!("{kind} {id} at ts {ts}: undecodable entry"),
                ));
                prev = None;
                continue;
            };
            if !body_fits(&entry.body) {
                findings.push(Finding::new(
                    "chain/body-kind",
                    format!(
                        "{kind} {id} at ts {ts} holds a foreign record body {:?}",
                        entry.body
                    ),
                ));
            }
            let same_entity = prev.as_ref().is_some_and(|(pid, _, _)| *pid == id);
            if same_entity {
                // Interval contiguity: derived validity intervals are
                // `[ts_i, ts_{i+1})`, so any non-increasing ts means two
                // versions overlap.
                if let Some((_, pts, _)) = &prev {
                    if ts <= *pts {
                        findings.push(Finding::new(
                            "chain/interval",
                            format!(
                                "{kind} {id}: version at ts {ts} overlaps predecessor at ts {pts}"
                            ),
                        ));
                    }
                }
            }
            if entry.pos == 0 {
                if entry.base_ts != ts {
                    findings.push(Finding::new(
                        "chain/base",
                        format!(
                            "{kind} {id} at ts {ts}: materialized record claims base_ts {}",
                            entry.base_ts
                        ),
                    ));
                }
            } else {
                // A delta must extend a live predecessor of the same chain.
                match (same_entity, &prev) {
                    (true, Some((_, pts, pentry))) => {
                        if pentry.body.is_deleted() {
                            findings.push(Finding::new("chain/tombstone", format!(
                                    "{kind} {id} at ts {ts}: delta extends the tombstone at ts {pts}"
                                )));
                        }
                        if entry.pos != pentry.pos + 1 {
                            findings.push(Finding::new(
                                "chain/position",
                                format!(
                                    "{kind} {id} at ts {ts}: chain position {} after {}",
                                    entry.pos, pentry.pos
                                ),
                            ));
                        }
                        if entry.base_ts != pentry.base_ts {
                            findings.push(Finding::new("chain/base", format!(
                                    "{kind} {id} at ts {ts}: base_ts {} diverges from chain base {}",
                                    entry.base_ts, pentry.base_ts
                                )));
                        }
                    }
                    _ => findings.push(Finding::new(
                        "chain/head",
                        format!(
                            "{kind} {id}: chain starts with a delta at ts {ts} (pos {})",
                            entry.pos
                        ),
                    )),
                }
            }
            prev = Some((id, ts, entry));
        }
        Ok(())
    }

    /// Checks that the out-/in-neighbour indexes mirror each other and
    /// agree with the relationship index.
    fn audit_neighbour_indexes(&self, findings: &mut Vec<Finding>) -> Result<()> {
        // Normalized entries: (src, tgt, rel, ts, deleted).
        let mut out_set: BTreeSet<(u64, u64, u64, u64, bool)> = BTreeSet::new();
        let mut in_set: BTreeSet<(u64, u64, u64, u64, bool)> = BTreeSet::new();
        for (tree, set, swap, name) in [
            (&self.out_n, &mut out_set, false, "out-neighbours"),
            (&self.in_n, &mut in_set, true, "in-neighbours"),
        ] {
            for item in tree.scan(&[], &[])? {
                let (key, value) = item?;
                let Some((a, b, rel, ts)) = keys::decode_neigh_key(&key) else {
                    findings.push(Finding::new(
                        "neighbours/key",
                        format!("{name} index holds an undecodable {}-byte key", key.len()),
                    ));
                    continue;
                };
                let Some(deleted) = neighbour_deleted(&value) else {
                    findings.push(Finding::new(
                        "neighbours/entry",
                        format!(
                            "{name} entry for rel {} at ts {ts} holds {value:?}, not [0] or [1]",
                            rel.raw()
                        ),
                    ));
                    continue;
                };
                let (src, tgt) = if swap { (b, a) } else { (a, b) };
                set.insert((src.raw(), tgt.raw(), rel.raw(), ts, deleted));
            }
        }
        for entry in out_set.symmetric_difference(&in_set) {
            let (src, tgt, rel, ts, _) = entry;
            let side = if out_set.contains(entry) {
                "only the out-neighbour index"
            } else {
                "only the in-neighbour index"
            };
            findings.push(Finding::new(
                "neighbours/mirror",
                format!("rel {rel} ({src}->{tgt}) at ts {ts} appears in {side}"),
            ));
        }
        // Each neighbour event must agree with the relationship index.
        for (src, tgt, rel, ts, deleted) in out_set.intersection(&in_set) {
            match self.rel_at(RelId::new(*rel), *ts) {
                Ok(Some(r)) => {
                    if *deleted {
                        findings.push(Finding::new("neighbours/liveness", format!(
                                "neighbour tombstone for rel {rel} at ts {ts}, but the rel index has it alive"
                            )));
                    } else if r.src != NodeId::new(*src) || r.tgt != NodeId::new(*tgt) {
                        findings.push(Finding::new("neighbours/endpoints", format!(
                                "neighbour entry says rel {rel} is {src}->{tgt} at ts {ts}, rel index says {}->{}",
                                r.src.raw(),
                                r.tgt.raw()
                            )));
                    }
                }
                Ok(None) => {
                    if !*deleted {
                        findings.push(Finding::new("neighbours/liveness", format!(
                                "neighbour addition for rel {rel} at ts {ts}, but the rel index has no live record"
                            )));
                    }
                }
                Err(e) => findings.push(Finding::new(
                    "neighbours/liveness",
                    format!("rel {rel} at ts {ts} is unreadable: {e}"),
                )),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LineageStoreConfig;
    use lpg::{PropertyValue, StrId, Update};
    use tempfile::tempdir;

    fn seed(ls: &LineageStore) {
        for i in 0..40u64 {
            ls.apply_commit(
                i * 3 + 1,
                &[Update::AddNode {
                    id: NodeId::new(i),
                    labels: vec![StrId::new(0)],
                    props: vec![],
                }],
            )
            .unwrap();
            if i > 0 {
                ls.apply_commit(
                    i * 3 + 2,
                    &[Update::AddRel {
                        id: RelId::new(i),
                        src: NodeId::new(i - 1),
                        tgt: NodeId::new(i),
                        label: Some(StrId::new(1)),
                        props: vec![],
                    }],
                )
                .unwrap();
            }
            // Delta chains past the materialization threshold.
            ls.apply_commit(
                i * 3 + 3,
                &[Update::SetNodeProp {
                    id: NodeId::new(i),
                    key: StrId::new(2),
                    value: PropertyValue::Int(i as i64),
                }],
            )
            .unwrap();
        }
        // A deletion so tombstone handling is exercised.
        ls.apply_commit(200, &[Update::DeleteRel { id: RelId::new(5) }])
            .unwrap();
        ls.sync().unwrap();
    }

    #[test]
    fn fresh_store_audits_clean() {
        let dir = tempdir().unwrap();
        let ls =
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap();
        seed(&ls);
        let report = ls.audit(true).unwrap();
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
        let names: Vec<&str> = report.fill.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["nodes", "rels", "out-neighbours", "in-neighbours"]);
        for (name, fill) in &report.fill {
            assert!(fill.leaves >= 1 && fill.leaf_fill() > 0.0, "{name}: {fill}");
        }
    }

    #[test]
    fn one_sided_neighbour_entry_detected() {
        let dir = tempdir().unwrap();
        let ls =
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap();
        seed(&ls);
        // Inject an out-neighbour entry with no in-neighbour mirror.
        ls.out_n
            .insert(
                &keys::neigh_key(NodeId::new(1), NodeId::new(2), RelId::new(999), 777),
                &[0],
            )
            .unwrap();
        let findings = ls.audit(true).unwrap().findings;
        assert!(findings.iter().any(|f| f.check == "neighbours/mirror"));
    }

    #[test]
    fn non_canonical_neighbour_key_detected() {
        let dir = tempdir().unwrap();
        let ls =
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap();
        seed(&ls);
        // Node 0 written as `[1, 0]`, with a leading zero byte: it sorts
        // among the one-byte ids but is no key `neigh_key` writes.
        ls.out_n.insert(&[1, 0, 1, 1, 1, 1, 1, 2], &[0]).unwrap();
        let findings = ls.audit(true).unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check == "neighbours/key" && f.detail.contains("8-byte key")),
            "{findings:?}"
        );
    }

    #[test]
    fn neighbour_value_other_than_the_deleted_flag_detected() {
        let dir = tempdir().unwrap();
        let ls =
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap();
        seed(&ls);
        // Rel 3 (2 -> 3, added at ts 11): overwrite its in-neighbour value
        // with a byte that is no flag, then with a whole record.
        let key = keys::neigh_key(NodeId::new(3), NodeId::new(2), RelId::new(3), 11);
        for value in [
            vec![2u8],
            LineageEntry::full(11, RecordBody::RelDeleted).to_bytes(),
        ] {
            ls.in_n.insert(&key, &value).unwrap();
            let findings = ls.audit(true).unwrap().findings;
            assert!(
                findings
                    .iter()
                    .any(|f| f.check == "neighbours/entry" && f.detail.contains("rel 3 at ts 11")),
                "{value:?}: {findings:?}"
            );
        }
        ls.in_n.insert(&key, &[0]).unwrap();
        assert!(ls.audit(true).unwrap().findings.is_empty());
    }
}
