//! Structural audit of a [`LineageStore`] (the LineageStore half of
//! `aion-fsck`), [`btree::audit_page_file`] over the one page file:
//!
//! * all four index B+Trees pass [`btree::BTree::verify`];
//! * page accounting: every allocated page is either reachable from a tree
//!   root or on the free list, and never both.
//!
//! It also measures each index's pages and leaf fill. What the entries
//! mean is not audited here: below its watermark the store is derived
//! state, and `check` compares it with a rebuild from the change log.
//! Findings are [`btree::Finding`]s.

use crate::store::LineageStore;
use btree::{audit_page_file, Audit};
use lpg::Result;

impl LineageStore {
    /// Runs the structural audit; see the module docs. Returns every
    /// violation found (empty = consistent) and each index's fill. IO
    /// errors abort the audit; corruption is reported, never panicked on.
    pub fn audit(&self) -> Result<Audit> {
        let trees = [
            ("nodes", "nodes/structure", &self.nodes),
            ("rels", "rels/structure", &self.rels),
            ("out-neighbours", "out-neighbours/structure", &self.out_n),
            ("in-neighbours", "in-neighbours/structure", &self.in_n),
        ];
        Ok(audit_page_file(&self.store, &trees, "pages/accounting")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LineageStoreConfig;
    use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
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
        let report = ls.audit().unwrap();
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
}
