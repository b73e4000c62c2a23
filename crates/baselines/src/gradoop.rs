//! A Gradoop-style model-based temporal engine.
//!
//! "Gradoop is an analytical engine that supports distributed execution
//! over the model-based approach at the significant cost of performing an
//! all-history scan to retrieve valid graph parts" (Sec. 2.2). Storage is
//! two temporal row tables; a snapshot is a scan + filter over both,
//! "followed by two parallel join transformations required to remove
//! dangling relationships" — where "Gradoop spends nearly 80 % of its
//! time" (Sec. 6.2).

use crate::TemporalBackend;
use lpg::{Graph, Node, NodeId, RelId, Relationship, Timestamp, Update, TS_MAX};
use std::collections::HashSet;

/// One temporal node row.
#[derive(Clone, Debug)]
struct NodeRow {
    id: NodeId,
    from: Timestamp,
    to: Timestamp,
    labels: lpg::LabelSet,
    props: lpg::PropBag,
}

/// One temporal relationship row.
#[derive(Clone, Debug)]
struct RelRow {
    id: RelId,
    from: Timestamp,
    to: Timestamp,
    src: NodeId,
    tgt: NodeId,
    label: Option<lpg::StrId>,
    props: lpg::PropBag,
}

/// The model-based store: append-only temporal tables.
#[derive(Default)]
pub struct GradoopLike {
    nodes: Vec<NodeRow>,
    rels: Vec<RelRow>,
    updates: u64,
    /// Rows scanned by the last snapshot (profiling the scan phase).
    pub last_scan_rows: std::cell::Cell<u64>,
    /// Probe operations in the last snapshot's dangling-edge joins.
    pub last_join_probes: std::cell::Cell<u64>,
}

impl GradoopLike {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates ingested.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Closes the open row of an entity (model-based deletion).
    fn close_node(&mut self, id: NodeId, ts: Timestamp) {
        // Reverse scan: the open row is near the end for ordered ingest.
        for row in self.nodes.iter_mut().rev() {
            if row.id == id && row.to == TS_MAX {
                row.to = ts;
                return;
            }
        }
    }

    fn close_rel(&mut self, id: RelId, ts: Timestamp) {
        for row in self.rels.iter_mut().rev() {
            if row.id == id && row.to == TS_MAX {
                row.to = ts;
                return;
            }
        }
    }

    /// Model-based modify: close the current row and open a new version —
    /// historical data becomes extra rows in the table.
    fn reversion_node(&mut self, id: NodeId, ts: Timestamp, f: impl FnOnce(&mut NodeRow)) {
        let open = self
            .nodes
            .iter()
            .rev()
            .find(|r| r.id == id && r.to == TS_MAX)
            .cloned();
        if let Some(mut row) = open {
            self.close_node(id, ts);
            row.from = ts;
            row.to = TS_MAX;
            f(&mut row);
            self.nodes.push(row);
        }
    }

    fn reversion_rel(&mut self, id: RelId, ts: Timestamp, f: impl FnOnce(&mut RelRow)) {
        let open = self
            .rels
            .iter()
            .rev()
            .find(|r| r.id == id && r.to == TS_MAX)
            .cloned();
        if let Some(mut row) = open {
            self.close_rel(id, ts);
            row.from = ts;
            row.to = TS_MAX;
            f(&mut row);
            self.rels.push(row);
        }
    }
}

impl TemporalBackend for GradoopLike {
    fn name(&self) -> &'static str {
        "gradoop-like"
    }

    fn apply(&mut self, ts: Timestamp, op: &Update) {
        self.updates += 1;
        match op {
            Update::AddNode { id, labels, props } => self.nodes.push(NodeRow {
                id: *id,
                from: ts,
                to: TS_MAX,
                labels: labels.clone().into(),
                props: props.clone().into(),
            }),
            Update::DeleteNode { id } => self.close_node(*id, ts),
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => self.rels.push(RelRow {
                id: *id,
                from: ts,
                to: TS_MAX,
                src: *src,
                tgt: *tgt,
                label: *label,
                props: props.clone().into(),
            }),
            Update::DeleteRel { id } => self.close_rel(*id, ts),
            Update::SetNodeProp { id, key, value } => self.reversion_node(*id, ts, |row| {
                row.props.set(*key, value.clone());
            }),
            Update::RemoveNodeProp { id, key } => self.reversion_node(*id, ts, |row| {
                row.props.remove(*key);
            }),
            Update::AddLabel { id, label } => self.reversion_node(*id, ts, |row| {
                row.labels.insert(*label);
            }),
            Update::RemoveLabel { id, label } => self.reversion_node(*id, ts, |row| {
                row.labels.remove(*label);
            }),
            Update::SetRelProp { id, key, value } => self.reversion_rel(*id, ts, |row| {
                row.props.set(*key, value.clone());
            }),
            Update::RemoveRelProp { id, key } => self.reversion_rel(*id, ts, |row| {
                row.props.remove(*key);
            }),
        }
    }

    fn rel_at(&self, id: RelId, ts: Timestamp) -> Option<Relationship> {
        // Full relationship-table scan (|U_R|) — the model-based cost.
        let mut hit: Option<&RelRow> = None;
        for row in &self.rels {
            if row.id == id && row.from <= ts && ts < row.to {
                hit = Some(row);
            }
        }
        let row = hit?;
        // Validate endpoints with node-table scans, as the model demands.
        let src_ok = self
            .nodes
            .iter()
            .any(|n| n.id == row.src && n.from <= ts && ts < n.to);
        let tgt_ok = self
            .nodes
            .iter()
            .any(|n| n.id == row.tgt && n.from <= ts && ts < n.to);
        (src_ok && tgt_ok).then(|| Relationship {
            id: row.id,
            src: row.src,
            tgt: row.tgt,
            label: row.label,
            props: row.props.clone(),
        })
    }

    fn snapshot_at(&self, ts: Timestamp) -> Graph {
        let mut scan_rows = 0u64;
        let mut probes = 0u64;
        // Phase 1: scan + filter both tables.
        let valid_nodes: Vec<&NodeRow> = self
            .nodes
            .iter()
            .inspect(|_| scan_rows += 1)
            .filter(|r| r.from <= ts && ts < r.to)
            .collect();
        let valid_rels: Vec<&RelRow> = self
            .rels
            .iter()
            .inspect(|_| scan_rows += 1)
            .filter(|r| r.from <= ts && ts < r.to)
            .collect();
        // Phase 2: two semi-joins removing dangling relationships.
        let node_ids: HashSet<NodeId> = valid_nodes.iter().map(|r| r.id).collect();
        let joined: Vec<&&RelRow> = valid_rels
            .iter()
            .inspect(|_| probes += 1)
            .filter(|r| node_ids.contains(&r.src))
            .collect();
        let joined: Vec<&&RelRow> = joined
            .into_iter()
            .inspect(|_| probes += 1)
            .filter(|r| node_ids.contains(&r.tgt))
            .collect();
        self.last_scan_rows.set(scan_rows);
        self.last_join_probes.set(probes);
        // Materialize.
        let mut g = Graph::new();
        for n in valid_nodes {
            g.insert_node(Node {
                id: n.id,
                labels: n.labels.clone(),
                props: n.props.clone(),
            })
            .expect("node rows are disjoint");
        }
        for r in joined {
            g.insert_rel(Relationship {
                id: r.id,
                src: r.src,
                tgt: r.tgt,
                label: r.label,
                props: r.props.clone(),
            })
            .expect("joined rels have endpoints");
        }
        g
    }

    fn heap_size(&self) -> usize {
        self.nodes.len() * 96 + self.rels.len() * 120
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        }
    }

    fn add_rel(id: u64, s: u64, t: u64) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: NodeId::new(s),
            tgt: NodeId::new(t),
            label: None,
            props: vec![],
        }
    }

    #[test]
    fn snapshot_filters_and_joins() {
        let mut g = GradoopLike::new();
        g.apply(1, &add_node(1));
        g.apply(2, &add_node(2));
        g.apply(3, &add_rel(0, 1, 2));
        g.apply(5, &Update::DeleteNode { id: NodeId::new(2) });
        // At ts 5 node 2 is gone: the join drops the dangling rel.
        let snap = g.snapshot_at(5);
        assert_eq!(snap.node_count(), 1);
        assert_eq!(snap.rel_count(), 0);
        assert!(g.last_scan_rows.get() >= 3);
        // At ts 4 everything is valid.
        let snap = g.snapshot_at(4);
        assert_eq!((snap.node_count(), snap.rel_count()), (2, 1));
    }

    #[test]
    fn point_query_scans_table() {
        let mut g = GradoopLike::new();
        g.apply(1, &add_node(1));
        g.apply(2, &add_node(2));
        g.apply(3, &add_rel(0, 1, 2));
        g.apply(6, &Update::DeleteRel { id: RelId::new(0) });
        assert!(g.rel_at(RelId::new(0), 4).is_some());
        assert!(g.rel_at(RelId::new(0), 6).is_none());
        assert!(g.rel_at(RelId::new(0), 2).is_none());
    }

    #[test]
    fn property_updates_create_new_rows() {
        let mut g = GradoopLike::new();
        let k = lpg::StrId::new(3);
        g.apply(1, &add_node(1));
        g.apply(
            4,
            &Update::SetNodeProp {
                id: NodeId::new(1),
                key: k,
                value: lpg::PropertyValue::Int(9),
            },
        );
        assert_eq!(g.nodes.len(), 2, "history rows accumulate");
        let old = g.snapshot_at(2);
        assert_eq!(old.node(NodeId::new(1)).unwrap().prop(k), None);
        let new = g.snapshot_at(4);
        assert_eq!(
            new.node(NodeId::new(1)).unwrap().prop(k),
            Some(&lpg::PropertyValue::Int(9))
        );
    }
}
