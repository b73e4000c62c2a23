//! Write transactions.
//!
//! A [`WriteTxn`] buffers updates and validates every LPG constraint of
//! Sec. 3 against the latest committed graph *plus* the transaction's own
//! pending changes, so a committed transaction always yields a consistent
//! graph — the guarantee Neo4j's event listener hands to Aion ("committed
//! transactions always result in a consistent labeled property graph",
//! Sec. 5.1).

use lpg::{Graph, GraphError, NodeId, Props, RelId, Result, StrId, Timestamp, Update};
use lpg::{PropertyValue, TS_MAX};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Application-time property keys (Sec. 4.5). Interned once per database.
#[derive(Clone, Copy, Debug)]
pub struct AppTimeKeys {
    /// `_app_start` — application (event) start time.
    pub start: StrId,
    /// `_app_end` — application (event) end time.
    pub end: StrId,
}

/// A committed batch as the group-commit writer hands it to the lineage
/// cascade (stage 1 of Fig. 4, where the paper's after-commit listener
/// sits).
#[derive(Clone, Debug)]
pub struct CommitEvent {
    /// Commit (system) timestamp assigned to the transaction.
    pub ts: Timestamp,
    /// The validated updates, in application order.
    pub updates: Arc<Vec<Update>>,
}

/// A buffered write transaction.
pub struct WriteTxn<'a> {
    base: &'a Graph,
    app_keys: AppTimeKeys,
    updates: Vec<Update>,
    nodes_added: HashSet<NodeId>,
    nodes_deleted: HashSet<NodeId>,
    rels_added: HashMap<RelId, (NodeId, NodeId)>,
    rels_deleted: HashSet<RelId>,
    /// Degree delta per node caused by this transaction.
    degree_delta: HashMap<NodeId, i64>,
}

impl<'a> WriteTxn<'a> {
    /// Starts a transaction over the latest committed graph.
    pub fn new(base: &'a Graph, app_keys: AppTimeKeys) -> WriteTxn<'a> {
        WriteTxn {
            base,
            app_keys,
            updates: Vec::new(),
            nodes_added: HashSet::new(),
            nodes_deleted: HashSet::new(),
            rels_added: HashMap::new(),
            rels_deleted: HashSet::new(),
            degree_delta: HashMap::new(),
        }
    }

    fn node_exists(&self, id: NodeId) -> bool {
        if self.nodes_added.contains(&id) {
            return true;
        }
        if self.nodes_deleted.contains(&id) {
            return false;
        }
        self.base.has_node(id)
    }

    fn rel_exists(&self, id: RelId) -> bool {
        if self.rels_added.contains_key(&id) {
            return true;
        }
        if self.rels_deleted.contains(&id) {
            return false;
        }
        self.base.has_rel(id)
    }

    fn degree(&self, id: NodeId) -> i64 {
        let base = self.base.degree(id, lpg::Direction::Both) as i64;
        base + self.degree_delta.get(&id).copied().unwrap_or(0)
    }

    fn endpoints(&self, id: RelId) -> Option<(NodeId, NodeId)> {
        if let Some(&(s, t)) = self.rels_added.get(&id) {
            return Some((s, t));
        }
        self.base.rel(id).map(|r| (r.src, r.tgt))
    }

    /// Validates the application-time constraint: start < end whenever both
    /// are present in a property bag (Sec. 4.5).
    fn check_app_time(&self, props: &Props) -> Result<()> {
        let get = |key: StrId| {
            props
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_int().unwrap_or(0))
        };
        if let (Some(s), Some(e)) = (get(self.app_keys.start), get(self.app_keys.end)) {
            if s >= e {
                return Err(GraphError::InvalidApplicationTime);
            }
        }
        Ok(())
    }

    /// Creates a node.
    pub fn add_node(&mut self, id: NodeId, labels: Vec<StrId>, props: Props) -> Result<()> {
        if self.node_exists(id) {
            return Err(GraphError::NodeExists(id));
        }
        self.check_app_time(&props)?;
        self.nodes_added.insert(id);
        self.nodes_deleted.remove(&id);
        self.updates.push(Update::AddNode { id, labels, props });
        Ok(())
    }

    /// Deletes a node (which must have no remaining relationships).
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        if !self.node_exists(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        if self.degree(id) > 0 {
            return Err(GraphError::NodeHasRelationships(id));
        }
        if !self.nodes_added.remove(&id) {
            self.nodes_deleted.insert(id);
        }
        self.updates.push(Update::DeleteNode { id });
        Ok(())
    }

    /// Creates a relationship between existing nodes.
    pub fn add_rel(
        &mut self,
        id: RelId,
        src: NodeId,
        tgt: NodeId,
        label: Option<StrId>,
        props: Props,
    ) -> Result<()> {
        if self.rel_exists(id) {
            return Err(GraphError::RelExists(id));
        }
        if !self.node_exists(src) {
            return Err(GraphError::EndpointMissing { rel: id, node: src });
        }
        if !self.node_exists(tgt) {
            return Err(GraphError::EndpointMissing { rel: id, node: tgt });
        }
        self.check_app_time(&props)?;
        self.rels_added.insert(id, (src, tgt));
        self.rels_deleted.remove(&id);
        *self.degree_delta.entry(src).or_insert(0) += 1;
        *self.degree_delta.entry(tgt).or_insert(0) += 1;
        self.updates.push(Update::AddRel {
            id,
            src,
            tgt,
            label,
            props,
        });
        Ok(())
    }

    /// Deletes a relationship.
    pub fn delete_rel(&mut self, id: RelId) -> Result<()> {
        if !self.rel_exists(id) {
            return Err(GraphError::RelNotFound(id));
        }
        let Some((src, tgt)) = self.endpoints(id) else {
            return Err(GraphError::RelNotFound(id));
        };
        if self.rels_added.remove(&id).is_none() {
            self.rels_deleted.insert(id);
        }
        *self.degree_delta.entry(src).or_insert(0) -= 1;
        *self.degree_delta.entry(tgt).or_insert(0) -= 1;
        self.updates.push(Update::DeleteRel { id });
        Ok(())
    }

    /// Sets a node property.
    pub fn set_node_prop(&mut self, id: NodeId, key: StrId, value: PropertyValue) -> Result<()> {
        if !self.node_exists(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        self.updates.push(Update::SetNodeProp { id, key, value });
        Ok(())
    }

    /// Removes a node property.
    pub fn remove_node_prop(&mut self, id: NodeId, key: StrId) -> Result<()> {
        if !self.node_exists(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        self.updates.push(Update::RemoveNodeProp { id, key });
        Ok(())
    }

    /// Adds a label to a node.
    pub fn add_label(&mut self, id: NodeId, label: StrId) -> Result<()> {
        if !self.node_exists(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        self.updates.push(Update::AddLabel { id, label });
        Ok(())
    }

    /// Removes a label from a node.
    pub fn remove_label(&mut self, id: NodeId, label: StrId) -> Result<()> {
        if !self.node_exists(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        self.updates.push(Update::RemoveLabel { id, label });
        Ok(())
    }

    /// Sets a relationship property.
    pub fn set_rel_prop(&mut self, id: RelId, key: StrId, value: PropertyValue) -> Result<()> {
        if !self.rel_exists(id) {
            return Err(GraphError::RelNotFound(id));
        }
        self.updates.push(Update::SetRelProp { id, key, value });
        Ok(())
    }

    /// Removes a relationship property.
    pub fn remove_rel_prop(&mut self, id: RelId, key: StrId) -> Result<()> {
        if !self.rel_exists(id) {
            return Err(GraphError::RelNotFound(id));
        }
        self.updates.push(Update::RemoveRelProp { id, key });
        Ok(())
    }

    /// Sets an entity's application-time validity `[start, end)`
    /// (Sec. 4.5). `end = TS_MAX` means "until further notice".
    pub fn set_node_app_time(&mut self, id: NodeId, start: u64, end: u64) -> Result<()> {
        if start >= end {
            return Err(GraphError::InvalidApplicationTime);
        }
        self.set_node_prop(id, self.app_keys.start, PropertyValue::Int(start as i64))?;
        if end != TS_MAX {
            self.set_node_prop(id, self.app_keys.end, PropertyValue::Int(end as i64))?;
        }
        Ok(())
    }

    /// Number of buffered updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when nothing was changed.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Finishes validation and hands the update batch to the committer.
    pub(crate) fn into_updates(self) -> Vec<Update> {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> AppTimeKeys {
        AppTimeKeys {
            start: StrId::new(1000),
            end: StrId::new(1001),
        }
    }

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }
    fn rid(i: u64) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn txn_validates_against_base_and_overlay() {
        let mut base = Graph::new();
        base.apply(&Update::AddNode {
            id: nid(1),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
        let mut txn = WriteTxn::new(&base, keys());
        // Existing node cannot be re-added.
        assert!(matches!(
            txn.add_node(nid(1), vec![], vec![]),
            Err(GraphError::NodeExists(_))
        ));
        // New node + rel to base node works.
        txn.add_node(nid(2), vec![], vec![]).unwrap();
        txn.add_rel(rid(1), nid(1), nid(2), None, vec![]).unwrap();
        // Cannot delete node 2 while the pending rel exists.
        assert!(matches!(
            txn.delete_node(nid(2)),
            Err(GraphError::NodeHasRelationships(_))
        ));
        txn.delete_rel(rid(1)).unwrap();
        txn.delete_node(nid(2)).unwrap();
        assert_eq!(txn.len(), 4);
    }

    #[test]
    fn rel_to_missing_endpoint_rejected() {
        let base = Graph::new();
        let mut txn = WriteTxn::new(&base, keys());
        assert!(matches!(
            txn.add_rel(rid(1), nid(1), nid(2), None, vec![]),
            Err(GraphError::EndpointMissing { .. })
        ));
    }

    #[test]
    fn delete_then_readd_in_one_txn() {
        let mut base = Graph::new();
        base.apply(&Update::AddNode {
            id: nid(1),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
        let mut txn = WriteTxn::new(&base, keys());
        txn.delete_node(nid(1)).unwrap();
        txn.add_node(nid(1), vec![StrId::new(1)], vec![]).unwrap();
        assert_eq!(txn.len(), 2);
        // Replaying the batch on the base graph must succeed.
        let mut check = base.clone();
        check.apply_all(txn.into_updates().iter()).unwrap();
        assert!(check.node(nid(1)).unwrap().has_label(StrId::new(1)));
    }

    #[test]
    fn app_time_constraint_checked() {
        let base = Graph::new();
        let mut txn = WriteTxn::new(&base, keys());
        let bad = vec![
            (keys().start, PropertyValue::Int(10)),
            (keys().end, PropertyValue::Int(5)),
        ];
        assert_eq!(
            txn.add_node(nid(1), vec![], bad),
            Err(GraphError::InvalidApplicationTime)
        );
        txn.add_node(nid(1), vec![], vec![]).unwrap();
        assert_eq!(
            txn.set_node_app_time(nid(1), 9, 9),
            Err(GraphError::InvalidApplicationTime)
        );
        txn.set_node_app_time(nid(1), 5, 10).unwrap();
        assert_eq!(txn.len(), 3);
    }

    #[test]
    fn property_ops_require_entity() {
        let base = Graph::new();
        let mut txn = WriteTxn::new(&base, keys());
        assert!(txn
            .set_node_prop(nid(1), StrId::new(0), PropertyValue::Int(1))
            .is_err());
        assert!(txn
            .set_rel_prop(rid(1), StrId::new(0), PropertyValue::Int(1))
            .is_err());
        assert!(txn.add_label(nid(1), StrId::new(0)).is_err());
        txn.add_node(nid(1), vec![], vec![]).unwrap();
        txn.set_node_prop(nid(1), StrId::new(0), PropertyValue::Int(1))
            .unwrap();
    }
}
