//! Write transactions.
//!
//! A [`WriteTxn`] buffers updates. It checks only what needs no graph, the
//! application-time constraint of Sec. 4.5; the LPG constraints of Sec. 3
//! are checked when the transaction commits, by the log writer, against
//! the latest graph as the commits before it in commit order left it
//! ([`lpg::Graph::check_batch`]). A batch that fails there is refused
//! before anything reaches the log, so a committed transaction always
//! yields a consistent graph — the guarantee Neo4j's event listener hands
//! to Aion ("committed transactions always result in a consistent labeled
//! property graph", Sec. 5.1).

use lpg::{GraphError, NodeId, Props, RelId, Result, StrId, Timestamp, Update};
use lpg::{PropertyValue, TS_MAX};
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
    /// The checked updates, in application order.
    pub updates: Arc<Vec<Update>>,
}

/// A buffered write transaction. The graph constraints are checked at
/// commit, so a constraint error comes back from `Aion::write`, not from
/// the method that buffered the update.
pub struct WriteTxn {
    app_keys: AppTimeKeys,
    updates: Vec<Update>,
}

impl WriteTxn {
    /// Starts an empty transaction.
    pub fn new(app_keys: AppTimeKeys) -> WriteTxn {
        WriteTxn {
            app_keys,
            updates: Vec::new(),
        }
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

    /// Buffers one update, after checking the application-time constraint
    /// of the property bag an `AddNode` or `AddRel` carries.
    pub fn push(&mut self, update: Update) -> Result<()> {
        if let Update::AddNode { props, .. } | Update::AddRel { props, .. } = &update {
            self.check_app_time(props)?;
        }
        self.updates.push(update);
        Ok(())
    }

    /// Creates a node.
    pub fn add_node(&mut self, id: NodeId, labels: Vec<StrId>, props: Props) -> Result<()> {
        self.push(Update::AddNode { id, labels, props })
    }

    /// Deletes a node (which must have no remaining relationships).
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        self.push(Update::DeleteNode { id })
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
        self.push(Update::AddRel {
            id,
            src,
            tgt,
            label,
            props,
        })
    }

    /// Deletes a relationship.
    pub fn delete_rel(&mut self, id: RelId) -> Result<()> {
        self.push(Update::DeleteRel { id })
    }

    /// Sets a node property.
    pub fn set_node_prop(&mut self, id: NodeId, key: StrId, value: PropertyValue) -> Result<()> {
        self.push(Update::SetNodeProp { id, key, value })
    }

    /// Removes a node property.
    pub fn remove_node_prop(&mut self, id: NodeId, key: StrId) -> Result<()> {
        self.push(Update::RemoveNodeProp { id, key })
    }

    /// Adds a label to a node.
    pub fn add_label(&mut self, id: NodeId, label: StrId) -> Result<()> {
        self.push(Update::AddLabel { id, label })
    }

    /// Removes a label from a node.
    pub fn remove_label(&mut self, id: NodeId, label: StrId) -> Result<()> {
        self.push(Update::RemoveLabel { id, label })
    }

    /// Sets a relationship property.
    pub fn set_rel_prop(&mut self, id: RelId, key: StrId, value: PropertyValue) -> Result<()> {
        self.push(Update::SetRelProp { id, key, value })
    }

    /// Removes a relationship property.
    pub fn remove_rel_prop(&mut self, id: RelId, key: StrId) -> Result<()> {
        self.push(Update::RemoveRelProp { id, key })
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

    /// Hands the update batch to the committer.
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

    #[test]
    fn app_time_constraint_checked() {
        let mut txn = WriteTxn::new(keys());
        let bad = vec![
            (keys().start, PropertyValue::Int(10)),
            (keys().end, PropertyValue::Int(5)),
        ];
        assert_eq!(
            txn.add_node(nid(1), vec![], bad.clone()),
            Err(GraphError::InvalidApplicationTime)
        );
        assert_eq!(
            txn.add_rel(RelId::new(1), nid(1), nid(1), None, bad),
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
    fn graph_constraints_wait_for_the_commit() {
        // Nothing here exists; the transaction buffers it all the same.
        let mut txn = WriteTxn::new(keys());
        txn.delete_node(nid(1)).unwrap();
        txn.set_rel_prop(RelId::new(1), StrId::new(0), PropertyValue::Int(1))
            .unwrap();
        assert_eq!(txn.into_updates().len(), 2);
    }
}
