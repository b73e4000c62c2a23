//! Entity deltas — the "Diff" record of Fig. 3.
//!
//! LineageStore and the TimeStore log may store an update either as a fully
//! materialized entity or as a *delta from the last update* (Sec. 4.2). A
//! delta records label additions/removals and property sets/removals; the
//! most significant bit of a label reference and the three MSBs of a property
//! reference carry the present/deleted state on disk (handled by the
//! `encoding` crate). Here we keep the logical form plus `apply`/`merge`.

use crate::entity::{Node, Relationship};
use crate::ids::StrId;
use crate::update::Update;
use crate::value::PropertyValue;

/// One property change inside a delta.
#[derive(Clone, PartialEq, Debug)]
pub enum PropChange {
    /// Set `key` to `value`.
    Set(StrId, PropertyValue),
    /// Remove `key`.
    Remove(StrId),
}

impl PropChange {
    /// The key this change touches.
    pub fn key(&self) -> StrId {
        match self {
            PropChange::Set(k, _) | PropChange::Remove(k) => *k,
        }
    }
}

/// A compact diff between two consecutive versions of one entity.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EntityDelta {
    /// Labels added (nodes only).
    pub labels_added: Vec<StrId>,
    /// Labels removed (nodes only).
    pub labels_removed: Vec<StrId>,
    /// Property changes in application order.
    pub props: Vec<PropChange>,
}

impl EntityDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.labels_added.is_empty() && self.labels_removed.is_empty() && self.props.is_empty()
    }

    /// Builds the delta corresponding to a single modify [`Update`].
    /// Returns `None` for inserts/deletes, which are not deltas.
    pub fn from_update(op: &Update) -> Option<EntityDelta> {
        let mut d = EntityDelta::new();
        match op {
            Update::SetNodeProp { key, value, .. } | Update::SetRelProp { key, value, .. } => {
                d.props.push(PropChange::Set(*key, value.clone()));
            }
            Update::RemoveNodeProp { key, .. } | Update::RemoveRelProp { key, .. } => {
                d.props.push(PropChange::Remove(*key));
            }
            Update::AddLabel { label, .. } => d.labels_added.push(*label),
            Update::RemoveLabel { label, .. } => d.labels_removed.push(*label),
            _ => return None,
        }
        Some(d)
    }

    /// Merges `later` into `self` so that `self.apply*` is equivalent to
    /// applying `self` then `later`. Used when collapsing delta chains
    /// (Sec. 6.5 materialization strategy).
    pub fn merge(&mut self, later: &EntityDelta) {
        for l in &later.labels_added {
            self.labels_removed.retain(|x| x != l);
            if !self.labels_added.contains(l) {
                self.labels_added.push(*l);
            }
        }
        for l in &later.labels_removed {
            self.labels_added.retain(|x| x != l);
            if !self.labels_removed.contains(l) {
                self.labels_removed.push(*l);
            }
        }
        for p in &later.props {
            // A later change to the same key supersedes the earlier one.
            self.props.retain(|c| c.key() != p.key());
            self.props.push(p.clone());
        }
    }

    /// Applies this delta to a node snapshot in place.
    pub fn apply_to_node(&self, node: &mut Node) {
        for l in &self.labels_removed {
            node.labels.remove(*l);
        }
        for l in &self.labels_added {
            node.labels.insert(*l);
        }
        for p in &self.props {
            match p {
                PropChange::Set(k, v) => node.props.set(*k, v.clone()),
                PropChange::Remove(k) => {
                    node.props.remove(*k);
                }
            }
        }
    }

    /// Applies this delta to a relationship snapshot in place (label changes
    /// are ignored — relationship types are immutable in the model).
    pub fn apply_to_rel(&self, rel: &mut Relationship) {
        for p in &self.props {
            match p {
                PropChange::Set(k, v) => rel.props.set(*k, v.clone()),
                PropChange::Remove(k) => {
                    rel.props.remove(*k);
                }
            }
        }
    }

    /// Number of individual changes carried.
    pub fn len(&self) -> usize {
        self.labels_added.len() + self.labels_removed.len() + self.props.len()
    }

    /// A delta is *canonical* when no label appears in both the added and
    /// removed sets and no property key appears twice. [`from_update`]
    /// produces canonical deltas and [`merge`] preserves canonicity; apply
    /// semantics are only order-insensitive for canonical deltas.
    ///
    /// [`from_update`]: EntityDelta::from_update
    /// [`merge`]: EntityDelta::merge
    pub fn is_canonical(&self) -> bool {
        if self
            .labels_added
            .iter()
            .any(|l| self.labels_removed.contains(l))
        {
            return false;
        }
        let mut keys: Vec<StrId> = self.props.iter().map(PropChange::key).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        keys.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn sid(i: u32) -> StrId {
        StrId::new(i)
    }

    #[test]
    fn from_update_covers_modifies_only() {
        let set = Update::SetNodeProp {
            id: NodeId::new(1),
            key: sid(1),
            value: PropertyValue::Int(5),
        };
        let d = EntityDelta::from_update(&set).unwrap();
        assert_eq!(
            d.props,
            vec![PropChange::Set(sid(1), PropertyValue::Int(5))]
        );
        let add = Update::AddNode {
            id: NodeId::new(1),
            labels: vec![],
            props: vec![],
        };
        assert!(EntityDelta::from_update(&add).is_none());
    }

    #[test]
    fn apply_to_node_changes_labels_and_props() {
        let mut n = Node::new(
            NodeId::new(1),
            vec![sid(1), sid(2)],
            vec![(sid(10), PropertyValue::Int(1))],
        );
        let d = EntityDelta {
            labels_added: vec![sid(3)],
            labels_removed: vec![sid(1)],
            props: vec![
                PropChange::Set(sid(10), PropertyValue::Int(2)),
                PropChange::Set(sid(11), PropertyValue::Bool(true)),
                PropChange::Remove(sid(99)),
            ],
        };
        d.apply_to_node(&mut n);
        assert_eq!(*n.labels, [sid(2), sid(3)]);
        assert_eq!(n.prop(sid(10)), Some(&PropertyValue::Int(2)));
        assert_eq!(n.prop(sid(11)), Some(&PropertyValue::Bool(true)));
    }

    #[test]
    fn merge_collapses_same_key_changes() {
        let mut a = EntityDelta {
            labels_added: vec![sid(1)],
            labels_removed: vec![],
            props: vec![PropChange::Set(sid(5), PropertyValue::Int(1))],
        };
        let b = EntityDelta {
            labels_added: vec![],
            labels_removed: vec![sid(1)],
            props: vec![
                PropChange::Set(sid(5), PropertyValue::Int(2)),
                PropChange::Remove(sid(6)),
            ],
        };
        a.merge(&b);
        assert!(a.labels_added.is_empty());
        assert_eq!(a.labels_removed, vec![sid(1)]);
        assert_eq!(
            a.props,
            vec![
                PropChange::Set(sid(5), PropertyValue::Int(2)),
                PropChange::Remove(sid(6)),
            ]
        );
    }

    #[test]
    fn merge_then_apply_equals_sequential_apply() {
        let base = Node::new(NodeId::new(1), vec![sid(0)], vec![]);
        let d1 = EntityDelta {
            labels_added: vec![sid(1)],
            labels_removed: vec![],
            props: vec![PropChange::Set(sid(2), PropertyValue::Int(1))],
        };
        let d2 = EntityDelta {
            labels_added: vec![],
            labels_removed: vec![sid(0)],
            props: vec![PropChange::Remove(sid(2))],
        };
        let mut seq = base.clone();
        d1.apply_to_node(&mut seq);
        d2.apply_to_node(&mut seq);
        let mut merged = d1.clone();
        merged.merge(&d2);
        let mut at_once = base;
        merged.apply_to_node(&mut at_once);
        assert_eq!(seq, at_once);
    }

    #[test]
    fn empties() {
        let d = EntityDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
