//! A Raphtory-style fine-grained in-memory temporal store.
//!
//! "Systems such as Raphtory … use a fine-grained storage approach: graph
//! updates are stored in a key-value store, where the key is either a node
//! or a relationship ID and the corresponding value is a list of that
//! element's history" (Sec. 2.2). Point lookups must "check whether the
//! start and end nodes are visible at a given time by linearly scanning
//! their relationship updates" (`2·|U_R^n|`, Table 4); snapshots scan the
//! complete history (`|U|`).
//!
//! Faithfully to v0.5.6, multigraphs are unsupported: a relationship
//! between an (src, tgt) pair that already has a live relationship is
//! dropped at ingestion (the paper reports Raphtory loading only 42 % of
//! WikiTalk for this reason).

use crate::TemporalBackend;
use lpg::{Graph, Node, NodeId, RelId, Relationship, Timestamp, Update};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum NodeEvent {
    Added {
        labels: Vec<lpg::StrId>,
        props: lpg::Props,
    },
    Deleted,
    SetProp(lpg::StrId, lpg::PropertyValue),
    RemoveProp(lpg::StrId),
    AddLabel(lpg::StrId),
    RemoveLabel(lpg::StrId),
}

#[derive(Clone, Debug)]
enum RelEvent {
    Added {
        src: NodeId,
        tgt: NodeId,
        label: Option<lpg::StrId>,
        props: lpg::Props,
    },
    Deleted,
    SetProp(lpg::StrId, lpg::PropertyValue),
    RemoveProp(lpg::StrId),
}

/// Per-node relationship update entry: `(ts, rel, added)`.
type RelUpdate = (Timestamp, RelId, bool);

/// The fine-grained in-memory store.
#[derive(Default)]
pub struct RaphtoryLike {
    node_history: HashMap<NodeId, Vec<(Timestamp, NodeEvent)>>,
    rel_history: HashMap<RelId, Vec<(Timestamp, RelEvent)>>,
    /// Per-node incoming+outgoing relationship update lists — the vectors
    /// the point-lookup path linearly scans.
    node_rel_updates: HashMap<NodeId, Vec<RelUpdate>>,
    /// Live (src, tgt) pairs for the multigraph restriction.
    live_pairs: HashMap<(NodeId, NodeId), RelId>,
    updates: u64,
}

impl RaphtoryLike {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates ingested (|U|).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    fn rel_endpoints(&self, id: RelId) -> Option<(NodeId, NodeId)> {
        self.rel_history
            .get(&id)?
            .iter()
            .find_map(|(_, e)| match e {
                RelEvent::Added { src, tgt, .. } => Some((*src, *tgt)),
                _ => None,
            })
    }

    /// Reconstructs a node state at `ts` by replaying its event list.
    fn node_state(&self, id: NodeId, ts: Timestamp) -> Option<Node> {
        let events = self.node_history.get(&id)?;
        let mut node: Option<Node> = None;
        for (ets, e) in events {
            if *ets > ts {
                break;
            }
            match e {
                NodeEvent::Added { labels, props } => {
                    node = Some(Node::new(id, labels.clone(), props.clone()));
                }
                NodeEvent::Deleted => node = None,
                NodeEvent::SetProp(k, v) => {
                    if let Some(n) = &mut node {
                        n.props.set(*k, v.clone());
                    }
                }
                NodeEvent::RemoveProp(k) => {
                    if let Some(n) = &mut node {
                        n.props.remove(*k);
                    }
                }
                NodeEvent::AddLabel(l) => {
                    if let Some(n) = &mut node {
                        n.labels.insert(*l);
                    }
                }
                NodeEvent::RemoveLabel(l) => {
                    if let Some(n) = &mut node {
                        n.labels.remove(*l);
                    }
                }
            }
        }
        node
    }

    fn rel_state(&self, id: RelId, ts: Timestamp) -> Option<Relationship> {
        let events = self.rel_history.get(&id)?;
        let mut rel: Option<Relationship> = None;
        for (ets, e) in events {
            if *ets > ts {
                break;
            }
            match e {
                RelEvent::Added {
                    src,
                    tgt,
                    label,
                    props,
                } => rel = Some(Relationship::new(id, *src, *tgt, *label, props.clone())),
                RelEvent::Deleted => rel = None,
                RelEvent::SetProp(k, v) => {
                    if let Some(r) = &mut rel {
                        r.props.set(*k, v.clone());
                    }
                }
                RelEvent::RemoveProp(k) => {
                    if let Some(r) = &mut rel {
                        r.props.remove(*k);
                    }
                }
            }
        }
        rel
    }

    /// The visibility check the paper calls out: linearly scan both
    /// endpoints' relationship-update vectors (`2·|U_R^n|` work).
    fn endpoints_visible(&self, src: NodeId, tgt: NodeId, rel: RelId, ts: Timestamp) -> bool {
        let mut ok = 0;
        for endpoint in [src, tgt] {
            let Some(updates) = self.node_rel_updates.get(&endpoint) else {
                return false;
            };
            let mut alive = false;
            // Full linear scan — this is the cost profile being modeled.
            for (uts, rid, added) in updates {
                if *uts > ts {
                    continue;
                }
                if *rid == rel {
                    alive = *added;
                }
            }
            if alive {
                ok += 1;
            }
        }
        ok == 2 || (src == tgt && ok >= 1)
    }
}

impl TemporalBackend for RaphtoryLike {
    fn name(&self) -> &'static str {
        "raphtory-like"
    }

    fn apply(&mut self, ts: Timestamp, op: &Update) {
        self.updates += 1;
        match op {
            Update::AddNode { id, labels, props } => {
                self.node_history.entry(*id).or_default().push((
                    ts,
                    NodeEvent::Added {
                        labels: labels.clone(),
                        props: props.clone(),
                    },
                ));
                self.node_rel_updates.entry(*id).or_default();
            }
            Update::DeleteNode { id } => {
                self.node_history
                    .entry(*id)
                    .or_default()
                    .push((ts, NodeEvent::Deleted));
            }
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => {
                // Multigraph restriction: drop parallel edges.
                if self.live_pairs.contains_key(&(*src, *tgt)) {
                    self.updates -= 1;
                    return;
                }
                self.live_pairs.insert((*src, *tgt), *id);
                self.rel_history.entry(*id).or_default().push((
                    ts,
                    RelEvent::Added {
                        src: *src,
                        tgt: *tgt,
                        label: *label,
                        props: props.clone(),
                    },
                ));
                self.node_rel_updates
                    .entry(*src)
                    .or_default()
                    .push((ts, *id, true));
                if src != tgt {
                    self.node_rel_updates
                        .entry(*tgt)
                        .or_default()
                        .push((ts, *id, true));
                }
            }
            Update::DeleteRel { id } => {
                let Some((src, tgt)) = self.rel_endpoints(*id) else {
                    self.updates -= 1;
                    return;
                };
                if self.live_pairs.get(&(src, tgt)) == Some(id) {
                    self.live_pairs.remove(&(src, tgt));
                }
                self.rel_history
                    .entry(*id)
                    .or_default()
                    .push((ts, RelEvent::Deleted));
                self.node_rel_updates
                    .entry(src)
                    .or_default()
                    .push((ts, *id, false));
                if src != tgt {
                    self.node_rel_updates
                        .entry(tgt)
                        .or_default()
                        .push((ts, *id, false));
                }
            }
            Update::SetNodeProp { id, key, value } => {
                self.node_history
                    .entry(*id)
                    .or_default()
                    .push((ts, NodeEvent::SetProp(*key, value.clone())));
            }
            Update::RemoveNodeProp { id, key } => {
                self.node_history
                    .entry(*id)
                    .or_default()
                    .push((ts, NodeEvent::RemoveProp(*key)));
            }
            Update::AddLabel { id, label } => {
                self.node_history
                    .entry(*id)
                    .or_default()
                    .push((ts, NodeEvent::AddLabel(*label)));
            }
            Update::RemoveLabel { id, label } => {
                self.node_history
                    .entry(*id)
                    .or_default()
                    .push((ts, NodeEvent::RemoveLabel(*label)));
            }
            Update::SetRelProp { id, key, value } => {
                self.rel_history
                    .entry(*id)
                    .or_default()
                    .push((ts, RelEvent::SetProp(*key, value.clone())));
            }
            Update::RemoveRelProp { id, key } => {
                self.rel_history
                    .entry(*id)
                    .or_default()
                    .push((ts, RelEvent::RemoveProp(*key)));
            }
        }
    }

    fn rel_at(&self, id: RelId, ts: Timestamp) -> Option<Relationship> {
        let rel = self.rel_state(id, ts)?;
        // The expensive visibility validation (2·|U_R^n|).
        self.endpoints_visible(rel.src, rel.tgt, id, ts)
            .then_some(rel)
    }

    fn snapshot_at(&self, ts: Timestamp) -> Graph {
        // All-history scan + filter (|U|).
        let mut g = Graph::new();
        for &id in self.node_history.keys() {
            if let Some(n) = self.node_state(id, ts) {
                g.insert_node(n).expect("replay is consistent");
            }
        }
        for &id in self.rel_history.keys() {
            if let Some(r) = self.rel_state(id, ts) {
                if g.has_node(r.src) && g.has_node(r.tgt) {
                    g.insert_rel(r).expect("endpoints checked");
                }
            }
        }
        g
    }

    fn heap_size(&self) -> usize {
        let node_events: usize = self.node_history.values().map(|v| v.len() * 48).sum();
        let rel_events: usize = self.rel_history.values().map(|v| v.len() * 64).sum();
        let adj: usize = self.node_rel_updates.values().map(|v| v.len() * 24).sum();
        node_events + rel_events + adj
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
    fn point_and_snapshot_queries() {
        let mut r = RaphtoryLike::new();
        r.apply(1, &add_node(1));
        r.apply(2, &add_node(2));
        r.apply(3, &add_rel(0, 1, 2));
        r.apply(5, &Update::DeleteRel { id: RelId::new(0) });
        assert!(r.rel_at(RelId::new(0), 3).is_some());
        assert!(r.rel_at(RelId::new(0), 5).is_none());
        assert!(r.rel_at(RelId::new(0), 2).is_none());
        let g3 = r.snapshot_at(3);
        assert_eq!((g3.node_count(), g3.rel_count()), (2, 1));
        let g5 = r.snapshot_at(5);
        assert_eq!((g5.node_count(), g5.rel_count()), (2, 0));
    }

    #[test]
    fn multigraph_restriction_drops_parallel_edges() {
        let mut r = RaphtoryLike::new();
        r.apply(1, &add_node(1));
        r.apply(2, &add_node(2));
        r.apply(3, &add_rel(0, 1, 2));
        r.apply(4, &add_rel(1, 1, 2)); // parallel edge: dropped
        assert!(r.rel_at(RelId::new(1), 10).is_none());
        assert_eq!(r.snapshot_at(10).rel_count(), 1);
        // After deleting the live edge a new pair is accepted.
        r.apply(5, &Update::DeleteRel { id: RelId::new(0) });
        r.apply(6, &add_rel(2, 1, 2));
        assert_eq!(r.snapshot_at(10).rel_count(), 1);
        assert!(r.rel_at(RelId::new(2), 10).is_some());
    }

    #[test]
    fn property_churn_replays() {
        let mut r = RaphtoryLike::new();
        let k = lpg::StrId::new(0);
        r.apply(1, &add_node(1));
        r.apply(
            2,
            &Update::SetNodeProp {
                id: NodeId::new(1),
                key: k,
                value: lpg::PropertyValue::Int(5),
            },
        );
        let n = r.node_state(NodeId::new(1), 2).unwrap();
        assert_eq!(n.prop(k), Some(&lpg::PropertyValue::Int(5)));
        let n = r.node_state(NodeId::new(1), 1).unwrap();
        assert_eq!(n.prop(k), None);
    }
}
