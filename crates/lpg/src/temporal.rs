//! Temporal LPG views: per-entity version histories over a query window.
//!
//! A range query (`FROM`/`BETWEEN`/`CONTAINED IN`) returns a *temporal LPG*
//! (Sec. 3): entities annotated with `[τ_s, τ_e)` validity intervals, where
//! the same identifier may recur with non-overlapping intervals. This module
//! materializes that view by replaying updates over a base graph — it also
//! serves as the reference implementation ("naive replay") that the storage
//! engines are property-tested against.
//!
//! Version intervals are *clipped to the queried window*: a node created
//! before the window starts gets `τ_s = window.start`, mirroring what any
//! store can know without scanning unbounded history.

use crate::entity::{Node, Relationship, Version};
use crate::graph::Graph;
use crate::ids::{NodeId, RelId, Timestamp, TS_MAX};
use crate::interval::Interval;
use crate::update::{TimestampedUpdate, Update};
use std::collections::HashMap;

/// A temporal LPG over a window: full version histories per entity.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    /// Window covered by this view.
    pub window: Interval,
    /// Node version chains, ordered by start time.
    pub nodes: HashMap<NodeId, Vec<Version<Node>>>,
    /// Relationship version chains, ordered by start time.
    pub rels: HashMap<RelId, Vec<Version<Relationship>>>,
}

impl TemporalGraph {
    /// Builds the temporal view of `[window.start, window.end)` from the
    /// graph state at `window.start` plus the updates inside the window
    /// (which must be timestamp-ordered).
    pub fn build(base: &Graph, window: Interval, updates: &[TimestampedUpdate]) -> TemporalGraph {
        let mut tg = TemporalGraph {
            window,
            nodes: HashMap::new(),
            rels: HashMap::new(),
        };
        // Open a version for everything alive at the window start.
        let mut live = base.clone();
        for n in live.nodes() {
            tg.nodes
                .entry(n.id)
                .or_default()
                .push(Version::new(window.start, TS_MAX, n.clone()));
        }
        for r in live.rels() {
            tg.rels
                .entry(r.id)
                .or_default()
                .push(Version::new(window.start, TS_MAX, r.clone()));
        }
        for u in updates {
            debug_assert!(window.contains(u.ts), "update outside window");
            tg.step(&mut live, u);
        }
        tg.clip_open_versions();
        tg
    }

    fn step(&mut self, live: &mut Graph, u: &TimestampedUpdate) {
        // Close the current version of the touched entity (if any), apply the
        // update to the live graph, then open the new version.
        match &u.op {
            Update::DeleteNode { id } => {
                if live.apply(&u.op).is_ok() {
                    close_version(self.nodes.get_mut(id), u.ts);
                }
            }
            Update::DeleteRel { id } => {
                if live.apply(&u.op).is_ok() {
                    close_version(self.rels.get_mut(id), u.ts);
                }
            }
            op => {
                if live.apply(op).is_err() {
                    return;
                }
                match op.entity() {
                    crate::ids::EntityId::Node(id) => {
                        let chain = self.nodes.entry(id).or_default();
                        close_version(Some(chain), u.ts);
                        let node = live.node(id).expect("just applied").clone();
                        chain.push(Version::new(u.ts, TS_MAX, node));
                    }
                    crate::ids::EntityId::Rel(id) => {
                        let chain = self.rels.entry(id).or_default();
                        close_version(Some(chain), u.ts);
                        let rel = live.rel(id).expect("just applied").clone();
                        chain.push(Version::new(u.ts, TS_MAX, rel));
                    }
                }
            }
        }
    }

    /// Clamps still-open intervals to the window end.
    fn clip_open_versions(&mut self) {
        let end = self.window.end;
        if end == TS_MAX {
            return;
        }
        for chain in self.nodes.values_mut() {
            for v in chain.iter_mut() {
                if v.valid.end > end {
                    v.valid.end = end;
                }
            }
            chain.retain(|v| v.valid.start < v.valid.end);
        }
        for chain in self.rels.values_mut() {
            for v in chain.iter_mut() {
                if v.valid.end > end {
                    v.valid.end = end;
                }
            }
            chain.retain(|v| v.valid.start < v.valid.end);
        }
        self.nodes.retain(|_, c| !c.is_empty());
        self.rels.retain(|_, c| !c.is_empty());
    }

    /// The regular LPG valid at `ts` (must lie inside the window).
    pub fn graph_at(&self, ts: Timestamp) -> Graph {
        let mut g = Graph::new();
        for chain in self.nodes.values() {
            if let Some(v) = chain.iter().find(|v| v.valid.contains(ts)) {
                g.apply(&Update::AddNode {
                    id: v.data.id,
                    labels: v.data.labels.clone(),
                    props: v.data.props.clone(),
                })
                .expect("node chains are disjoint");
            }
        }
        for chain in self.rels.values() {
            if let Some(v) = chain.iter().find(|v| v.valid.contains(ts)) {
                g.apply(&Update::AddRel {
                    id: v.data.id,
                    src: v.data.src,
                    tgt: v.data.tgt,
                    label: v.data.label,
                    props: v.data.props.clone(),
                })
                .expect("endpoints of a valid rel are valid");
            }
        }
        g
    }

    /// Total versions stored (nodes + relationships).
    pub fn version_count(&self) -> usize {
        self.nodes.values().map(Vec::len).sum::<usize>()
            + self.rels.values().map(Vec::len).sum::<usize>()
    }
}

fn close_version<T>(chain: Option<&mut Vec<Version<T>>>, ts: Timestamp) {
    if let Some(chain) = chain {
        if let Some(last) = chain.last_mut() {
            if last.valid.end == TS_MAX {
                if last.valid.start >= ts {
                    // Same-timestamp rewrite: drop the zero-length version.
                    chain.pop();
                } else {
                    last.valid.end = ts;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StrId;
    use crate::value::PropertyValue;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }
    fn rid(i: u64) -> RelId {
        RelId::new(i)
    }
    fn tu(ts: u64, op: Update) -> TimestampedUpdate {
        TimestampedUpdate::new(ts, op)
    }

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: nid(i),
            labels: vec![],
            props: vec![],
        }
    }

    #[test]
    fn version_chains_from_scratch() {
        let base = Graph::new();
        let updates = vec![
            tu(1, add_node(1)),
            tu(2, add_node(2)),
            tu(
                3,
                Update::AddRel {
                    id: rid(1),
                    src: nid(1),
                    tgt: nid(2),
                    label: None,
                    props: vec![],
                },
            ),
            tu(
                5,
                Update::SetNodeProp {
                    id: nid(1),
                    key: StrId::new(0),
                    value: PropertyValue::Int(7),
                },
            ),
            tu(8, Update::DeleteRel { id: rid(1) }),
        ];
        let tg = TemporalGraph::build(&base, Interval::new(0, 10), &updates);
        let n1 = &tg.nodes[&nid(1)];
        assert_eq!(n1.len(), 2);
        assert_eq!(n1[0].valid, Interval::new(1, 5));
        assert_eq!(n1[1].valid, Interval::new(5, 10)); // clipped to window end
        assert_eq!(n1[1].data.prop(StrId::new(0)), Some(&PropertyValue::Int(7)));
        let r1 = &tg.rels[&rid(1)];
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].valid, Interval::new(3, 8));
    }

    #[test]
    fn graph_at_reconstructs_states() {
        let base = Graph::new();
        let updates = vec![
            tu(1, add_node(1)),
            tu(2, add_node(2)),
            tu(
                3,
                Update::AddRel {
                    id: rid(1),
                    src: nid(1),
                    tgt: nid(2),
                    label: None,
                    props: vec![],
                },
            ),
            tu(6, Update::DeleteRel { id: rid(1) }),
        ];
        let tg = TemporalGraph::build(&base, Interval::new(0, 10), &updates);
        assert_eq!(tg.graph_at(0).node_count(), 0);
        assert_eq!(tg.graph_at(2).node_count(), 2);
        assert_eq!(tg.graph_at(4).rel_count(), 1);
        let g8 = tg.graph_at(8);
        assert_eq!(g8.rel_count(), 0);
        assert_eq!(g8.node_count(), 2);
        g8.check_consistency().unwrap();
    }

    #[test]
    fn base_graph_versions_start_at_window() {
        let mut base = Graph::new();
        base.apply(&add_node(1)).unwrap();
        let tg = TemporalGraph::build(&base, Interval::new(100, 200), &[]);
        assert_eq!(tg.nodes[&nid(1)][0].valid, Interval::new(100, 200));
        assert_eq!(tg.version_count(), 1);
    }

    #[test]
    fn reinsertion_after_delete_gets_disjoint_intervals() {
        let base = Graph::new();
        let updates = vec![
            tu(1, add_node(1)),
            tu(3, Update::DeleteNode { id: nid(1) }),
            tu(7, add_node(1)),
        ];
        let tg = TemporalGraph::build(&base, Interval::new(0, 10), &updates);
        let chain = &tg.nodes[&nid(1)];
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].valid, Interval::new(1, 3));
        assert_eq!(chain[1].valid, Interval::new(7, 10));
        assert!(crate::entity::versions_well_formed(chain));
    }
}
