//! Table 1's entity reads answered by the TimeStore, with the
//! LineageStore's names, window rules and hit order: either store gives the
//! same answer (Sec. 5.1). A history is the state at `start` from the
//! snapshot, then the log's updates in `(start, end)`, replayed once.

use crate::store::TimeStore;
use lpg::{
    Direction, EntityDelta, EntityId, Graph, GraphError, Node, NodeId, RelId, Relationship, Result,
    Timestamp, TimestampedUpdate, Update, Version,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;

/// The exclusive end of `[start, end)` as the LineageStore reads it:
/// `start == end` is `[t, t + 1)`, `start > end` is invalid.
fn window_end(start: Timestamp, end: Timestamp) -> Result<Timestamp> {
    if start > end {
        return Err(GraphError::InvalidTimeRange);
    }
    Ok(end.max(start.saturating_add(1)))
}

impl TimeStore {
    /// `getNode(nodeId, start, end)`: the node's versions over `[start, end)`.
    pub fn node_history(
        &self,
        id: NodeId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Node>>> {
        let (base, mine, end) = self.entity_window(EntityId::Node(id), start, end)?;
        let (state, apply) = (base.node(id).cloned(), EntityDelta::apply_to_node);
        let versions = version_chain(start, end, state, mine.iter(), added_node, apply);
        Ok(versions)
    }

    /// `getRelationship(relId, start, end)`: its versions over `[start, end)`.
    pub fn rel_history(
        &self,
        id: RelId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Version<Relationship>>> {
        let (base, mine, end) = self.entity_window(EntityId::Rel(id), start, end)?;
        let (state, apply) = (base.rel(id).cloned(), EntityDelta::apply_to_rel);
        let versions = version_chain(start, end, state, mine.iter(), added_rel, apply);
        Ok(versions)
    }

    /// The graph at `start`, the entity's updates in `(start, end)`, `end`.
    fn entity_window(
        &self,
        entity: EntityId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<(Arc<Graph>, Vec<TimestampedUpdate>, Timestamp)> {
        let end = window_end(start, end)?;
        let base = self.snapshot_at(start)?;
        let mut mine = Vec::new();
        self.replay(start.saturating_add(1), end, |ts, ops| {
            let ops = ops.iter().filter(|op| op.entity() == entity);
            mine.extend(ops.map(|op| TimestampedUpdate::new(ts, op.clone())));
            Ok(())
        })?;
        Ok((base, mine, end))
    }

    /// `getRelationships(nodeId, direction, start, end)`: one version list
    /// per relationship incident to `node` during `[start, end)`, in
    /// relationship-id order. The window is replayed once for all of them.
    pub fn rels_history(
        &self,
        node: NodeId,
        dir: Direction,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<Vec<Version<Relationship>>>> {
        let end = window_end(start, end)?;
        let base = self.snapshot_at(start)?;
        // Incident at `start` or attached by an `AddRel` in the window.
        let mut updates: BTreeMap<RelId, Vec<TimestampedUpdate>> = base
            .relationships(node, dir)
            .map(|rid| (rid, Vec::new()))
            .collect();
        self.replay(start.saturating_add(1), end, |ts, ops| {
            for op in ops {
                let EntityId::Rel(rid) = op.entity() else {
                    continue;
                };
                if let Update::AddRel { src, tgt, .. } = op {
                    if (dir.includes_out() && *src == node) || (dir.includes_in() && *tgt == node) {
                        updates.entry(rid).or_default();
                    }
                }
                if let Some(mine) = updates.get_mut(&rid) {
                    mine.push(TimestampedUpdate::new(ts, op.clone()));
                }
            }
            Ok(())
        })?;
        let apply = EntityDelta::apply_to_rel;
        let chains = updates.into_iter().map(|(rid, mine)| {
            let state = base.rel(rid).cloned();
            version_chain(start, end, state, mine.iter(), added_rel, apply)
        });
        Ok(chains.filter(|versions| !versions.is_empty()).collect())
    }

    /// `expand(nodeId, direction, hops, t)`: the nodes reached from `id`, which
    /// must be alive at `t` (else `NodeNotFound`), with their hops; a node's
    /// neighbours come in `(neighbour, relId)` order, as in the LineageStore.
    pub fn expand(
        &self,
        id: NodeId,
        dir: Direction,
        hops: u32,
        t: Timestamp,
    ) -> Result<Vec<(NodeId, u32)>> {
        let g = self.snapshot_at(t)?;
        if !g.has_node(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        let mut found = Vec::new();
        let Ok(hits) = lpg::bfs::<Infallible>(id, hops, |cur, out| {
            found.clear();
            found.extend(
                g.relationships(cur, dir)
                    .filter_map(|rid| Some((g.rel(rid)?.other_end(cur)?, rid))),
            );
            found.sort_unstable();
            out.extend(found.iter().map(|&(b, _)| b));
            Ok(())
        });
        Ok(hits)
    }
}

/// Builds one entity's version chain over `[start, end)` from its state at
/// `start` plus its updates after it (the per-entity TimeStore fallback).
/// `added` builds the entity from its `Add*` update; every other update but
/// a delete is a delta that `apply` applies.
fn version_chain<'a, T: Clone>(
    start: Timestamp,
    end: Timestamp,
    mut state: Option<T>,
    updates: impl Iterator<Item = &'a TimestampedUpdate>,
    added: impl Fn(&Update) -> Option<T>,
    apply: impl Fn(&EntityDelta, &mut T),
) -> Vec<Version<T>> {
    let mut versions = Vec::new();
    let mut open_since = start;
    for u in updates {
        if let Some(entity) = &state {
            if u.ts > open_since {
                versions.push(Version::new(open_since, u.ts, entity.clone()));
            }
        }
        if let Some(entity) = added(&u.op) {
            state = Some(entity);
        } else if matches!(u.op, Update::DeleteNode { .. } | Update::DeleteRel { .. }) {
            state = None;
        } else if let (Some(entity), Some(delta)) = (&mut state, EntityDelta::from_update(&u.op)) {
            apply(&delta, entity);
        }
        open_since = u.ts;
    }
    if let Some(entity) = state {
        if end > open_since {
            versions.push(Version::new(open_since, end, entity));
        }
    }
    versions
}

/// The node an `AddNode` creates.
fn added_node(op: &Update) -> Option<Node> {
    match op {
        Update::AddNode { id, labels, props } => {
            Some(Node::new(*id, labels.clone(), props.clone()))
        }
        _ => None,
    }
}

/// The relationship an `AddRel` creates.
fn added_rel(op: &Update) -> Option<Relationship> {
    match op {
        Update::AddRel {
            id,
            src,
            tgt,
            label,
            props,
        } => Some(Relationship::new(*id, *src, *tgt, *label, props.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{EntityId, Interval, PropertyValue, StrId, TemporalGraph};

    /// The fallback's chains equal the reference model's, over adds, property
    /// and label updates, deletes and a re-add, for entities alive at `start`
    /// and entities born after it.
    #[test]
    fn version_chains_match_the_temporal_graph() {
        let (n, r, s) = (NodeId::new, RelId::new, StrId::new);
        let int = PropertyValue::Int;
        let mut base = Graph::new();
        for op in [
            Update::AddNode {
                id: n(1),
                labels: vec![s(0)],
                props: vec![(s(1), int(1))],
            },
            Update::AddNode {
                id: n(2),
                labels: vec![],
                props: vec![],
            },
        ] {
            base.apply(&op).unwrap();
        }
        let script = [
            Update::SetNodeProp {
                id: n(1),
                key: s(1),
                value: int(2),
            },
            Update::AddLabel {
                id: n(1),
                label: s(2),
            },
            Update::AddNode {
                id: n(3),
                labels: vec![s(2)],
                props: vec![],
            },
            Update::AddRel {
                id: r(1),
                src: n(1),
                tgt: n(3),
                label: Some(s(3)),
                props: vec![(s(1), int(5))],
            },
            Update::SetRelProp {
                id: r(1),
                key: s(4),
                value: int(6),
            },
            Update::RemoveNodeProp {
                id: n(1),
                key: s(1),
            },
            Update::RemoveRelProp {
                id: r(1),
                key: s(1),
            },
            Update::DeleteRel { id: r(1) },
            Update::RemoveLabel {
                id: n(1),
                label: s(0),
            },
            Update::DeleteNode { id: n(2) },
            Update::AddNode {
                id: n(2),
                labels: vec![s(0)],
                props: vec![],
            },
            Update::DeleteNode { id: n(3) },
        ];
        let updates: Vec<TimestampedUpdate> = (20..)
            .step_by(10)
            .zip(script)
            .map(|(ts, op)| TimestampedUpdate::new(ts, op))
            .collect();
        for (start, end) in [(10, 200), (10, 75), (45, 125)] {
            // The fallback's inputs: the state at `start` (a snapshot) and
            // the updates in `(start, end)` (the log's diff).
            let mut at_start = base.clone();
            for u in updates.iter().filter(|u| u.ts <= start) {
                at_start.apply(&u.op).unwrap();
            }
            let diff: Vec<_> = updates
                .iter()
                .filter(|u| u.ts > start && u.ts < end)
                .cloned()
                .collect();
            let of = |e: EntityId| diff.iter().filter(move |u| u.op.entity() == e);
            let want = TemporalGraph::build(&at_start, Interval::new(start, end), &diff);
            for id in [n(1), n(2), n(3)] {
                let got = version_chain(
                    start,
                    end,
                    at_start.node(id).cloned(),
                    of(EntityId::Node(id)),
                    added_node,
                    EntityDelta::apply_to_node,
                );
                let want = want.nodes.get(&id).cloned().unwrap_or_default();
                assert_eq!(got, want, "node {id} over [{start}, {end})");
            }
            let got = version_chain(
                start,
                end,
                at_start.rel(r(1)).cloned(),
                of(EntityId::Rel(r(1))),
                added_rel,
                EntityDelta::apply_to_rel,
            );
            let want = want.rels.get(&r(1)).cloned().unwrap_or_default();
            assert_eq!(got, want, "rel 1 over [{start}, {end})");
        }
    }
}
