//! The commit check: whether a batch of updates applies to a graph,
//! decided without changing the graph.
//!
//! A batch is checked against the graph *plus* its own earlier updates, so
//! a node it adds can take a relationship further on, and a relationship
//! it deletes frees its endpoints for deletion. The constraints are those
//! of Sec. 3 that [`Graph::apply`] enforces: an added entity must be new, a
//! deleted or modified one must exist, a relationship's endpoints must
//! exist, and a node is deleted only once it has no relationship left.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::{Direction, NodeId, RelId};
use crate::update::Update;
use std::collections::HashMap;

/// What the updates checked so far changed, laid over the graph.
struct Overlay<'a> {
    base: &'a Graph,
    /// Nodes the batch added (`true`) or deleted (`false`).
    nodes: HashMap<NodeId, bool>,
    /// Relationships the batch added, with their endpoints, or deleted.
    rels: HashMap<RelId, Option<(NodeId, NodeId)>>,
    /// Degree change per node (`Direction::Both`: a self-loop counts twice).
    degree_delta: HashMap<NodeId, i64>,
}

impl Overlay<'_> {
    fn node_exists(&self, id: NodeId) -> bool {
        self.nodes
            .get(&id)
            .copied()
            .unwrap_or_else(|| self.base.has_node(id))
    }

    /// The endpoints of relationship `id`, if it exists.
    fn rel(&self, id: RelId) -> Option<(NodeId, NodeId)> {
        match self.rels.get(&id) {
            Some(ends) => *ends,
            None => self.base.rel(id).map(|r| (r.src, r.tgt)),
        }
    }

    fn degree(&self, id: NodeId) -> i64 {
        let base = self.base.degree(id, Direction::Both) as i64;
        base + self.degree_delta.get(&id).copied().unwrap_or(0)
    }

    fn count_degrees(&mut self, (src, tgt): (NodeId, NodeId), by: i64) {
        *self.degree_delta.entry(src).or_insert(0) += by;
        *self.degree_delta.entry(tgt).or_insert(0) += by;
    }

    /// Checks one update against the graph and the updates before it, and
    /// notes what it changes.
    fn check(&mut self, update: &Update) -> Result<()> {
        match *update {
            Update::AddNode { id, .. } => {
                if self.node_exists(id) {
                    return Err(GraphError::NodeExists(id));
                }
                self.nodes.insert(id, true);
            }
            Update::DeleteNode { id } => {
                if !self.node_exists(id) {
                    return Err(GraphError::NodeNotFound(id));
                }
                if self.degree(id) > 0 {
                    return Err(GraphError::NodeHasRelationships(id));
                }
                self.nodes.insert(id, false);
            }
            Update::AddRel { id, src, tgt, .. } => {
                if self.rel(id).is_some() {
                    return Err(GraphError::RelExists(id));
                }
                if let Some(node) = [src, tgt].into_iter().find(|&n| !self.node_exists(n)) {
                    return Err(GraphError::EndpointMissing { rel: id, node });
                }
                self.rels.insert(id, Some((src, tgt)));
                self.count_degrees((src, tgt), 1);
            }
            Update::DeleteRel { id } => {
                let ends = self.rel(id).ok_or(GraphError::RelNotFound(id))?;
                self.rels.insert(id, None);
                self.count_degrees(ends, -1);
            }
            Update::SetNodeProp { id, .. }
            | Update::RemoveNodeProp { id, .. }
            | Update::AddLabel { id, .. }
            | Update::RemoveLabel { id, .. } => {
                if !self.node_exists(id) {
                    return Err(GraphError::NodeNotFound(id));
                }
            }
            Update::SetRelProp { id, .. } | Update::RemoveRelProp { id, .. } => {
                self.rel(id).ok_or(GraphError::RelNotFound(id))?;
            }
        }
        Ok(())
    }
}

impl Graph {
    /// Checks that `updates`, applied in order, satisfy every Sec. 3
    /// constraint, without changing the graph: `Ok` exactly when
    /// [`Graph::apply_all`] would apply them all, and otherwise the error
    /// of the first update it would stop at.
    pub fn check_batch(&self, updates: &[Update]) -> Result<()> {
        let mut overlay = Overlay {
            base: self,
            nodes: HashMap::new(),
            rels: HashMap::new(),
            degree_delta: HashMap::new(),
        };
        updates.iter().try_for_each(|u| overlay.check(u))
    }
}
