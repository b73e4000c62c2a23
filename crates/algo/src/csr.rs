//! Static CSR projections (the GDS-style "graph projection" of Sec. 5.1:
//! "Aion … allows the creation of static CSRs, known as graph projections,
//! to exploit the efficient parallel versions of the GDS library's
//! algorithms") and the sparse → dense id remap of Sec. 5.2 ("a map to
//! translate from a sparse domain of node IDs … to a dense domain `[0, V_d)`
//! where all IDs refer to valid nodes").
//!
//! [`Graph::nodes`] ascends by id, so a node's dense index is its rank and
//! the map is the sorted id vector itself: every index names a live node and
//! algorithm state lives in flat vectors.

use lpg::{Direction, Graph, NodeId};

/// A compressed-sparse-row projection of one direction of a [`Graph`].
#[derive(Clone, Debug)]
pub struct Csr {
    /// The node ids, ascending: `ids[d]` is the node at dense index `d`.
    pub ids: Vec<NodeId>,
    /// `offsets[d]..offsets[d+1]` indexes `targets` for dense node `d`.
    pub offsets: Vec<usize>,
    /// Flattened neighbour lists (dense indexes).
    pub targets: Vec<u32>,
}

/// The rank of `id` in the ascending `ids`. Ids counted up from 0 without
/// gaps sit at their own rank, so that slot is probed before searching.
fn rank(ids: &[NodeId], id: NodeId) -> Option<usize> {
    let guess = usize::try_from(id.raw()).ok();
    guess
        .filter(|&g| ids.get(g) == Some(&id))
        .or_else(|| ids.binary_search(&id).ok())
}

impl Csr {
    /// Projects `g` in direction `dir` (`Both` concatenates out + in
    /// adjacency per node).
    pub fn project(g: &Graph, dir: Direction) -> Csr {
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        assert!(u32::try_from(ids.len()).is_ok(), "dense indexes are u32");
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &id in &ids {
            for rid in g.relationships(id, dir) {
                let Some(rel) = g.rel(rid) else { continue };
                let Some(other) = rel.other_end(id).and_then(|o| rank(&ids, o)) else {
                    continue;
                };
                targets.push(other as u32);
            }
            offsets.push(targets.len());
        }
        Csr {
            ids,
            offsets,
            targets,
        }
    }

    /// Number of nodes (= dense indexes).
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// The dense index of node `id`.
    pub fn dense(&self, id: NodeId) -> Option<u32> {
        rank(&self.ids, id).map(|d| d as u32)
    }

    /// The node id at dense index `d`.
    pub fn sparse(&self, d: u32) -> NodeId {
        self.ids[d as usize]
    }

    /// The neighbours of dense node `d`.
    pub fn neighbours(&self, d: u32) -> &[u32] {
        &self.targets[self.offsets[d as usize]..self.offsets[d as usize + 1]]
    }

    /// Out-degree of dense node `d`.
    pub fn degree(&self, d: u32) -> usize {
        self.offsets[d as usize + 1] - self.offsets[d as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{RelId, Update};

    fn build() -> Graph {
        let mut g = Graph::new();
        for i in 0..4 {
            g.apply(&Update::AddNode {
                id: NodeId::new(i * 10),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        let edges = [(0u64, 0, 10), (1, 0, 20), (2, 10, 20), (3, 20, 30)];
        for (id, s, t) in edges {
            g.apply(&Update::AddRel {
                id: RelId::new(id),
                src: NodeId::new(s),
                tgt: NodeId::new(t),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn outgoing_projection() {
        let g = build();
        let csr = Csr::project(&g, Direction::Outgoing);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.targets.len(), 4);
        // Node 0 (dense 0) points at dense 1 and 2.
        let mut n0: Vec<u32> = csr.neighbours(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.dense(NodeId::new(20)), Some(2));
        assert_eq!(csr.dense(NodeId::new(5)), None);
        assert_eq!(csr.sparse(3), NodeId::new(30));
    }

    #[test]
    fn both_direction_doubles_edges() {
        let g = build();
        let csr = Csr::project(&g, Direction::Both);
        assert_eq!(csr.targets.len(), 8);
    }

    #[test]
    fn deleted_nodes_leave_no_slot() {
        let mut g = build();
        g.apply(&Update::DeleteRel { id: RelId::new(3) }).unwrap();
        g.apply(&Update::DeleteNode {
            id: NodeId::new(30),
        })
        .unwrap();
        let csr = Csr::project(&g, Direction::Outgoing);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.dense(NodeId::new(30)), None);
        assert_eq!(csr.targets.len(), 3);
    }
}
