//! Local clustering coefficient — the paper's example of a *subgraph*
//! query ("computing the local clustering coefficient", Sec. 3), computed
//! over the undirected neighbourhood of one node.

use lpg::{Direction, Graph, NodeId};
use std::collections::HashSet;

/// The local clustering coefficient of `node`: the fraction of pairs of
/// distinct neighbours that are themselves connected (either direction).
/// `None` when the node is absent; nodes with fewer than two neighbours
/// yield 0.
pub fn local_clustering_coefficient(graph: &Graph, node: NodeId) -> Option<f64> {
    graph.node(node)?;
    let mut neigh: Vec<NodeId> = graph.neighbours(node, Direction::Both);
    neigh.retain(|n| *n != node); // ignore self-loops
    let k = neigh.len();
    if k < 2 {
        return Some(0.0);
    }
    let set: HashSet<NodeId> = neigh.iter().copied().collect();
    let mut closed = 0usize;
    for &u in &neigh {
        for v in graph.neighbours(u, Direction::Both) {
            if v != u && v != node && set.contains(&v) {
                closed += 1;
            }
        }
    }
    // Each connected unordered neighbour pair is counted twice (once from
    // each endpoint), so dividing by the ordered-pair count k·(k−1) yields
    // the fraction of closed pairs.
    Some(closed as f64 / (k * (k - 1)) as f64)
}

/// Average clustering coefficient over all nodes.
pub fn average_clustering(graph: &Graph) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for node in graph.nodes() {
        if let Some(c) = local_clustering_coefficient(graph, node.id) {
            sum += c;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{RelId, Update};

    fn graph_with_edges(n: u64, edges: &[(u64, u64)]) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        for (i, (s, t)) in edges.iter().enumerate() {
            g.apply(&Update::AddRel {
                id: RelId::new(i as u64),
                src: NodeId::new(*s),
                tgt: NodeId::new(*t),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let g = graph_with_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        for i in 0..3 {
            assert_eq!(local_clustering_coefficient(&g, NodeId::new(i)), Some(1.0));
        }
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = graph_with_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(local_clustering_coefficient(&g, NodeId::new(0)), Some(0.0));
        assert_eq!(local_clustering_coefficient(&g, NodeId::new(1)), Some(0.0));
    }

    #[test]
    fn partial_clustering() {
        // 0 connects 1,2,3; only 1-2 closed.
        let g = graph_with_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let c = local_clustering_coefficient(&g, NodeId::new(0)).unwrap();
        // One of the three neighbour pairs is connected ⇒ 1/3.
        assert!((c - 1.0 / 3.0).abs() < 1e-12, "c = {c}");
    }

    #[test]
    fn missing_node() {
        let g = graph_with_edges(1, &[]);
        assert_eq!(local_clustering_coefficient(&g, NodeId::new(9)), None);
        assert_eq!(local_clustering_coefficient(&g, NodeId::new(0)), Some(0.0));
    }
}
