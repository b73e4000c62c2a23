//! Weakly connected components via union-find over a CSR projection.

use crate::csr::Csr;

/// Union-find with path halving and union by size.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Component label per dense node index. Direction is ignored (weak
/// connectivity) — project with `Direction::Both` or `Direction::Outgoing`;
/// both give the same components.
pub fn wcc(csr: &Csr) -> Vec<u32> {
    let n = csr.node_count();
    let mut dsu = Dsu::new(n);
    for d in 0..n as u32 {
        for &t in csr.neighbours(d) {
            dsu.union(d, t);
        }
    }
    (0..n as u32).map(|d| dsu.find(d)).collect()
}

/// Number of distinct components.
pub fn component_count(labels: &[u32]) -> usize {
    let mut roots = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{Direction, Graph, NodeId, RelId, Update};

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
    fn two_components() {
        let g = graph_with_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let csr = Csr::project(&g, Direction::Outgoing, None);
        let labels = wcc(&csr);
        assert_eq!(component_count(&labels), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
    }

    #[test]
    fn direction_does_not_matter() {
        let g = graph_with_edges(4, &[(1, 0), (2, 3)]);
        let out = wcc(&Csr::project(&g, Direction::Outgoing, None));
        let both = wcc(&Csr::project(&g, Direction::Both, None));
        assert_eq!(component_count(&out), component_count(&both));
        assert_eq!(component_count(&out), 2);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        let csr = Csr::project(&g, Direction::Both, None);
        assert_eq!(component_count(&wcc(&csr)), 0);
    }
}
