//! The store-selection heuristic (Sec. 5.1): "Based on the cardinality
//! estimation of this generated plan, Aion adopts a simple heuristic to
//! select between the two temporal stores: (i) if less than 30% of the
//! graph is accessed, Aion uses the LineageStore; (ii) otherwise, it
//! constructs a full graph snapshot with the TimeStore." The threshold
//! itself comes from the crossover measured in Fig. 8 (Sec. 6.3).
//!
//! The one estimate any query needs is that of an n-hop expansion, and it
//! reads only |V| and |E| of the latest graph, both O(1). The paper's
//! label, type and pattern histograms return together with a cost model
//! that reads them.

use lpg::{Direction, Graph};

/// The paper's threshold on the estimated accessed fraction.
const THRESHOLD: f64 = 0.3;

/// Which temporal store should serve a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreChoice {
    /// Fine-grained, entity-indexed store (point / small-subgraph access).
    Lineage,
    /// Snapshot + log store (global access).
    Time,
}

/// Cardinality-driven planner.
pub struct Planner {
    threshold: f64,
}

impl Planner {
    /// A planner with the paper's 30 % threshold.
    pub fn new() -> Self {
        Planner {
            threshold: THRESHOLD,
        }
    }

    /// A planner with a custom threshold (ablation experiments).
    pub fn with_threshold(threshold: f64) -> Self {
        Planner { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Estimated fraction of `graph` touched by an `hops`-hop expansion in
    /// `dir` from `seeds` start nodes, assuming average branching: `|E|/|V|`
    /// along one direction, twice that along both.
    pub fn expand_fraction(graph: &Graph, seeds: u64, dir: Direction, hops: u32) -> f64 {
        let (nodes, rels) = (graph.node_count() as u64, graph.rel_count() as u64);
        if nodes == 0 {
            return 0.0;
        }
        let entities = (nodes + rels) as f64;
        let mut d = rels as f64 / nodes as f64;
        if dir == Direction::Both {
            d *= 2.0;
        }
        // Reached nodes ≈ seeds · (1 + d + d² + … + d^hops), capped.
        let mut reached = seeds as f64;
        let mut frontier = seeds as f64;
        for _ in 0..hops {
            frontier *= d.max(0.0);
            reached += frontier;
            if reached >= entities {
                return 1.0;
            }
        }
        // Each reached node also touches ~d relationships.
        ((reached * (1.0 + d)) / entities).min(1.0)
    }

    /// Picks the store for an `hops`-hop expansion in `dir` from `seeds`
    /// start nodes over `graph`.
    pub fn choose(&self, graph: &Graph, seeds: u64, dir: Direction, hops: u32) -> StoreChoice {
        if Self::expand_fraction(graph, seeds, dir, hops) < self.threshold {
            StoreChoice::Lineage
        } else {
            StoreChoice::Time
        }
    }
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{NodeId, RelId, Update};
    use Direction::Outgoing as Out;

    /// `nodes` nodes on a ring carrying `rels` relationships.
    fn graph_with(nodes: u64, rels: u64) -> Graph {
        let mut g = Graph::new();
        for i in 0..nodes {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        for i in 0..rels {
            g.apply(&Update::AddRel {
                id: RelId::new(i),
                src: NodeId::new(i % nodes),
                tgt: NodeId::new((i + 1) % nodes),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn expand_fraction_grows_with_hops() {
        // Average degree 3.
        let g = graph_with(100, 300);
        let f1 = Planner::expand_fraction(&g, 1, Out, 1);
        let f2 = Planner::expand_fraction(&g, 1, Out, 2);
        let f8 = Planner::expand_fraction(&g, 1, Out, 8);
        assert!(f1 < f2 && f2 < f8);
        assert!(f1 > 0.0);
        assert_eq!(f8, 1.0, "degree 3, 8 hops saturates 100 nodes");
    }

    #[test]
    fn empty_graph_is_safe() {
        assert_eq!(Planner::expand_fraction(&Graph::new(), 1, Out, 4), 0.0);
        assert_eq!(
            Planner::new().choose(&Graph::new(), 1, Out, 4),
            StoreChoice::Lineage
        );
    }

    #[test]
    fn expand_crosses_threshold_with_hops() {
        // Average degree 5: 1 hop touches a sliver, 8 hops everything.
        let g = graph_with(1_000, 5_000);
        let p = Planner::new();
        assert_eq!(p.choose(&g, 1, Out, 1), StoreChoice::Lineage);
        assert_eq!(p.choose(&g, 1, Out, 8), StoreChoice::Time);
        // The flip happens at some hop count in between.
        assert!((1..=8).any(|hops| p.choose(&g, 1, Out, hops) == StoreChoice::Time));
    }

    #[test]
    fn custom_threshold() {
        let g = graph_with(100, 100);
        let p = Planner::with_threshold(0.0);
        // Everything at or above 0 goes to TimeStore.
        assert_eq!(p.choose(&g, 1, Out, 1), StoreChoice::Time);
        assert_eq!(p.threshold(), 0.0);
    }

    #[test]
    fn undirected_expansions_branch_twice_as_wide() {
        // |E|/|V| = 2: 2 hops one way reach ≈ 1 + 2 + 4 nodes, touching
        // 7 % of the 300 entities; both ways ≈ 1 + 4 + 16, touching 35 %.
        let g = graph_with(100, 200);
        let p = Planner::new();
        assert_eq!(p.choose(&g, 1, Out, 2), StoreChoice::Lineage);
        assert_eq!(
            p.choose(&g, 1, Direction::Incoming, 2),
            StoreChoice::Lineage
        );
        assert_eq!(p.choose(&g, 1, Direction::Both, 2), StoreChoice::Time);
    }
}
