//! PageRank: static power iteration over a CSR, and the incremental
//! variant that warm-starts from previous results (the paper's category of
//! "non-monotonic algorithms that converge to correct results independently
//! of node initialization", Sec. 5.2).

use crate::csr::Csr;
use lpg::{Direction, Graph, NodeId};
use std::collections::HashMap;

/// PageRank parameters. The evaluation (Sec. 6.6) runs "either for up to
/// one hundred iterations or until a convergence threshold is reached,
/// which we set as ε = 0.01".
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor.
    pub damping: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// L1 convergence threshold ε.
    pub epsilon: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iters: 100,
            epsilon: 0.01,
        }
    }
}

/// The result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// Rank per dense node index (see [`Csr::ids`]).
    pub ranks: Vec<f64>,
    /// Iterations executed until convergence or the cap.
    pub iterations: usize,
}

/// Static PageRank by power iteration over the *outgoing* CSR.
pub fn pagerank(csr: &Csr, config: PageRankConfig) -> PageRankResult {
    let n = csr.node_count();
    power_iterate(csr, vec![1.0 / n.max(1) as f64; n], config)
}

fn power_iterate(csr: &Csr, mut ranks: Vec<f64>, config: PageRankConfig) -> PageRankResult {
    let nodes = csr.node_count();
    let n = nodes.max(1) as f64;
    let base = (1.0 - config.damping) / n;
    let mut next = vec![0.0f64; nodes];
    let mut iterations = 0;
    for _ in 0..config.max_iters {
        iterations += 1;
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for d in 0..nodes as u32 {
            let deg = csr.degree(d);
            let r = ranks[d as usize];
            if deg == 0 {
                dangling += r;
            } else {
                let share = r / deg as f64;
                for &t in csr.neighbours(d) {
                    next[t as usize] += share;
                }
            }
        }
        let dangling_share = dangling / n;
        let mut delta = 0.0;
        for d in 0..nodes {
            let v = base + config.damping * (next[d] + dangling_share);
            delta += (v - ranks[d]).abs();
            next[d] = v;
        }
        std::mem::swap(&mut ranks, &mut next);
        if delta < config.epsilon {
            break;
        }
    }
    PageRankResult { ranks, iterations }
}

/// Incremental PageRank: keeps the last converged ranks and, after a batch
/// of updates, re-runs power iteration *warm-started* from them. Changed
/// regions converge in a handful of iterations while unchanged regions stay
/// fixed — the change-propagation effect the paper leverages.
pub struct IncrementalPageRank {
    config: PageRankConfig,
    ranks: HashMap<NodeId, f64>,
    /// Iterations spent across all runs (for speedup accounting).
    pub total_iterations: usize,
}

impl IncrementalPageRank {
    /// A fresh engine.
    pub fn new(config: PageRankConfig) -> Self {
        IncrementalPageRank {
            config,
            ranks: HashMap::new(),
            total_iterations: 0,
        }
    }

    /// Computes ranks for `graph`, reusing the previous snapshot's ranks as
    /// the starting vector. Returns the per-node ranks.
    pub fn run(&mut self, graph: &Graph) -> HashMap<NodeId, f64> {
        let csr = Csr::project(graph, Direction::Outgoing);
        let init = 1.0 / csr.node_count().max(1) as f64;
        // Warm start: prior rank where known, uniform share for new nodes.
        let mut start: Vec<f64> = csr
            .ids
            .iter()
            .map(|id| self.ranks.get(id).copied().unwrap_or(init))
            .collect();
        // Renormalize so the vector still sums to 1 after adds/deletes.
        let mass: f64 = start.iter().sum();
        if mass > 0.0 {
            for v in &mut start {
                *v /= mass;
            }
        }
        let result = power_iterate(&csr, start, self.config);
        self.total_iterations += result.iterations;
        self.ranks = csr.ids.iter().copied().zip(result.ranks).collect();
        self.ranks.clone()
    }

    /// Iterations used by the most recent run sequence.
    pub fn iterations(&self) -> usize {
        self.total_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{RelId, Update};

    fn line_graph(n: u64) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        for i in 0..n - 1 {
            g.apply(&Update::AddRel {
                id: RelId::new(i),
                src: NodeId::new(i),
                tgt: NodeId::new(i + 1),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        g
    }

    fn tight() -> PageRankConfig {
        PageRankConfig {
            damping: 0.85,
            max_iters: 200,
            epsilon: 1e-9,
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = line_graph(20);
        let csr = Csr::project(&g, Direction::Outgoing);
        let r = pagerank(&csr, tight());
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn sink_of_a_line_has_highest_rank() {
        let g = line_graph(10);
        let csr = Csr::project(&g, Direction::Outgoing);
        let r = pagerank(&csr, tight());
        let max = r
            .ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max, 9, "last node accumulates rank");
        // Monotone along the line.
        for w in r.ranks.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = Graph::new();
        let csr = Csr::project(&g, Direction::Outgoing);
        let r = pagerank(&csr, PageRankConfig::default());
        assert!(r.ranks.is_empty());
        let mut g = Graph::new();
        g.apply(&Update::AddNode {
            id: NodeId::new(0),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
        let csr = Csr::project(&g, Direction::Outgoing);
        let r = pagerank(&csr, tight());
        assert!((r.ranks[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let mut g = line_graph(30);
        let mut inc = IncrementalPageRank::new(tight());
        inc.run(&g);
        // Apply a structural change.
        g.apply(&Update::AddRel {
            id: RelId::new(100),
            src: NodeId::new(29),
            tgt: NodeId::new(0),
            label: None,
            props: vec![],
        })
        .unwrap();
        let inc_ranks = inc.run(&g);
        let csr = Csr::project(&g, Direction::Outgoing);
        let scratch = pagerank(&csr, tight());
        for d in 0..30u32 {
            let id = csr.sparse(d);
            let a = inc_ranks[&id];
            let b = scratch.ranks[d as usize];
            assert!((a - b).abs() < 1e-6, "node {id}: {a} vs {b}");
        }
    }

    #[test]
    fn warm_start_converges_faster() {
        let mut g = line_graph(200);
        let cfg = PageRankConfig {
            damping: 0.85,
            max_iters: 500,
            epsilon: 1e-8,
        };
        let mut inc = IncrementalPageRank::new(cfg);
        inc.run(&g);
        let after_first = inc.total_iterations;
        // Tiny change: one extra edge.
        g.apply(&Update::AddRel {
            id: RelId::new(500),
            src: NodeId::new(0),
            tgt: NodeId::new(100),
            label: None,
            props: vec![],
        })
        .unwrap();
        inc.run(&g);
        let second = inc.total_iterations - after_first;
        assert!(
            second < after_first,
            "warm start ({second}) should beat cold start ({after_first})"
        );
    }

    #[test]
    fn handles_deletions() {
        let mut g = line_graph(10);
        let mut inc = IncrementalPageRank::new(tight());
        inc.run(&g);
        g.apply(&Update::DeleteRel { id: RelId::new(4) }).unwrap();
        let inc_ranks = inc.run(&g);
        let csr = Csr::project(&g, Direction::Outgoing);
        let scratch = pagerank(&csr, tight());
        for d in 0..10u32 {
            let id = csr.sparse(d);
            assert!((inc_ranks[&id] - scratch.ranks[d as usize]).abs() < 1e-6);
        }
    }
}
