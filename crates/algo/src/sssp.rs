//! Single-source shortest paths (weighted) with an incremental engine —
//! the second monotonic path algorithm of Sec. 5.2, using the same tag &
//! reset discipline as BFS but over weighted distances.

use lpg::{Direction, Graph, NodeId, PropertyValue, StrId, TimestampedUpdate, Update};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

fn weight_of(rel: &lpg::Relationship, key: Option<StrId>) -> f64 {
    key.and_then(|k| rel.prop(k))
        .and_then(PropertyValue::as_float)
        .unwrap_or(1.0)
        .max(0.0)
}

/// Static Dijkstra from `source`; weights from `weight_key` (missing ⇒ 1).
pub fn sssp(graph: &Graph, source: NodeId, weight_key: Option<StrId>) -> HashMap<NodeId, f64> {
    let mut dist: HashMap<NodeId, f64> = HashMap::new();
    if graph.node(source).is_none() {
        return dist;
    }
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(Reverse((0, source)));
    while let Some(Reverse((du_bits, u))) = heap.pop() {
        let du = f64::from_bits(du_bits);
        if dist.get(&u).copied().unwrap_or(f64::INFINITY) < du {
            continue; // stale entry
        }
        for rid in graph.relationships(u, Direction::Outgoing) {
            let Some(rel) = graph.rel(rid) else { continue };
            let cand = du + weight_of(rel, weight_key);
            if dist.get(&rel.tgt).is_none_or(|&d| cand < d) {
                dist.insert(rel.tgt, cand);
                heap.push(Reverse((cand.to_bits(), rel.tgt)));
            }
        }
    }
    dist
}

/// Incremental SSSP: insertions relax; deletions tag & reset the dependent
/// region, then Dijkstra re-settles it from the untagged boundary.
pub struct IncrementalSssp {
    source: NodeId,
    weight_key: Option<StrId>,
    dist: HashMap<NodeId, f64>,
    /// Nodes recomputed across batches (work metric).
    pub touched: usize,
}

impl IncrementalSssp {
    /// Full Dijkstra to initialize.
    pub fn new(graph: &Graph, source: NodeId, weight_key: Option<StrId>) -> Self {
        IncrementalSssp {
            source,
            weight_key,
            dist: sssp(graph, source, weight_key),
            touched: 0,
        }
    }

    /// Current distances.
    pub fn distances(&self) -> &HashMap<NodeId, f64> {
        &self.dist
    }

    /// Applies one diff batch; `graph` must already reflect the updates.
    pub fn apply_diff(&mut self, graph: &Graph, diff: &[TimestampedUpdate]) {
        let had_deletions = diff.iter().any(|u| {
            matches!(
                u.op,
                Update::DeleteRel { .. } | Update::DeleteNode { .. } | Update::SetRelProp { .. }
            )
        });
        if had_deletions {
            // Weight increases behave like deletions: re-validate.
            let mut suspects = Vec::new();
            for (&node, &d) in &self.dist {
                if node == self.source {
                    continue;
                }
                if !self.justified(graph, node, d, &HashSet::new()) {
                    suspects.push(node);
                }
            }
            if !suspects.is_empty() {
                self.tag_and_reset(graph, suspects);
            }
            if graph.node(self.source).is_none() {
                self.dist.clear();
                return;
            }
        }
        // Relax insertions / decreased weights.
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        for u in diff {
            match &u.op {
                Update::AddRel { src, .. } => {
                    if let Some(&ds) = self.dist.get(src) {
                        heap.push(Reverse((ds.to_bits(), *src)));
                    }
                }
                Update::SetRelProp { id, .. } => {
                    if let Some(rel) = graph.rel(*id) {
                        if let Some(&ds) = self.dist.get(&rel.src) {
                            heap.push(Reverse((ds.to_bits(), rel.src)));
                        }
                    }
                }
                _ => {}
            }
        }
        self.settle(graph, heap);
    }

    fn justified(&self, graph: &Graph, node: NodeId, d: f64, excluded: &HashSet<NodeId>) -> bool {
        graph.relationships(node, Direction::Incoming).any(|rid| {
            graph
                .rel(rid)
                .filter(|r| !excluded.contains(&r.src))
                .and_then(|r| {
                    self.dist
                        .get(&r.src)
                        .map(|&ds| ds + weight_of(r, self.weight_key))
                })
                .is_some_and(|cand| (cand - d).abs() < 1e-12)
        })
    }

    fn tag_and_reset(&mut self, graph: &Graph, seeds: Vec<NodeId>) {
        let mut tagged: HashSet<NodeId> = HashSet::new();
        let mut queue: Vec<NodeId> = seeds;
        while let Some(v) = queue.pop() {
            if !tagged.insert(v) {
                continue;
            }
            for rid in graph.relationships(v, Direction::Outgoing) {
                let Some(rel) = graph.rel(rid) else { continue };
                let w = rel.tgt;
                if tagged.contains(&w) || !self.dist.contains_key(&w) {
                    continue;
                }
                let dw = self.dist[&w];
                if !self.justified(graph, w, dw, &tagged) {
                    queue.push(w);
                }
            }
        }
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        for v in &tagged {
            self.dist.remove(v);
            self.touched += 1;
        }
        for v in &tagged {
            for rid in graph.relationships(*v, Direction::Incoming) {
                let Some(rel) = graph.rel(rid) else { continue };
                if let Some(&ds) = self.dist.get(&rel.src) {
                    heap.push(Reverse((ds.to_bits(), rel.src)));
                }
            }
        }
        self.settle(graph, heap);
    }

    fn settle(&mut self, graph: &Graph, mut heap: BinaryHeap<Reverse<(u64, NodeId)>>) {
        while let Some(Reverse((du_bits, u))) = heap.pop() {
            let du = f64::from_bits(du_bits);
            if self.dist.get(&u).copied().unwrap_or(f64::INFINITY) < du {
                continue;
            }
            for rid in graph.relationships(u, Direction::Outgoing) {
                let Some(rel) = graph.rel(rid) else { continue };
                let cand = du + weight_of(rel, self.weight_key);
                if self.dist.get(&rel.tgt).is_none_or(|&d| cand < d) {
                    self.dist.insert(rel.tgt, cand);
                    self.touched += 1;
                    heap.push(Reverse((cand.to_bits(), rel.tgt)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::RelId;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }
    const W: StrId = StrId(0);

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: nid(i),
            labels: vec![],
            props: vec![],
        }
    }

    fn add_wrel(id: u64, s: u64, t: u64, w: f64) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: nid(s),
            tgt: nid(t),
            label: None,
            props: vec![(W, PropertyValue::Float(w))],
        }
    }

    fn tsu(op: Update) -> TimestampedUpdate {
        TimestampedUpdate::new(1, op)
    }

    fn weighted_diamond() -> Graph {
        let mut g = Graph::new();
        for i in 0..4 {
            g.apply(&add_node(i)).unwrap();
        }
        // 0→1 (1), 1→3 (1), 0→2 (5), 2→3 (1)
        for (id, s, t, w) in [
            (0u64, 0, 1, 1.0),
            (1, 1, 3, 1.0),
            (2, 0, 2, 5.0),
            (3, 2, 3, 1.0),
        ] {
            g.apply(&add_wrel(id, s, t, w)).unwrap();
        }
        g
    }

    #[test]
    fn static_distances() {
        let g = weighted_diamond();
        let d = sssp(&g, nid(0), Some(W));
        assert_eq!(d[&nid(0)], 0.0);
        assert_eq!(d[&nid(1)], 1.0);
        assert_eq!(d[&nid(3)], 2.0);
        assert_eq!(d[&nid(2)], 5.0);
    }

    #[test]
    fn unweighted_equals_bfs() {
        let g = weighted_diamond();
        let d = sssp(&g, nid(0), None);
        assert_eq!(d[&nid(3)], 2.0);
        assert_eq!(d[&nid(2)], 1.0);
    }

    #[test]
    fn incremental_insert_shortcut() {
        let mut g = weighted_diamond();
        let mut inc = IncrementalSssp::new(&g, nid(0), Some(W));
        let op = add_wrel(10, 0, 3, 0.5);
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(op)]);
        let want = sssp(&g, nid(0), Some(W));
        assert_eq!(inc.distances().clone(), want);
        assert_eq!(want[&nid(3)], 0.5);
    }

    #[test]
    fn incremental_delete_reroutes() {
        let mut g = weighted_diamond();
        let mut inc = IncrementalSssp::new(&g, nid(0), Some(W));
        // Remove the cheap path 1→3: distance to 3 becomes 6 via 2.
        let op = Update::DeleteRel { id: RelId::new(1) };
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(op)]);
        let want = sssp(&g, nid(0), Some(W));
        assert_eq!(inc.distances().clone(), want);
        assert_eq!(want[&nid(3)], 6.0);
    }

    #[test]
    fn weight_change_is_handled() {
        let mut g = weighted_diamond();
        let mut inc = IncrementalSssp::new(&g, nid(0), Some(W));
        // Make 0→2 cheap: distances drop.
        let op = Update::SetRelProp {
            id: RelId::new(2),
            key: W,
            value: PropertyValue::Float(0.5),
        };
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(op)]);
        let want = sssp(&g, nid(0), Some(W));
        assert_eq!(inc.distances().clone(), want);
        assert_eq!(want[&nid(2)], 0.5);
        assert_eq!(want[&nid(3)], 1.5);
    }
}
