//! Breadth-first search: static levels plus the incremental engine with
//! Kickstarter-style *tag & reset* deletion handling (Sec. 5.2: "deleted
//! nodes are tagged, and their value is reset before propagating the tags
//! to the remaining graph").

use lpg::{Direction, Graph, NodeId, TimestampedUpdate, Update};
use std::collections::{HashMap, HashSet, VecDeque};
use std::convert::Infallible;

/// Static BFS: hop distance from `source` following outgoing relationships.
/// Unreachable nodes are absent from the map.
pub fn bfs_levels(graph: &Graph, source: NodeId) -> HashMap<NodeId, u32> {
    if graph.node(source).is_none() {
        return HashMap::new();
    }
    let Ok(reached) = lpg::bfs::<Infallible>(source, u32::MAX, |u, out| {
        out.extend(
            graph
                .relationships(u, Direction::Outgoing)
                .filter_map(|rid| Some(graph.rel(rid)?.tgt)),
        );
        Ok(())
    });
    std::iter::once((source, 0)).chain(reached).collect()
}

/// Incremental BFS from a fixed source.
///
/// * Relationship **insertions** relax the new edge and propagate.
/// * Relationship/node **deletions** use tag & reset: every node whose
///   current level can no longer be justified by an in-neighbour is tagged,
///   the tag is propagated to dependents, tagged values are reset, and the
///   affected region is re-relaxed from its untagged frontier.
pub struct IncrementalBfs {
    source: NodeId,
    levels: HashMap<NodeId, u32>,
    /// Nodes whose level was recomputed across all batches (work metric).
    pub touched: usize,
}

impl IncrementalBfs {
    /// Initializes by running a full BFS on `graph`.
    pub fn new(graph: &Graph, source: NodeId) -> Self {
        let levels = bfs_levels(graph, source);
        IncrementalBfs {
            source,
            levels,
            touched: 0,
        }
    }

    /// Current levels.
    pub fn levels(&self) -> &HashMap<NodeId, u32> {
        &self.levels
    }

    /// Applies one diff batch; `graph` must already reflect the updates.
    pub fn apply_diff(&mut self, graph: &Graph, diff: &[TimestampedUpdate]) {
        let mut inserted_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut deletion_suspects: Vec<NodeId> = Vec::new();
        for u in diff {
            match &u.op {
                Update::AddRel { src, tgt, .. } => inserted_edges.push((*src, *tgt)),
                Update::DeleteRel { .. } => {
                    // The rel is gone from `graph`; we cannot know its
                    // endpoints from the op alone, so collect suspects below.
                }
                Update::AddNode { .. } | Update::DeleteNode { .. } => {}
                _ => {}
            }
        }
        let had_deletions = diff
            .iter()
            .any(|u| matches!(u.op, Update::DeleteRel { .. } | Update::DeleteNode { .. }));
        if had_deletions {
            // Tag: any settled node whose level is no longer justified.
            // (Kickstarter keeps per-edge dependencies; we conservatively
            // re-validate levels, which is correct and still avoids a full
            // re-traversal when the affected region is small.)
            for (&node, &level) in &self.levels {
                if node == self.source {
                    continue;
                }
                if !justified(graph, &self.levels, node, level) {
                    deletion_suspects.push(node);
                }
            }
            if !deletion_suspects.is_empty() {
                self.tag_and_reset(graph, deletion_suspects);
            }
            if graph.node(self.source).is_none() {
                self.levels.clear();
                return;
            }
        }
        // Relax insertions.
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for (src, tgt) in inserted_edges {
            if let Some(&ls) = self.levels.get(&src) {
                let cand = ls + 1;
                if self.levels.get(&tgt).is_none_or(|&lt| cand < lt) {
                    self.levels.insert(tgt, cand);
                    self.touched += 1;
                    queue.push_back(tgt);
                }
            }
        }
        self.relax_from(graph, &mut queue);
    }

    /// Tags `seeds` and every node transitively dependent on them, resets
    /// their levels, then re-relaxes from the untagged boundary.
    fn tag_and_reset(&mut self, graph: &Graph, seeds: Vec<NodeId>) {
        let mut tagged: HashSet<NodeId> = HashSet::new();
        let mut queue: VecDeque<NodeId> = seeds.into();
        while let Some(v) = queue.pop_front() {
            if !tagged.insert(v) {
                continue;
            }
            // Dependents: out-neighbours whose level came through v.
            let lv = self.levels.get(&v).copied();
            for rid in graph.relationships(v, Direction::Outgoing) {
                let Some(rel) = graph.rel(rid) else { continue };
                let w = rel.tgt;
                if tagged.contains(&w) {
                    continue;
                }
                if let (Some(lv), Some(&lw)) = (lv, self.levels.get(&w)) {
                    if lw == lv + 1 && !justified_excluding(graph, &self.levels, w, lw, &tagged) {
                        queue.push_back(w);
                    }
                }
            }
        }
        // Reset.
        for v in &tagged {
            self.levels.remove(v);
            self.touched += 1;
        }
        // Re-relax: frontier = untagged nodes adjacent to the reset region.
        let mut frontier: VecDeque<NodeId> = VecDeque::new();
        for v in &tagged {
            for rid in graph.relationships(*v, Direction::Incoming) {
                let Some(rel) = graph.rel(rid) else { continue };
                if self.levels.contains_key(&rel.src) {
                    frontier.push_back(rel.src);
                }
            }
        }
        self.relax_from(graph, &mut frontier);
    }

    fn relax_from(&mut self, graph: &Graph, queue: &mut VecDeque<NodeId>) {
        while let Some(u) = queue.pop_front() {
            let Some(&lu) = self.levels.get(&u) else {
                continue;
            };
            for rid in graph.relationships(u, Direction::Outgoing) {
                let Some(rel) = graph.rel(rid) else { continue };
                let cand = lu + 1;
                if self.levels.get(&rel.tgt).is_none_or(|&lt| cand < lt) {
                    self.levels.insert(rel.tgt, cand);
                    self.touched += 1;
                    queue.push_back(rel.tgt);
                }
            }
        }
    }
}

/// Does some in-neighbour justify `node` at `level`?
fn justified(graph: &Graph, levels: &HashMap<NodeId, u32>, node: NodeId, level: u32) -> bool {
    graph.relationships(node, Direction::Incoming).any(|rid| {
        graph
            .rel(rid)
            .and_then(|r| levels.get(&r.src))
            .is_some_and(|&ls| ls + 1 == level)
    })
}

fn justified_excluding(
    graph: &Graph,
    levels: &HashMap<NodeId, u32>,
    node: NodeId,
    level: u32,
    excluded: &HashSet<NodeId>,
) -> bool {
    graph.relationships(node, Direction::Incoming).any(|rid| {
        graph
            .rel(rid)
            .filter(|r| !excluded.contains(&r.src))
            .and_then(|r| levels.get(&r.src))
            .is_some_and(|&ls| ls + 1 == level)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::RelId;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: nid(i),
            labels: vec![],
            props: vec![],
        }
    }

    fn add_rel(id: u64, s: u64, t: u64) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: nid(s),
            tgt: nid(t),
            label: None,
            props: vec![],
        }
    }

    fn tsu(ts: u64, op: Update) -> TimestampedUpdate {
        TimestampedUpdate::new(ts, op)
    }

    /// 0→1→2→3 and 0→4→3 (two paths to 3).
    fn diamond() -> Graph {
        let mut g = Graph::new();
        for i in 0..5 {
            g.apply(&add_node(i)).unwrap();
        }
        for (id, s, t) in [(0u64, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 4), (4, 4, 3)] {
            g.apply(&add_rel(id, s, t)).unwrap();
        }
        g
    }

    #[test]
    fn static_levels() {
        let g = diamond();
        let l = bfs_levels(&g, nid(0));
        assert_eq!(l[&nid(0)], 0);
        assert_eq!(l[&nid(1)], 1);
        assert_eq!(l[&nid(4)], 1);
        assert_eq!(l[&nid(2)], 2);
        assert_eq!(l[&nid(3)], 2, "shorter path via 4");
        assert!(bfs_levels(&g, nid(99)).is_empty());
    }

    #[test]
    fn incremental_insertion_improves_levels() {
        let mut g = diamond();
        let mut inc = IncrementalBfs::new(&g, nid(0));
        // New shortcut 0→3.
        let op = add_rel(10, 0, 3);
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(1, op)]);
        assert_eq!(inc.levels()[&nid(3)], 1);
        assert_eq!(inc.levels().clone(), bfs_levels(&g, nid(0)));
    }

    #[test]
    fn incremental_deletion_tag_and_reset() {
        let mut g = diamond();
        let mut inc = IncrementalBfs::new(&g, nid(0));
        // Remove 0→4: node 4 loses its level-1 path; 3 still level 2? No —
        // 3 was level 2 via 4; now only via 2 at level 3.
        let op = Update::DeleteRel { id: RelId::new(3) };
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(1, op)]);
        let want = bfs_levels(&g, nid(0));
        assert_eq!(inc.levels().clone(), want);
        assert_eq!(want.get(&nid(4)), None, "4 unreachable");
        assert_eq!(want[&nid(3)], 3);
    }

    #[test]
    fn deletion_disconnecting_component() {
        let mut g = diamond();
        let mut inc = IncrementalBfs::new(&g, nid(0));
        for rel in [0u64, 3] {
            let op = Update::DeleteRel {
                id: RelId::new(rel),
            };
            g.apply(&op).unwrap();
            inc.apply_diff(&g, &[tsu(rel + 1, op)]);
        }
        let want = bfs_levels(&g, nid(0));
        assert_eq!(inc.levels().clone(), want);
        assert_eq!(want.len(), 1, "only the source remains reachable");
    }

    #[test]
    fn mixed_batches_match_scratch() {
        let mut g = diamond();
        let mut inc = IncrementalBfs::new(&g, nid(0));
        let batch = vec![
            tsu(1, add_node(5)),
            tsu(1, add_rel(20, 3, 5)),
            tsu(1, Update::DeleteRel { id: RelId::new(1) }),
        ];
        for u in &batch {
            g.apply(&u.op).unwrap();
        }
        inc.apply_diff(&g, &batch);
        assert_eq!(inc.levels().clone(), bfs_levels(&g, nid(0)));
    }

    #[test]
    fn cycles_handled() {
        let mut g = Graph::new();
        for i in 0..4 {
            g.apply(&add_node(i)).unwrap();
        }
        for (id, s, t) in [(0u64, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3)] {
            g.apply(&add_rel(id, s, t)).unwrap();
        }
        let mut inc = IncrementalBfs::new(&g, nid(0));
        // Delete 1→2: the cycle collapses; 2 and 3 become unreachable.
        let op = Update::DeleteRel { id: RelId::new(1) };
        g.apply(&op).unwrap();
        inc.apply_diff(&g, &[tsu(1, op)]);
        assert_eq!(inc.levels().clone(), bfs_levels(&g, nid(0)));
        assert!(!inc.levels().contains_key(&nid(2)));
        assert!(!inc.levels().contains_key(&nid(3)));
    }
}
