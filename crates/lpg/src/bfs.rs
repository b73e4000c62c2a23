//! Bounded breadth-first expansion over any neighbour source — the loop of
//! Algorithm 1 that every store's `expand` and every BFS-based measurement
//! shares.

use crate::ids::NodeId;
use std::collections::HashSet;

/// Expands `start` breadth first by at most `hops` hops. `neighbours(n,
/// out)` appends the neighbours of `n` to `out` (empty on each call;
/// duplicates and already-reached nodes are skipped). Returns every node
/// reached for the first time, tagged with its hop (1 = direct neighbour),
/// in BFS order; `start` itself is not reported. The first error from
/// `neighbours` ends the expansion.
pub fn bfs<E>(
    start: NodeId,
    hops: u32,
    mut neighbours: impl FnMut(NodeId, &mut Vec<NodeId>) -> Result<(), E>,
) -> Result<Vec<(NodeId, u32)>, E> {
    let mut seen = HashSet::from([start]);
    // The hits double as the queue: BFS order is nondecreasing in hop, so
    // `hits[next..]` are the nodes still to expand.
    let mut hits: Vec<(NodeId, u32)> = Vec::new();
    let mut next = 0;
    let mut buf = Vec::new();
    let (mut node, mut hop) = (start, 0);
    while hop < hops {
        buf.clear();
        neighbours(node, &mut buf)?;
        hits.extend(
            buf.iter()
                .filter(|&&n| seen.insert(n))
                .map(|&n| (n, hop + 1)),
        );
        let Some(&(n, h)) = hits.get(next) else { break };
        (node, hop, next) = (n, h, next + 1);
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// 0 → {1, 2}, 1 → {3, 0}, 2 → {3}, 3 → {4}: a cycle, two paths to 3.
    fn adjacency(n: NodeId, out: &mut Vec<NodeId>) -> Result<(), Infallible> {
        let to: &[u64] = match n.raw() {
            0 => &[1, 2],
            1 => &[3, 0],
            2 => &[3, 3],
            3 => &[4],
            _ => &[],
        };
        out.extend(to.iter().map(|&i| nid(i)));
        Ok(())
    }

    fn run(start: u64, hops: u32) -> Vec<(u64, u32)> {
        let Ok(hits) = bfs(nid(start), hops, adjacency);
        hits.into_iter().map(|(n, h)| (n.raw(), h)).collect()
    }

    #[test]
    fn first_reach_in_bfs_order() {
        assert_eq!(run(0, 0), []);
        assert_eq!(run(0, 1), [(1, 1), (2, 1)]);
        assert_eq!(run(0, 2), [(1, 1), (2, 1), (3, 2)]);
        assert_eq!(run(0, 3), [(1, 1), (2, 1), (3, 2), (4, 3)]);
        assert_eq!(run(0, u32::MAX), run(0, 3), "stops when nothing is new");
        assert_eq!(run(4, 5), []);
    }

    #[test]
    fn an_error_ends_the_expansion() {
        let mut calls = 0;
        let got = bfs(nid(0), 8, |n, out| {
            calls += 1;
            if n == nid(2) {
                return Err("boom");
            }
            out.push(NodeId::new(n.raw() + 1));
            out.push(nid(2));
            Ok(())
        });
        assert_eq!(got, Err("boom"));
        assert_eq!(calls, 3, "0, 1, then 2 fails");
    }
}
