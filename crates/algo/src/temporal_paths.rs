//! Temporal path problems over a temporal LPG (Fig. 2): earliest-arrival
//! and latest-departure paths, solved with the single-scan approach of
//! Wu et al. ("Path problems in temporal graphs") that TeGraph later casts
//! as a topological-optimum problem — no joins across snapshots.
//!
//! Interpretation of a relationship version's interval `[τ_s, τ_e)`: the
//! connection departs its source at `τ_s` and arrives at its target at
//! `τ_e` (the aviation reading of Fig. 2; an open-ended interval means the
//! link persists and traversal costs nothing beyond its start).

use lpg::{NodeId, Relationship, TemporalGraph, Timestamp, Version, TS_MAX};
use std::collections::HashMap;

fn sorted_by_departure(tg: &TemporalGraph) -> Vec<&Version<Relationship>> {
    let mut rels: Vec<&Version<Relationship>> = tg.rels.values().flat_map(|c| c.iter()).collect();
    rels.sort_by_key(|v| v.valid.start);
    rels
}

/// Earliest arrival time at every reachable node, starting from `source`
/// no earlier than `t_start`. One forward scan over relationships sorted by
/// departure time.
pub fn earliest_arrival(
    tg: &TemporalGraph,
    source: NodeId,
    t_start: Timestamp,
) -> HashMap<NodeId, Timestamp> {
    let mut arrival: HashMap<NodeId, Timestamp> = HashMap::new();
    arrival.insert(source, t_start);
    for v in sorted_by_departure(tg) {
        let dep = v.valid.start;
        let arr = if v.valid.end == TS_MAX {
            dep
        } else {
            v.valid.end
        };
        if let Some(&at_src) = arrival.get(&v.data.src) {
            // Board only if we are already at the source when it departs.
            if dep >= at_src {
                let best = arrival.get(&v.data.tgt).copied().unwrap_or(TS_MAX);
                if arr < best {
                    arrival.insert(v.data.tgt, arr);
                }
            }
        }
    }
    arrival
}

/// Latest departure time from every node that still reaches `target` by
/// `deadline`. One backward scan over relationships sorted by arrival time
/// (descending).
pub fn latest_departure(
    tg: &TemporalGraph,
    target: NodeId,
    deadline: Timestamp,
) -> HashMap<NodeId, Timestamp> {
    let mut departure: HashMap<NodeId, Timestamp> = HashMap::new();
    departure.insert(target, deadline);
    let mut rels: Vec<&Version<Relationship>> = tg.rels.values().flat_map(|c| c.iter()).collect();
    rels.sort_by_key(|v| std::cmp::Reverse(arrival_of(v)));
    for v in rels {
        let dep = v.valid.start;
        let arr = arrival_of(v);
        if let Some(&from_tgt) = departure.get(&v.data.tgt) {
            // Take this connection only if its arrival still leaves time to
            // continue from the target node.
            if arr <= from_tgt {
                let best = departure.get(&v.data.src).copied().unwrap_or(0);
                if dep > best || !departure.contains_key(&v.data.src) {
                    departure.insert(v.data.src, dep);
                }
            }
        }
    }
    departure
}

fn arrival_of(v: &Version<Relationship>) -> Timestamp {
    if v.valid.end == TS_MAX {
        v.valid.start
    } else {
        v.valid.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{Graph, Interval, RelId, TimestampedUpdate, Update};

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// An aviation network in the spirit of Fig. 2: airports 0..=4,
    /// flights as relationships whose interval is [departure, arrival).
    fn aviation() -> TemporalGraph {
        let base = Graph::new();
        let ts = 0u64;
        let mut updates = Vec::new();
        for i in 0..5u64 {
            updates.push(TimestampedUpdate::new(
                ts,
                Update::AddNode {
                    id: nid(i),
                    labels: vec![],
                    props: vec![],
                },
            ));
        }
        // flights: (id, src, tgt, dep, arr)
        let flights = [
            (0u64, 0u64, 2u64, 1u64, 3u64),
            (1, 2, 1, 4, 8), // connects from flight 0
            (2, 0, 3, 2, 5),
            (3, 3, 1, 10, 13), // slower alternative
            (4, 0, 4, 1, 4),
            (5, 4, 1, 5, 7), // 0→4→1 arrives 7
            (6, 2, 1, 2, 6), // departs before flight 0 arrives: unusable
        ];
        for (id, s, t, dep, arr) in flights {
            updates.push(TimestampedUpdate::new(
                dep,
                Update::AddRel {
                    id: RelId::new(id),
                    src: nid(s),
                    tgt: nid(t),
                    label: None,
                    props: vec![],
                },
            ));
            updates.push(TimestampedUpdate::new(
                arr,
                Update::DeleteRel { id: RelId::new(id) },
            ));
        }
        updates.sort_by_key(|u| u.ts);
        TemporalGraph::build(&base, Interval::new(0, 50), &updates)
    }

    #[test]
    fn earliest_arrival_chooses_feasible_connections() {
        let tg = aviation();
        let ea = earliest_arrival(&tg, nid(0), 0);
        assert_eq!(ea[&nid(0)], 0);
        assert_eq!(ea[&nid(2)], 3);
        assert_eq!(ea[&nid(4)], 4);
        // 0→4→1 arrives at 7; 0→2→1 arrives at 8; flight 6 departs at 2
        // (before we reach airport 2 at 3) so it is unusable.
        assert_eq!(ea[&nid(1)], 7);
    }

    #[test]
    fn earliest_arrival_respects_start_time() {
        let tg = aviation();
        // Starting at t=2 misses flights departing at 1.
        let ea = earliest_arrival(&tg, nid(0), 2);
        assert!(!ea.contains_key(&nid(2)), "flight 0 departs at 1 < 2");
        assert_eq!(ea[&nid(3)], 5);
        assert_eq!(ea[&nid(1)], 13, "only 0→3→1 remains");
    }

    #[test]
    fn latest_departure_backward_scan() {
        let tg = aviation();
        let ld = latest_departure(&tg, nid(1), 50);
        // From 3 we can leave at 10 (flight 3); from 0 the latest start
        // that still reaches 1 is flight 2 at t=2 (0→3 at 2, 3→1 at 10).
        assert_eq!(ld[&nid(3)], 10);
        assert_eq!(ld[&nid(2)], 4);
        assert_eq!(ld[&nid(4)], 5);
        assert_eq!(ld[&nid(0)], 2);
    }

    #[test]
    fn latest_departure_with_tight_deadline() {
        let tg = aviation();
        // Deadline 7: only 0→4→1 (arr 7) and its prefix work.
        let ld = latest_departure(&tg, nid(1), 7);
        assert_eq!(ld[&nid(4)], 5);
        assert_eq!(ld[&nid(2)], 2); // only flight 6 (arr 6 ≤ 7) works from 2
        assert_eq!(ld[&nid(0)], 1);
        assert!(!ld.contains_key(&nid(3)), "3→1 arrives 13 > 7");
    }

    #[test]
    fn unreachable_nodes_absent() {
        let tg = aviation();
        let ea = earliest_arrival(&tg, nid(1), 0);
        assert_eq!(ea.len(), 1, "airport 1 has no outgoing flights");
    }
}
