//! Output checks: answers over the wire compared with a naive replay of the
//! generated updates into an `lpg::Graph`, and the durability check after a
//! reopen.

use crate::dataset::{Dataset, Op, OpKind, KEY_TOUCHED, LABEL_CLIENT};
use crate::sut::Sut;
use lpg::{Direction, Graph, Interner, NodeId, RelId};
use query::{QueryResult, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of a check: how many answers were compared and how many differed.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    pub attempted: u64,
    pub wrong: u64,
    pub first_mismatch: Option<String>,
}

impl CheckOutcome {
    fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            if self.first_mismatch.is_none() {
                self.first_mismatch = Some(describe());
            }
        }
    }

    pub fn merge(&mut self, other: CheckOutcome) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }
}

fn ids_of(result: &QueryResult) -> Vec<i64> {
    let mut ids: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r.first().and_then(Value::as_int).unwrap_or(i64::MIN))
        .collect();
    ids.sort_unstable();
    ids
}

fn sorted_ids(ids: impl IntoIterator<Item = NodeId>) -> Vec<i64> {
    let mut v: Vec<i64> = ids.into_iter().map(|n| n.raw() as i64).collect();
    v.sort_unstable();
    v
}

/// Nodes reached from `start` by one or two outgoing hops, without `start`.
fn two_hops(g: &Graph, start: NodeId) -> Vec<i64> {
    let mut seen: BTreeSet<NodeId> = BTreeSet::from([start]);
    let mut frontier = vec![start];
    for _ in 0..2 {
        let mut next = Vec::new();
        for n in frontier {
            for m in g.neighbours(n, Direction::Outgoing) {
                if seen.insert(m) {
                    next.push(m);
                }
            }
        }
        frontier = next;
    }
    seen.remove(&start);
    sorted_ids(seen)
}

/// Whether `result` is the right answer to `op` on graph `g`.
fn answer_is_right(op: &Op, result: &QueryResult, g: &Graph, interner: &Interner) -> bool {
    let single = |expected: Option<Value>| match expected {
        Some(v) => result.rows == vec![vec![v]],
        None => result.rows.is_empty(),
    };
    match op.kind {
        OpKind::NodeAt | OpKind::NodeLatest => single(
            g.node(NodeId::new(op.id))
                .map(|n| Value::from_node(n, interner, None)),
        ),
        OpKind::RelAt => single(
            g.rel(RelId::new(op.id))
                .map(|r| Value::from_rel(r, interner, None)),
        ),
        OpKind::Expand2 => ids_of(result) == two_hops(g, NodeId::new(op.id)),
        OpKind::Hop1Latest => {
            ids_of(result) == sorted_ids(g.neighbours(NodeId::new(op.id), Direction::Outgoing))
        }
        OpKind::CountAt => single(Some(Value::Int(g.node_count() as i64))),
        OpKind::Create | OpKind::SetTouched => single(Some(Value::Int(1))),
    }
}

/// Answers `ops` over one connection, in order, and compares every answer
/// with the oracle. Latest-time reads and writes are compared against
/// `latest` (to which acknowledged writes are applied as they go); `AS OF`
/// reads against a replay of the generated history up to their time.
pub fn check_outputs(sut: &Sut, data: &Dataset, ops: &[Op], latest: &mut Graph) -> CheckOutcome {
    let mut client = sut.connect();
    let interner = sut.db.interner();
    let mut outcome = CheckOutcome::default();
    let mut historical: Vec<(&Op, QueryResult)> = Vec::new();
    for op in ops {
        let result = match client.run(&op.text, op.params.clone()) {
            Ok(r) => r,
            Err(e) => {
                outcome.record(false, || format!("{} failed: {e}", op.text));
                continue;
            }
        };
        match op.kind {
            OpKind::NodeAt | OpKind::RelAt | OpKind::Expand2 | OpKind::CountAt => {
                historical.push((op, result));
            }
            _ => {
                if let Some(update) = op.as_update() {
                    latest.apply(&update).expect("generated writes are valid");
                }
                let ok = answer_is_right(op, &result, latest, interner);
                outcome.record(ok, || {
                    format!("wrong answer to {} {:?}", op.text, op.params)
                });
            }
        }
    }
    historical.sort_by_key(|(op, _)| op.t);
    let mut graph = Graph::new();
    let mut commits = data.commits.iter().peekable();
    for (op, result) in historical {
        while let Some((_, updates)) = commits.next_if(|(ts, _)| *ts <= op.t) {
            for u in updates {
                graph.apply(u).expect("generated history is consistent");
            }
        }
        let ok = answer_is_right(op, &result, &graph, interner);
        outcome.record(ok, || {
            format!("wrong answer to {} {:?}", op.text, op.params)
        });
    }
    outcome
}

/// After a reopen: every acknowledged write must be in the recovered latest
/// graph exactly as the oracle has it, and readable over the wire.
pub fn check_durable(sut: &Sut, data: &Dataset, acked: &[Op], latest: &mut Graph) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let recovered = sut.db.latest_graph();
    // The last acknowledged value per entity is the one that must survive.
    let mut last: BTreeMap<u64, &Op> = BTreeMap::new();
    for op in acked {
        last.insert(op.id, op);
    }
    for (id, op) in &last {
        let node = recovered.node(NodeId::new(*id));
        let ok = match op.kind {
            OpKind::Create => node.is_some_and(|n| n.has_label(LABEL_CLIENT)),
            _ => {
                node.and_then(|n| n.prop(KEY_TOUCHED).cloned())
                    == Some(lpg::PropertyValue::Int(op.value))
            }
        } && node == latest.node(NodeId::new(*id));
        outcome.record(ok, || format!("acknowledged write lost: {}", op.text));
    }
    drop(recovered);
    sut.db.lineage_barrier(sut.db.latest_ts());
    let sample: Vec<Op> = last
        .values()
        .rev()
        .take(100)
        .map(|op| Op::read_latest(op.id))
        .collect();
    outcome.merge(check_outputs(sut, data, &sample, latest));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::Update;

    #[test]
    fn two_hops_excludes_start_and_dedupes() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        // 0→1, 0→2, 1→2, 2→0, 2→3; 4 is unreachable.
        for (r, (s, t)) in [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)]
            .into_iter()
            .enumerate()
        {
            g.apply(&Update::AddRel {
                id: RelId::new(r as u64),
                src: NodeId::new(s),
                tgt: NodeId::new(t),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        assert_eq!(two_hops(&g, NodeId::new(0)), vec![1, 2, 3]);
        assert_eq!(two_hops(&g, NodeId::new(4)), Vec::<i64>::new());
    }
}
