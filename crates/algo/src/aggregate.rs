//! Non-holistic aggregations over diffs (Sec. 5.2 category i): a running
//! global average of a relationship property, maintained from `getDiff`
//! batches with stream-processing-style counters — "no expensive dependency
//! tracking is required for deletions" (Sec. 6.6), but the engine must
//! remember each live relationship's contribution so a deletion can retract
//! it.

use lpg::{Graph, PropertyValue, RelId, StrId, TimestampedUpdate, Update};
use std::collections::HashMap;

/// Running `AVG(rel.prop)` maintained incrementally.
#[derive(Clone, Debug)]
pub struct IncrementalAvg {
    key: StrId,
    sum: f64,
    count: u64,
    /// Live contribution per relationship (needed to retract on delete).
    contributions: HashMap<RelId, f64>,
}

impl IncrementalAvg {
    /// An empty aggregate over property `key`.
    pub fn new(key: StrId) -> Self {
        IncrementalAvg {
            key,
            sum: 0.0,
            count: 0,
            contributions: HashMap::new(),
        }
    }

    /// Bootstraps from an existing graph.
    pub fn from_graph(graph: &Graph, key: StrId) -> Self {
        let mut agg = IncrementalAvg::new(key);
        for rel in graph.rels() {
            if let Some(v) = rel.prop(key).and_then(PropertyValue::as_float) {
                agg.add(rel.id, v);
            }
        }
        agg
    }

    fn add(&mut self, id: RelId, v: f64) {
        if let Some(old) = self.contributions.insert(id, v) {
            self.sum -= old;
            self.count -= 1;
        }
        self.sum += v;
        self.count += 1;
    }

    fn remove(&mut self, id: RelId) {
        if let Some(old) = self.contributions.remove(&id) {
            self.sum -= old;
            self.count -= 1;
        }
    }

    /// Applies one diff batch (order within the batch is respected).
    pub fn apply_diff(&mut self, diff: &[TimestampedUpdate]) {
        for u in diff {
            match &u.op {
                Update::AddRel { id, props, .. } => {
                    if let Some(v) = props
                        .iter()
                        .find(|(k, _)| *k == self.key)
                        .and_then(|(_, v)| v.as_float())
                    {
                        self.add(*id, v);
                    }
                }
                Update::DeleteRel { id } => self.remove(*id),
                Update::SetRelProp { id, key, value } if *key == self.key => {
                    match value.as_float() {
                        Some(v) => self.add(*id, v),
                        None => self.remove(*id),
                    }
                }
                Update::RemoveRelProp { id, key } if *key == self.key => self.remove(*id),
                _ => {}
            }
        }
    }

    /// The current average (`None` when no relationship carries the
    /// property).
    pub fn value(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Live contributing relationships.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// From-scratch `AVG(rel.prop)` — the classic (non-incremental) baseline.
pub fn avg_rel_property(graph: &Graph, key: StrId) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for rel in graph.rels() {
        if let Some(v) = rel.prop(key).and_then(PropertyValue::as_float) {
            sum += v;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::NodeId;

    const K: StrId = StrId(7);

    fn tsu(op: Update) -> TimestampedUpdate {
        TimestampedUpdate::new(1, op)
    }

    fn add_rel(id: u64, v: Option<f64>) -> Update {
        Update::AddRel {
            id: RelId::new(id),
            src: NodeId::new(0),
            tgt: NodeId::new(1),
            label: None,
            props: v
                .map(|x| (K, PropertyValue::Float(x)))
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn running_average_tracks_inserts_and_deletes() {
        let mut agg = IncrementalAvg::new(K);
        assert_eq!(agg.value(), None);
        agg.apply_diff(&[tsu(add_rel(1, Some(10.0))), tsu(add_rel(2, Some(20.0)))]);
        assert_eq!(agg.value(), Some(15.0));
        agg.apply_diff(&[tsu(Update::DeleteRel { id: RelId::new(1) })]);
        assert_eq!(agg.value(), Some(20.0));
        agg.apply_diff(&[tsu(Update::DeleteRel { id: RelId::new(2) })]);
        assert_eq!(agg.value(), None);
    }

    #[test]
    fn property_updates_replace_contribution() {
        let mut agg = IncrementalAvg::new(K);
        agg.apply_diff(&[tsu(add_rel(1, Some(10.0)))]);
        agg.apply_diff(&[tsu(Update::SetRelProp {
            id: RelId::new(1),
            key: K,
            value: PropertyValue::Float(30.0),
        })]);
        assert_eq!(agg.value(), Some(30.0));
        assert_eq!(agg.count(), 1);
        agg.apply_diff(&[tsu(Update::RemoveRelProp {
            id: RelId::new(1),
            key: K,
        })]);
        assert_eq!(agg.value(), None);
    }

    #[test]
    fn rels_without_property_ignored() {
        let mut agg = IncrementalAvg::new(K);
        agg.apply_diff(&[tsu(add_rel(1, None)), tsu(add_rel(2, Some(4.0)))]);
        assert_eq!(agg.value(), Some(4.0));
        // Late property set counts from then on.
        agg.apply_diff(&[tsu(Update::SetRelProp {
            id: RelId::new(1),
            key: K,
            value: PropertyValue::Int(8),
        })]);
        assert_eq!(agg.value(), Some(6.0));
    }

    #[test]
    fn matches_from_scratch_baseline() {
        let mut g = Graph::new();
        for i in 0..2 {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        let mut agg = IncrementalAvg::from_graph(&g, K);
        for i in 0..20u64 {
            let op = add_rel(i, Some(i as f64));
            g.apply(&op).unwrap();
            agg.apply_diff(&[tsu(op)]);
        }
        for i in (0..20u64).step_by(3) {
            let op = Update::DeleteRel { id: RelId::new(i) };
            g.apply(&op).unwrap();
            agg.apply_diff(&[tsu(op)]);
        }
        assert_eq!(agg.value(), avg_rel_property(&g, K));
    }
}
