//! Graph entities: nodes, relationships, and their temporal (versioned)
//! counterparts.
//!
//! A plain [`Node`] / [`Relationship`] is a snapshot of one entity at a point
//! in time — the shape returned by `AS OF` queries. [`TemporalNode`] /
//! [`TemporalRel`] carry a list of [`Version`]s with non-overlapping
//! `[τ_s, τ_e)` intervals — the shape returned by range queries (Sec. 3:
//! "a temporal LPG can include entities with the same identifier and
//! non-overlapping time intervals").

use crate::ids::{NodeId, RelId, StrId, Timestamp};
use crate::interval::Interval;
use crate::value::PropertyValue;

/// The key-value property bag of an entity.
///
/// Kept as a sorted `Vec` of `(key, value)` pairs: entities typically carry
/// few properties, and a sorted vector beats a hash map for footprint and
/// scan speed (perf-book: handle small collections specially).
pub type Props = Vec<(StrId, PropertyValue)>;

/// Looks up a property by key in a sorted property bag.
pub fn prop_get(props: &Props, key: StrId) -> Option<&PropertyValue> {
    props
        .binary_search_by_key(&key, |(k, _)| *k)
        .ok()
        .map(|i| &props[i].1)
}

/// Inserts or replaces a property, keeping the bag sorted.
pub fn prop_set(props: &mut Props, key: StrId, value: PropertyValue) {
    match props.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => props[i].1 = value,
        Err(i) => props.insert(i, (key, value)),
    }
}

/// Removes a property by key; returns the old value if present.
pub fn prop_remove(props: &mut Props, key: StrId) -> Option<PropertyValue> {
    props
        .binary_search_by_key(&key, |(k, _)| *k)
        .ok()
        .map(|i| props.remove(i).1)
}

/// Sorts a property bag by key. Of several values given for one key the last
/// wins, as if they had been [`prop_set`] in turn: a bag holds one value per
/// key, which the binary searches above rely on.
fn canonical_props(mut props: Props) -> Props {
    // Stable, so equal keys keep the order they were given in.
    props.sort_by_key(|(k, _)| *k);
    props.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
    props
}

/// A node snapshot: `v = (nid, l, p)` (Sec. 3).
#[derive(Clone, PartialEq, Debug)]
pub struct Node {
    /// Unique node identifier.
    pub id: NodeId,
    /// Sorted set of labels.
    pub labels: Vec<StrId>,
    /// Sorted property bag.
    pub props: Props,
}

impl Node {
    /// A new node with sorted, deduplicated labels and properties sorted by
    /// key, one value per key (the last one given).
    pub fn new(id: NodeId, mut labels: Vec<StrId>, props: Props) -> Self {
        labels.sort_unstable();
        labels.dedup();
        Node {
            id,
            labels,
            props: canonical_props(props),
        }
    }

    /// Whether the node carries `label`.
    pub fn has_label(&self, label: StrId) -> bool {
        self.labels.binary_search(&label).is_ok()
    }

    /// Property lookup.
    pub fn prop(&self, key: StrId) -> Option<&PropertyValue> {
        prop_get(&self.props, key)
    }

    /// Estimated in-memory footprint in bytes (Table 3 accounting: ~60 B per
    /// node plus label/property payload).
    pub fn heap_size(&self) -> usize {
        let base = std::mem::size_of::<Node>();
        let labels = self.labels.len() * std::mem::size_of::<StrId>();
        let props: usize = self
            .props
            .iter()
            .map(|(_, v)| std::mem::size_of::<(StrId, PropertyValue)>() + v.heap_size())
            .sum();
        base + labels + props
    }
}

/// A relationship snapshot: `e = (rid, src, tgt, l, p)` (Sec. 3). The label
/// is "a single (or empty) label".
#[derive(Clone, PartialEq, Debug)]
pub struct Relationship {
    /// Unique relationship identifier.
    pub id: RelId,
    /// Source node (direction is src → tgt).
    pub src: NodeId,
    /// Target node.
    pub tgt: NodeId,
    /// Optional relationship type.
    pub label: Option<StrId>,
    /// Sorted property bag.
    pub props: Props,
}

impl Relationship {
    /// A new relationship with properties sorted by key, one value per key
    /// (the last one given).
    pub fn new(id: RelId, src: NodeId, tgt: NodeId, label: Option<StrId>, props: Props) -> Self {
        Relationship {
            id,
            src,
            tgt,
            label,
            props: canonical_props(props),
        }
    }

    /// Property lookup.
    pub fn prop(&self, key: StrId) -> Option<&PropertyValue> {
        prop_get(&self.props, key)
    }

    /// Given one endpoint, returns the other (`None` if `node` is neither).
    /// For self-loops the answer is the node itself.
    pub fn other_end(&self, node: NodeId) -> Option<NodeId> {
        if node == self.src {
            Some(self.tgt)
        } else if node == self.tgt {
            Some(self.src)
        } else {
            None
        }
    }

    /// Estimated in-memory footprint in bytes (Table 3 accounting: ~68 B per
    /// relationship plus property payload).
    pub fn heap_size(&self) -> usize {
        let base = std::mem::size_of::<Relationship>();
        let props: usize = self
            .props
            .iter()
            .map(|(_, v)| std::mem::size_of::<(StrId, PropertyValue)>() + v.heap_size())
            .sum();
        base + props
    }
}

/// One version of an entity's payload, valid over a `[τ_s, τ_e)` interval.
#[derive(Clone, PartialEq, Debug)]
pub struct Version<T> {
    /// Validity interval of this version.
    pub valid: Interval,
    /// The entity state during the interval.
    pub data: T,
}

impl<T> Version<T> {
    /// A version valid over `[start, end)`.
    pub fn new(start: Timestamp, end: Timestamp, data: T) -> Self {
        Version {
            valid: Interval::new(start, end),
            data,
        }
    }
}

/// The full history of one node: timestamp-ordered, non-overlapping versions.
pub type TemporalNode = Vec<Version<Node>>;

/// The full history of one relationship.
pub type TemporalRel = Vec<Version<Relationship>>;

/// Checks the temporal-LPG invariant: versions are ordered by start time and
/// their intervals do not overlap.
pub fn versions_well_formed<T>(versions: &[Version<T>]) -> bool {
    versions
        .windows(2)
        .all(|w| w[0].valid.end <= w[1].valid.start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> StrId {
        StrId::new(i)
    }

    #[test]
    fn node_normalizes_labels_and_props() {
        let n = Node::new(
            NodeId::new(1),
            vec![sid(3), sid(1), sid(3)],
            vec![
                (sid(9), PropertyValue::Int(9)),
                (sid(2), PropertyValue::Int(2)),
            ],
        );
        assert_eq!(n.labels, vec![sid(1), sid(3)]);
        assert!(n.has_label(sid(3)));
        assert!(!n.has_label(sid(2)));
        assert_eq!(n.prop(sid(2)), Some(&PropertyValue::Int(2)));
        assert_eq!(n.prop(sid(5)), None);
    }

    #[test]
    fn duplicate_property_keys_collapse_to_the_last_value() {
        let given = vec![
            (sid(4), PropertyValue::Int(1)),
            (sid(2), PropertyValue::Int(2)),
            (sid(4), PropertyValue::Int(3)),
            (sid(4), PropertyValue::Int(4)),
        ];
        let want = vec![
            (sid(2), PropertyValue::Int(2)),
            (sid(4), PropertyValue::Int(4)),
        ];
        let n = Node::new(NodeId::new(1), vec![], given.clone());
        assert_eq!(n.props, want);
        let r = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(1), None, given);
        assert_eq!(r.props, want);
        // What the constructors guarantee is what the bag operations need:
        // setting and removing a key leaves no stale twin behind.
        let mut props = n.props;
        prop_set(&mut props, sid(4), PropertyValue::Int(5));
        assert_eq!(prop_remove(&mut props, sid(4)), Some(PropertyValue::Int(5)));
        assert_eq!(prop_get(&props, sid(4)), None);
    }

    #[test]
    fn prop_bag_operations() {
        let mut p: Props = Vec::new();
        prop_set(&mut p, sid(5), PropertyValue::Int(1));
        prop_set(&mut p, sid(1), PropertyValue::Int(2));
        prop_set(&mut p, sid(5), PropertyValue::Int(3));
        assert_eq!(p.len(), 2);
        assert_eq!(prop_get(&p, sid(5)), Some(&PropertyValue::Int(3)));
        assert_eq!(prop_remove(&mut p, sid(1)), Some(PropertyValue::Int(2)));
        assert_eq!(prop_remove(&mut p, sid(1)), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn relationship_other_end_and_self_loop() {
        let r = Relationship::new(RelId::new(1), NodeId::new(2), NodeId::new(3), None, vec![]);
        assert_eq!(r.other_end(NodeId::new(2)), Some(NodeId::new(3)));
        assert_eq!(r.other_end(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(r.other_end(NodeId::new(9)), None);
        let loop_rel =
            Relationship::new(RelId::new(2), NodeId::new(4), NodeId::new(4), None, vec![]);
        assert_eq!(loop_rel.other_end(NodeId::new(4)), Some(NodeId::new(4)));
    }

    #[test]
    fn version_well_formedness() {
        let n = Node::new(NodeId::new(1), vec![], vec![]);
        let good = vec![
            Version::new(0, 5, n.clone()),
            Version::new(5, 9, n.clone()),
            Version::new(12, 20, n.clone()),
        ];
        assert!(versions_well_formed(&good));
        let bad = vec![Version::new(0, 6, n.clone()), Version::new(5, 9, n)];
        assert!(!versions_well_formed(&bad));
    }

    #[test]
    fn heap_sizes_are_plausible() {
        let n = Node::new(NodeId::new(1), vec![sid(0)], vec![]);
        assert!(n.heap_size() >= std::mem::size_of::<Node>());
        let r = Relationship::new(
            RelId::new(1),
            NodeId::new(1),
            NodeId::new(2),
            Some(sid(0)),
            vec![(sid(1), PropertyValue::IntArray(vec![1, 2, 3, 4]))],
        );
        assert!(r.heap_size() > std::mem::size_of::<Relationship>() + 24);
    }
}
