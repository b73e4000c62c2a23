//! Graph entities: nodes, relationships, and their temporal (versioned)
//! counterparts.
//!
//! A plain [`Node`] / [`Relationship`] is a snapshot of one entity at a point
//! in time — the shape returned by `AS OF` queries. A `Vec<Version<_>>`
//! is an entity's history: [`Version`]s with non-overlapping
//! `[τ_s, τ_e)` intervals — the shape returned by range queries (Sec. 3:
//! "a temporal LPG can include entities with the same identifier and
//! non-overlapping time intervals").

use crate::bag::{LabelSet, PropBag};
use crate::ids::{NodeId, RelId, StrId, Timestamp};
use crate::interval::Interval;
use crate::value::PropertyValue;

/// A property bag as updates, records and callers give it: `(key, value)`
/// pairs in any order. An entity keeps it as a [`PropBag`].
pub type Props = Vec<(StrId, PropertyValue)>;

/// A node snapshot: `v = (nid, l, p)` (Sec. 3).
#[derive(Clone, PartialEq, Debug)]
pub struct Node {
    /// Unique node identifier.
    pub id: NodeId,
    /// Sorted set of labels.
    pub labels: LabelSet,
    /// Sorted property bag.
    pub props: PropBag,
}

impl Node {
    /// A new node with sorted, deduplicated labels and properties sorted by
    /// key, one value per key (the last one given).
    pub fn new(id: NodeId, labels: Vec<StrId>, props: Props) -> Self {
        Node {
            id,
            labels: labels.into(),
            props: props.into(),
        }
    }

    /// Whether the node carries `label`.
    pub fn has_label(&self, label: StrId) -> bool {
        self.labels.contains(label)
    }

    /// Property lookup.
    pub fn prop(&self, key: StrId) -> Option<&PropertyValue> {
        self.props.get(key)
    }

    /// In-memory footprint in bytes (Table 3 accounting): 56 B, plus what
    /// the labels and properties allocate beyond the two labels and the one
    /// property held inline.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Node>() + self.labels.heap_size() + self.props.heap_size()
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
    pub props: PropBag,
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
            props: props.into(),
        }
    }

    /// Property lookup.
    pub fn prop(&self, key: StrId) -> Option<&PropertyValue> {
        self.props.get(key)
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

    /// In-memory footprint in bytes (Table 3 accounting): 64 B, plus what
    /// the properties allocate beyond the one held inline.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Relationship>() + self.props.heap_size()
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
        assert_eq!(*n.labels, [sid(1), sid(3)]);
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
        let want = [
            (sid(2), PropertyValue::Int(2)),
            (sid(4), PropertyValue::Int(4)),
        ];
        let n = Node::new(NodeId::new(1), vec![], given.clone());
        assert_eq!(*n.props, want);
        let r = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(1), None, given);
        assert_eq!(*r.props, want);
        // What the constructors guarantee is what the bag operations need:
        // setting and removing a key leaves no stale twin behind.
        let mut props = n.props;
        props.set(sid(4), PropertyValue::Int(5));
        assert_eq!(props.remove(sid(4)), Some(PropertyValue::Int(5)));
        assert_eq!(props.get(sid(4)), None);
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
    fn entities_stay_small() {
        assert_eq!(std::mem::size_of::<PropertyValue>(), 24);
        assert!(std::mem::size_of::<Relationship>() <= 64);
        assert!(std::mem::size_of::<Node>() <= 56);
    }

    #[test]
    fn heap_sizes_charge_what_is_allocated() {
        let two_labels = Node::new(NodeId::new(1), vec![sid(0), sid(1)], vec![]);
        assert_eq!(two_labels.heap_size(), 56);
        let three = Node::new(NodeId::new(1), vec![sid(0), sid(1), sid(2)], vec![]);
        assert_eq!(three.heap_size(), 56 + 3 * 4);
        let weight = vec![(sid(1), PropertyValue::Float(0.5))];
        let r = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(2), None, weight);
        assert_eq!(r.heap_size(), 64);
        let array = vec![(sid(1), PropertyValue::IntArray(Box::new([1, 2, 3, 4])))];
        let r = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(2), None, array);
        assert_eq!(r.heap_size(), 64 + 4 * 8);
        // Two properties spill: one boxed slice of two 32 B pairs.
        let two = vec![
            (sid(1), PropertyValue::Int(1)),
            (sid(2), PropertyValue::Int(2)),
        ];
        let r = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(2), None, two);
        assert_eq!(r.heap_size(), 64 + 2 * 32);
    }
}
