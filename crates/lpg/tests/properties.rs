//! Property tests on the data-model invariants: interval algebra, delta
//! merge/apply equivalence, temporal-graph well-formedness under arbitrary
//! replay, the inline property bag and label set against sorted models, the
//! chunked copy-on-write `Graph` against an ordered-map model, and its
//! adjacency against two lists per node.

use lpg::{
    Direction, EntityDelta, Graph, GraphError, Interval, LabelSet, Node, NodeId, PropBag,
    PropChange, PropertyValue, RelChunk, RelId, Relationship, StrId, TemporalGraph, TimeRange,
    TimestampedUpdate, Update,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0u64..1_000, 1u64..1_000).prop_map(|(s, len)| Interval::new(s, s + len))
}

/// Canonical deltas only: the system never produces a delta with the same
/// label both added and removed, or the same property key twice
/// (`EntityDelta::is_canonical`).
fn delta_strategy() -> impl Strategy<Value = EntityDelta> {
    (
        proptest::collection::btree_map(0u32..6, any::<bool>(), 0..4),
        proptest::collection::btree_map(0u32..6, (any::<i64>(), any::<bool>()), 0..4),
    )
        .prop_map(|(labels, props)| {
            let mut d = EntityDelta::new();
            for (l, added) in labels {
                if added {
                    d.labels_added.push(StrId::new(l));
                } else {
                    d.labels_removed.push(StrId::new(l));
                }
            }
            for (k, (v, set)) in props {
                d.props.push(if set {
                    PropChange::Set(StrId::new(k), PropertyValue::Int(v))
                } else {
                    PropChange::Remove(StrId::new(k))
                });
            }
            assert!(d.is_canonical());
            d
        })
}

proptest! {
    #[test]
    fn interval_intersection_is_commutative_and_sound(
        a in interval_strategy(),
        b in interval_strategy(),
    ) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.intersect(&b).is_some(), a.overlaps(&b));
        if let Some(i) = a.intersect(&b) {
            // Every point of the intersection lies in both.
            for t in [i.start, i.start + (i.end - i.start) / 2, i.end - 1] {
                prop_assert!(a.contains(t) && b.contains(t));
            }
        }
    }

    #[test]
    fn timerange_window_matches_membership(
        range in prop_oneof![
            (0u64..100).prop_map(TimeRange::AsOf),
            (0u64..100, 0u64..100).prop_map(|(a, b)| TimeRange::Between(a.min(b), a.max(b) + 1)),
            (0u64..100, 0u64..100).prop_map(|(a, b)| TimeRange::ContainedIn(a.min(b), a.max(b))),
        ],
        valid in interval_strategy(),
    ) {
        // `matches` must agree with the normalized half-open window overlap.
        let window = range.to_half_open();
        prop_assert_eq!(range.matches(&valid), valid.overlaps(&window));
    }

    #[test]
    fn delta_merge_equals_sequential_apply(
        d1 in delta_strategy(),
        d2 in delta_strategy(),
        labels in proptest::collection::vec(0u32..6, 0..4),
        props in proptest::collection::vec((0u32..6, any::<i64>()), 0..4),
    ) {
        let base = Node::new(
            NodeId::new(1),
            labels.into_iter().map(StrId::new).collect(),
            props
                .into_iter()
                .map(|(k, v)| (StrId::new(k), PropertyValue::Int(v)))
                .collect(),
        );
        let mut sequential = base.clone();
        d1.apply_to_node(&mut sequential);
        d2.apply_to_node(&mut sequential);
        let mut merged_delta = d1.clone();
        merged_delta.merge(&d2);
        prop_assert!(merged_delta.is_canonical(), "merge preserves canonicity");
        let mut merged = base;
        merged_delta.apply_to_node(&mut merged);
        prop_assert_eq!(sequential, merged);
    }

    #[test]
    fn temporal_graph_versions_are_well_formed(
        n_nodes in 1u64..6,
        steps in proptest::collection::vec((0u64..6, any::<i64>()), 1..40),
    ) {
        let mut updates = Vec::new();
        let mut ts = 0u64;
        for i in 0..n_nodes {
            ts += 1;
            updates.push(TimestampedUpdate::new(ts, Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            }));
        }
        for (node, v) in steps {
            if node >= n_nodes { continue; }
            ts += 1;
            updates.push(TimestampedUpdate::new(ts, Update::SetNodeProp {
                id: NodeId::new(node),
                key: StrId::new(0),
                value: PropertyValue::Int(v),
            }));
        }
        let tg = TemporalGraph::build(&Graph::new(), Interval::new(0, ts + 1), &updates);
        for (id, chain) in &tg.nodes {
            prop_assert!(
                lpg::entity::versions_well_formed(chain),
                "overlapping versions for node {}", id
            );
            // Exactly one version is valid at any probed instant.
            for t in [1, ts / 2, ts] {
                let live = chain.iter().filter(|c| c.valid.contains(t)).count();
                prop_assert!(live <= 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `PropBag` and `LabelSet` against a sorted model under random in-place
// updates. Four keys and up to five labels make every inline ↔ spilled
// transition (0 ↔ 1 ↔ 2 pairs, 2 ↔ 3 labels) common.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_bag_matches_a_sorted_vec(
        given in proptest::collection::vec((0u32..4, 0i64..3), 0..5),
        ops in proptest::collection::vec((0u32..4, proptest::option::of(0i64..3)), 0..24),
    ) {
        let given: Vec<_> = given
            .into_iter()
            .map(|(k, v)| (StrId::new(k), PropertyValue::Int(v)))
            .collect();
        // The constructors keep the last value given for a key, as a map does.
        let mut model: BTreeMap<StrId, PropertyValue> = given.iter().cloned().collect();
        let node = Node::new(NodeId::new(1), vec![], given.clone());
        let rel = Relationship::new(RelId::new(1), NodeId::new(1), NodeId::new(2), None, given);
        prop_assert_eq!(&node.props, &rel.props);
        let mut bag = node.props;
        for (key, value) in ops {
            let key = StrId::new(key);
            match value {
                Some(v) => {
                    bag.set(key, PropertyValue::Int(v));
                    model.insert(key, PropertyValue::Int(v));
                }
                None => prop_assert_eq!(bag.remove(key), model.remove(&key)),
            }
            let want: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            prop_assert_eq!(&*bag, &want[..]);
            for probe in (0..4).map(StrId::new) {
                prop_assert_eq!(bag.get(probe), model.get(&probe));
            }
            // Equal to bags that got there another way: built whole, and set
            // key by key from the highest down.
            prop_assert_eq!(&bag, &PropBag::from(want.clone()));
            let mut backwards = PropBag::default();
            for (k, v) in want.iter().rev() {
                backwards.set(*k, v.clone());
            }
            prop_assert_eq!(&bag, &backwards);
            let spill = if want.len() > 1 { std::mem::size_of_val(&want[..]) } else { 0 };
            prop_assert_eq!(bag.heap_size(), spill);
        }
    }

    #[test]
    fn label_set_matches_a_sorted_vec(
        given in proptest::collection::vec(0u32..5, 0..5),
        ops in proptest::collection::vec((0u32..5, any::<bool>()), 0..24),
    ) {
        let given: Vec<StrId> = given.into_iter().map(StrId::new).collect();
        let mut model: BTreeSet<StrId> = given.iter().copied().collect();
        let mut labels = Node::new(NodeId::new(1), given, vec![]).labels;
        for (label, add) in ops {
            let label = StrId::new(label);
            if add {
                prop_assert_eq!(labels.insert(label), model.insert(label));
            } else {
                prop_assert_eq!(labels.remove(label), model.remove(&label));
            }
            let want: Vec<StrId> = model.iter().copied().collect();
            prop_assert_eq!(&*labels, &want[..]);
            for probe in (0..5).map(StrId::new) {
                prop_assert_eq!(labels.contains(probe), model.contains(&probe));
            }
            let reversed: Vec<StrId> = want.iter().rev().copied().collect();
            prop_assert_eq!(&labels, &LabelSet::from(reversed));
            let spill = if want.len() > 2 { std::mem::size_of_val(&want[..]) } else { 0 };
            prop_assert_eq!(labels.heap_size(), spill);
        }
    }
}

// ---------------------------------------------------------------------------
// `Graph` against a plain ordered-map model: same answers, same rejections,
// clones isolated from later updates, and clones *sharing* what was not
// touched.
// ---------------------------------------------------------------------------

/// Entities per chunk in `lpg::graph`: the model needs it to say how many
/// chunks a graph should consist of.
const CHUNK: u64 = 1 << lpg::CHUNK_BITS;

#[derive(Clone, Default)]
struct Model {
    nodes: BTreeMap<u64, Node>,
    rels: BTreeMap<u64, Relationship>,
}

impl Model {
    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, GraphError> {
        self.nodes
            .get_mut(&id.raw())
            .ok_or(GraphError::NodeNotFound(id))
    }

    fn rel_mut(&mut self, id: RelId) -> Result<&mut Relationship, GraphError> {
        self.rels
            .get_mut(&id.raw())
            .ok_or(GraphError::RelNotFound(id))
    }

    /// The Sec. 3 constraints, written against the two maps only.
    fn apply(&mut self, op: &Update) -> Result<(), GraphError> {
        match op.clone() {
            Update::AddNode { id, labels, props } => {
                if self.nodes.contains_key(&id.raw()) {
                    return Err(GraphError::NodeExists(id));
                }
                self.nodes.insert(id.raw(), Node::new(id, labels, props));
            }
            Update::DeleteNode { id } => {
                if !self.nodes.contains_key(&id.raw()) {
                    return Err(GraphError::NodeNotFound(id));
                }
                if self.rels.values().any(|r| r.src == id || r.tgt == id) {
                    return Err(GraphError::NodeHasRelationships(id));
                }
                self.nodes.remove(&id.raw());
            }
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => {
                if self.rels.contains_key(&id.raw()) {
                    return Err(GraphError::RelExists(id));
                }
                for node in [src, tgt] {
                    if !self.nodes.contains_key(&node.raw()) {
                        return Err(GraphError::EndpointMissing { rel: id, node });
                    }
                }
                self.rels
                    .insert(id.raw(), Relationship::new(id, src, tgt, label, props));
            }
            Update::DeleteRel { id } => {
                self.rels
                    .remove(&id.raw())
                    .ok_or(GraphError::RelNotFound(id))?;
            }
            // The bags and label sets are rebuilt through their canonicalising
            // `From`, so the model does not lean on their in-place updates.
            Update::SetNodeProp { id, key, value } => {
                let props = &mut self.node_mut(id)?.props;
                *props = with_prop(std::mem::take(props), key, Some(value));
            }
            Update::RemoveNodeProp { id, key } => {
                let props = &mut self.node_mut(id)?.props;
                *props = with_prop(std::mem::take(props), key, None);
            }
            Update::AddLabel { id, label } => {
                let labels = &mut self.node_mut(id)?.labels;
                let mut all = labels.to_vec();
                all.push(label);
                *labels = all.into();
            }
            Update::RemoveLabel { id, label } => {
                let labels = &mut self.node_mut(id)?.labels;
                let rest: Vec<StrId> = labels.iter().copied().filter(|l| *l != label).collect();
                *labels = rest.into();
            }
            Update::SetRelProp { id, key, value } => {
                let props = &mut self.rel_mut(id)?.props;
                *props = with_prop(std::mem::take(props), key, Some(value));
            }
            Update::RemoveRelProp { id, key } => {
                let props = &mut self.rel_mut(id)?.props;
                *props = with_prop(std::mem::take(props), key, None);
            }
        }
        Ok(())
    }

    fn chunks(&self) -> usize {
        fn distinct<V>(live: &BTreeMap<u64, V>) -> usize {
            live.keys()
                .map(|id| id / CHUNK)
                .collect::<BTreeSet<_>>()
                .len()
        }
        distinct(&self.nodes) + distinct(&self.rels)
    }

    fn incident(&self, node: u64, pick: fn(&Relationship) -> NodeId) -> Vec<RelId> {
        self.rels
            .values()
            .filter(|r| pick(r).raw() == node)
            .map(|r| r.id)
            .collect()
    }
}

/// `bag` with `key` set to `value`, or removed when `value` is `None`.
fn with_prop(bag: PropBag, key: StrId, value: Option<PropertyValue>) -> PropBag {
    let mut pairs: Vec<_> = Vec::from(bag);
    pairs.retain(|(k, _)| *k != key);
    pairs.extend(value.map(|v| (key, v)));
    pairs.into()
}

/// Everything observable about `g` equals the model.
fn assert_matches(g: &Graph, m: &Model) {
    g.check_consistency().unwrap();
    assert_eq!(g.node_count(), m.nodes.len());
    assert_eq!(g.rel_count(), m.rels.len());
    // `BTreeMap` iterates ascending, so equality also proves the order.
    assert!(g.nodes().eq(m.nodes.values()));
    assert!(g.rels().eq(m.rels.values()));
    assert_eq!(g.chunks_diverged_from(&Graph::new()), m.chunks());
    for &id in m.nodes.keys() {
        let nid = NodeId::new(id);
        let sorted = |dir| {
            let mut v: Vec<RelId> = g.relationships(nid, dir).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(Direction::Outgoing), m.incident(id, |r| r.src));
        assert_eq!(sorted(Direction::Incoming), m.incident(id, |r| r.tgt));
        assert_eq!(
            g.degree(nid, Direction::Both),
            g.relationships(nid, Direction::Both).count()
        );
    }
    for id in id_pool() {
        assert_eq!(g.node(NodeId::new(id)), m.nodes.get(&id));
        assert_eq!(g.has_node(NodeId::new(id)), m.nodes.contains_key(&id));
        assert_eq!(g.rel(RelId::new(id)), m.rels.get(&id));
        let after: Vec<u64> = g
            .nodes_after(Some(NodeId::new(id)))
            .map(|n| n.id.raw())
            .collect();
        let want: Vec<u64> = m
            .nodes
            .range((Bound::Excluded(id), Bound::Unbounded))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(after, want, "nodes_after({id})");
    }
}

/// Chunk edges, integer-width edges, and a probe inside each dense run.
const SPARSE: [u64; 9] = [
    0,
    63,
    64,
    1 << 32,
    (1 << 32) + 1,
    1 << 63,
    u64::MAX - 64,
    u64::MAX - 1,
    u64::MAX,
];

fn id_pool() -> impl Iterator<Item = u64> {
    SPARSE
        .into_iter()
        .chain([7, 39, 40, 100, 127, 128, 135, 136])
}

/// Ids from two dense runs (one inside a chunk, one across two chunk
/// boundaries) and from the sparse points.
fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..40,
        56u64..136,
        56u64..136,
        (0usize..SPARSE.len()).prop_map(|i| SPARSE[i]),
    ]
}

/// A raw id, or (two times in three) "the `pick`-th entity that exists now"
/// — so that most updates are valid while invalid ones keep coming.
type Target = (u64, u8, usize);

fn target_strategy() -> impl Strategy<Value = Target> {
    (id_strategy(), 0u8..3, 0usize..1 << 16)
}

fn resolve<V>(live: &BTreeMap<u64, V>, (raw, mode, pick): Target) -> u64 {
    if mode == 0 || live.is_empty() {
        raw
    } else {
        *live.keys().nth(pick % live.len()).unwrap()
    }
}

/// `None` is "take a clone here".
fn step(m: &Model, kind: u8, a: Target, b: Target, c: Target, v: i64) -> Option<Update> {
    let node = |t| NodeId::new(resolve(&m.nodes, t));
    let rel = |t| RelId::new(resolve(&m.rels, t));
    let key = StrId::new(v.rem_euclid(3) as u32);
    let value = PropertyValue::Int(v);
    Some(match kind {
        0..=5 => Update::AddNode {
            id: NodeId::new(a.0),
            labels: vec![key],
            props: vec![(key, value)],
        },
        6 => Update::DeleteNode { id: node(a) },
        7..=13 => Update::AddRel {
            id: RelId::new(a.0),
            src: node(b),
            tgt: node(c),
            label: (v % 2 == 0).then_some(key),
            props: vec![],
        },
        14 => Update::DeleteRel { id: rel(a) },
        15 => Update::SetNodeProp {
            id: node(a),
            key,
            value,
        },
        16 => Update::RemoveNodeProp { id: node(a), key },
        17 => Update::AddLabel {
            id: node(a),
            label: key,
        },
        18 => Update::RemoveLabel {
            id: node(a),
            label: key,
        },
        19 => Update::SetRelProp {
            id: rel(a),
            key,
            value,
        },
        20 => Update::RemoveRelProp { id: rel(a), key },
        _ => return None,
    })
}

proptest! {
    #[test]
    fn graph_matches_ordered_map_model_and_clones_share(
        steps in proptest::collection::vec(
            (0u8..23, target_strategy(), target_strategy(), target_strategy(), any::<i64>()),
            1..400,
        ),
    ) {
        let mut graph = Graph::new();
        let mut model = Model::default();
        // Every clone taken, with the model as of then.
        let mut clones: Vec<(Graph, Model)> = vec![(graph.clone(), model.clone())];
        let mut applied_since_clone = 0;
        for (kind, a, b, c, v) in steps {
            let Some(op) = step(&model, kind, a, b, c, v) else {
                assert_matches(&graph, &model);
                clones.push((graph.clone(), model.clone()));
                applied_since_clone = 0;
                continue;
            };
            let got = graph.apply(&op);
            prop_assert_eq!(&got, &model.apply(&op), "{:?}", op);
            applied_since_clone += usize::from(got.is_ok());
            // Sharing: an update copies its own chunk and, for a
            // relationship, its endpoints'; a rejected one copies nothing.
            let (last, _) = clones.last().unwrap();
            let diverged = graph.chunks_diverged_from(last);
            prop_assert!(
                diverged <= 3 * applied_since_clone,
                "{} updates since the clone, {} chunks diverged", applied_since_clone, diverged
            );
        }
        assert_matches(&graph, &model);
        // Isolation: the original moved on, no clone did.
        for (clone, as_of) in &clones {
            assert_matches(clone, as_of);
        }
        // Two graphs built from the nodes and the relationship chunks, the
        // way a snapshot load shares segments: both match the model and
        // hold every relationship chunk once between them.
        let mut chunks = BTreeMap::new();
        let a = rebuilt(&graph, &mut chunks);
        let b = rebuilt(&graph, &mut chunks);
        assert_matches(&a, &model);
        assert_matches(&b, &model);
        let nodes = model.nodes.keys().map(|id| id / CHUNK).collect::<BTreeSet<_>>();
        prop_assert_eq!(b.chunks_diverged_from(&a), nodes.len());
    }
}

/// `g`'s nodes inserted one by one, then its relationships in one
/// `insert_rel_chunks`, taking each chunk from `chunks` (by chunk number) or
/// adding it there.
fn rebuilt(g: &Graph, chunks: &mut BTreeMap<u64, RelChunk>) -> Graph {
    let mut out = Graph::new();
    for n in g.nodes() {
        out.insert_node(n.clone()).unwrap();
    }
    let mut by_chunk: BTreeMap<u64, Vec<Relationship>> = BTreeMap::new();
    for r in g.rels() {
        by_chunk
            .entry(r.id.raw() / CHUNK)
            .or_default()
            .push(r.clone());
    }
    let taken: Vec<RelChunk> = by_chunk
        .into_iter()
        .map(|(no, rels)| {
            let chunk = chunks.entry(no);
            chunk
                .or_insert_with(|| RelChunk::new(rels).unwrap())
                .clone()
        })
        .collect();
    out.insert_rel_chunks(&taken).unwrap();
    out
}

#[test]
fn rel_chunks_are_checked_and_inserted_whole_or_not_at_all() {
    let rel = |id: u64, src: u64, tgt: u64| {
        Relationship::new(
            RelId::new(id),
            NodeId::new(src),
            NodeId::new(tgt),
            None,
            vec![],
        )
    };
    assert!(RelChunk::new(vec![]).is_none(), "empty");
    assert!(
        RelChunk::new(vec![rel(2, 0, 1), rel(1, 0, 1)]).is_none(),
        "descending"
    );
    assert!(
        RelChunk::new(vec![rel(1, 0, 1), rel(1, 0, 1)]).is_none(),
        "a duplicate"
    );
    assert!(
        RelChunk::new(vec![rel(63, 0, 1), rel(64, 0, 1)]).is_none(),
        "two chunks"
    );
    let mut g = Graph::new();
    for id in [0, 1, 2] {
        g.apply(&Update::AddNode {
            id: NodeId::new(id),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
    }
    let before = g.clone();
    // Relationship 70 has an endpoint the graph lacks: none of the chunk
    // goes in, not even 64 and 65 before it.
    let dangling = RelChunk::new(vec![rel(64, 0, 1), rel(65, 1, 2), rel(70, 2, 9)]).unwrap();
    let fine = RelChunk::new(vec![rel(0, 0, 1)]).unwrap();
    assert_eq!(
        g.insert_rel_chunks(&[fine.clone(), dangling]),
        Err(GraphError::EndpointMissing {
            rel: RelId::new(70),
            node: NodeId::new(9)
        })
    );
    assert_eq!(g.chunks_diverged_from(&before), 0);
    // Two chunks of one id range in one call: neither goes in.
    let twin = RelChunk::new(vec![rel(1, 2, 0)]).unwrap();
    assert_eq!(
        g.insert_rel_chunks(&[fine, twin]),
        Err(GraphError::RelExists(RelId::new(1)))
    );
    assert_eq!(g.chunks_diverged_from(&before), 0);
    let chunk = RelChunk::new(vec![rel(64, 0, 1), rel(65, 1, 1)]).unwrap();
    g.insert_rel_chunks(std::slice::from_ref(&chunk)).unwrap();
    // The chunk's id range is taken, whichever ids the second one holds.
    let other = RelChunk::new(vec![rel(100, 0, 2)]).unwrap();
    assert_eq!(
        g.insert_rel_chunks(&[other]),
        Err(GraphError::RelExists(RelId::new(64)))
    );
    g.check_consistency().unwrap();
    assert_eq!(g.rel_count(), 2);
    assert_eq!(g.degree(NodeId::new(1), Direction::Both), 3);
    // A change copies the chunk: the `RelChunk` keeps what it held.
    g.apply(&Update::DeleteRel { id: RelId::new(65) }).unwrap();
    assert_eq!(chunk.rels().len(), 2);
    g.check_consistency().unwrap();
}

/// The sparse points make single-entity chunks come and go under the
/// proptest above; this pins the dense case it reaches only rarely.
#[test]
fn a_chunk_emptied_by_deletes_disappears_and_can_be_refilled() {
    let add = |id| Update::AddNode {
        id: NodeId::new(id),
        labels: vec![],
        props: vec![],
    };
    let chunks = |g: &Graph| g.chunks_diverged_from(&Graph::new());
    let mut g = Graph::new();
    g.apply_all((0..3 * CHUNK).map(add).collect::<Vec<_>>().iter())
        .unwrap();
    assert_eq!(chunks(&g), 3);
    let full = g.clone();
    for id in CHUNK..2 * CHUNK {
        g.apply(&Update::DeleteNode {
            id: NodeId::new(id),
        })
        .unwrap();
    }
    assert_eq!(chunks(&g), 2);
    assert_eq!(g.chunks_diverged_from(&full), 0, "what is left is shared");
    assert_eq!(
        g.nodes_after(Some(NodeId::new(CHUNK - 1)))
            .next()
            .unwrap()
            .id
            .raw(),
        2 * CHUNK
    );
    g.check_consistency().unwrap();
    // Refilled in descending order: the chunk reappears between its
    // neighbours and sorts itself.
    for id in (CHUNK..2 * CHUNK).rev() {
        g.apply(&add(id)).unwrap();
    }
    assert_eq!(chunks(&g), 3);
    assert_eq!(g.chunks_diverged_from(&full), 1);
    assert!(g.same_as(&full));
    assert!(g.nodes().map(|n| n.id.raw()).eq(0..3 * CHUNK));
    g.check_consistency().unwrap();
    assert_eq!(full.node_count() as u64, 3 * CHUNK);
}

/// What a writer pays while a reader holds its version: a clone shares
/// every page, and one `SetNodeProp` copies one page and one chunk, so the
/// two graphs differ in exactly that chunk, seen from either side.
#[test]
fn a_clone_and_one_property_change_diverge_in_one_chunk() {
    // One node per chunk: the spine spans several pages.
    let ids: Vec<u64> = (0..2_000).map(|i| i * CHUNK).collect();
    let mut g = Graph::new();
    for &id in &ids {
        g.apply(&Update::AddNode {
            id: NodeId::new(id),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
    }
    let held = g.clone();
    assert_eq!(g.chunks_diverged_from(&held), 0);
    g.apply(&Update::SetNodeProp {
        id: NodeId::new(ids[1_234]),
        key: StrId::new(0),
        value: PropertyValue::Int(7),
    })
    .unwrap();
    assert_eq!(g.chunks_diverged_from(&held), 1);
    assert_eq!(held.chunks_diverged_from(&g), 1);
    assert!(held.node(NodeId::new(ids[1_234])).unwrap().props.is_empty());
    g.check_consistency().unwrap();
    held.check_consistency().unwrap();
}

/// The adjacency `Graph` is specified to keep: per node, its outgoing and
/// its incoming relationship ids in two lists, each in insertion order.
#[derive(Default)]
struct AdjModel {
    out: BTreeMap<u64, Vec<RelId>>,
    inc: BTreeMap<u64, Vec<RelId>>,
    /// `id → (src, tgt)`.
    rels: BTreeMap<u64, (u64, u64)>,
}

impl AdjModel {
    fn apply(&mut self, op: &Update) -> Result<(), GraphError> {
        match *op {
            Update::AddNode { id, .. } => {
                if self.out.contains_key(&id.raw()) {
                    return Err(GraphError::NodeExists(id));
                }
                self.out.insert(id.raw(), vec![]);
                self.inc.insert(id.raw(), vec![]);
            }
            Update::DeleteNode { id } => {
                let (out, inc) = (&self.out, &self.inc);
                match (out.get(&id.raw()), inc.get(&id.raw())) {
                    (Some(o), Some(i)) if o.is_empty() && i.is_empty() => {}
                    (Some(_), _) => return Err(GraphError::NodeHasRelationships(id)),
                    _ => return Err(GraphError::NodeNotFound(id)),
                }
                self.out.remove(&id.raw());
                self.inc.remove(&id.raw());
            }
            Update::AddRel { id, src, tgt, .. } => {
                if self.rels.contains_key(&id.raw()) {
                    return Err(GraphError::RelExists(id));
                }
                for node in [src, tgt] {
                    if !self.out.contains_key(&node.raw()) {
                        return Err(GraphError::EndpointMissing { rel: id, node });
                    }
                }
                self.rels.insert(id.raw(), (src.raw(), tgt.raw()));
                self.out.get_mut(&src.raw()).unwrap().push(id);
                self.inc.get_mut(&tgt.raw()).unwrap().push(id);
            }
            Update::DeleteRel { id } => {
                let (src, tgt) = self
                    .rels
                    .remove(&id.raw())
                    .ok_or(GraphError::RelNotFound(id))?;
                self.out.get_mut(&src).unwrap().retain(|r| *r != id);
                self.inc.get_mut(&tgt).unwrap().retain(|r| *r != id);
            }
            _ => unreachable!("only structural updates are generated"),
        }
        Ok(())
    }
}

/// `g`'s adjacency, as `relationships` and `degree` show it, equals `m`'s.
fn assert_adjacency(g: &Graph, m: &AdjModel) {
    g.check_consistency().unwrap();
    assert_eq!(g.node_count(), m.out.len());
    assert_eq!(g.rel_count(), m.rels.len());
    for (node, out) in &m.out {
        let inc = &m.inc[node];
        let id = NodeId::new(*node);
        let both: Vec<RelId> = out.iter().chain(inc).copied().collect();
        for (dir, want) in [
            (Direction::Outgoing, out),
            (Direction::Incoming, inc),
            (Direction::Both, &both),
        ] {
            let got: Vec<RelId> = g.relationships(id, dir).collect();
            assert_eq!(&got, want, "node {node} {dir:?}");
            assert_eq!(g.degree(id, dir), want.len());
        }
    }
}

/// Node ids: a few in one chunk (so self-loops and parallel relationships
/// are common) and one far off.
const ADJ_NODES: [u64; 5] = [0, 1, 2, 3, 1 << 40];

fn adj_step(m: &AdjModel, kind: u8, a: usize, b: usize, rel: u64) -> Update {
    let node = |i: usize| NodeId::new(ADJ_NODES[i % ADJ_NODES.len()]);
    match kind {
        0 | 1 => Update::AddNode {
            id: node(a),
            labels: vec![],
            props: vec![],
        },
        2 => Update::DeleteNode { id: node(a) },
        3..=7 => Update::AddRel {
            id: RelId::new(rel),
            src: node(a),
            tgt: node(b),
            label: None,
            props: vec![],
        },
        _ => {
            // Mostly a relationship that exists.
            let live = m.rels.keys().nth(a % m.rels.len().max(1)).copied();
            Update::DeleteRel {
                id: RelId::new(live.filter(|_| !b.is_multiple_of(4)).unwrap_or(rel)),
            }
        }
    }
}

proptest! {
    #[test]
    fn adjacency_matches_two_lists_per_node(
        steps in proptest::collection::vec((0u8..10, 0usize..64, 0usize..64, 0u64..256), 1..300),
        first_chunks in 0u64..5,
        reverse in any::<bool>(),
    ) {
        let mut g = Graph::new();
        let mut m = AdjModel::default();
        for (kind, a, b, rel) in steps {
            let op = adj_step(&m, kind, a, b, rel);
            prop_assert_eq!(g.apply(&op), m.apply(&op), "{:?}", op);
            assert_adjacency(&g, &m);
        }
        // The same relationships again, into graphs that hold the nodes and
        // the first `first_chunks` chunks' relationships: one by one, and
        // the rest chunk-wise in one call, in the same order.
        let mut one_by_one = Graph::new();
        for n in g.nodes() {
            one_by_one.insert_node(n.clone()).unwrap();
        }
        let (early, late): (Vec<&Relationship>, Vec<_>) =
            g.rels().partition(|r| r.id.raw() / CHUNK < first_chunks);
        for r in early {
            one_by_one.insert_rel(r.clone()).unwrap();
        }
        let mut bulk = one_by_one.clone();
        let mut chunks: BTreeMap<u64, Vec<Relationship>> = BTreeMap::new();
        for r in late {
            chunks.entry(r.id.raw() / CHUNK).or_default().push(r.clone());
        }
        let mut chunks: Vec<RelChunk> =
            chunks.into_values().map(|rels| RelChunk::new(rels).unwrap()).collect();
        if reverse {
            chunks.reverse();
        }
        for r in chunks.iter().flat_map(RelChunk::rels) {
            one_by_one.insert_rel(r.clone()).unwrap();
        }
        bulk.insert_rel_chunks(&chunks).unwrap();
        bulk.check_consistency().unwrap();
        prop_assert!(bulk.same_as(&one_by_one) && bulk.same_as(&g));
        for &node in &ADJ_NODES {
            let id = NodeId::new(node);
            prop_assert!(bulk
                .relationships(id, Direction::Both)
                .eq(one_by_one.relationships(id, Direction::Both)));
            prop_assert_eq!(
                bulk.degree(id, Direction::Outgoing),
                one_by_one.degree(id, Direction::Outgoing)
            );
        }
    }
}
