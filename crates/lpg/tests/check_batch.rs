//! `Graph::check_batch`: the commit check answers as applying the batch
//! does, without changing the graph.

use lpg::{Graph, GraphError, NodeId, PropertyValue, RelId, StrId, Update};
use proptest::prelude::*;

fn nid(i: u64) -> NodeId {
    NodeId::new(i)
}
fn rid(i: u64) -> RelId {
    RelId::new(i)
}
fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: nid(i),
        labels: vec![],
        props: vec![],
    }
}
fn add_rel(i: u64, src: u64, tgt: u64) -> Update {
    Update::AddRel {
        id: rid(i),
        src: nid(src),
        tgt: nid(tgt),
        label: None,
        props: vec![],
    }
}

fn one_node() -> Graph {
    let mut g = Graph::new();
    g.apply(&add_node(1)).unwrap();
    g
}

#[test]
fn a_batch_is_checked_against_the_graph_and_its_own_updates() {
    let g = one_node();
    assert_eq!(
        g.check_batch(&[add_node(1)]),
        Err(GraphError::NodeExists(nid(1)))
    );
    // A new node takes a relationship to a node of the graph, and is
    // deleted once that relationship is.
    let mut batch = vec![
        add_node(2),
        add_rel(1, 1, 2),
        Update::DeleteNode { id: nid(2) },
    ];
    assert_eq!(
        g.check_batch(&batch),
        Err(GraphError::NodeHasRelationships(nid(2)))
    );
    batch.insert(2, Update::DeleteRel { id: rid(1) });
    assert_eq!(g.check_batch(&batch), Ok(()));
    // The graph itself did not change.
    assert!(!g.has_node(nid(2)) && !g.has_rel(rid(1)));
}

#[test]
fn a_relationship_needs_both_endpoints() {
    assert_eq!(
        Graph::new().check_batch(&[add_rel(1, 1, 2)]),
        Err(GraphError::EndpointMissing {
            rel: rid(1),
            node: nid(1)
        })
    );
    assert_eq!(
        one_node().check_batch(&[add_rel(1, 1, 2)]),
        Err(GraphError::EndpointMissing {
            rel: rid(1),
            node: nid(2)
        })
    );
}

#[test]
fn an_entity_deleted_and_added_again_in_one_batch_is_tracked() {
    let g = one_node();
    let batch = [
        Update::DeleteNode { id: nid(1) },
        add_node(1),
        Update::AddLabel {
            id: nid(1),
            label: StrId::new(1),
        },
    ];
    assert_eq!(g.check_batch(&batch), Ok(()));
    let mut applied = g.clone();
    applied.apply_all(&batch).unwrap();
    assert!(applied.node(nid(1)).unwrap().has_label(StrId::new(1)));
    // Deleted a second time, it is gone, although the graph holds it.
    let mut twice = batch.to_vec();
    twice.insert(2, Update::DeleteNode { id: nid(1) });
    assert_eq!(g.check_batch(&twice), Err(GraphError::NodeNotFound(nid(1))));
    // The same for a relationship.
    let mut g = g;
    g.apply_all(&[add_rel(1, 1, 1)]).unwrap();
    let delete = Update::DeleteRel { id: rid(1) };
    let set = Update::SetRelProp {
        id: rid(1),
        key: StrId::new(0),
        value: PropertyValue::Int(1),
    };
    let rel_twice = [delete.clone(), add_rel(1, 1, 1), delete, set];
    assert_eq!(
        g.check_batch(&rel_twice),
        Err(GraphError::RelNotFound(rid(1)))
    );
}

#[test]
fn property_and_label_updates_need_their_entity() {
    let g = Graph::new();
    let value = PropertyValue::Int(1);
    let key = StrId::new(0);
    assert_eq!(
        g.check_batch(&[Update::SetNodeProp {
            id: nid(1),
            key,
            value: value.clone()
        }]),
        Err(GraphError::NodeNotFound(nid(1)))
    );
    assert_eq!(
        g.check_batch(&[Update::SetRelProp {
            id: rid(1),
            key,
            value
        }]),
        Err(GraphError::RelNotFound(rid(1)))
    );
    assert_eq!(
        g.check_batch(&[Update::AddLabel {
            id: nid(1),
            label: key
        }]),
        Err(GraphError::NodeNotFound(nid(1)))
    );
    assert_eq!(
        g.check_batch(&[
            add_node(1),
            Update::AddLabel {
                id: nid(1),
                label: key
            }
        ]),
        Ok(())
    );
}

/// One update over a handful of ids, so that batches collide often.
fn update() -> impl Strategy<Value = Update> {
    let id = 0u64..4;
    prop_oneof![
        id.clone().prop_map(add_node),
        id.clone().prop_map(|i| Update::DeleteNode { id: nid(i) }),
        (id.clone(), id.clone(), id.clone()).prop_map(|(i, s, t)| add_rel(i, s, t)),
        id.clone().prop_map(|i| Update::DeleteRel { id: rid(i) }),
        id.clone().prop_map(|i| Update::AddLabel {
            id: nid(i),
            label: StrId::new(1)
        }),
        id.prop_map(|i| Update::RemoveRelProp {
            id: rid(i),
            key: StrId::new(1)
        }),
    ]
}

proptest! {
    /// The check answers as applying the batch does, error included,
    /// over a graph that earlier batches built.
    #[test]
    fn check_batch_agrees_with_apply_all(
        batches in proptest::collection::vec(proptest::collection::vec(update(), 1..6), 1..12)
    ) {
        let mut g = Graph::new();
        for batch in &batches {
            let mut applied = g.clone();
            let want = applied.apply_all(batch);
            prop_assert_eq!(g.check_batch(batch), want.clone());
            if want.is_ok() {
                g = applied;
            }
        }
    }
}
