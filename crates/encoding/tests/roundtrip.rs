//! Property tests: every encodable record body round-trips bit-exactly, and
//! decoding consumes exactly the bytes encoding produced (so records can be
//! streamed back-to-back in the TimeStore log). `record::encode_update`
//! writes the bytes of the body `RecordBody::from_update` builds.

use encoding::{record, LogRecord, RecordBody};
use lpg::{EntityDelta, NodeId, PropChange, PropertyValue, RelId, StrId, Update};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = PropertyValue> {
    prop_oneof![
        any::<i64>().prop_map(PropertyValue::Int),
        // NaN breaks PartialEq-based roundtrip checks; use finite floats.
        (-1e12f64..1e12).prop_map(PropertyValue::Float),
        any::<bool>().prop_map(PropertyValue::Bool),
        (0u32..1 << 29).prop_map(|s| PropertyValue::Str(StrId::new(s))),
        proptest::collection::vec(any::<i64>(), 0..8)
            .prop_map(|v| PropertyValue::IntArray(v.into())),
        proptest::collection::vec(-1e9f64..1e9, 0..8)
            .prop_map(|v| PropertyValue::FloatArray(v.into())),
    ]
}

fn sid_strategy() -> impl Strategy<Value = StrId> {
    (0u32..1 << 29).prop_map(StrId::new)
}

fn props_strategy() -> impl Strategy<Value = Vec<(StrId, PropertyValue)>> {
    proptest::collection::vec((sid_strategy(), value_strategy()), 0..6)
}

fn delta_strategy() -> impl Strategy<Value = EntityDelta> {
    (
        proptest::collection::vec((0u32..1 << 30).prop_map(StrId::new), 0..4),
        proptest::collection::vec((0u32..1 << 30).prop_map(StrId::new), 0..4),
        proptest::collection::vec(
            prop_oneof![
                (sid_strategy(), value_strategy()).prop_map(|(k, v)| PropChange::Set(k, v)),
                sid_strategy().prop_map(PropChange::Remove),
            ],
            0..6,
        ),
    )
        .prop_map(|(labels_added, labels_removed, props)| EntityDelta {
            labels_added,
            labels_removed,
            props,
        })
}

fn body_strategy() -> impl Strategy<Value = RecordBody> {
    prop_oneof![
        (
            proptest::collection::vec(sid_strategy(), 0..4),
            props_strategy()
        )
            .prop_map(|(labels, props)| RecordBody::NodeFull { labels, props }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(sid_strategy()),
            props_strategy()
        )
            .prop_map(|(s, t, label, props)| RecordBody::RelFull {
                src: NodeId::new(s),
                tgt: NodeId::new(t),
                label,
                props,
            }),
        delta_strategy().prop_map(RecordBody::NodeDelta),
        delta_strategy().prop_map(RecordBody::RelDelta),
        Just(RecordBody::NodeDeleted),
        Just(RecordBody::RelDeleted),
    ]
}

/// Values at LEB128 group boundaries (2^(7k) ± 1) where an off-by-one in
/// the continuation-bit logic would corrupt the stream, mixed with
/// arbitrary values.
fn update_strategy() -> impl Strategy<Value = Update> {
    let node = || any::<u64>().prop_map(NodeId::new);
    let rel = || any::<u64>().prop_map(RelId::new);
    prop_oneof![
        (
            node(),
            proptest::collection::vec(sid_strategy(), 0..4),
            props_strategy()
        )
            .prop_map(|(id, labels, props)| Update::AddNode { id, labels, props }),
        node().prop_map(|id| Update::DeleteNode { id }),
        (
            rel(),
            node(),
            node(),
            proptest::option::of(sid_strategy()),
            props_strategy()
        )
            .prop_map(|(id, src, tgt, label, props)| Update::AddRel {
                id,
                src,
                tgt,
                label,
                props
            }),
        rel().prop_map(|id| Update::DeleteRel { id }),
        (node(), sid_strategy(), value_strategy())
            .prop_map(|(id, key, value)| Update::SetNodeProp { id, key, value }),
        (node(), sid_strategy()).prop_map(|(id, key)| Update::RemoveNodeProp { id, key }),
        (node(), sid_strategy()).prop_map(|(id, label)| Update::AddLabel { id, label }),
        (node(), sid_strategy()).prop_map(|(id, label)| Update::RemoveLabel { id, label }),
        (rel(), sid_strategy(), value_strategy()).prop_map(|(id, key, value)| Update::SetRelProp {
            id,
            key,
            value
        }),
        (rel(), sid_strategy()).prop_map(|(id, key)| Update::RemoveRelProp { id, key }),
    ]
}

fn varint_boundary_strategy() -> impl Strategy<Value = u64> {
    let mut arms = vec![Just(0u64).boxed(), Just(u64::MAX).boxed()];
    for k in 1..=9u32 {
        let edge = 1u64 << (7 * k);
        arms.push(Just(edge - 1).boxed());
        arms.push(Just(edge).boxed());
        arms.push(Just(edge + 1).boxed());
    }
    arms.push(any::<u64>().boxed());
    proptest::strategy::Union::new(arms)
}

proptest! {
    #[test]
    fn varint_u64_boundaries_roundtrip(v in varint_boundary_strategy()) {
        let mut buf = Vec::new();
        encoding::varint::write_u64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(encoding::varint::read_u64(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
        // Width follows the 7-bit group count.
        let want = (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
        prop_assert_eq!(buf.len(), want);
    }

    #[test]
    fn varint_i64_boundaries_roundtrip(v in varint_boundary_strategy(), flip in any::<bool>()) {
        // Map the unsigned boundary onto both sides of zero: zigzag must
        // keep |v| small encodings small and extremes lossless.
        let signed = if flip { (v as i64).wrapping_neg() } else { v as i64 };
        let mut buf = Vec::new();
        encoding::varint::write_i64(&mut buf, signed);
        let mut pos = 0;
        prop_assert_eq!(encoding::varint::read_i64(&buf, &mut pos), Some(signed));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncation_never_panics(v in varint_boundary_strategy(), cut in any::<u64>()) {
        let mut buf = Vec::new();
        encoding::varint::write_u64(&mut buf, v);
        let cut = (cut as usize) % buf.len();
        let mut pos = 0;
        // Either decodes a (possibly different) value from the prefix or
        // cleanly reports None — never panics or reads past the slice.
        let _ = encoding::varint::read_u64(&buf[..cut], &mut pos);
        prop_assert!(pos <= cut);
    }

    #[test]
    fn boundary_ids_roundtrip_through_records(ts in varint_boundary_strategy(),
                                              entity in varint_boundary_strategy(),
                                              raw in varint_boundary_strategy()) {
        let rec = LogRecord {
            ts,
            entity,
            body: RecordBody::NodeFull {
                labels: vec![],
                props: vec![(StrId::new(0), PropertyValue::Int(raw as i64))],
            },
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let mut pos = 0;
        prop_assert_eq!(LogRecord::decode(&buf, &mut pos), Some(rec));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn body_roundtrips(body in body_strategy()) {
        let bytes = body.to_bytes();
        prop_assert_eq!(RecordBody::from_bytes(&bytes), Some(body));
    }

    #[test]
    fn update_bodies_encode_without_a_record_body(op in update_strategy()) {
        let mut direct = vec![0xA5];
        record::encode_update(&mut direct, &op);
        let mut built = vec![0xA5];
        RecordBody::from_update(&op).encode(&mut built);
        prop_assert_eq!(direct, built);
    }

    #[test]
    fn log_records_stream(records in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), body_strategy()), 0..20)) {
        let records: Vec<LogRecord> = records
            .into_iter()
            .map(|(ts, entity, body)| LogRecord { ts, entity, body })
            .collect();
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        let mut got = Vec::new();
        while pos < buf.len() {
            got.push(LogRecord::decode(&buf, &mut pos).unwrap());
        }
        prop_assert_eq!(got, records);
        prop_assert_eq!(pos, buf.len());
    }
}
