//! Entity record encoding (Fig. 3).
//!
//! Every record starts with a one-byte header:
//!
//! ```text
//! bit 0-1  entity type: 0 = node, 1 = relationship
//! bit 2    deleted
//! bit 3    delta (diff from the previous version)
//! ```
//!
//! Bodies:
//!
//! * **node, full**: `varint nlabels, nlabels × u32 label-ref,
//!   varint nprops, nprops × prop`
//! * **relationship, full**: `varint src, varint tgt, u32 label-ref
//!   (MSB set = no label), varint nprops, nprops × prop`
//! * **delta** (either kind): `varint nlabels, label-refs (MSB = removed),
//!   varint nprops, props (state bits 3-MSB = deleted ⇒ key only)`
//! * **deleted**: header only — "deleted entities require space only for
//!   their ID and timestamp of deletion", both of which live in the key or
//!   the log envelope.
//!
//! A LineageStore neighbourhood entry is not a record: its key holds both
//! endpoints, the relationship id and the timestamp, and its value is one
//! byte, the deleted flag.
//!
//! A property is a `u32` word whose three most significant bits carry
//! state + type and whose low 29 bits are the key reference, followed by the
//! type-specific value bytes.

use crate::varint;
use lpg::{EntityDelta, NodeId, PropChange, PropertyValue, Props, RelId, StrId, Timestamp, Update};

const TYPE_MASK: u8 = 0b0000_0011;
const TYPE_NODE: u8 = 0;
const TYPE_REL: u8 = 1;
const FLAG_DELETED: u8 = 0b0000_0100;
const FLAG_DELTA: u8 = 0b0000_1000;

/// Label-reference MSB: the label is removed (delta records).
const LABEL_REMOVED: u32 = 1 << 31;

/// Property state/type codes (the three MSBs of the property word).
const PROP_DELETED: u32 = 0;
const PROP_INT: u32 = 1;
const PROP_FLOAT: u32 = 2;
const PROP_BOOL: u32 = 3;
const PROP_STR: u32 = 4;
const PROP_INT_ARR: u32 = 5;
const PROP_FLOAT_ARR: u32 = 6;
const PROP_KEY_MASK: u32 = (1 << 29) - 1;

fn prop_word(code: u32, key: StrId) -> u32 {
    debug_assert!(key.raw() <= PROP_KEY_MASK, "string store exceeds 29 bits");
    (code << 29) | key.raw()
}

/// The payload of one record.
#[derive(Clone, PartialEq, Debug)]
pub enum RecordBody {
    /// Fully materialized node state.
    NodeFull {
        /// Node labels.
        labels: Vec<StrId>,
        /// Node properties.
        props: Props,
    },
    /// Fully materialized relationship state.
    RelFull {
        /// Source node.
        src: NodeId,
        /// Target node.
        tgt: NodeId,
        /// Optional relationship type.
        label: Option<StrId>,
        /// Relationship properties.
        props: Props,
    },
    /// A diff from the previous version of a node.
    NodeDelta(EntityDelta),
    /// A diff from the previous version of a relationship.
    RelDelta(EntityDelta),
    /// Node tombstone.
    NodeDeleted,
    /// Relationship tombstone.
    RelDeleted,
}

impl RecordBody {
    /// `true` for tombstones.
    pub fn is_deleted(&self) -> bool {
        matches!(self, RecordBody::NodeDeleted | RecordBody::RelDeleted)
    }

    /// `true` for delta records.
    pub fn is_delta(&self) -> bool {
        matches!(self, RecordBody::NodeDelta(_) | RecordBody::RelDelta(_))
    }

    /// Builds the record body for one logical [`Update`].
    pub fn from_update(op: &Update) -> RecordBody {
        match op {
            Update::AddNode { labels, props, .. } => RecordBody::NodeFull {
                labels: labels.clone(),
                props: props.clone(),
            },
            Update::DeleteNode { .. } => RecordBody::NodeDeleted,
            Update::AddRel {
                src,
                tgt,
                label,
                props,
                ..
            } => RecordBody::RelFull {
                src: *src,
                tgt: *tgt,
                label: *label,
                props: props.clone(),
            },
            Update::DeleteRel { .. } => RecordBody::RelDeleted,
            other => {
                // Adds and deletes are matched above, so only modify
                // variants reach here; an empty delta is the panic-free
                // fallback should that invariant ever be violated.
                let delta = EntityDelta::from_update(other).unwrap_or_default();
                if other.is_rel() {
                    RecordBody::RelDelta(delta)
                } else {
                    RecordBody::NodeDelta(delta)
                }
            }
        }
    }

    /// Serializes the body into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RecordBody::NodeFull { labels, props } => encode_node_full(out, labels, props),
            RecordBody::RelFull {
                src,
                tgt,
                label,
                props,
            } => encode_rel_full(out, *src, *tgt, *label, props),
            RecordBody::NodeDelta(d) => {
                out.push(TYPE_NODE | FLAG_DELTA);
                encode_delta(out, d);
            }
            RecordBody::RelDelta(d) => {
                out.push(TYPE_REL | FLAG_DELTA);
                encode_delta(out, d);
            }
            RecordBody::NodeDeleted => out.push(TYPE_NODE | FLAG_DELETED),
            RecordBody::RelDeleted => out.push(TYPE_REL | FLAG_DELETED),
        }
    }

    /// Serializes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode(&mut out);
        out
    }

    /// Deserializes a body, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<RecordBody> {
        let header = *buf.get(*pos)?;
        *pos += 1;
        let ty = header & TYPE_MASK;
        let deleted = header & FLAG_DELETED != 0;
        let delta = header & FLAG_DELTA != 0;
        Some(match (ty, deleted, delta) {
            (TYPE_NODE, true, _) => RecordBody::NodeDeleted,
            (TYPE_REL, true, _) => RecordBody::RelDeleted,
            (TYPE_NODE, false, true) => RecordBody::NodeDelta(decode_delta(buf, pos)?),
            (TYPE_REL, false, true) => RecordBody::RelDelta(decode_delta(buf, pos)?),
            (TYPE_NODE, false, false) => {
                let nlabels = varint::read_u64(buf, pos)? as usize;
                let mut labels = Vec::with_capacity(nlabels.min(1024));
                for _ in 0..nlabels {
                    labels.push(StrId::new(varint::read_u32(buf, pos)?));
                }
                let props = decode_props(buf, pos)?;
                RecordBody::NodeFull { labels, props }
            }
            (TYPE_REL, false, false) => {
                let src = NodeId::new(varint::read_u64(buf, pos)?);
                let tgt = NodeId::new(varint::read_u64(buf, pos)?);
                let raw = varint::read_u32(buf, pos)?;
                let label = (raw & LABEL_REMOVED == 0).then(|| StrId::new(raw));
                let props = decode_props(buf, pos)?;
                RecordBody::RelFull {
                    src,
                    tgt,
                    label,
                    props,
                }
            }
            _ => return None,
        })
    }

    /// Deserializes a body from an exact buffer.
    pub fn from_bytes(buf: &[u8]) -> Option<RecordBody> {
        let mut pos = 0;
        let body = Self::decode(buf, &mut pos)?;
        (pos == buf.len()).then_some(body)
    }
}

/// Serializes a [`RecordBody::NodeFull`] from borrowed fields, so bulk
/// encoders (snapshots) need not clone every entity into a `RecordBody`.
pub fn encode_node_full(out: &mut Vec<u8>, labels: &[StrId], props: &[(StrId, PropertyValue)]) {
    out.push(TYPE_NODE);
    varint::write_u64(out, labels.len() as u64);
    for l in labels {
        varint::write_u32(out, l.raw());
    }
    encode_props(out, props);
}

/// Serializes a [`RecordBody::RelFull`] from borrowed fields.
pub fn encode_rel_full(
    out: &mut Vec<u8>,
    src: NodeId,
    tgt: NodeId,
    label: Option<StrId>,
    props: &[(StrId, PropertyValue)],
) {
    out.push(TYPE_REL);
    varint::write_u64(out, src.raw());
    varint::write_u64(out, tgt.raw());
    varint::write_u32(out, label.map_or(LABEL_REMOVED, |l| l.raw()));
    encode_props(out, props);
}

fn encode_props(out: &mut Vec<u8>, props: &[(StrId, PropertyValue)]) {
    varint::write_u64(out, props.len() as u64);
    for (key, value) in props {
        encode_prop_value(out, *key, value);
    }
}

fn encode_prop_value(out: &mut Vec<u8>, key: StrId, value: &PropertyValue) {
    match value {
        PropertyValue::Int(v) => {
            varint::write_u32(out, prop_word(PROP_INT, key));
            varint::write_i64(out, *v);
        }
        PropertyValue::Float(v) => {
            varint::write_u32(out, prop_word(PROP_FLOAT, key));
            varint::write_f64(out, *v);
        }
        PropertyValue::Bool(v) => {
            varint::write_u32(out, prop_word(PROP_BOOL, key));
            out.push(u8::from(*v));
        }
        PropertyValue::Str(s) => {
            varint::write_u32(out, prop_word(PROP_STR, key));
            varint::write_u32(out, s.raw());
        }
        PropertyValue::IntArray(v) => {
            varint::write_u32(out, prop_word(PROP_INT_ARR, key));
            varint::write_u64(out, v.len() as u64);
            for x in v {
                varint::write_i64(out, *x);
            }
        }
        PropertyValue::FloatArray(v) => {
            varint::write_u32(out, prop_word(PROP_FLOAT_ARR, key));
            varint::write_u64(out, v.len() as u64);
            for x in v {
                varint::write_f64(out, *x);
            }
        }
    }
}

/// Decodes one property word + value. Returns `(key, None)` for a deleted
/// property marker.
fn decode_prop_entry(buf: &[u8], pos: &mut usize) -> Option<(StrId, Option<PropertyValue>)> {
    let word = varint::read_u32(buf, pos)?;
    let key = StrId::new(word & PROP_KEY_MASK);
    let value = match word >> 29 {
        PROP_DELETED => None,
        PROP_INT => Some(PropertyValue::Int(varint::read_i64(buf, pos)?)),
        PROP_FLOAT => Some(PropertyValue::Float(varint::read_f64(buf, pos)?)),
        PROP_BOOL => {
            let b = *buf.get(*pos)?;
            *pos += 1;
            Some(PropertyValue::Bool(b != 0))
        }
        PROP_STR => Some(PropertyValue::Str(StrId::new(varint::read_u32(buf, pos)?))),
        PROP_INT_ARR => {
            let n = varint::read_u64(buf, pos)? as usize;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(varint::read_i64(buf, pos)?);
            }
            Some(PropertyValue::IntArray(v))
        }
        PROP_FLOAT_ARR => {
            let n = varint::read_u64(buf, pos)? as usize;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(varint::read_f64(buf, pos)?);
            }
            Some(PropertyValue::FloatArray(v))
        }
        _ => return None,
    };
    Some((key, value))
}

fn decode_props(buf: &[u8], pos: &mut usize) -> Option<Props> {
    let n = varint::read_u64(buf, pos)? as usize;
    let mut props = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let (key, value) = decode_prop_entry(buf, pos)?;
        props.push((key, value?)); // full records never carry deletions
    }
    Some(props)
}

fn encode_delta(out: &mut Vec<u8>, d: &EntityDelta) {
    varint::write_u64(out, (d.labels_added.len() + d.labels_removed.len()) as u64);
    for l in &d.labels_added {
        varint::write_u32(out, l.raw());
    }
    for l in &d.labels_removed {
        varint::write_u32(out, l.raw() | LABEL_REMOVED);
    }
    varint::write_u64(out, d.props.len() as u64);
    for change in &d.props {
        match change {
            PropChange::Set(k, v) => encode_prop_value(out, *k, v),
            PropChange::Remove(k) => varint::write_u32(out, prop_word(PROP_DELETED, *k)),
        }
    }
}

fn decode_delta(buf: &[u8], pos: &mut usize) -> Option<EntityDelta> {
    let nlabels = varint::read_u64(buf, pos)? as usize;
    let mut d = EntityDelta::new();
    for _ in 0..nlabels {
        let word = varint::read_u32(buf, pos)?;
        if word & LABEL_REMOVED != 0 {
            d.labels_removed.push(StrId::new(word & !LABEL_REMOVED));
        } else {
            d.labels_added.push(StrId::new(word));
        }
    }
    let nprops = varint::read_u64(buf, pos)? as usize;
    for _ in 0..nprops {
        let (key, value) = decode_prop_entry(buf, pos)?;
        d.props.push(match value {
            Some(v) => PropChange::Set(key, v),
            None => PropChange::Remove(key),
        });
    }
    Some(d)
}

/// A TimeStore log entry: the body plus the `(τ, id)` envelope.
#[derive(Clone, PartialEq, Debug)]
pub struct LogRecord {
    /// Commit timestamp.
    pub ts: Timestamp,
    /// Raw entity id (interpret via the body's entity type).
    pub entity: u64,
    /// The payload.
    pub body: RecordBody,
}

impl LogRecord {
    /// Builds the log record for one timestamped update.
    pub fn from_update(ts: Timestamp, op: &Update) -> LogRecord {
        LogRecord {
            ts,
            entity: op.entity().raw(),
            body: RecordBody::from_update(op),
        }
    }

    /// Serializes envelope + body.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.ts);
        varint::write_u64(out, self.entity);
        self.body.encode(out);
    }

    /// Deserializes envelope + body, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        let ts = varint::read_u64(buf, pos)?;
        let entity = varint::read_u64(buf, pos)?;
        let body = RecordBody::decode(buf, pos)?;
        Some(LogRecord { ts, entity, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> StrId {
        StrId::new(i)
    }

    fn roundtrip(body: RecordBody) {
        let bytes = body.to_bytes();
        assert_eq!(RecordBody::from_bytes(&bytes), Some(body));
    }

    #[test]
    fn node_full_roundtrip() {
        roundtrip(RecordBody::NodeFull {
            labels: vec![sid(1), sid(500_000)],
            props: vec![
                (sid(0), PropertyValue::Int(-42)),
                (sid(1), PropertyValue::Float(2.5)),
                (sid(2), PropertyValue::Bool(true)),
                (sid(3), PropertyValue::Str(sid(77))),
                (sid(4), PropertyValue::IntArray(vec![1, -2, 3])),
                (sid(5), PropertyValue::FloatArray(vec![0.5, -0.5])),
            ],
        });
    }

    #[test]
    fn rel_full_roundtrip_with_and_without_label() {
        roundtrip(RecordBody::RelFull {
            src: NodeId::new(3),
            tgt: NodeId::new(900_000_000_000),
            label: Some(sid(4)),
            props: vec![(sid(1), PropertyValue::Int(1))],
        });
        roundtrip(RecordBody::RelFull {
            src: NodeId::new(0),
            tgt: NodeId::new(0),
            label: None,
            props: vec![],
        });
    }

    #[test]
    fn tombstones_are_one_byte() {
        assert_eq!(RecordBody::NodeDeleted.to_bytes().len(), 1);
        assert_eq!(RecordBody::RelDeleted.to_bytes().len(), 1);
        roundtrip(RecordBody::NodeDeleted);
        roundtrip(RecordBody::RelDeleted);
    }

    #[test]
    fn delta_roundtrip() {
        roundtrip(RecordBody::NodeDelta(EntityDelta {
            labels_added: vec![sid(1)],
            labels_removed: vec![sid(2)],
            props: vec![
                PropChange::Set(sid(3), PropertyValue::Int(9)),
                PropChange::Remove(sid(4)),
            ],
        }));
        roundtrip(RecordBody::RelDelta(EntityDelta {
            labels_added: vec![],
            labels_removed: vec![],
            props: vec![PropChange::Set(sid(0), PropertyValue::Str(sid(1)))],
        }));
    }

    #[test]
    fn from_update_maps_every_variant() {
        let cases: Vec<(Update, bool, bool)> = vec![
            (
                Update::AddNode {
                    id: NodeId::new(1),
                    labels: vec![sid(1)],
                    props: vec![],
                },
                false,
                false,
            ),
            (Update::DeleteNode { id: NodeId::new(1) }, true, false),
            (
                Update::SetRelProp {
                    id: RelId::new(2),
                    key: sid(1),
                    value: PropertyValue::Int(1),
                },
                false,
                true,
            ),
            (
                Update::AddLabel {
                    id: NodeId::new(1),
                    label: sid(9),
                },
                false,
                true,
            ),
        ];
        for (op, deleted, delta) in cases {
            let body = RecordBody::from_update(&op);
            assert_eq!(body.is_deleted(), deleted, "{op:?}");
            assert_eq!(body.is_delta(), delta, "{op:?}");
        }
    }

    #[test]
    fn log_record_roundtrip_stream() {
        let records = vec![
            LogRecord::from_update(
                5,
                &Update::AddNode {
                    id: NodeId::new(1),
                    labels: vec![sid(0)],
                    props: vec![(sid(1), PropertyValue::Int(10))],
                },
            ),
            LogRecord::from_update(
                6,
                &Update::AddRel {
                    id: RelId::new(1),
                    src: NodeId::new(1),
                    tgt: NodeId::new(1),
                    label: None,
                    props: vec![],
                },
            ),
            LogRecord::from_update(9, &Update::DeleteRel { id: RelId::new(1) }),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        let mut got = Vec::new();
        while pos < buf.len() {
            got.push(LogRecord::decode(&buf, &mut pos).unwrap());
        }
        assert_eq!(got, records);
    }

    #[test]
    fn corrupt_input_returns_none() {
        assert_eq!(RecordBody::from_bytes(&[]), None);
        assert_eq!(RecordBody::from_bytes(&[0xFF]), None); // bad type bits
        assert_eq!(RecordBody::from_bytes(&[2, 0]), None); // type 2 is unused
                                                           // Truncated node record.
        let full = RecordBody::NodeFull {
            labels: vec![sid(1)],
            props: vec![(sid(0), PropertyValue::Int(1))],
        }
        .to_bytes();
        assert_eq!(RecordBody::from_bytes(&full[..full.len() - 1]), None);
        // Trailing garbage rejected by from_bytes.
        let mut padded = RecordBody::NodeDeleted.to_bytes();
        padded.push(0);
        assert_eq!(RecordBody::from_bytes(&padded), None);
    }
}

/// Reconstructs the logical updates a log record represents (the inverse of
/// [`RecordBody::from_update`]); a delta record can carry several changes.
pub fn updates_from_record(entity: u64, body: &RecordBody) -> Vec<Update> {
    match body {
        RecordBody::NodeFull { labels, props } => vec![Update::AddNode {
            id: NodeId::new(entity),
            labels: labels.clone(),
            props: props.clone(),
        }],
        RecordBody::RelFull {
            src,
            tgt,
            label,
            props,
        } => vec![Update::AddRel {
            id: RelId::new(entity),
            src: *src,
            tgt: *tgt,
            label: *label,
            props: props.clone(),
        }],
        RecordBody::NodeDeleted => vec![Update::DeleteNode {
            id: NodeId::new(entity),
        }],
        RecordBody::RelDeleted => vec![Update::DeleteRel {
            id: RelId::new(entity),
        }],
        RecordBody::NodeDelta(d) => {
            let id = NodeId::new(entity);
            let mut out = Vec::with_capacity(d.len());
            for l in &d.labels_added {
                out.push(Update::AddLabel { id, label: *l });
            }
            for l in &d.labels_removed {
                out.push(Update::RemoveLabel { id, label: *l });
            }
            for p in &d.props {
                out.push(match p {
                    PropChange::Set(k, v) => Update::SetNodeProp {
                        id,
                        key: *k,
                        value: v.clone(),
                    },
                    PropChange::Remove(k) => Update::RemoveNodeProp { id, key: *k },
                });
            }
            out
        }
        RecordBody::RelDelta(d) => {
            let id = RelId::new(entity);
            d.props
                .iter()
                .map(|p| match p {
                    PropChange::Set(k, v) => Update::SetRelProp {
                        id,
                        key: *k,
                        value: v.clone(),
                    },
                    PropChange::Remove(k) => Update::RemoveRelProp { id, key: *k },
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod inverse_tests {
    use super::*;

    #[test]
    fn update_record_update_is_identity_for_single_ops() {
        let ops = vec![
            Update::AddNode {
                id: NodeId::new(4),
                labels: vec![StrId::new(1)],
                props: vec![(StrId::new(2), PropertyValue::Bool(true))],
            },
            Update::DeleteNode { id: NodeId::new(4) },
            Update::AddRel {
                id: RelId::new(9),
                src: NodeId::new(1),
                tgt: NodeId::new(2),
                label: None,
                props: vec![],
            },
            Update::DeleteRel { id: RelId::new(9) },
            Update::SetNodeProp {
                id: NodeId::new(4),
                key: StrId::new(3),
                value: PropertyValue::Float(0.5),
            },
            Update::RemoveNodeProp {
                id: NodeId::new(4),
                key: StrId::new(3),
            },
            Update::AddLabel {
                id: NodeId::new(4),
                label: StrId::new(6),
            },
            Update::RemoveLabel {
                id: NodeId::new(4),
                label: StrId::new(6),
            },
            Update::SetRelProp {
                id: RelId::new(9),
                key: StrId::new(3),
                value: PropertyValue::Int(-1),
            },
            Update::RemoveRelProp {
                id: RelId::new(9),
                key: StrId::new(3),
            },
        ];
        for op in ops {
            let body = RecordBody::from_update(&op);
            let back = updates_from_record(op.entity().raw(), &body);
            assert_eq!(back, vec![op.clone()], "{op:?}");
        }
    }
}
