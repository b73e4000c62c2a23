//! The LineageStore value envelope.
//!
//! Every index value wraps a Fig. 3 record body with two chain fields:
//!
//! * `base_ts` — timestamp of the most recent *fully materialized* version
//!   at or before this entry (for full records, the entry's own timestamp);
//! * `pos` — this entry's distance from that materialized version (0 for
//!   full records, 1 for the first delta, …).
//!
//! Reconstructing an entity version therefore reads exactly the key range
//! `[(id, base_ts), (id, ts)]` — never the whole history — which is what
//! bounds the delta-chain cost studied in Sec. 6.5.
//!
//! The value is written relative to its key's timestamp `ts`. A full
//! record or a tombstone is its own base at position 0, and is its body
//! alone: the body's Fig. 3 header byte already says it is not a delta. A
//! delta carries its chain fields right after that byte:
//!
//! ```text
//! entry = body                                      ; full record or tombstone
//!       | header varint(ts - base_ts) varint(pos) rest
//!                                                   ; delta: its body is `header rest`,
//!                                                   ; ts - base_ts ≥ 1
//! ```
//!
//! Decoding takes the key's timestamp. A base later than it does not
//! decode, and neither does a zero distance: a delta's base is always an
//! earlier version.

use encoding::varint;
use encoding::RecordBody;
use lpg::Timestamp;

/// A chain-aware record stored as a LineageStore index value.
#[derive(Clone, PartialEq, Debug)]
pub struct LineageEntry {
    /// Timestamp of the last materialized version covering this entry.
    pub base_ts: Timestamp,
    /// Distance from the materialized version (0 = this entry is full).
    pub pos: u32,
    /// The record payload.
    pub body: RecordBody,
}

impl LineageEntry {
    /// Wraps a fully materialized (or tombstone) record written at `ts`.
    pub fn full(ts: Timestamp, body: RecordBody) -> LineageEntry {
        LineageEntry {
            base_ts: ts,
            pos: 0,
            body,
        }
    }

    /// Wraps a delta at chain position `pos` whose materialized base is at
    /// `base_ts`.
    pub fn delta(base_ts: Timestamp, pos: u32, body: RecordBody) -> LineageEntry {
        debug_assert!(pos > 0);
        LineageEntry { base_ts, pos, body }
    }

    /// Serializes the entry keyed at `key_ts`.
    pub fn to_bytes(&self, key_ts: Timestamp) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode(key_ts, &mut out);
        out
    }

    /// Appends the entry keyed at `key_ts` to `out`.
    pub fn encode(&self, key_ts: Timestamp, out: &mut Vec<u8>) {
        encode(out, key_ts, self.base_ts, self.pos, |out| {
            self.body.encode(out)
        });
    }

    /// Deserializes the entry keyed at `key_ts`.
    pub fn from_bytes(key_ts: Timestamp, buf: &[u8]) -> Option<LineageEntry> {
        let (base_ts, chain_pos, mut pos) = read_chain(key_ts, buf)?;
        let header = *buf.first()?;
        let body = RecordBody::decode_after(header, buf, &mut pos)?;
        (pos == buf.len()).then_some(LineageEntry {
            base_ts,
            pos: chain_pos,
            body,
        })
    }
}

/// Appends the entry keyed at `key_ts` whose body `body` appends: the body,
/// with the chain fields right after its header byte when it is a delta.
/// `base_ts` is never later than `key_ts`, and is `key_ts` itself (at `pos`
/// 0) exactly when the body is a full record or a tombstone.
pub(crate) fn encode(
    out: &mut Vec<u8>,
    key_ts: Timestamp,
    base_ts: Timestamp,
    pos: u32,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    body(out);
    let delta = RecordBody::encodes_delta(&out[start..]) == Some(true);
    debug_assert!(
        base_ts <= key_ts,
        "chain base {base_ts} after its key {key_ts}"
    );
    debug_assert_eq!(base_ts == key_ts, pos == 0, "a full record is its own base");
    debug_assert_eq!(delta, pos > 0, "only a delta has a chain position");
    if delta {
        // Written after the body, then turned in behind its header byte.
        let end = out.len();
        varint::write_u64(out, key_ts.wrapping_sub(base_ts));
        varint::write_u64(out, u64::from(pos));
        let fields = out.len() - end;
        out[start + 1..].rotate_right(fields);
    }
}

/// The `(base_ts, pos)` of the encoded entry `buf` keyed at `key_ts`, and
/// where its body's bytes after the header byte start.
fn read_chain(key_ts: Timestamp, buf: &[u8]) -> Option<(Timestamp, u32, usize)> {
    let mut pos = 1;
    if !RecordBody::encodes_delta(buf)? {
        return Some((key_ts, 0, pos));
    }
    let distance = varint::read_u64(buf, &mut pos)?;
    let base_ts = key_ts.checked_sub(distance).filter(|_| distance > 0)?;
    let chain_pos = varint::read_u64(buf, &mut pos)? as u32;
    Some((base_ts, chain_pos, pos))
}

/// The `(base_ts, pos)` of the encoded entry keyed at `key_ts` and whether
/// its body is a tombstone, read without decoding the body.
pub(crate) fn peek_chain(key_ts: Timestamp, buf: &[u8]) -> Option<(Timestamp, u32, bool)> {
    let (base_ts, chain_pos, _) = read_chain(key_ts, buf)?;
    let deleted = RecordBody::encodes_tombstone(buf)?;
    Some((base_ts, chain_pos, deleted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{EntityDelta, PropChange, PropertyValue, StrId};

    #[test]
    fn full_entry_roundtrip() {
        let e = LineageEntry::full(
            42,
            RecordBody::NodeFull {
                labels: vec![StrId::new(1)],
                props: vec![(StrId::new(2), PropertyValue::Int(5))],
            },
        );
        let bytes = e.to_bytes(42);
        assert_eq!(bytes, e.body.to_bytes(), "a full record is its body alone");
        assert_eq!(LineageEntry::from_bytes(42, &bytes), Some(e));
    }

    #[test]
    fn delta_entry_roundtrip() {
        let e = LineageEntry::delta(
            10,
            3,
            RecordBody::NodeDelta(EntityDelta {
                labels_added: vec![],
                labels_removed: vec![StrId::new(7)],
                props: vec![PropChange::Remove(StrId::new(1))],
            }),
        );
        let bytes = e.to_bytes(13);
        let body = e.body.to_bytes();
        assert_eq!(bytes[0], body[0], "the body's header byte comes first");
        assert_eq!(bytes[1..3], [3, 3], "base 10 is 3 before its key at 13");
        assert_eq!(bytes[3..], body[1..], "then the rest of the body");
        let back = LineageEntry::from_bytes(13, &bytes).unwrap();
        assert_eq!(back.base_ts, 10);
        assert_eq!(back.pos, 3);
        assert_eq!(back, e);
        // Read under another key, the base moves with it.
        assert_eq!(LineageEntry::from_bytes(20, &bytes).unwrap().base_ts, 17);
    }

    #[test]
    fn a_base_after_its_key_does_not_decode() {
        let e = LineageEntry::delta(10, 1, RecordBody::NodeDelta(EntityDelta::default()));
        let bytes = e.to_bytes(300);
        assert_eq!(peek_chain(300, &bytes).map(|(base, ..)| base), Some(10));
        // The distance 290 reaches back past ts 0 from a key at ts 289.
        assert_eq!(LineageEntry::from_bytes(289, &bytes), None);
        assert_eq!(peek_chain(289, &bytes), None);
        assert_eq!(peek_chain(290, &bytes).map(|(base, ..)| base), Some(0));
    }

    #[test]
    fn peek_reads_the_chain_fields_and_the_tombstone_flag() {
        let delta = LineageEntry::delta(
            300,
            2,
            RecordBody::NodeDelta(EntityDelta {
                labels_added: vec![StrId::new(7)],
                labels_removed: vec![],
                props: vec![],
            }),
        );
        assert_eq!(peek_chain(305, &delta.to_bytes(305)), Some((300, 2, false)));
        let gone = LineageEntry::full(301, RecordBody::RelDeleted);
        assert_eq!(gone.to_bytes(301).len(), 1, "the body's one byte");
        assert_eq!(peek_chain(301, &gone.to_bytes(301)), Some((301, 0, true)));
        assert_eq!(peek_chain(301, &[]), None, "no body");
        let full = LineageEntry::full(
            302,
            RecordBody::NodeFull {
                labels: vec![],
                props: vec![],
            },
        );
        assert_eq!(peek_chain(302, &full.to_bytes(302)), Some((302, 0, false)));
    }

    #[test]
    fn a_delta_at_a_zero_distance_does_not_decode() {
        let body = RecordBody::NodeDelta(EntityDelta::default());
        let delta = LineageEntry::delta(10, 1, body.clone()).to_bytes(11);
        assert_eq!(delta[1..3], [1, 1]);
        assert!(LineageEntry::from_bytes(11, &delta).is_some());
        // The same delta whose base is its own key.
        let mut forged = delta.clone();
        forged[1] = 0;
        assert_eq!(LineageEntry::from_bytes(11, &forged), None);
        assert_eq!(peek_chain(11, &forged), None);
        // A delta body with no chain fields at all.
        assert_eq!(LineageEntry::from_bytes(11, &body.to_bytes()), None);
    }

    #[test]
    fn truncation_detected() {
        let e = LineageEntry::full(1, RecordBody::NodeDeleted);
        let bytes = e.to_bytes(1);
        assert_eq!(LineageEntry::from_bytes(1, &bytes[..bytes.len() - 1]), None);
        let mut padded = bytes;
        padded.push(9);
        assert_eq!(LineageEntry::from_bytes(1, &padded), None);
    }
}
