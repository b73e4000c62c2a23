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

    /// Serializes the envelope + body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode(&mut out);
        out
    }

    /// Appends the envelope + body to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_chain(out, self.base_ts, self.pos);
        self.body.encode(out);
    }

    /// Deserializes an envelope + body.
    pub fn from_bytes(buf: &[u8]) -> Option<LineageEntry> {
        let mut pos = 0;
        let base_ts = varint::read_u64(buf, &mut pos)?;
        let chain_pos = varint::read_u64(buf, &mut pos)? as u32;
        let body = RecordBody::decode(buf, &mut pos)?;
        (pos == buf.len()).then_some(LineageEntry {
            base_ts,
            pos: chain_pos,
            body,
        })
    }
}

/// Appends the chain fields of an entry; its body follows them.
pub(crate) fn encode_chain(out: &mut Vec<u8>, base_ts: Timestamp, pos: u32) {
    varint::write_u64(out, base_ts);
    varint::write_u64(out, u64::from(pos));
}

/// An encoded entry's `(base_ts, pos)` and whether its body is a
/// tombstone, read without decoding the body.
pub(crate) fn peek_chain(buf: &[u8]) -> Option<(Timestamp, u32, bool)> {
    let mut pos = 0;
    let base_ts = varint::read_u64(buf, &mut pos)?;
    let chain_pos = varint::read_u64(buf, &mut pos)? as u32;
    let deleted = RecordBody::encodes_tombstone(buf.get(pos..)?)?;
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
        assert_eq!(LineageEntry::from_bytes(&e.to_bytes()), Some(e));
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
        let bytes = e.to_bytes();
        let back = LineageEntry::from_bytes(&bytes).unwrap();
        assert_eq!(back.base_ts, 10);
        assert_eq!(back.pos, 3);
        assert_eq!(back, e);
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
        assert_eq!(peek_chain(&delta.to_bytes()), Some((300, 2, false)));
        let gone = LineageEntry::full(301, RecordBody::RelDeleted);
        assert_eq!(peek_chain(&gone.to_bytes()), Some((301, 0, true)));
        assert_eq!(peek_chain(&gone.to_bytes()[..3]), None, "no body");
    }

    #[test]
    fn truncation_detected() {
        let e = LineageEntry::full(1, RecordBody::NodeDeleted);
        let bytes = e.to_bytes();
        assert_eq!(LineageEntry::from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut padded = bytes;
        padded.push(9);
        assert_eq!(LineageEntry::from_bytes(&padded), None);
    }
}
