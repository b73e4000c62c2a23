//! Order-preserving composite B+Tree keys (Table 2).
//!
//! Every key compares, byte by byte, in the order of the tuple it encodes:
//! first by entity id(s), then by timestamp — which puts an entity's whole
//! history "in the same or adjacent B+Tree pages" (Sec. 4.4).
//!
//! | store        | entry           | key layout                | bytes  |
//! |--------------|-----------------|---------------------------|--------|
//! | LineageStore | node            | `nodeId, ts`              | 2 – 18 |
//! | LineageStore | relationship    | `relId, ts`               | 2 – 18 |
//! | LineageStore | out-neighbours  | `srcId, tgtId, relId, ts` | 4 – 36 |
//! | LineageStore | in-neighbours   | `tgtId, srcId, relId, ts` | 4 – 36 |
//!
//! Table 2's two TimeStore rows, keyed by `ts`, are not B+Trees here: the
//! change log and the snapshot directory are the TimeStore's time indexes
//! (see `timestore`'s crate docs).
//!
//! Every key writes each of its parts compactly (the variable-size
//! encoding of Sec. 4.2), in one grammar shared by the history and the
//! neighbour keys:
//!
//! ```text
//! history_key = part part
//! neigh_key   = part part part part
//! part        = u8 n (0..=8), then the n low-order big-endian bytes of the
//!               value, the first of them non-zero; zero is the single byte 0
//! ```
//!
//! A shorter part is a smaller number and equal-length parts compare
//! numerically, and no part is a prefix of another, so the concatenation
//! sorts exactly like the tuple. Only the canonical form decodes.
//!
//! The neighbourhood keys extend Table 2 with the relationship id so that
//! multigraphs (several relationships between the same node pair — which
//! Raphtory cannot represent, Sec. 6.2) remain distinguishable.

use lpg::{NodeId, RelId, Timestamp};

/// `(id, ts)` as two fixed 8-byte big-endian halves. The store writes
/// [`history_key`]; this form stays only for the benchmark's B+Tree probe,
/// which takes a `[u8; 16]`.
pub fn entity_ts_key(id: u64, ts: Timestamp) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&id.to_be_bytes());
    k[8..].copy_from_slice(&ts.to_be_bytes());
    k
}

/// Longest [`history_key`]: two parts of a length byte and eight bytes.
pub const MAX_HISTORY_KEY: usize = 18;

/// Longest [`neigh_key`]: four parts of a length byte and eight bytes.
pub const MAX_NEIGH_KEY: usize = 36;

/// Writes `v` at `out[at..]` as a length byte and its significant
/// big-endian bytes; returns where the part ends.
fn put_part(out: &mut [u8; MAX_NEIGH_KEY], at: usize, v: u64) -> usize {
    let n = 8 - (v.leading_zeros() / 8) as usize;
    out[at] = n as u8;
    out[at + 1..at + 1 + n].copy_from_slice(&v.to_be_bytes()[8 - n..]);
    at + 1 + n
}

/// The parts `values`, each written by [`put_part`], in order.
fn key_of<const N: usize>(values: [u64; N]) -> Key {
    let mut bytes = [0u8; MAX_NEIGH_KEY];
    let len = values
        .into_iter()
        .fold(0, |at, part| put_part(&mut bytes, at, part));
    Key {
        bytes,
        len: len as u8,
    }
}

/// Reads one canonical part off the front of `key`.
fn take_part(key: &mut &[u8]) -> Option<u64> {
    let (&n, rest) = key.split_first()?;
    let n = usize::from(n);
    if n > 8 {
        return None;
    }
    let digits = rest.get(..n)?;
    if digits.first() == Some(&0) {
        return None;
    }
    let mut be = [0u8; 8];
    be[8 - n..].copy_from_slice(digits);
    *key = &rest[n..];
    Some(u64::from_be_bytes(be))
}

/// A `(entityId, ts)` key for the node / relationship history indexes,
/// two parts. It is built on the stack, as every history write and read
/// builds one.
pub fn history_key(id: u64, ts: Timestamp) -> Key {
    key_of([id, ts])
}

/// Decodes a [`history_key`] into `(id, ts)`. `None` unless `key` is
/// exactly two canonical parts.
pub fn decode_history_key(mut key: &[u8]) -> Option<(u64, Timestamp)> {
    let id = take_part(&mut key)?;
    let ts = take_part(&mut key)?;
    key.is_empty().then_some((id, ts))
}

/// A `(a, b, relId, ts)` neighbourhood key — `a = src, b = tgt` for the
/// out-neighbours index and the reverse for in-neighbours. The
/// LineageStore writes two per relationship update.
pub fn neigh_key(a: NodeId, b: NodeId, rel: RelId, ts: Timestamp) -> Key {
    key_of([a.raw(), b.raw(), rel.raw(), ts])
}

/// The bytes of a [`history_key`] or a [`neigh_key`], read through
/// `Deref<Target = [u8]>`.
#[derive(Clone, Copy)]
pub struct Key {
    bytes: [u8; MAX_NEIGH_KEY],
    len: u8,
}

impl std::ops::Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// Decodes a [`neigh_key`] into `(a, b, rel, ts)`. `None` unless `key` is
/// exactly four canonical parts.
pub fn decode_neigh_key(mut key: &[u8]) -> Option<(NodeId, NodeId, RelId, Timestamp)> {
    let a = take_part(&mut key)?;
    let b = take_part(&mut key)?;
    let r = take_part(&mut key)?;
    let ts = take_part(&mut key)?;
    key.is_empty()
        .then(|| (NodeId::new(a), NodeId::new(b), RelId::new(r), ts))
}

/// `[low, high)` bounds covering every neighbourhood entry anchored at `a`:
/// the encodings of `a` and `a + 1` alone. `high` is empty — unbounded, as
/// B+Tree scans read it — for the largest node id, which has no successor
/// to bound it with.
pub fn neigh_range(a: NodeId) -> (Vec<u8>, Vec<u8>) {
    let part = |v| key_of([v]).to_vec();
    let high = a.raw().checked_add(1).map_or_else(Vec::new, part);
    (part(a.raw()), high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_key_orders_by_id_then_ts() {
        let a = entity_ts_key(1, 999);
        let b = entity_ts_key(2, 0);
        assert!(a < b, "id dominates");
        let c = entity_ts_key(1, 5);
        let d = entity_ts_key(1, 6);
        assert!(c < d, "ts breaks ties");
        assert_eq!(a[..8], 1u64.to_be_bytes());
        assert_eq!(a[8..], 999u64.to_be_bytes());
    }

    #[test]
    fn history_key_orders_by_id_then_ts_in_significant_bytes() {
        let a = history_key(1, 999);
        let b = history_key(2, 0);
        assert!(a[..] < b[..], "id dominates");
        assert!(
            history_key(1, 5)[..] < history_key(1, 6)[..],
            "ts breaks ties"
        );
        assert!(history_key(255, 1)[..] < history_key(256, 0)[..]);
        assert_eq!(a[..], [1, 1, 2, 3, 0xE7]);
        assert_eq!(b[..], [1, 2, 0]);
        assert_eq!(history_key(0, 0)[..], [0, 0]);
        assert_eq!(history_key(u64::MAX, u64::MAX).len(), MAX_HISTORY_KEY);
        assert_eq!(decode_history_key(&a), Some((1, 999)));
        for bad in [&[0][..], &[0, 0, 0], &[1, 0, 0], &[0, 2, 1], &[9, 0]] {
            assert_eq!(decode_history_key(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn neigh_key_roundtrip_and_order() {
        let k1 = neigh_key(NodeId::new(1), NodeId::new(9), RelId::new(4), 10);
        let k2 = neigh_key(NodeId::new(1), NodeId::new(9), RelId::new(4), 11);
        let k3 = neigh_key(NodeId::new(1), NodeId::new(10), RelId::new(0), 0);
        let k4 = neigh_key(NodeId::new(2), NodeId::new(0), RelId::new(0), 0);
        assert!(k1[..] < k2[..] && k2[..] < k3[..] && k3[..] < k4[..]);
        assert_eq!(
            decode_neigh_key(&k1),
            Some((NodeId::new(1), NodeId::new(9), RelId::new(4), 10))
        );
    }

    #[test]
    fn neigh_key_writes_only_significant_bytes() {
        let zero = neigh_key(NodeId::new(0), NodeId::new(0), RelId::new(0), 0);
        assert_eq!(zero[..], [0, 0, 0, 0]);
        let k = neigh_key(NodeId::new(255), NodeId::new(256), RelId::new(1), u64::MAX);
        let mut want = vec![1, 0xFF, 2, 1, 0, 1, 1, 8];
        want.extend_from_slice(&[0xFF; 8]);
        assert_eq!(k[..], want);
        assert_eq!(decode_neigh_key(&k).unwrap().3, u64::MAX);
        let widest = neigh_key(
            NodeId::new(u64::MAX),
            NodeId::new(u64::MAX),
            RelId::new(u64::MAX),
            u64::MAX,
        );
        assert_eq!(widest.len(), MAX_NEIGH_KEY);
    }

    #[test]
    fn neigh_key_rejects_non_canonical_bytes() {
        for bad in [
            &[][..],
            &[0, 0, 0],                               // three parts
            &[0, 0, 0, 0, 0],                         // trailing byte
            &[9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0], // length above 8
            &[1, 0, 0, 0, 0],                         // leading zero byte
            &[0, 0, 0, 2, 1],                         // truncated part
        ] {
            assert_eq!(decode_neigh_key(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn neigh_range_covers_anchor() {
        let (lo, hi) = neigh_range(NodeId::new(5));
        let inside = neigh_key(NodeId::new(5), NodeId::new(u64::MAX), RelId::new(3), 9);
        let outside = neigh_key(NodeId::new(6), NodeId::new(0), RelId::new(0), 0);
        assert!(lo[..] <= inside[..] && inside[..] < hi[..]);
        assert!(outside[..] >= hi[..]);
        // The largest id has no successor: the scan runs to the end.
        let (lo, hi) = neigh_range(NodeId::new(u64::MAX));
        assert_eq!(lo[..], [8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(hi.is_empty());
    }
}
