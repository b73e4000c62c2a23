//! Order-preserving composite B+Tree keys (Table 2).
//!
//! All components are encoded big-endian so the B+Tree's lexicographic byte
//! comparison equals the intended numeric ordering: first by entity id(s),
//! then by timestamp — which puts an entity's whole history "in the same or
//! adjacent B+Tree pages" (Sec. 4.4).
//!
//! | store        | entry           | key layout                |
//! |--------------|-----------------|---------------------------|
//! | TimeStore    | graph update    | `ts`                      |
//! | TimeStore    | graph snapshot  | `ts`                      |
//! | LineageStore | node            | `nodeId, ts`              |
//! | LineageStore | relationship    | `relId, ts`               |
//! | LineageStore | out-neighbours  | `srcId, tgtId, relId, ts` |
//! | LineageStore | in-neighbours   | `tgtId, srcId, relId, ts` |
//!
//! The neighbourhood keys extend Table 2 with the relationship id so that
//! multigraphs (several relationships between the same node pair — which
//! Raphtory cannot represent, Sec. 6.2) remain distinguishable.

use lpg::{NodeId, RelId, Timestamp};

/// An 8-byte timestamp key (TimeStore log / snapshot indexes).
pub fn ts_key(ts: Timestamp) -> [u8; 8] {
    ts.to_be_bytes()
}

/// Decodes a [`ts_key`].
pub fn decode_ts_key(key: &[u8]) -> Option<Timestamp> {
    Some(u64::from_be_bytes(key.get(..8)?.try_into().ok()?))
}

/// A `(entityId, ts)` key for the node / relationship history indexes.
pub fn entity_ts_key(id: u64, ts: Timestamp) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&id.to_be_bytes());
    k[8..].copy_from_slice(&ts.to_be_bytes());
    k
}

fn be_u64(key: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&key[off..off + 8]);
    u64::from_be_bytes(a)
}

/// Decodes an [`entity_ts_key`] into `(id, ts)`.
pub fn decode_entity_ts_key(key: &[u8]) -> Option<(u64, Timestamp)> {
    if key.len() != 16 {
        return None;
    }
    let id = be_u64(key, 0);
    let ts = be_u64(key, 8);
    Some((id, ts))
}

/// Node-history key.
pub fn node_key(id: NodeId, ts: Timestamp) -> [u8; 16] {
    entity_ts_key(id.raw(), ts)
}

/// Relationship-history key.
pub fn rel_key(id: RelId, ts: Timestamp) -> [u8; 16] {
    entity_ts_key(id.raw(), ts)
}

/// A `(a, b, relId, ts)` neighbourhood key — `a = src, b = tgt` for the
/// out-neighbours index and the reverse for in-neighbours.
pub fn neigh_key(a: NodeId, b: NodeId, rel: RelId, ts: Timestamp) -> [u8; 32] {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&a.raw().to_be_bytes());
    k[8..16].copy_from_slice(&b.raw().to_be_bytes());
    k[16..24].copy_from_slice(&rel.raw().to_be_bytes());
    k[24..].copy_from_slice(&ts.to_be_bytes());
    k
}

/// Decodes a [`neigh_key`] into `(a, b, rel, ts)`.
pub fn decode_neigh_key(key: &[u8]) -> Option<(NodeId, NodeId, RelId, Timestamp)> {
    if key.len() != 32 {
        return None;
    }
    let a = be_u64(key, 0);
    let b = be_u64(key, 8);
    let r = be_u64(key, 16);
    let ts = be_u64(key, 24);
    Some((NodeId::new(a), NodeId::new(b), RelId::new(r), ts))
}

/// `[low, high)` bounds covering every neighbourhood entry anchored at `a`.
/// `high` is empty — unbounded, as B+Tree scans read it — for the largest
/// node id, which has no successor to bound it with.
pub fn neigh_range(a: NodeId) -> ([u8; 32], Vec<u8>) {
    let low = neigh_key(a, NodeId::new(0), RelId::new(0), 0);
    let high = match a.raw().checked_add(1) {
        Some(next) => neigh_key(NodeId::new(next), NodeId::new(0), RelId::new(0), 0).to_vec(),
        None => Vec::new(),
    };
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_key_orders_numerically() {
        assert!(ts_key(1) < ts_key(2));
        assert!(ts_key(255) < ts_key(256));
        assert!(ts_key(u64::MAX - 1) < ts_key(u64::MAX));
        assert_eq!(decode_ts_key(&ts_key(42)), Some(42));
        assert_eq!(decode_ts_key(&[1, 2]), None);
    }

    #[test]
    fn entity_key_orders_by_id_then_ts() {
        let a = entity_ts_key(1, 999);
        let b = entity_ts_key(2, 0);
        assert!(a < b, "id dominates");
        let c = entity_ts_key(1, 5);
        let d = entity_ts_key(1, 6);
        assert!(c < d, "ts breaks ties");
        assert_eq!(decode_entity_ts_key(&a), Some((1, 999)));
    }

    #[test]
    fn neigh_key_roundtrip_and_order() {
        let k1 = neigh_key(NodeId::new(1), NodeId::new(9), RelId::new(4), 10);
        let k2 = neigh_key(NodeId::new(1), NodeId::new(9), RelId::new(4), 11);
        let k3 = neigh_key(NodeId::new(1), NodeId::new(10), RelId::new(0), 0);
        let k4 = neigh_key(NodeId::new(2), NodeId::new(0), RelId::new(0), 0);
        assert!(k1 < k2 && k2 < k3 && k3 < k4);
        assert_eq!(
            decode_neigh_key(&k1),
            Some((NodeId::new(1), NodeId::new(9), RelId::new(4), 10))
        );
    }

    #[test]
    fn neigh_range_covers_anchor() {
        let (lo, hi) = neigh_range(NodeId::new(5));
        let inside = neigh_key(NodeId::new(5), NodeId::new(u64::MAX), RelId::new(3), 9);
        let outside = neigh_key(NodeId::new(6), NodeId::new(0), RelId::new(0), 0);
        assert!(lo <= inside && inside[..] < hi[..]);
        assert!(outside[..] >= hi[..]);
        // The largest id has no successor: the scan runs to the end.
        let (lo, hi) = neigh_range(NodeId::new(u64::MAX));
        assert_eq!(lo[..8], [0xFF; 8]);
        assert!(hi.is_empty());
    }
}
