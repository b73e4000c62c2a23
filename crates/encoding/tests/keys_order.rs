//! The compact neighbour and history keys on random tuples whose parts mix
//! uniform values of every width with the byte-length boundaries:
//!
//! * byte order equals tuple order;
//! * `decode_neigh_key` inverts `neigh_key`, `decode_history_key` inverts
//!   `history_key`;
//! * `neigh_range(a)` holds exactly the keys whose first part is `a`, and
//!   `[history_key(id, 0), history_key(id + 1, 0))` exactly `id`'s keys;
//! * every non-canonical or truncated key is refused, without a panic.

use encoding::keys::{decode_history_key, decode_neigh_key, history_key, neigh_key, neigh_range};
use lpg::{NodeId, RelId};
use proptest::prelude::*;

type Tuple = (u64, u64, u64, u64);

const BOUNDARIES: [u64; 9] = [
    0,
    1,
    255,
    256,
    65_535,
    65_536,
    (1 << 56) - 1,
    1 << 56,
    u64::MAX,
];

/// A boundary, a boundary's neighbour, or a uniform value of random width.
fn part() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..BOUNDARIES.len()).prop_map(|i| BOUNDARIES[i]),
        (0..BOUNDARIES.len(), 0u64..3).prop_map(|(i, d)| BOUNDARIES[i].wrapping_add(d)),
        (any::<u64>(), 0u32..64).prop_map(|(x, shift)| x >> shift),
        any::<u64>(),
    ]
}

fn tuple() -> impl Strategy<Value = Tuple> {
    (part(), part(), part(), part())
}

fn pair() -> impl Strategy<Value = (u64, u64)> {
    (part(), part())
}

fn hkey((id, ts): (u64, u64)) -> Vec<u8> {
    history_key(id, ts).to_vec()
}

/// `[history_key(id, 0), history_key(id + 1, 0))`, unbounded above for the
/// largest id.
fn history_range(id: u64) -> (Vec<u8>, Vec<u8>) {
    let high = id
        .checked_add(1)
        .map_or_else(Vec::new, |next| hkey((next, 0)));
    (hkey((id, 0)), high)
}

/// Offsets at which each part of a key starts.
fn part_starts(k: &[u8], parts: usize) -> Vec<usize> {
    let mut starts = vec![0];
    for _ in 1..parts {
        let last = starts[starts.len() - 1];
        starts.push(last + 1 + usize::from(k[last]));
    }
    starts
}

fn key(t: Tuple) -> Vec<u8> {
    neigh_key(NodeId::new(t.0), NodeId::new(t.1), RelId::new(t.2), t.3).to_vec()
}

fn decode(bytes: &[u8]) -> Option<Tuple> {
    decode_neigh_key(bytes).map(|(a, b, r, ts)| (a.raw(), b.raw(), r.raw(), ts))
}

/// Whether `bytes` lies in the scan range `[low, high)`, an empty `high`
/// being unbounded.
fn in_range(bytes: &[u8], (low, high): &(Vec<u8>, Vec<u8>)) -> bool {
    bytes >= &low[..] && (high.is_empty() || bytes < &high[..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_order_is_tuple_order(x in tuple(), y in tuple()) {
        let (kx, ky) = (key(x), key(y));
        prop_assert_eq!(kx.cmp(&ky), x.cmp(&y), "{:?} vs {:?}", x, y);
        prop_assert!(kx.len() <= encoding::keys::MAX_NEIGH_KEY);
    }

    #[test]
    fn decode_inverts_encode(x in tuple()) {
        prop_assert_eq!(decode(&key(x)), Some(x));
    }

    #[test]
    fn range_holds_exactly_the_anchor(x in tuple(), a in part()) {
        let range = neigh_range(NodeId::new(a));
        prop_assert_eq!(in_range(&key(x), &range), x.0 == a, "{:?} in range of {}", x, a);
        // The same tuple re-anchored at `a`, and at its neighbours.
        prop_assert!(in_range(&key((a, x.1, x.2, x.3)), &range));
        for other in [a.wrapping_sub(1), a.wrapping_add(1)] {
            prop_assert!(!in_range(&key((other, x.1, x.2, x.3)), &range));
        }
        // The range's bounds sort where the tuple order puts them.
        let (low, high) = range;
        prop_assert!(low <= key((a, 0, 0, 0)));
        if let Some(next) = a.checked_add(1) {
            prop_assert!(key((a, u64::MAX, u64::MAX, u64::MAX)) < high);
            prop_assert!(high <= key((next, 0, 0, 0)));
        }
    }

    #[test]
    fn only_canonical_keys_decode(x in tuple(), at in any::<u64>(), byte in any::<u8>()) {
        let k = key(x);
        // Every proper prefix is truncated, every extension has trailing bytes.
        for len in 0..k.len() {
            prop_assert_eq!(decode(&k[..len]), None, "{:?} cut to {}", k, len);
        }
        let mut longer = k.clone();
        longer.push(byte);
        prop_assert_eq!(decode(&longer), None);

        // Part `i` widened by a leading zero byte, or given a length above 8.
        let start = part_starts(&k, 4)[(at % 4) as usize];
        let mut padded = k.clone();
        padded[start] += 1;
        padded.insert(start + 1, 0);
        prop_assert_eq!(decode(&padded), None, "{:?}", padded);
        let mut overlong = k.clone();
        overlong[start] = 9 + byte % 247;
        prop_assert_eq!(decode(&overlong), None, "{:?}", overlong);

        // Arbitrary bytes: decoding returns, and whatever decodes re-encodes
        // to the same bytes.
        let mut garbage = k;
        let pos = (at >> 8) as usize % garbage.len();
        garbage[pos] ^= byte;
        if let Some(t) = decode(&garbage) {
            prop_assert_eq!(key(t), garbage);
        }
    }

    #[test]
    fn history_byte_order_is_pair_order(x in pair(), y in pair()) {
        let (kx, ky) = (hkey(x), hkey(y));
        prop_assert_eq!(kx.cmp(&ky), x.cmp(&y), "{:?} vs {:?}", x, y);
        prop_assert!(kx.len() >= 2 && kx.len() <= encoding::keys::MAX_HISTORY_KEY);
    }

    #[test]
    fn history_decode_inverts_encode(x in pair()) {
        prop_assert_eq!(decode_history_key(&hkey(x)), Some(x));
    }

    #[test]
    fn history_range_holds_exactly_the_id(x in pair(), id in part()) {
        let range = history_range(id);
        prop_assert_eq!(in_range(&hkey(x), &range), x.0 == id, "{:?} in range of {}", x, id);
        prop_assert!(in_range(&hkey((id, x.1)), &range));
        prop_assert!(in_range(&hkey((id, u64::MAX)), &range));
        for other in [id.wrapping_sub(1), id.wrapping_add(1)] {
            prop_assert!(!in_range(&hkey((other, x.1)), &range));
        }
    }

    #[test]
    fn only_canonical_history_keys_decode(x in pair(), at in any::<u64>(), byte in any::<u8>()) {
        let k = hkey(x);
        for len in 0..k.len() {
            prop_assert_eq!(decode_history_key(&k[..len]), None, "{:?} cut to {}", k, len);
        }
        let mut longer = k.clone();
        longer.push(byte);
        prop_assert_eq!(decode_history_key(&longer), None);
        // A neighbour key is four parts, never two.
        prop_assert_eq!(decode_history_key(&key((x.0, x.1, x.0, x.1))), None);

        let start = part_starts(&k, 2)[(at % 2) as usize];
        let mut padded = k.clone();
        padded[start] += 1;
        padded.insert(start + 1, 0);
        prop_assert_eq!(decode_history_key(&padded), None, "{:?}", padded);
        let mut overlong = k.clone();
        overlong[start] = 9 + byte % 247;
        prop_assert_eq!(decode_history_key(&overlong), None, "{:?}", overlong);

        let mut garbage = k;
        let pos = (at >> 8) as usize % garbage.len();
        garbage[pos] ^= byte;
        if let Some(p) = decode_history_key(&garbage) {
            prop_assert_eq!(hkey(p), garbage);
        }
    }
}
