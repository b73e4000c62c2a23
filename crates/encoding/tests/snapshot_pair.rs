//! The snapshot file format on a pinned pair: an anchor that holds every
//! segment and run inline, and a later file that patches the node segments
//! an update touched, rewrites the other touched segments, writes the runs
//! that hold them and references the rest, runs and segments, in the
//! anchor.
//!
//! * The bytes of both files are pinned (`golden/snapshot_pair_*.hex`);
//!   round-trip tests pass for any self-consistent layout, this pins the one
//!   on disk.
//! * Every truncation and every single-bit flip of either file is refused —
//!   by the footer, or, for anchor bytes read through a reference after the
//!   anchor was checked, by the sum of the run or segment referenced — and
//!   nothing panics or returns a different graph.
//! * The property test does the same for random graphs, random touched
//!   segments (patched or rewritten) and random corruption, and decodes re-sealed garbage without
//!   panicking. It also loads the anchor and then the later file through
//!   one `SharedSegments`: the later graph is the same, and it takes from
//!   memory exactly the relationship segments no update touched.

use encoding::snapshot::{
    self, encode, open, Change, Extent, Fault, Manifest, Segment, SharedSegments,
};
use lpg::{EntityId, Graph, NodeId, PropertyValue, RelId, StrId, Timestamp, Update};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const ANCHOR: &str = include_str!("golden/snapshot_pair_100.hex");
const LATER: &str = include_str!("golden/snapshot_pair_200.hex");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A permutation of `0..n` from a fixed LCG: insertion order must not be
/// id order, or a representation that keeps insertion order would pass.
fn shuffled(n: u64, mut state: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (state >> 33) as usize % (i + 1));
    }
    v
}

/// 80 nodes — a dense run plus ids at segment and integer-width edges — and
/// 120 relationships, built in shuffled order with deletes and churn.
fn fixed_graph() -> Graph {
    let mut node_ids: Vec<u64> = (0..70).collect();
    node_ids.extend([
        127,
        128,
        4095,
        1 << 32,
        (1 << 32) + 1,
        1 << 40,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ]);
    let mut g = Graph::new();
    for &slot in &shuffled(80, 7) {
        let id = node_ids[slot as usize];
        let props = match slot % 4 {
            0 => vec![],
            1 => vec![(StrId::new(9), PropertyValue::Int(-(slot as i64)))],
            2 => vec![
                (StrId::new(9), PropertyValue::Float(slot as f64 / 8.0)),
                (StrId::new(2), PropertyValue::Bool(slot % 8 == 2)),
            ],
            _ => vec![
                (
                    StrId::new(11),
                    PropertyValue::IntArray(Box::new([1, -2, 3])),
                ),
                (StrId::new(4), PropertyValue::Str(StrId::new(slot as u32))),
                (
                    StrId::new(7),
                    PropertyValue::FloatArray(Box::new([0.5, -0.25])),
                ),
            ],
        };
        g.apply(&Update::AddNode {
            id: NodeId::new(id),
            labels: (0..slot % 3).map(|l| StrId::new(5 - l as u32)).collect(),
            props,
        })
        .unwrap();
    }
    let rel_id = |k: u64| match k % 13 {
        0 => u64::MAX - k,
        1 => (1 << 32) + k,
        _ => k,
    };
    for &k in &shuffled(130, 11) {
        g.apply(&Update::AddRel {
            id: RelId::new(rel_id(k)),
            src: NodeId::new(node_ids[(k * 7 % 80) as usize]),
            tgt: NodeId::new(node_ids[(k * 31 % 80) as usize]),
            label: (k % 5 != 0).then(|| StrId::new((k % 5) as u32)),
            props: if k % 3 == 0 {
                vec![(StrId::new(1), PropertyValue::Float(k as f64 / 2.0))]
            } else {
                vec![]
            },
        })
        .unwrap();
    }
    for k in (0..130).step_by(13) {
        g.apply(&Update::DeleteRel {
            id: RelId::new(rel_id(k)),
        })
        .unwrap();
    }
    for k in 0..20u64 {
        let id = NodeId::new(node_ids[(k * 3) as usize]);
        g.apply(&Update::SetNodeProp {
            id,
            key: StrId::new(3),
            value: PropertyValue::Int(k as i64),
        })
        .unwrap();
        g.apply(&Update::AddLabel {
            id,
            label: StrId::new(1),
        })
        .unwrap();
    }
    g
}

/// What separates the later file from the anchor: one node of the dense run
/// changes (its segment is patched), one relationship of it goes (its
/// segment is rewritten), one far node is added (a new segment).
fn churn() -> Vec<Update> {
    vec![
        Update::SetNodeProp {
            id: NodeId::new(66),
            key: StrId::new(3),
            value: PropertyValue::Int(-1),
        },
        Update::DeleteRel {
            id: RelId::new(100),
        },
        Update::AddNode {
            id: NodeId::new(1 << 50),
            labels: vec![],
            props: vec![],
        },
    ]
}

/// Encodes `g2` as the file at `ts2` after the anchor `g1` at `ts1`: a node
/// segment `updates` touched is patched with the nodes they named, a
/// relationship segment they touched is rewritten.
fn pair(
    g1: &Graph,
    ts1: Timestamp,
    g2: &Graph,
    ts2: Timestamp,
    updates: &[Update],
) -> (Vec<u8>, Vec<u8>) {
    let (anchor, m1) = encode(g1, ts1, None, |_| Change::Any);
    let mut changes: HashMap<Segment, Change> = HashMap::new();
    for u in updates {
        match u.entity() {
            EntityId::Node(id) => {
                let (segment, bit) = Segment::of_node(id);
                let mask = match changes.get(&segment) {
                    Some(Change::Nodes(mask)) => mask | bit,
                    _ => bit,
                };
                changes.insert(segment, Change::Nodes(mask));
            }
            rel => {
                changes.insert(Segment::of(rel), Change::Any);
            }
        }
    }
    let change = |s| changes.get(&s).copied().unwrap_or(Change::None);
    let (later, _) = encode(g2, ts2, Some(&m1), change);
    (anchor, later)
}

/// Decodes with nothing shared: every referenced byte is read and checked.
fn decode(
    manifest: &Manifest,
    file: &[u8],
    read: impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
) -> Result<Graph, Fault> {
    snapshot::decode(manifest, file, &SharedSegments::default(), read).map(|d| d.graph)
}

fn read(file: &[u8], e: Extent, buf: &mut Vec<u8>) -> Option<()> {
    let start = usize::try_from(e.offset).ok()?;
    let end = start.checked_add(usize::try_from(e.len).ok()?)?;
    buf.extend_from_slice(file.get(start..end)?);
    Some(())
}

/// What the store's loader does for the later file: both footers verify,
/// the later file references only the anchor, every referenced range
/// matches its sum.
fn load_later(anchor: &[u8], later: &[u8]) -> Option<Graph> {
    let m1 = open(anchor)?;
    let m2 = open(later)?;
    if m2.sources().iter().any(|&s| s != m1.ts()) {
        return None;
    }
    decode(&m2, later, |e, buf| read(anchor, e, buf)).ok()
}

/// The later file decoded with references answered from `anchor` as it is
/// now, its footer not checked again: what a read sees when the anchor
/// changed after open.
fn decode_later(anchor: &[u8], m2: &Manifest, later: &[u8]) -> Result<Graph, Fault> {
    decode(m2, later, |e, buf| read(anchor, e, buf))
}

fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

/// The later file's manifest with its runs resolved against `anchor`: what
/// names every range a load of it reads.
fn resolved(anchor: &[u8], later: &[u8]) -> Manifest {
    let m2 = open(later).unwrap();
    snapshot::decode(&m2, later, &SharedSegments::default(), |e, buf| {
        read(anchor, e, buf)
    })
    .unwrap()
    .manifest
}

/// Whether `bit` of the anchor lies in a range the later file references,
/// run or segment.
fn referenced(m2: &Manifest, bit: usize) -> bool {
    let byte = (bit / 8) as u64;
    m2.extents()
        .iter()
        .any(|e| (e.offset..e.offset + e.len).contains(&byte))
}

#[test]
fn pinned_pair_bytes_and_roundtrip() {
    let g1 = fixed_graph();
    assert_eq!(g1.node_count() + g1.rel_count(), 200);
    let mut g2 = g1.clone();
    g2.apply_all(&churn()).unwrap();
    let (anchor, later) = pair(&g1, 100, &g2, 200, &churn());
    assert_eq!(hex(&anchor), ANCHOR.split_whitespace().collect::<String>());
    assert_eq!(hex(&later), LATER.split_whitespace().collect::<String>());
    let m2 = open(&later).unwrap();
    assert_eq!(m2.sources(), vec![100]);
    // Node run 0 (a patch), relationship run 0 (a rewritten segment) and
    // the new node's run are inline; the other six are the anchor's.
    assert_eq!(m2.runs(), (3, 6));
    assert!(m2.patched(Segment::Node(1)));
    assert_eq!(m2.inline().patches, 1);
    assert!(
        later.len() * 2 < anchor.len(),
        "{} vs {}",
        later.len(),
        anchor.len()
    );
    let back = load_later(&anchor, &later).expect("golden pair decodes");
    assert!(back.same_as(&g2));
    back.check_consistency().unwrap();
    assert!(decode(&open(&anchor).unwrap(), &anchor, |_, _| None)
        .unwrap()
        .same_as(&g1));
}

#[test]
#[cfg_attr(miri, ignore = "exhaustive; the property test runs under Miri")]
fn every_truncation_and_bit_flip_is_refused() {
    let g1 = fixed_graph();
    let mut g2 = g1.clone();
    g2.apply_all(&churn()).unwrap();
    let (anchor, later) = pair(&g1, 100, &g2, 200, &churn());
    let m2 = open(&later).unwrap();
    let reads = resolved(&anchor, &later);
    for len in 0..anchor.len() {
        assert!(
            load_later(&anchor[..len], &later).is_none(),
            "anchor cut to {len}"
        );
    }
    for len in 0..later.len() {
        assert!(
            load_later(&anchor, &later[..len]).is_none(),
            "later cut to {len}"
        );
    }
    for bit in 0..later.len() * 8 {
        assert!(
            load_later(&anchor, &flip(&later, bit)).is_none(),
            "later bit {bit}"
        );
    }
    for bit in 0..anchor.len() * 8 {
        let bad = flip(&anchor, bit);
        assert!(load_later(&bad, &later).is_none(), "anchor bit {bit}");
        match decode_later(&bad, &m2, &later) {
            Err(fault) => assert_eq!(fault, Fault::Reference(100), "anchor bit {bit}"),
            Ok(g) => {
                assert!(!referenced(&reads, bit), "anchor bit {bit} read unnoticed");
                assert!(g.same_as(&g2), "anchor bit {bit}: a different graph");
            }
        }
    }
}

/// A graph of `n` nodes and about `2n` relationships whose ids are spread by
/// `stride`, then `churn` random updates; returns both graphs and the
/// updates.
fn random_pair(seed: u64, n: u64, stride: u64, churn: usize) -> (Graph, Graph, Vec<Update>) {
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut g1 = Graph::new();
    for i in 0..n {
        g1.apply(&Update::AddNode {
            id: NodeId::new(i * stride),
            labels: vec![StrId::new(next(4) as u32)],
            props: vec![(StrId::new(1), PropertyValue::Int(next(1000) as i64))],
        })
        .unwrap();
    }
    for i in 0..2 * n {
        g1.apply(&Update::AddRel {
            id: RelId::new(i * stride),
            src: NodeId::new(next(n) * stride),
            tgt: NodeId::new(next(n) * stride),
            label: None,
            props: vec![],
        })
        .unwrap();
    }
    let mut g2 = g1.clone();
    let mut updates = Vec::new();
    while updates.len() < churn {
        let u = match next(5) {
            0 => Update::SetNodeProp {
                id: NodeId::new(next(n) * stride),
                key: StrId::new(2),
                value: PropertyValue::Int(next(100) as i64),
            },
            1 => Update::DeleteRel {
                id: RelId::new(next(2 * n) * stride),
            },
            // Fails, and is left out, when the id is taken.
            2 => Update::AddNode {
                id: NodeId::new(next(n) * stride + next(stride)),
                labels: vec![],
                props: vec![],
            },
            // Fails, and is left out, while the node has relationships.
            3 => Update::DeleteNode {
                id: NodeId::new(next(n) * stride),
            },
            _ => Update::SetRelProp {
                id: RelId::new(next(2 * n) * stride),
                key: StrId::new(3),
                value: PropertyValue::Bool(true),
            },
        };
        if g2.apply(&u).is_ok() {
            updates.push(u);
        }
    }
    (g1, g2, updates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_pairs_roundtrip_and_refuse_corruption(
        seed in any::<u64>(),
        n in 1u64..120,
        stride in 1u64..100,
        churn in 0usize..12,
        at in any::<u64>(),
    ) {
        let (g1, g2, updates) = random_pair(seed, n, stride, churn);
        let (anchor, later) = pair(&g1, 7, &g2, 9, &updates);
        let back = load_later(&anchor, &later);
        prop_assert!(back.is_some_and(|g| g.same_as(&g2)));
        let m2 = open(&later).unwrap();

        let shared = SharedSegments::default();
        let m1 = open(&anchor).unwrap();
        // `first` holds the anchor's chunks while the later file loads.
        let first = snapshot::decode(&m1, &anchor, &shared, |_, _| None).unwrap();
        prop_assert!(first.graph.same_as(&g1));
        let second =
            snapshot::decode(&m2, &later, &shared, |e, buf| read(&anchor, e, buf)).unwrap();
        prop_assert!(second.graph.same_as(&g2));
        let rel_segment = |u: &Update| match Segment::of(u.entity()) {
            Segment::Rel(no) => Some(no),
            Segment::Node(_) => None,
        };
        let touched: BTreeSet<u64> = updates.iter().filter_map(rel_segment).collect();
        let clean = g2
            .rels()
            .map(|r| r.id.raw() >> 6)
            .collect::<BTreeSet<u64>>()
            .difference(&touched)
            .count();
        prop_assert_eq!(second.shared, clean);

        // One random bit of each file, one random truncation of each.
        let bit = (at % (later.len() as u64 * 8)) as usize;
        prop_assert!(load_later(&anchor, &flip(&later, bit)).is_none());
        prop_assert!(load_later(&anchor, &later[..bit / 8]).is_none());
        let bit = (at % (anchor.len() as u64 * 8)) as usize;
        let bad = flip(&anchor, bit);
        prop_assert!(load_later(&bad, &later).is_none());
        prop_assert!(load_later(&anchor[..bit / 8], &later).is_none());
        match decode_later(&bad, &m2, &later) {
            Err(fault) => prop_assert_eq!(fault, Fault::Reference(7)),
            Ok(g) => prop_assert!(!referenced(&resolved(&anchor, &later), bit) && g.same_as(&g2)),
        }

        // Garbage behind a valid footer: whatever it decodes to, decoding
        // returns rather than panics.
        let mut resealed = flip(&later, (at % ((later.len() as u64 - 8) * 8)) as usize);
        let payload = resealed.len() - 8;
        let footer = vfs::bulk_sum64(&resealed[..payload]);
        resealed[payload..].copy_from_slice(&footer.to_le_bytes());
        if let Some(m) = open(&resealed) {
            let _ = decode(&m, &resealed, |e, buf| read(&anchor, e, buf));
        }
    }
}
