//! Property tests: the page-backed B+Tree must behave exactly like an
//! in-memory `BTreeMap<Vec<u8>, Vec<u8>>` under arbitrary operation
//! sequences — lookups, floor lookups and range scans included — and pass
//! `verify()` after every case. Keys and values cross the lengths where a
//! leaf cell's header varints widen, values cross the overflow threshold,
//! and ascending runs past the largest key drive the append split.
//! `insert_with` gets the floor the model has, and its value is derived
//! from that floor.
//!
//! Two key shapes share long prefixes, as leaf prefix truncation sees
//! them: keys built like the LineageStore's from length-byte parts, and
//! keys behind one 20-byte prefix. Bulk runs of them fill leaves, and
//! inserts just outside a run, with values near `MAX_INLINE_VALUE`, shrink
//! the prefix of a full leaf until the longer cells no longer fit and the
//! leaf splits, at times more than once.

use btree::{BTree, TreeFill, MAX_INLINE_VALUE};
use pagestore::PageStore;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::ops::Bound;
use std::sync::Arc;
use tempfile::tempdir;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    /// `insert_with` of a value built from the floor and these bytes; with
    /// `true`, the closure fails instead and nothing may change.
    InsertWith(Vec<u8>, Vec<u8>, bool),
    Get(Vec<u8>),
    Floor(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
    /// Inserts this many ascending keys, each past every key in the tree,
    /// with values of the given length.
    AppendRun(usize, usize),
    /// Inserts these prefix-heavy keys with values of the given lengths.
    Bulk(Vec<(Vec<u8>, usize)>),
    /// Inserts, with a value of the given length, a key just outside the
    /// run of keys that share the first `depth + 1` bytes of the model's
    /// `pick`-th key: below the run, or (`true`) above it. The key shares
    /// only `depth` bytes with the run, so the leaf at the run's edge
    /// takes it by shrinking its prefix.
    Edge(usize, usize, bool, usize),
}

/// First byte of an [`Op::AppendRun`] key: above every `key_strategy` key.
const RUN_PREFIX: u8 = 0xF0;

/// The part `v` of a LineageStore-shaped key: a length byte, then the
/// significant big-endian bytes of `v`.
fn part(out: &mut Vec<u8>, v: u64) {
    let bytes = v.to_be_bytes();
    let skip = (v.leading_zeros() / 8) as usize;
    out.push((8 - skip) as u8);
    out.extend_from_slice(&bytes[skip..]);
}

/// Keys shaped like the LineageStore's neighbour keys: four length-byte
/// parts, the first three large ids that share all but their last bytes.
fn lineage_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    const BASE: u64 = 0x0123_4567_89AB_0000;
    (0u64..3, 0u64..4, 0u64..600, 0u64..300).prop_map(|(a, b, rel, ts)| {
        let mut key = Vec::new();
        for v in [BASE + a, BASE + b, BASE + rel, ts] {
            part(&mut key, v);
        }
        key
    })
}

/// Keys behind one 20-byte prefix, with tails of up to three bytes.
fn shared_prefix_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..16, 0..4).prop_map(|tail| [&[5u8; 20][..], &tail].concat())
}

fn prefix_heavy_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![lineage_key_strategy(), shared_prefix_key_strategy()]
}

/// A bulk run of one prefix-heavy shape, with values of 0 to 4 bytes.
fn bulk_strategy() -> impl Strategy<Value = Op> {
    let run = |keys: BoxedStrategy<Vec<u8>>| {
        proptest::collection::vec((keys, 0usize..5), 200..1500).prop_map(Op::Bulk)
    };
    prop_oneof![
        run(lineage_key_strategy().boxed()),
        run(shared_prefix_key_strategy().boxed()),
    ]
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and length so operations collide often, plus keys on
    // both sides of 31 bytes (where a cell's suffix length leaves its
    // `head` varint under a short prefix) and of 159 (where the rest after
    // it outgrows one varint byte), and of MAX_KEY bytes, padded with
    // their first byte so they collide too; and the prefix-heavy shapes.
    let short = || proptest::collection::vec(0u8..4, 1..5);
    prop_oneof![
        short(),
        short(),
        short(),
        (
            short(),
            prop_oneof![
                Just(30usize),
                Just(31),
                Just(32),
                Just(159),
                Just(160),
                Just(512)
            ]
        )
            .prop_map(|(mut k, len)| {
                let pad = k[0];
                k.resize(len, pad);
                k
            }),
        prefix_heavy_key_strategy(),
    ]
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Random lengths, plus both sides of 1/2 and 255/256 (where a cell's
    // `head` varint outgrows one byte and two under a short suffix) and of
    // 1024/1025 (MAX_INLINE_VALUE: overflow).
    let edge = prop_oneof![
        Just(1usize),
        Just(2),
        Just(255),
        Just(256),
        Just(1023),
        Just(1024),
        Just(1025),
        Just(1026),
    ];
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2100),
        (edge, any::<u8>()).prop_map(|(len, b)| vec![b; len]),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key_strategy(), value_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        (
            key_strategy(),
            proptest::collection::vec(any::<u8>(), 0..1100),
            (0u8..10).prop_map(|n| n == 0),
        )
            .prop_map(|(k, v, fail)| Op::InsertWith(k, v, fail)),
        key_strategy().prop_map(Op::Get),
        key_strategy().prop_map(Op::Floor),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Scan(a, b)),
        (50usize..700, 0usize..70).prop_map(|(n, vlen)| Op::AppendRun(n, vlen)),
        bulk_strategy(),
        (
            any::<usize>(),
            0usize..24,
            any::<bool>(),
            MAX_INLINE_VALUE - 24..=MAX_INLINE_VALUE,
        )
            .prop_map(|(pick, depth, above, vlen)| Op::Edge(pick, depth, above, vlen)),
    ]
}

/// The key of an [`Op::Edge`] next to `key`: its first `depth` bytes, then
/// the next byte one higher (`above`) or one lower and padded high. `None`
/// where that byte has no such neighbour.
fn edge_key(key: &[u8], depth: usize, above: bool) -> Option<Vec<u8>> {
    let depth = depth.min(key.len().checked_sub(1)?);
    let mut edge = key[..depth].to_vec();
    if above {
        edge.push(key[depth].checked_add(1)?);
    } else {
        edge.extend_from_slice(&[key[depth].checked_sub(1)?, 0xFF, 0xFF]);
    }
    Some(edge)
}

/// The value an [`Op::InsertWith`] stores: a digest of the floor entry (its
/// key, and the head and length of its value, so that the value's length
/// follows the floor's and can cross the overflow threshold) and `extra`.
fn derived(floor: Option<(&[u8], &[u8])>, extra: &[u8]) -> Vec<u8> {
    let mut v = Vec::new();
    if let Some((key, value)) = floor {
        v.extend_from_slice(key);
        v.extend_from_slice(&(value.len() as u32).to_le_bytes());
        v.extend_from_slice(&value[..value.len().min(600)]);
    }
    v.extend_from_slice(extra);
    v
}

/// The model's floor of `key`: its greatest entry with a key `<= key`.
fn model_floor(model: &BTreeMap<Vec<u8>, Vec<u8>>, key: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    model
        .range::<[u8], _>((Bound::Unbounded, Bound::Included(key)))
        .next_back()
        .map(|(a, b)| (a.clone(), b.clone()))
}

/// The tree verifies clean and holds exactly the model's entries.
fn assert_verifies(tree: &BTree, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    let report = tree.verify().unwrap();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.entries, model.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let dir = tempdir().unwrap();
        // Tiny cache forces eviction/write-back during the test.
        let store = Arc::new(PageStore::open(dir.path().join("m.db"), 4).unwrap());
        let tree = BTree::open(store, 0).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut run_key = 0u32;

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::InsertWith(k, extra, fail) => {
                    let want = model_floor(&model, &k);
                    let mut seen = None;
                    let result = tree.insert_with(&k, |floor| {
                        seen = Some(floor.map(|(a, b)| (a.to_vec(), b.to_vec())));
                        if fail {
                            return Err(io::Error::other("refused"));
                        }
                        Ok(derived(floor, &extra))
                    });
                    prop_assert_eq!(seen, Some(want.clone()));
                    prop_assert_eq!(result.is_err(), fail);
                    if !fail {
                        let floor = want.as_ref().map(|(a, b)| (&a[..], &b[..]));
                        model.insert(k.clone(), derived(floor, &extra));
                    }
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Floor(k) => {
                    prop_assert_eq!(tree.seek_floor(&k).unwrap(), model_floor(&model, &k));
                }
                Op::Scan(mut lo, mut hi) => {
                    if lo > hi {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    let got: Vec<(Vec<u8>, Vec<u8>)> = tree
                        .scan(&lo, &hi)
                        .unwrap()
                        .map(|r| r.unwrap())
                        .collect();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range((Bound::Included(lo), Bound::Excluded(hi)))
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Bulk(entries) => {
                    for (k, vlen) in entries {
                        let v = vec![vlen as u8; vlen];
                        tree.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                }
                Op::Edge(pick, depth, above, vlen) => {
                    let Some(key) = model.keys().nth(pick % model.len().max(1)) else {
                        continue;
                    };
                    let Some(k) = edge_key(key, depth, above) else {
                        continue;
                    };
                    let v = vec![depth as u8; vlen];
                    tree.insert(&k, &v).unwrap();
                    model.insert(k, v);
                }
                Op::AppendRun(n, vlen) => {
                    for _ in 0..n {
                        let mut k = vec![RUN_PREFIX];
                        k.extend_from_slice(&run_key.to_be_bytes());
                        let v = vec![run_key as u8; vlen];
                        run_key += 1;
                        tree.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                }
            }
        }
        assert_verifies(&tree, &model);
        // Final full-scan equivalence.
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            tree.scan(&[], &[]).unwrap().map(|r| r.unwrap()).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn btree_survives_reopen(entries in proptest::collection::btree_map(
        key_strategy(), proptest::collection::vec(any::<u8>(), 0..70), 1..60)) {
        let dir = tempdir().unwrap();
        let path = dir.path().join("r.db");
        {
            let store = Arc::new(PageStore::open(&path, 8).unwrap());
            let tree = BTree::open(store.clone(), 0).unwrap();
            for (k, v) in &entries {
                tree.insert(k, v).unwrap();
            }
            store.sync().unwrap();
        }
        let store = Arc::new(PageStore::open(&path, 8).unwrap());
        let tree = BTree::open(store, 0).unwrap();
        assert_verifies(&tree, &entries);
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            tree.scan(&[], &[]).unwrap().map(|r| r.unwrap()).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            entries.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(got, want);
    }
}

/// Splits and shares decide where every cell lives, so a change to the
/// insert path that must not move them is held to the pages, leaves and
/// leaf bytes this fixed sequence produced before it: 5 000 inserts of
/// keys 4 to 32 bytes long (one in ten replacing an earlier key) with
/// values of 0 to 79 bytes, plus an overflow value every 500.
#[test]
fn split_decisions_are_pinned() {
    let dir = tempdir().unwrap();
    let store = Arc::new(PageStore::open(dir.path().join("p.db"), 16).unwrap());
    let tree = BTree::open(store, 0).unwrap();
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..5_000usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = if i % 10 == 9 {
            keys[(x % keys.len() as u64) as usize].clone()
        } else {
            let bytes: Vec<u8> = x.to_be_bytes().iter().cycle().take(32).copied().collect();
            bytes[..4 + (x >> 59) as usize % 29].to_vec()
        };
        let len = if i % 500 == 0 {
            3_000
        } else {
            (x >> 32) as usize % 80
        };
        tree.insert(&key, &vec![i as u8; len]).unwrap();
        keys.push(key);
    }
    let report = tree.verify().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(
        report.fill(),
        TreeFill {
            pages: 55,
            leaves: 44,
            leaf_live_bytes: 271_832,
        }
    );
}

/// Cells on both sides of each width boundary of their header: suffixes
/// of 30 to 32 bytes (the suffix length escapes its `head` from 31 on) and
/// of 158 and 159 (the rest after the escape outgrows one byte), each with
/// a value of 0, 1 or 2 bytes, of `MAX_INLINE_VALUE` bytes inline, and in
/// an overflow chain. Each key starts with a byte of its own, so every
/// leaf's first and last keys share nothing and each cell holds its whole
/// key as its suffix. Every entry reads back by `get` and by a scan, and
/// the tree verifies, also after a reopen.
#[test]
fn cells_at_the_header_boundaries_read_back() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("h.db");
    let mut model = BTreeMap::new();
    let mut first = 0u8;
    for slen in [30, 31, 32, 158, 159] {
        for vlen in [0, 1, 2, MAX_INLINE_VALUE, MAX_INLINE_VALUE + 1] {
            model.insert(vec![first; slen], vec![first ^ 0x5A; vlen]);
            first += 1;
        }
    }
    let check = |tree: &BTree| {
        for (key, value) in &model {
            assert_eq!(
                tree.get(key).unwrap().as_ref(),
                Some(value),
                "{}",
                key.len()
            );
        }
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = tree
            .scan(&[], &[])
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
        assert!(scanned == want);
        let report = tree.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.entries, model.len() as u64);
    };
    {
        let store = Arc::new(PageStore::open(&path, 16).unwrap());
        let tree = BTree::open(store.clone(), 0).unwrap();
        // Inserted out of key order.
        for (key, value) in model.iter().rev() {
            tree.insert(key, value).unwrap();
        }
        check(&tree);
        store.sync().unwrap();
    }
    let store = Arc::new(PageStore::open(&path, 16).unwrap());
    check(&BTree::open(store, 0).unwrap());
}

/// `n` distinct eight-byte keys in an order fixed by `seed`: ascending
/// when `seed` is 0, else shuffled uniformly.
fn keys_in_order(n: u64, seed: u64) -> Vec<[u8; 8]> {
    let mut keys: Vec<u64> = (0..n).map(|i| i * 2_654_435_761 % (1 << 40)).collect();
    keys.sort_unstable();
    let mut x = seed;
    for i in (1..keys.len()).rev() {
        if seed == 0 {
            break;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.swap(i, (x % (i as u64 + 1)) as usize);
    }
    keys.iter().map(|k| k.to_be_bytes()).collect()
}

/// Uniformly spread inserts fill leaves in step; shares and splits into
/// three keep them about four fifths full, where 50/50 splits left them at
/// about 71 %. Ascending inserts still fill every leaf but the last.
#[test]
fn leaves_stay_full_under_uniform_and_ascending_inserts() {
    for (seed, least) in [(0x2545_F491_4F6C_DD1D, 0.78), (0, 0.97)] {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("f.db"), 64).unwrap());
        let tree = BTree::open(store, 0).unwrap();
        for key in keys_in_order(100_000, seed) {
            tree.insert(&key, &key[4..]).unwrap();
        }
        let report = tree.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.entries, 100_000);
        let fill = report.fill();
        assert!(fill.leaf_fill() >= least, "seed {seed:#x}: {fill}");
    }
}
