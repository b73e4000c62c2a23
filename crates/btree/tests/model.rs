//! Property tests: the page-backed B+Tree must behave exactly like an
//! in-memory `BTreeMap<Vec<u8>, Vec<u8>>` under arbitrary operation
//! sequences — lookups, floor lookups and range scans included — and pass
//! `verify()` after every case. Keys and values cross the lengths where a
//! leaf cell's header varints widen, values cross the overflow threshold,
//! and ascending runs past the largest key drive the append split.

use btree::BTree;
use pagestore::PageStore;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use tempfile::tempdir;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Floor(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
    /// Inserts this many ascending keys, each past every key in the tree,
    /// with values of the given length.
    AppendRun(usize, usize),
}

/// First byte of an [`Op::AppendRun`] key: above every `key_strategy` key.
const RUN_PREFIX: u8 = 4;

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and length so operations collide often, plus keys of
    // 127 and 128 bytes (where `klen` outgrows one varint byte) and of
    // MAX_KEY bytes, padded with their first byte so they collide too.
    let short = || proptest::collection::vec(0u8..RUN_PREFIX, 1..5);
    prop_oneof![
        short(),
        short(),
        short(),
        (short(), prop_oneof![Just(127usize), Just(128), Just(512)]).prop_map(|(mut k, len)| {
            let pad = k[0];
            k.resize(len, pad);
            k
        }),
    ]
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Random lengths, plus both sides of 63/64 (where `vlen << 1` outgrows
    // one varint byte) and of 1024/1025 (MAX_INLINE_VALUE: overflow).
    let edge = prop_oneof![
        Just(62usize),
        Just(63),
        Just(64),
        Just(65),
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
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Get),
        key_strategy().prop_map(Op::Floor),
        (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Scan(a, b)),
        (50usize..700, 0usize..70).prop_map(|(n, vlen)| Op::AppendRun(n, vlen)),
    ]
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
                Op::Remove(k) => {
                    let was = tree.remove(&k).unwrap();
                    prop_assert_eq!(was, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Floor(k) => {
                    let got = tree.seek_floor(&k).unwrap();
                    let want = model
                        .range((Bound::Unbounded, Bound::Included(k)))
                        .next_back()
                        .map(|(a, b)| (a.clone(), b.clone()));
                    prop_assert_eq!(got, want);
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
