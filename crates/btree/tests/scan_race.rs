//! Scans racing inserts. One thread inserts random odd keys among 20 000
//! even ones, splitting leaves all over the tree, while another scans the
//! whole tree again and again. Every scan must return strictly increasing
//! keys with their own values and every even key exactly once: a scan may
//! or may not see an odd key inserted while it runs, but it never repeats,
//! skips or swaps the entries that were there before it started.

use btree::BTree;
use pagestore::PageStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EVENS: u64 = 20_000;
const BUDGET: Duration = Duration::from_secs(2);

fn key(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// 1 to 24 bytes, so cells differ in size and splits land anywhere.
fn value(k: u64) -> Vec<u8> {
    let len = 1 + (k % 24) as usize;
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_le_bytes()
        .iter()
        .cycle()
        .take(len)
        .copied()
        .collect()
}

/// Checks one scan's keys (and values, when it read them).
fn check(entries: impl Iterator<Item = (Vec<u8>, Option<Vec<u8>>)>) {
    let mut prev: Option<u64> = None;
    let mut evens = 0;
    for (k, v) in entries {
        let k = u64::from_be_bytes(k.as_slice().try_into().expect("8-byte key"));
        assert!(prev.is_none_or(|p| p < k), "key {k} after {prev:?}");
        if let Some(v) = v {
            assert_eq!(v, value(k), "value of key {k}");
        }
        if k % 2 == 0 {
            assert_eq!(k, 2 * evens, "even keys skipped or repeated");
            evens += 1;
        }
        prev = Some(k);
    }
    assert_eq!(evens, EVENS, "even keys missing at the end");
}

#[test]
fn scans_see_every_entry_once_while_inserts_split_leaves() {
    let dir = tempfile::tempdir().unwrap();
    let store = Arc::new(PageStore::open(dir.path().join("t.db"), 256).unwrap());
    let tree = BTree::open(store, 0).unwrap();
    for i in 0..EVENS {
        tree.insert(&key(2 * i), &value(2 * i)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (tree, stop) = (tree.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let mut inserted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = 2 * (x % EVENS) + 1;
                tree.insert(&key(k), &value(k)).unwrap();
                inserted += 1;
            }
            inserted
        })
    };

    let deadline = Instant::now() + BUDGET;
    let mut scans = 0u64;
    while Instant::now() < deadline {
        if scans.is_multiple_of(2) {
            check(
                tree.scan(&[], &[])
                    .unwrap()
                    .map(|e| e.unwrap())
                    .map(|(k, v)| (k, Some(v))),
            );
        } else {
            check(
                tree.scan_keys(&[], &[])
                    .unwrap()
                    .map(|k| (k.unwrap(), None)),
            );
        }
        scans += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let inserted = writer.join().unwrap();
    assert!(
        scans >= 2 && inserted > 0,
        "{scans} scans, {inserted} inserts"
    );
    // And once the writer is done, the tree holds exactly what it wrote.
    check(
        tree.scan(&[], &[])
            .unwrap()
            .map(|e| e.unwrap())
            .map(|(k, v)| (k, Some(v))),
    );
}
