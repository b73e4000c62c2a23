//! Point reads racing inserts. One thread inserts random odd keys among
//! 20 000 even ones, which splits and shares leaves all over the tree,
//! while another calls `get` on even keys and `seek_floor` on odd probes.
//! Every `get` must find its even key with its value, and every floor of
//! an odd probe `2j + 1` must be `2j` or the probe itself, with its value:
//! an insert or a leaf split never hides an entry that was there before
//! the read started, nor hands out another entry's value.

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

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn point_reads_find_every_entry_while_inserts_split_leaves() {
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
                let k = 2 * (xorshift(&mut x) % EVENS) + 1;
                tree.insert(&key(k), &value(k)).unwrap();
                inserted += 1;
            }
            inserted
        })
    };

    let deadline = Instant::now() + BUDGET;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut reads = 0u64;
    while Instant::now() < deadline {
        for _ in 0..256 {
            let even = 2 * (xorshift(&mut x) % EVENS);
            assert_eq!(
                tree.get(&key(even)).unwrap(),
                Some(value(even)),
                "get of key {even}"
            );
            let probe = even + 1;
            let (k, v) = tree
                .seek_floor(&key(probe))
                .unwrap()
                .unwrap_or_else(|| panic!("no floor for probe {probe}"));
            let k = u64::from_be_bytes(k.as_slice().try_into().expect("8-byte key"));
            assert!(k == even || k == probe, "floor of {probe} is {k}");
            assert_eq!(v, value(k), "value of floor {k}");
            reads += 2;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let inserted = writer.join().unwrap();
    assert!(
        reads > 0 && inserted > 0,
        "{reads} reads, {inserted} inserts"
    );
}
