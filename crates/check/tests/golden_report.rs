//! The whole text of a consistency report over damaged stores, pinned
//! byte for byte: which findings appear, in which order, under which check
//! names and with which details, and the fill and snapshot lines after
//! them. A change to the audit stack that only restructures it must leave
//! this text alone.

use check::{check_stores, CheckLevel};
use encoding::keys::decode_history_key;
use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
use pagestore::{PageStore, PAGE_SIZE};
use std::path::Path;
use tempfile::tempdir;
use timestore::{TimeStore, TimeStoreConfig};

// Raw slotted-page layout (`btree::layout`): integers little-endian, a
// leaf cell starts `varint head`, `head = (vlen << 1 | overflow) << 5 |
// slen` for a suffix under 31 bytes, then the key's suffix; the leaf's
// prefix is the page's last `u16 at 6` bytes.
const LEAF: u8 = 1;
const NCELLS_OFF: usize = 2;
const PREFIX_LEN_OFF: usize = 6;
const SLOTS_OFF: usize = 16;

fn read_u16(b: &[u8], off: usize) -> usize {
    u16::from_le_bytes([b[off], b[off + 1]]) as usize
}

/// `(slen, offset of the suffix)` of the leaf cell at `off`; the small
/// cells this test looks at have a suffix under 31 bytes and a `head` of
/// one or two bytes.
fn leaf_key(b: &[u8], off: usize) -> (usize, usize) {
    let len = if b[off] < 0x80 { 1 } else { 2 };
    (usize::from(b[off] & 31), off + len)
}

/// The prefix of the leaf page starting at `base`.
fn leaf_prefix(b: &[u8], base: usize) -> &[u8] {
    &b[base + PAGE_SIZE - read_u16(b, base + PREFIX_LEN_OFF)..base + PAGE_SIZE]
}

fn open_stores(dir: &Path) -> (TimeStore, LineageStore) {
    let ts = TimeStore::open(dir.join("timestore"), TimeStoreConfig::default()).unwrap();
    let ls = LineageStore::open(dir.join("lineage.db"), LineageStoreConfig::default()).unwrap();
    (ts, ls)
}

/// 40 nodes in a chain of relationships, then property churn on the first
/// six nodes, so every entity index holds runs of one entity's versions.
fn seed(ts: &TimeStore, ls: &LineageStore) {
    let mut t = 0u64;
    let mut commit = |ops: Vec<Update>| {
        t += 1;
        ts.append_commit(t, &ops).unwrap();
        ls.apply_commit(t, &ops).unwrap();
    };
    for i in 0..40u64 {
        commit(vec![Update::AddNode {
            id: NodeId::new(i),
            labels: vec![StrId::new(0)],
            props: vec![],
        }]);
        if i > 0 {
            commit(vec![Update::AddRel {
                id: RelId::new(i),
                src: NodeId::new(i - 1),
                tgt: NodeId::new(i),
                label: Some(StrId::new(1)),
                props: vec![],
            }]);
        }
    }
    for round in 0..6u64 {
        for node in 0..6u64 {
            commit(vec![Update::SetNodeProp {
                id: NodeId::new(node),
                key: StrId::new(2),
                value: PropertyValue::Int((round * 10 + node) as i64),
            }]);
        }
    }
    ts.sync().unwrap();
    ls.sync().unwrap();
}

/// Damages the lineage file in two leaves: in the first leaf holding two
/// adjacent versions of one entity whose timestamps are as wide, the
/// second takes the first's timestamp (an overlapping chain entry); in
/// the last leaf with two
/// cells, the first two slot-directory entries swap (keys out of order).
fn damage_lineage(path: &Path) {
    let vfs = LineageStoreConfig::default().vfs;
    let mut file = vfs.read(path).unwrap();
    let leaves: Vec<usize> = (1..file.len() / PAGE_SIZE)
        .filter(|p| file[p * PAGE_SIZE] == LEAF)
        .collect();
    let cell = |file: &[u8], base: usize, i: usize| {
        leaf_key(file, base + read_u16(file, base + SLOTS_OFF + i * 2))
    };
    let mut overlap_page = None;
    'pages: for &page in &leaves {
        let base = page * PAGE_SIZE;
        let prefix = leaf_prefix(&file, base).to_vec();
        for i in 0..read_u16(&file, base + NCELLS_OFF).saturating_sub(1) {
            let (alen, a) = cell(&file, base, i);
            let (blen, b) = cell(&file, base, i + 1);
            let (ka, kb) = (&file[a..a + alen], &file[b..b + blen]);
            let whole = |suffix: &[u8]| decode_history_key(&[&prefix, suffix].concat());
            let same_entity = match (whole(ka), whole(kb)) {
                (Some((ida, _)), Some((idb, _))) => ida == idb,
                _ => false,
            };
            // Equal lengths: the two timestamps have as many bytes, so the
            // second key can take the first's in place.
            if same_entity && alen == blen {
                let ka = ka.to_vec();
                file[b..b + blen].copy_from_slice(&ka);
                overlap_page = Some(page);
                break 'pages;
            }
        }
    }
    let overlap_page = overlap_page.expect("property churn leaves adjacent versions");
    let swap_page = *leaves
        .iter()
        .rev()
        .find(|&&p| p != overlap_page && read_u16(&file, p * PAGE_SIZE + NCELLS_OFF) >= 2)
        .expect("a second leaf with two cells");
    let s = swap_page * PAGE_SIZE + SLOTS_OFF;
    file.swap(s, s + 2);
    file.swap(s + 1, s + 3);
    vfs.write(path, &file).unwrap();
}

/// Allocates one page of the lineage file that no tree reaches and the
/// free list does not hold, and syncs so the seal on its meta page still
/// verifies at the next open.
fn leak_page(path: &Path) {
    let store = PageStore::open(path, 16).unwrap();
    store.allocate().unwrap();
    store.sync().unwrap();
}

const PINNED: &str = concat!(
    "consistency check (level full): 5 violation(s)\n",
    "  lineagestore nodes/structure: [key-order] page 1: keys out of order: [0, 1, 1] !< [0, 1, 1]\n",
    "  lineagestore in-neighbours/structure: [key-order] page 4: keys out of order: [1, 2, 1, 1, 1, 2, 1, 5] !< [1, 1, 0, 1, 1, 1, 3]\n",
    "  lineagestore pages/accounting: 1 page(s) neither reachable nor free (first: 5)\n",
    "  cross-store differential: nodes key [0, 1, 1]: the store holds [8, 79, 1, 0, 1, 2, 0, 0, 32, 0], its rebuild from the log up to ts 115 holds nothing\n",
    "  cross-store differential: in-neighbours key [1, 1, 0, 1, 1, 1, 3]: the store holds nothing, its rebuild from the log up to ts 115 holds []\n",
    "index pages and leaf fill:\n",
    "  lineagestore nodes: 1 pages, 1 leaves, leaf fill 15.5 %\n",
    "  lineagestore rels: 1 pages, 1 leaves, leaf fill 7.3 %\n",
    "  lineagestore out-neighbours: 1 pages, 1 leaves, leaf fill 5.4 %\n",
    "  lineagestore in-neighbours: 1 pages, 1 leaves, leaf fill 5.0 %\n",
    "snapshot bytes: 0 files, 0 B: node bases 0 B, patches 0 B in 0, relationship segments 0 B, manifests 0 B; the newest manifest 0 B, runs 0 inline and 0 referenced\n",
);

#[test]
fn damaged_stores_report_matches_the_pinned_text() {
    let dir = tempdir().unwrap();
    {
        let (ts, ls) = open_stores(dir.path());
        seed(&ts, &ls);
    }
    leak_page(&dir.path().join("lineage.db"));
    damage_lineage(&dir.path().join("lineage.db"));

    let (ts, ls) = open_stores(dir.path());
    let report = check_stores(&ts, &ls, CheckLevel::Full).unwrap();
    assert_eq!(report.to_string(), PINNED);
}
