//! The whole text of a consistency report over damaged stores, pinned
//! byte for byte: which findings appear, in which order, under which check
//! names and with which details, and the fill lines after them. A change to
//! the audit stack that only restructures it must leave this text alone.

use check::{check_stores, CheckLevel};
use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
use pagestore::{PageStore, PAGE_SIZE};
use std::path::Path;
use tempfile::tempdir;
use timestore::{TimeStore, TimeStoreConfig};

// Raw slotted-page layout (`btree::layout`): integers little-endian, a
// leaf cell starts `varint klen, varint (vlen << 1 | overflow)`.
const LEAF: u8 = 1;
const NCELLS_OFF: usize = 2;
const SLOTS_OFF: usize = 16;

fn read_u16(b: &[u8], off: usize) -> usize {
    u16::from_le_bytes([b[off], b[off + 1]]) as usize
}

/// `(klen, offset of the key)` of the leaf cell at `off`; both varints of
/// the header are one byte for the small cells this test looks at.
fn leaf_key(b: &[u8], off: usize) -> (usize, usize) {
    (b[off] as usize, off + 2)
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
/// adjacent versions of one entity, the second takes the first's
/// timestamp (an overlapping chain entry); in the last leaf with two
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
        for i in 0..read_u16(&file, base + NCELLS_OFF).saturating_sub(1) {
            let (alen, a) = cell(&file, base, i);
            let (blen, b) = cell(&file, base, i + 1);
            if alen == 16 && blen == 16 && file[a..a + 8] == file[b..b + 8] {
                let ts = file[a + 8..a + 16].to_vec();
                file[b + 8..b + 16].copy_from_slice(&ts);
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
/// free list does not hold, and syncs so the file still verifies against
/// its checksum sidecar at the next open.
fn leak_page(path: &Path) {
    let store = PageStore::open(path, 16).unwrap();
    store.allocate().unwrap();
    store.sync().unwrap();
}

const PINNED: &str = concat!(
    "consistency check (level deep): 4 violation(s)\n",
    "  lineagestore nodes/structure: [key-order] page 1: keys out of order: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1] !< [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]\n",
    "  lineagestore in-neighbours/structure: [key-order] page 4: keys out of order: [1, 2, 1, 1, 1, 2, 1, 5] !< [1, 1, 0, 1, 1, 1, 3]\n",
    "  lineagestore pages/accounting: 1 page(s) neither reachable nor free (first: 5)\n",
    "  lineagestore chain/interval: node 0: version at ts 1 overlaps predecessor at ts 1\n",
    "index pages and leaf fill:\n",
    "  lineagestore nodes: 1 pages, 1 leaves, leaf fill 27.8 %\n",
    "  lineagestore rels: 1 pages, 1 leaves, leaf fill 14.5 %\n",
    "  lineagestore out-neighbours: 1 pages, 1 leaves, leaf fill 6.4 %\n",
    "  lineagestore in-neighbours: 1 pages, 1 leaves, leaf fill 6.4 %\n",
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
    let report = check_stores(&ts, &ls, CheckLevel::Deep).unwrap();
    assert_eq!(report.to_string(), PINNED);
}
