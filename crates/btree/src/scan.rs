//! Ordered range scans over the leaf sibling chain.
//!
//! The LineageStore is range-scan heavy: it reconstructs entity history
//! with `nodes.seek(low, high)` (Sec. 4.4). The scan copies one leaf's matching
//! entries at a time, so no page stays pinned between iterator steps.
//!
//! Each leaf is read from the first key past the last one the scan took,
//! not from its first cell: a share moves a leaf's tail to the head of the
//! next leaf, writing that leaf first, so a scan that read the tail where
//! it was meets it again where it went.

use crate::layout;
use crate::tree::{BTree, Value};
use pagestore::{PageBuf, PageId};
use std::collections::VecDeque;
use std::io;

/// Where a scan reads the next leaf from: `low` itself at the start, then
/// just past the last key taken.
struct Resume {
    key: Vec<u8>,
    inclusive: bool,
}

impl Resume {
    fn new(low: &[u8]) -> Resume {
        Resume {
            key: low.to_vec(),
            inclusive: true,
        }
    }

    /// The first cell of leaf `p` the scan takes.
    fn start(&self, p: &PageBuf) -> usize {
        match layout::leaf_search(p, &self.key) {
            Ok(i) if !self.inclusive => i + 1,
            Ok(i) | Err(i) => i,
        }
    }

    /// Moves past `key`, the last key taken.
    fn past(&mut self, key: &[u8]) {
        self.key.clear();
        self.key.extend_from_slice(key);
        self.inclusive = false;
    }
}

/// Iterator over `[low, high)` in key order. `high = []` means unbounded.
pub struct Scan {
    tree: BTree,
    next_leaf: PageId,
    resume: Resume,
    high: Vec<u8>,
    buffer: VecDeque<(Vec<u8>, Vec<u8>)>,
    done: bool,
}

impl Scan {
    pub(crate) fn new(
        tree: BTree,
        start_leaf: PageId,
        low: &[u8],
        high: &[u8],
    ) -> io::Result<Scan> {
        let mut s = Scan {
            tree,
            next_leaf: start_leaf,
            resume: Resume::new(low),
            high: high.to_vec(),
            buffer: VecDeque::new(),
            done: false,
        };
        s.fill()?;
        Ok(s)
    }

    /// Buffers the next leaf's entries past the resume point and `< high`.
    ///
    /// Each matching cell's key and inline value (or overflow head) are
    /// copied under the same page read as the sibling link, so a concurrent
    /// insert, split or share cannot skip or swap entries: they only move
    /// keys right, into pages the link still leads to, and the resume
    /// point skips the keys met again there. Overflow chains are followed
    /// after the page is released, and that is not safe against every
    /// writer: `BTree::insert` frees the chain of a value it replaces, so
    /// a scan that copied the old head can follow freed, even reused,
    /// pages. Only replacing an overflow value races this way; inserting
    /// new keys, splitting and sharing do not.
    fn fill(&mut self) -> io::Result<()> {
        while self.buffer.is_empty() && !self.done {
            if self.next_leaf.is_null() {
                self.done = true;
                return Ok(());
            }
            let (cells, sibling, past_high) = self.tree.store().read(self.next_leaf, |p| {
                let n = layout::ncells(p);
                let start = self.resume.start(p);
                let mut cells = Vec::new();
                let mut past = false;
                for i in start..n {
                    let cell = layout::leaf_cell(p, i);
                    if !self.high.is_empty() && cell.key.cmp_to(&self.high).is_ge() {
                        past = true;
                        break;
                    }
                    cells.push((cell.key.to_vec(), Value::copy(&cell)));
                }
                (cells, layout::link(p), past)
            })?;
            if let Some((key, _)) = cells.last() {
                self.resume.past(key);
            }
            for (key, value) in cells {
                self.buffer.push_back((key, self.tree.resolve(value)?));
            }
            if past_high {
                self.done = true;
            } else {
                self.next_leaf = PageId(sibling);
            }
        }
        Ok(())
    }
}

impl Iterator for Scan {
    type Item = io::Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffer.is_empty() {
            if self.done {
                return None;
            }
            if let Err(e) = self.fill() {
                self.done = true;
                return Some(Err(e));
            }
        }
        self.buffer.pop_front().map(Ok)
    }
}

/// Key-only iterator over `[low, high)` in key order.
///
/// Unlike [`Scan`] this never touches values or overflow chains: keys are
/// copied straight out of each leaf while it is mapped. Index-style
/// consumers (streaming executors walking `(entity, ts)` keys and resolving
/// state lazily per entity) pay one page read per leaf instead of one per
/// entry.
pub struct KeyScan {
    tree: BTree,
    next_leaf: PageId,
    resume: Resume,
    high: Vec<u8>,
    buffer: VecDeque<Vec<u8>>,
    done: bool,
}

impl KeyScan {
    pub(crate) fn new(
        tree: BTree,
        start_leaf: PageId,
        low: &[u8],
        high: &[u8],
    ) -> io::Result<KeyScan> {
        let mut s = KeyScan {
            tree,
            next_leaf: start_leaf,
            resume: Resume::new(low),
            high: high.to_vec(),
            buffer: VecDeque::new(),
            done: false,
        };
        s.fill()?;
        Ok(s)
    }

    /// Buffers the next leaf's keys past the resume point and `< high`,
    /// as [`Scan`] does.
    fn fill(&mut self) -> io::Result<()> {
        while self.buffer.is_empty() && !self.done {
            if self.next_leaf.is_null() {
                self.done = true;
                return Ok(());
            }
            let leaf = self.next_leaf;
            let (keys, sibling, past_high) = self.tree.store().read(leaf, |p| {
                let n = layout::ncells(p);
                let start = self.resume.start(p);
                let mut keys = Vec::new();
                let mut past = false;
                for i in start..n {
                    let key = layout::leaf_key(p, i);
                    if !self.high.is_empty() && key.cmp_to(&self.high).is_ge() {
                        past = true;
                        break;
                    }
                    keys.push(key.to_vec());
                }
                (keys, layout::link(p), past)
            })?;
            if let Some(key) = keys.last() {
                self.resume.past(key);
            }
            self.buffer.extend(keys);
            if past_high {
                self.done = true;
            } else {
                self.next_leaf = PageId(sibling);
            }
        }
        Ok(())
    }
}

impl Iterator for KeyScan {
    type Item = io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffer.is_empty() {
            if self.done {
                return None;
            }
            if let Err(e) = self.fill() {
                self.done = true;
                return Some(Err(e));
            }
        }
        self.buffer.pop_front().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use pagestore::PageStore;
    use std::sync::Arc;
    use tempfile::tempdir;

    fn tree() -> (tempfile::TempDir, BTree) {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store, 0).unwrap();
        (dir, t)
    }

    fn k(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn scan_empty_tree() {
        let (_d, t) = tree();
        assert_eq!(t.scan(&[], &[]).unwrap().count(), 0);
    }

    #[test]
    fn scan_respects_bounds() {
        let (_d, t) = tree();
        for i in 0..100u32 {
            t.insert(&k(i), &k(i * 2)).unwrap();
        }
        let got: Vec<u32> = t
            .scan(&k(10), &k(20))
            .unwrap()
            .map(|r| u32::from_be_bytes(r.unwrap().0.try_into().unwrap()))
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        // Unbounded high.
        assert_eq!(t.scan(&k(95), &[]).unwrap().count(), 5);
        // Low past everything.
        assert_eq!(t.scan(&k(1000), &[]).unwrap().count(), 0);
    }

    #[test]
    fn scan_across_many_leaves_in_order() {
        let (_d, t) = tree();
        let n = 5_000u32;
        // Insert in reverse to exercise splits with front insertion.
        for i in (0..n).rev() {
            t.insert(&k(i), &i.to_le_bytes()).unwrap();
        }
        assert!(t.height().unwrap() > 1, "should have split");
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        for r in t.scan(&[], &[]).unwrap() {
            let (key, val) = r.unwrap();
            if let Some(p) = &prev {
                assert!(p < &key, "keys must be strictly increasing");
            }
            let i = u32::from_be_bytes(key.as_slice().try_into().unwrap());
            assert_eq!(val, i.to_le_bytes());
            prev = Some(key);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn key_scan_matches_full_scan() {
        let (_d, t) = tree();
        let big = vec![0xABu8; 2_000]; // force overflow values
        for i in 0..500u32 {
            let v: &[u8] = if i % 7 == 0 { &big } else { b"v" };
            t.insert(&k(i), v).unwrap();
        }
        let keys: Vec<Vec<u8>> = t
            .scan_keys(&k(10), &k(400))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let full: Vec<Vec<u8>> = t
            .scan(&k(10), &k(400))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(keys, full);
        assert_eq!(t.scan_keys(&k(1000), &[]).unwrap().count(), 0);
        assert_eq!(t.scan_keys(&[], &[]).unwrap().count(), 500);
    }
}
