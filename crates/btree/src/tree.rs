//! The B+Tree proper: descent, splits, upserts, lazy deletes and floor
//! lookups.

use crate::layout::{self, INTERNAL, LEAF};
use crate::overflow;
use crate::scan::{KeyScan, Scan};
use pagestore::{PageBuf, PageId, PageStore, PAGE_SIZE};
use std::io;
use std::sync::Arc;

/// Maximum key length in bytes. Composite keys (Table 2) are at most
/// 36 bytes, so this is generous.
pub const MAX_KEY: usize = 512;

/// Values larger than this are spilled to overflow pages.
pub const MAX_INLINE_VALUE: usize = 1024;

/// A B+Tree rooted at one of the page-store meta slots. Clone freely — all
/// clones share the same underlying store and root slot.
///
/// ```
/// use btree::BTree;
/// use pagestore::PageStore;
/// use std::sync::Arc;
///
/// let dir = tempfile::tempdir().unwrap();
/// let store = Arc::new(PageStore::open(dir.path().join("db"), 64).unwrap());
/// let tree = BTree::open(store, 0).unwrap();
/// tree.insert(b"key-2", b"two").unwrap();
/// tree.insert(b"key-1", b"one").unwrap();
/// assert_eq!(tree.get(b"key-1").unwrap().as_deref(), Some(&b"one"[..]));
/// // Ordered range scan over [key-1, key-3).
/// let keys: Vec<Vec<u8>> = tree
///     .scan(b"key-1", b"key-3").unwrap()
///     .map(|r| r.unwrap().0)
///     .collect();
/// assert_eq!(keys, vec![b"key-1".to_vec(), b"key-2".to_vec()]);
/// // Floor lookup: greatest key <= probe.
/// assert_eq!(tree.seek_floor(b"key-20").unwrap().unwrap().0, b"key-2".to_vec());
/// ```
#[derive(Clone)]
pub struct BTree {
    store: Arc<PageStore>,
    slot: usize,
    metrics: Metrics,
}

/// Process-wide metric handles, fetched once per tree so descent and
/// split paths only pay a relaxed atomic op.
#[derive(Clone)]
struct Metrics {
    page_reads: Arc<obs::Counter>,
    splits: Arc<obs::Counter>,
    overflow_walks: Arc<obs::Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            page_reads: obs::counter("btree.page.reads"),
            splits: obs::counter("btree.splits"),
            overflow_walks: obs::counter("btree.overflow.walks"),
        }
    }
}

impl BTree {
    /// Opens the tree persisted in meta `slot`, creating an empty root leaf
    /// on first use.
    pub fn open(store: Arc<PageStore>, slot: usize) -> io::Result<BTree> {
        if store.root(slot) == u64::MAX {
            let root = store.allocate()?;
            store.write(root, |p| layout::init(p, LEAF))?;
            store.set_root(slot, root.0);
        }
        Ok(BTree {
            store,
            slot,
            metrics: Metrics::new(),
        })
    }

    /// The shared page store (for size accounting).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The meta slot holding this tree's root pointer.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    fn root(&self) -> PageId {
        PageId(self.store.root(self.slot))
    }

    /// Descends to the leaf covering `key`; returns the path of internal
    /// `(page, taken_child_index)` pairs and the leaf page.
    fn descend(&self, key: &[u8]) -> io::Result<(Vec<(PageId, isize)>, PageId)> {
        let mut path = Vec::new();
        let mut page = self.root();
        loop {
            let (is_leaf, step) = self.store.read(page, |p| {
                if layout::node_type(p) == LEAF {
                    (true, (0, 0))
                } else {
                    let (idx, child) = layout::internal_descend(p, key);
                    (false, (idx, child))
                }
            })?;
            self.metrics.page_reads.inc();
            if is_leaf {
                return Ok((path, page));
            }
            path.push((page, step.0));
            page = PageId(step.1);
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let (_, leaf) = self.descend(key)?;
        enum Hit {
            Miss,
            Inline(Vec<u8>),
            Overflow(PageId),
        }
        let hit = self
            .store
            .read(leaf, |p| match layout::leaf_search(p, key) {
                Ok(i) => {
                    let cell = layout::leaf_cell(p, i);
                    if cell.is_overflow() {
                        Hit::Overflow(PageId(cell.overflow_page()))
                    } else {
                        Hit::Inline(cell.inline.to_vec())
                    }
                }
                Err(_) => Hit::Miss,
            })?;
        match hit {
            Hit::Miss => Ok(None),
            Hit::Inline(v) => Ok(Some(v)),
            Hit::Overflow(head) => {
                self.metrics.overflow_walks.inc();
                let mut out = Vec::new();
                overflow::read_chain(&self.store, head, &mut out)?;
                Ok(Some(out))
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> io::Result<bool> {
        let (_, leaf) = self.descend(key)?;
        self.store
            .read(leaf, |p| layout::leaf_search(p, key).is_ok())
    }

    /// Inserts or replaces `key → value`.
    ///
    /// A full leaf splits 50/50, except the rightmost leaf when `key` sorts
    /// after all of its cells: ascending inserts (relationship ids, commit
    /// timestamps) then start a new rightmost leaf holding just `key` and
    /// leave the full leaf full, where a 50/50 split would leave a
    /// half-empty leaf behind that no later insert fills.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        assert!(key.len() <= MAX_KEY, "key too large");
        let vlen = value.len() as u32;
        let overflow = value.len() > MAX_INLINE_VALUE;
        let head;
        let inline: &[u8] = if overflow {
            head = overflow::write_chain(&self.store, value)?.0.to_le_bytes();
            &head
        } else {
            value
        };
        let (mut path, leaf) = self.descend(key)?;

        let needed = layout::leaf_cell_size(key.len(), value.len(), overflow) + 2;
        let insert_cell = |p: &mut PageBuf| {
            if layout::free_space(p) < needed {
                layout::compact(p);
            }
            // Any cell for `key` was removed first, so the search can only
            // miss; fold both arms to stay panic-free regardless.
            let i = match layout::leaf_search(p, key) {
                Ok(i) | Err(i) => i,
            };
            layout::leaf_insert(p, i, overflow, key, vlen, inline);
        };
        // One touch of the leaf: drop the cell `key` replaces (its chain is
        // freed below), then insert if the new cell fits. Otherwise the leaf
        // splits, and `appends` says whether `key` starts a new rightmost
        // leaf.
        let (split, old_overflow) = self.store.write(leaf, |p| {
            let old_overflow = layout::leaf_search(p, key).ok().and_then(|i| {
                let cell = layout::leaf_cell(p, i);
                let ovf = cell.is_overflow().then(|| PageId(cell.overflow_page()));
                layout::leaf_remove(p, i);
                ovf
            });
            if layout::free_space(p) >= needed || layout::live_bytes(p) + needed <= PAGE_SIZE {
                insert_cell(p);
                return (None, old_overflow);
            }
            let n = layout::ncells(p);
            let appends = layout::link(p) == u64::MAX && n > 0 && layout::leaf_key(p, n - 1) < key;
            (Some(appends), old_overflow)
        })?;
        if let Some(head) = old_overflow {
            overflow::free_chain(&self.store, head)?;
        }
        let Some(appends) = split else {
            return Ok(());
        };

        let (sep, new_leaf) = if appends {
            self.metrics.splits.inc();
            let new_leaf = self.store.allocate()?;
            self.store.write(new_leaf, |p| {
                layout::init(p, LEAF);
                insert_cell(p);
            })?;
            self.store
                .write(leaf, |p| layout::set_link(p, new_leaf.0))?;
            (key.to_vec(), new_leaf)
        } else {
            // Split the leaf and insert into the correct half.
            let (sep, new_leaf) = self.split_leaf(leaf)?;
            let target = if key < sep.as_slice() { leaf } else { new_leaf };
            self.store.write(target, insert_cell)?;
            (sep, new_leaf)
        };
        self.insert_into_parent(&mut path, sep, new_leaf)
    }

    /// Splits `leaf` at half its live bytes, returning the separator key
    /// and the new right sibling.
    ///
    /// The new sibling is written in full before `leaf` drops the moved
    /// cells and links to it in one write, so a concurrent scan sees every
    /// cell either in `leaf` or down its link.
    fn split_leaf(&self, leaf: PageId) -> io::Result<(Vec<u8>, PageId)> {
        self.metrics.splits.inc();
        let new_page = self.store.allocate()?;
        let (split_at, moved, old_sibling) = self.store.read(leaf, |p| {
            let n = layout::ncells(p);
            debug_assert!(n >= 2);
            let total = layout::live_bytes(p);
            let mut acc = 0;
            let mut split_at = n / 2;
            for i in 0..n {
                acc += layout::leaf_cell_bytes(p, i).len() + 2;
                if acc >= total / 2 {
                    split_at = (i + 1).clamp(1, n - 1);
                    break;
                }
            }
            let cells: Vec<Vec<u8>> = (split_at..n)
                .map(|i| layout::leaf_cell_bytes(p, i).to_vec())
                .collect();
            (split_at, cells, layout::link(p))
        })?;
        self.store.write(new_page, |p| {
            layout::init(p, LEAF);
            layout::set_link(p, old_sibling);
            for (i, raw) in moved.iter().enumerate() {
                layout::leaf_insert_raw(p, i, raw);
            }
        })?;
        #[cfg(test)]
        tests::before_split_link(self);
        self.store.write(leaf, |p| {
            layout::truncate(p, split_at);
            layout::compact(p);
            layout::set_link(p, new_page.0);
        })?;
        let sep = self
            .store
            .read(new_page, |p| layout::leaf_key(p, 0).to_vec())?;
        Ok((sep, new_page))
    }

    /// Inserts `(sep, child)` into the parent chain, splitting internals and
    /// growing a new root as needed.
    fn insert_into_parent(
        &self,
        path: &mut Vec<(PageId, isize)>,
        mut sep: Vec<u8>,
        mut child: PageId,
    ) -> io::Result<()> {
        loop {
            let Some((parent, _)) = path.pop() else {
                // Grow a new root.
                let old_root = self.root();
                let new_root = self.store.allocate()?;
                self.store.write(new_root, |p| {
                    layout::init(p, INTERNAL);
                    layout::set_link(p, old_root.0);
                    layout::internal_insert(p, 0, &sep, child.0);
                })?;
                self.store.set_root(self.slot, new_root.0);
                return Ok(());
            };
            let needed = layout::internal_cell_size(sep.len()) + 2;
            let fits = self.store.write(parent, |p| {
                if layout::free_space(p) >= needed {
                    true
                } else if layout::live_bytes(p) + needed <= PAGE_SIZE {
                    layout::compact(p);
                    true
                } else {
                    false
                }
            })?;
            if fits {
                self.store.write(parent, |p| {
                    let n = layout::ncells(p);
                    let mut lo = 0;
                    let mut hi = n;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        if layout::internal_key(p, mid) < sep.as_slice() {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    layout::internal_insert(p, lo, &sep, child.0);
                })?;
                return Ok(());
            }
            // Split the internal node: promote the middle separator.
            let (promoted, new_node) = self.split_internal(parent)?;
            // Insert the pending (sep, child) into the proper half.
            let target = if sep < promoted { parent } else { new_node };
            self.store.write(target, |p| {
                if layout::free_space(p) < needed {
                    layout::compact(p);
                }
                let n = layout::ncells(p);
                let mut lo = 0;
                let mut hi = n;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if layout::internal_key(p, mid) < sep.as_slice() {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                layout::internal_insert(p, lo, &sep, child.0);
            })?;
            sep = promoted;
            child = new_node;
        }
    }

    /// Splits an internal node; the middle key moves up (B+Tree internal
    /// split), its child becomes the new node's leftmost child.
    fn split_internal(&self, node: PageId) -> io::Result<(Vec<u8>, PageId)> {
        self.metrics.splits.inc();
        let new_page = self.store.allocate()?;
        type SplitPlan = (Vec<u8>, u64, Vec<(Vec<u8>, u64)>);
        let (promoted, new_link, moved): SplitPlan = self.store.write(node, |p| {
            let n = layout::ncells(p);
            debug_assert!(n >= 3);
            let mid = n / 2;
            let promoted = layout::internal_key(p, mid).to_vec();
            let new_link = layout::internal_child(p, mid);
            let moved: Vec<(Vec<u8>, u64)> = (mid + 1..n)
                .map(|i| {
                    (
                        layout::internal_key(p, i).to_vec(),
                        layout::internal_child(p, i),
                    )
                })
                .collect();
            layout::truncate(p, mid);
            layout::compact(p);
            (promoted, new_link, moved)
        })?;
        self.store.write(new_page, |p| {
            layout::init(p, INTERNAL);
            layout::set_link(p, new_link);
            for (i, (k, c)) in moved.iter().enumerate() {
                layout::internal_insert(p, i, k, *c);
            }
        })?;
        Ok((promoted, new_page))
    }

    /// Removes `key` if present; returns whether it existed.
    ///
    /// Deletion is lazy: pages are never merged or unlinked (Aion's stores
    /// are append-mostly), but freed overflow chains return to the free list
    /// and in-page space is reclaimed by compaction on later inserts.
    pub fn remove(&self, key: &[u8]) -> io::Result<bool> {
        let (_, leaf) = self.descend(key)?;
        let removed = self.store.write(leaf, |p| {
            if let Ok(i) = layout::leaf_search(p, key) {
                let cell = layout::leaf_cell(p, i);
                let ovf = cell.is_overflow().then(|| PageId(cell.overflow_page()));
                layout::leaf_remove(p, i);
                Some(ovf)
            } else {
                None
            }
        })?;
        match removed {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(head)) => {
                overflow::free_chain(&self.store, head)?;
                Ok(true)
            }
        }
    }

    /// Ordered scan over `[low, high)`. An empty `high` means "unbounded".
    pub fn scan(&self, low: &[u8], high: &[u8]) -> io::Result<Scan> {
        let (_, leaf) = self.descend(low)?;
        Scan::new(self.clone(), leaf, low, high)
    }

    /// Ordered key-only scan over `[low, high)` — the range-stream API for
    /// index walks that resolve values lazily. Skips value and overflow
    /// reads entirely; see [`crate::scan::KeyScan`].
    pub fn scan_keys(&self, low: &[u8], high: &[u8]) -> io::Result<KeyScan> {
        let (_, leaf) = self.descend(low)?;
        KeyScan::new(self.clone(), leaf, low, high)
    }

    /// The greatest entry with key `<= key` (floor lookup) — the access that
    /// finds "the snapshot with the closest timestamp" (Sec. 4.3).
    pub fn seek_floor(&self, key: &[u8]) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        let (path, leaf) = self.descend(key)?;
        enum Outcome {
            Found(usize),
            Before,
        }
        let out = self
            .store
            .read(leaf, |p| match layout::leaf_search(p, key) {
                Ok(i) => Outcome::Found(i),
                Err(0) => Outcome::Before,
                Err(i) => Outcome::Found(i - 1),
            })?;
        match out {
            Outcome::Found(i) => self.read_leaf_entry(leaf, i).map(Some),
            Outcome::Before => {
                // The floor lives in an earlier subtree; walk the path upward
                // looking for a sibling to our left, then take its rightmost
                // descendant.
                for (page, idx) in path.iter().rev() {
                    let candidates: Vec<u64> = self.store.read(*page, |p| {
                        let mut c = Vec::new();
                        let mut i = *idx - 1;
                        while i >= -1 {
                            let child = if i == -1 {
                                layout::link(p)
                            } else {
                                layout::internal_child(p, i as usize)
                            };
                            c.push(child);
                            i -= 1;
                        }
                        c
                    })?;
                    for cand in candidates {
                        if let Some(hit) = self.rightmost_entry(PageId(cand))? {
                            return Ok(Some(hit));
                        }
                    }
                }
                Ok(None)
            }
        }
    }

    /// The last entry of the subtree rooted at `page` (None if all-empty).
    fn rightmost_entry(&self, page: PageId) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        enum Step {
            Leaf(Option<usize>),
            Children(Vec<u64>),
        }
        let step = self.store.read(page, |p| {
            if layout::node_type(p) == LEAF {
                let n = layout::ncells(p);
                Step::Leaf((n > 0).then(|| n - 1))
            } else {
                // Children right-to-left: cell n-1 … cell 0, then the
                // leftmost child (the link field).
                let n = layout::ncells(p);
                let mut kids: Vec<u64> =
                    (0..n).rev().map(|i| layout::internal_child(p, i)).collect();
                kids.push(layout::link(p));
                Step::Children(kids)
            }
        })?;
        match step {
            Step::Leaf(Some(i)) => self.read_leaf_entry(page, i).map(Some),
            Step::Leaf(None) => Ok(None),
            Step::Children(kids) => {
                for k in kids {
                    if let Some(hit) = self.rightmost_entry(PageId(k))? {
                        return Ok(Some(hit));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Copies out entry `i` of `leaf`, resolving overflow.
    fn read_leaf_entry(&self, leaf: PageId, i: usize) -> io::Result<(Vec<u8>, Vec<u8>)> {
        enum V {
            Inline(Vec<u8>, Vec<u8>),
            Ovf(Vec<u8>, PageId),
        }
        let v = self.store.read(leaf, |p| {
            let cell = layout::leaf_cell(p, i);
            if cell.is_overflow() {
                V::Ovf(cell.key.to_vec(), PageId(cell.overflow_page()))
            } else {
                V::Inline(cell.key.to_vec(), cell.inline.to_vec())
            }
        })?;
        match v {
            V::Inline(k, val) => Ok((k, val)),
            V::Ovf(k, head) => {
                let mut out = Vec::new();
                overflow::read_chain(&self.store, head, &mut out)?;
                Ok((k, out))
            }
        }
    }

    /// Height of the tree (1 = just a root leaf); used by tests.
    pub fn height(&self) -> io::Result<usize> {
        let mut h = 1;
        let mut page = self.root();
        loop {
            let (is_leaf, child) = self.store.read(page, |p| {
                if layout::node_type(p) == LEAF {
                    (true, 0)
                } else {
                    (false, layout::link(p))
                }
            })?;
            if is_leaf {
                return Ok(h);
            }
            h += 1;
            page = PageId(child);
        }
    }

    /// Flushes the underlying store.
    pub fn flush(&self) -> io::Result<()> {
        self.store.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use tempfile::tempdir;

    fn open_tree(cache: usize) -> (tempfile::TempDir, BTree) {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), cache).unwrap());
        let t = BTree::open(store, 0).unwrap();
        (dir, t)
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    type Hook = Box<dyn Fn(&BTree)>;

    thread_local! {
        static BEFORE_SPLIT_LINK: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Runs this thread's hook, if any, where `split_leaf` has written the
    /// new sibling but not yet relinked the old leaf.
    pub(super) fn before_split_link(t: &BTree) {
        BEFORE_SPLIT_LINK.with(|h| {
            if let Some(f) = h.borrow().as_ref() {
                f(t);
            }
        });
    }

    #[test]
    fn a_scan_between_a_splits_page_writes_sees_every_entry_once() {
        let (_d, t) = open_tree(64);
        let value = |key: &[u8]| key.repeat(12);
        let held = Rc::new(Cell::new(0usize));
        let scans = Rc::new(Cell::new(0usize));
        let hook = {
            let (held, scans) = (held.clone(), scans.clone());
            move |t: &BTree| {
                let keys: Vec<Vec<u8>> =
                    t.scan_keys(&[], &[]).unwrap().map(|k| k.unwrap()).collect();
                assert_eq!(keys.len(), held.get(), "keys skipped or repeated");
                assert!(keys.windows(2).all(|w| w[0] < w[1]));
                let mut entries = 0;
                for e in t.scan(&[], &[]).unwrap() {
                    let (key, v) = e.unwrap();
                    assert_eq!(v, value(&key));
                    entries += 1;
                }
                assert_eq!(entries, held.get(), "entries skipped or repeated");
                scans.set(scans.get() + 1);
            }
        };
        BEFORE_SPLIT_LINK.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
        let n = 3_000u64;
        for i in 0..n {
            let key = k(i * 7919 % n);
            t.insert(&key, &value(&key)).unwrap();
            held.set(held.get() + 1);
        }
        BEFORE_SPLIT_LINK.with(|h| h.borrow_mut().take());
        assert!(scans.get() >= 20, "{} splits", scans.get());
    }

    #[test]
    fn get_insert_remove_basics() {
        let (_d, t) = open_tree(32);
        assert_eq!(t.get(b"missing").unwrap(), None);
        t.insert(b"a", b"1").unwrap();
        t.insert(b"b", b"2").unwrap();
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(b"1".as_slice()));
        assert!(t.contains(b"b").unwrap());
        // Upsert replaces.
        t.insert(b"a", b"one").unwrap();
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(b"one".as_slice()));
        assert!(t.remove(b"a").unwrap());
        assert!(!t.remove(b"a").unwrap());
        assert_eq!(t.get(b"a").unwrap(), None);
    }

    #[test]
    fn many_inserts_split_and_stay_retrievable() {
        let (_d, t) = open_tree(16); // tiny cache: exercise out-of-core path
        let n = 20_000u64;
        for i in 0..n {
            t.insert(&k(i * 7919 % n), &(i * 3).to_le_bytes()).unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        for i in 0..n {
            let key = k(i * 7919 % n);
            let v = t.get(&key).unwrap().expect("present");
            assert_eq!(v, (i * 3).to_le_bytes());
        }
    }

    /// `live_bytes / PAGE_SIZE` of every leaf, left to right.
    fn leaf_fills(t: &BTree) -> Vec<f64> {
        let mut page = t.root();
        while let Some(child) = t
            .store
            .read(page, |p| {
                (layout::node_type(p) == INTERNAL).then(|| layout::link(p))
            })
            .unwrap()
        {
            page = PageId(child);
        }
        let mut fills = Vec::new();
        while !page.is_null() {
            let (live, next) = t
                .store
                .read(page, |p| (layout::live_bytes(p), layout::link(p)))
                .unwrap();
            fills.push(live as f64 / PAGE_SIZE as f64);
            page = PageId(next);
        }
        fills
    }

    #[test]
    fn ascending_inserts_leave_leaves_full() {
        let n = 20_000u64;
        let (_d, t) = open_tree(64);
        for i in 0..n {
            t.insert(&k(i), &(i * 3).to_le_bytes()).unwrap();
        }
        let fills = leaf_fills(&t);
        let (last, full) = fills.split_last().unwrap();
        assert!(full.len() >= 40, "{} leaves", fills.len());
        assert!(full.iter().all(|&f| f >= 0.95), "{full:?}");
        assert!(*last > 0.0);
        assert_eq!(t.verify().unwrap().entries, n);

        // Shuffled inserts split 50/50 exactly as before. A 13-byte value
        // makes a 23-byte cell, the size an 8-byte value made under the
        // seven-byte header, where this shuffle left 91 leaves 67.3 % full.
        let mut keys: Vec<u64> = (0..n).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..keys.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let (_d, t) = open_tree(64);
        for &key in &keys {
            t.insert(&k(key), &[key as u8; 13]).unwrap();
        }
        let fills = leaf_fills(&t);
        let mean = fills.iter().sum::<f64>() / fills.len() as f64;
        assert_eq!(fills.len(), 91);
        assert!((0.672..0.673).contains(&mean), "mean leaf fill {mean}");
    }

    #[test]
    fn overflow_values_roundtrip() {
        let (_d, t) = open_tree(32);
        let big = vec![0xABu8; MAX_INLINE_VALUE * 5 + 17];
        t.insert(b"big", &big).unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), big);
        // Replacing an overflow value frees the old chain (pages reused).
        let store = t.store().clone();
        let pages = store.page_count();
        let big2 = vec![0xCDu8; MAX_INLINE_VALUE * 5];
        t.insert(b"big", &big2).unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), big2);
        assert!(store.page_count() <= pages + 1);
        assert!(t.remove(b"big").unwrap());
        assert_eq!(t.get(b"big").unwrap(), None);
    }

    #[test]
    fn seek_floor_semantics() {
        let (_d, t) = open_tree(32);
        assert_eq!(t.seek_floor(&k(5)).unwrap(), None, "empty tree");
        for i in (10..100u64).step_by(10) {
            t.insert(&k(i), &k(i)).unwrap();
        }
        // Exact hit.
        assert_eq!(t.seek_floor(&k(30)).unwrap().unwrap().0, k(30));
        // Between keys → previous.
        assert_eq!(t.seek_floor(&k(35)).unwrap().unwrap().0, k(30));
        // Before all → none.
        assert_eq!(t.seek_floor(&k(5)).unwrap(), None);
        // After all → last.
        assert_eq!(t.seek_floor(&k(1_000)).unwrap().unwrap().0, k(90));
    }

    #[test]
    fn seek_floor_across_leaf_boundaries() {
        let (_d, t) = open_tree(16);
        for i in 0..10_000u64 {
            t.insert(&k(i * 2), b"v").unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        for probe in [1u64, 999, 4_001, 19_999] {
            let floor = t.seek_floor(&k(probe)).unwrap().unwrap().0;
            let expect = k((probe - 1) / 2 * 2);
            assert_eq!(floor, expect, "probe {probe}");
        }
        // Exactly at a leaf's first key: floor(k) == k.
        assert_eq!(t.seek_floor(&k(0)).unwrap().unwrap().0, k(0));
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.db");
        {
            let store = Arc::new(PageStore::open(&path, 16).unwrap());
            let t = BTree::open(store.clone(), 0).unwrap();
            for i in 0..2_000u64 {
                t.insert(&k(i), &(i + 1).to_le_bytes()).unwrap();
            }
            store.sync().unwrap();
        }
        let store = Arc::new(PageStore::open(&path, 16).unwrap());
        let t = BTree::open(store, 0).unwrap();
        for i in (0..2_000u64).step_by(97) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), (i + 1).to_le_bytes());
        }
        assert_eq!(t.scan(&[], &[]).unwrap().count(), 2_000);
    }

    #[test]
    fn two_trees_share_one_store() {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 32).unwrap());
        let a = BTree::open(store.clone(), 0).unwrap();
        let b = BTree::open(store, 1).unwrap();
        for i in 0..500u64 {
            a.insert(&k(i), b"a").unwrap();
            b.insert(&k(i), b"b").unwrap();
        }
        assert_eq!(a.get(&k(7)).unwrap().as_deref(), Some(b"a".as_slice()));
        assert_eq!(b.get(&k(7)).unwrap().as_deref(), Some(b"b".as_slice()));
        assert_eq!(a.scan(&[], &[]).unwrap().count(), 500);
        assert_eq!(b.scan(&[], &[]).unwrap().count(), 500);
    }

    #[test]
    fn variable_length_keys_sort_lexicographically() {
        let (_d, t) = open_tree(32);
        let keys: Vec<&[u8]> = vec![b"a", b"aa", b"ab", b"b", b"ba"];
        for (i, key) in keys.iter().rev().enumerate() {
            t.insert(key, &[i as u8]).unwrap();
        }
        let got: Vec<Vec<u8>> = t.scan(&[], &[]).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, keys.iter().map(|s| s.to_vec()).collect::<Vec<_>>());
    }
}
