//! The B+Tree proper: descent, splits, upserts and floor lookups.

use crate::layout::{self, LeafCell, INTERNAL, LEAF, SLOTS_OFF};
use crate::overflow;
use crate::scan::{KeyScan, Scan};
use pagestore::{PageBuf, PageId, PageStore, PAGE_SIZE};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Splits and shares begun plus those ended: odd while one is under
    /// way, and [`UNSETTLED`] set for good once one fails part way. A
    /// point read that saw it even, settled and unchanged from before its
    /// descent to after its leaf read found every key where the parents
    /// route it; otherwise it looks right (see [`BTree::settle`]).
    moves: Arc<AtomicU64>,
    metrics: Metrics,
}

/// Process-wide metric handles, fetched once per tree so descent and
/// split paths only pay a relaxed atomic op.
#[derive(Clone)]
struct Metrics {
    page_reads: Arc<obs::Counter>,
    splits: Arc<obs::Counter>,
    shares: Arc<obs::Counter>,
    overflow_walks: Arc<obs::Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            page_reads: obs::counter("btree.page.reads"),
            splits: obs::counter("btree.splits"),
            shares: obs::counter("btree.shares"),
            overflow_walks: obs::counter("btree.overflow.walks"),
        }
    }
}

/// The bit of [`BTree::moves`] that a split or share failing part way
/// sets: its pages may be written and its parent not, so the parents may
/// route keys to a leaf that no longer holds them, and from then on every
/// point read looks right.
const UNSETTLED: u64 = 1 << 63;

/// Marks a split or share under way: [`BTree::moves`] is odd from its
/// creation to its drop. Dropped without [`Moving::finish`] (an error or
/// a panic part way), it also sets [`UNSETTLED`].
struct Moving<'t> {
    moves: &'t AtomicU64,
    finished: bool,
}

impl<'t> Moving<'t> {
    fn begin(moves: &'t AtomicU64) -> Moving<'t> {
        moves.fetch_add(1, Ordering::SeqCst);
        Moving {
            moves,
            finished: false,
        }
    }

    /// The move wrote every page it meant to.
    fn finish(mut self) {
        self.finished = true;
    }
}

impl Drop for Moving<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.moves.fetch_or(UNSETTLED, Ordering::SeqCst);
        }
        self.moves.fetch_add(1, Ordering::SeqCst);
    }
}

/// Where a full leaf, the cell it could not take and its right sibling's
/// cells go, as cut points into that run of cells (see [`plan`]).
#[derive(Debug, PartialEq, Eq)]
enum Plan {
    /// The leaf keeps the first cells, up to the cut; the sibling takes
    /// the rest.
    Share(usize),
    /// The leaf keeps the first cells, the sibling those up to the second
    /// cut, and a new leaf after the sibling the rest.
    Three(usize, usize),
}

/// The fewest bytes a share moves. Evening out a full leaf and a sibling
/// that is nearly full too would move a few cells, and the next insert
/// into either would share again: such a pair splits into three instead.
/// Uniform inserts keep leaves about 81 % full with a sixteenth of a page
/// as without it, with a quarter of the shares.
const MIN_SHARE: usize = PAGE_SIZE / 16;

/// Cuts a run of cells, `sizes` bytes each, for a share or a split into
/// three. The first `lend` cells are the full leaf's (the new one among
/// them), the rest its right sibling's, and no part may take more than
/// `room` bytes. A share evens the two pages out, keeping at least one
/// cell on the leaf and moving at least [`MIN_SHARE`] bytes; otherwise
/// the leaf keeps its first third, the sibling the next third and the new
/// leaf the sibling's tail. `None` when neither fits.
fn plan(sizes: &[usize], lend: usize, room: usize) -> Option<Plan> {
    let n = sizes.len();
    if lend < 2 || lend > n {
        return None;
    }
    let mut sums = Vec::with_capacity(n + 1);
    sums.push(0);
    for size in sizes {
        sums.push(sums[sums.len() - 1] + size);
    }
    let total = sums[n];
    let fits = |a: usize, b: usize| sums[b] - sums[a] <= room;
    // The cut in `lo..=hi` nearest `target` bytes from the run's start.
    let cut = |target: usize, lo: usize, hi: usize| {
        // `target <= total`, so some cut reaches it.
        let past = sums.partition_point(|&s| s < target);
        let nearer = past > 0 && target - sums[past - 1] < sums[past] - target;
        (if nearer { past - 1 } else { past }).clamp(lo, hi)
    };
    let m = cut(total / 2, 1, lend - 1);
    if fits(0, m) && fits(m, n) && sums[lend] - sums[m] >= MIN_SHARE {
        return Some(Plan::Share(m));
    }
    if lend == n {
        return None;
    }
    let a = cut(total / 3, 1, lend - 1);
    let b = cut(2 * total / 3, lend, n - 1);
    (fits(0, a) && fits(a, b) && fits(b, n)).then_some(Plan::Three(a, b))
}

/// A value ready to go into a leaf cell (see [`BTree::stage`]).
enum Staged<'v> {
    Inline(&'v [u8]),
    /// The value's length and the little-endian head of its chain.
    Overflow(u32, [u8; 8]),
}

impl Staged<'_> {
    /// `(overflow, vlen, inline payload)`, as [`layout::leaf_put`] takes
    /// them.
    fn parts(&self) -> (bool, u32, &[u8]) {
        match self {
            Staged::Inline(v) => (false, v.len() as u32, v),
            Staged::Overflow(vlen, head) => (true, *vlen, head),
        }
    }
}

/// What [`BTree::put`]'s one write of the leaf did. Each carries the
/// overflow chain of the cell it replaced, to free.
enum Put {
    Done(Option<PageId>),
    /// The leaf is full: it makes room, appending a leaf (`true`) or
    /// moving cells right.
    Split(bool, Option<PageId>),
}

/// A leaf cell's value copied out under one page read: inline, or the
/// head of its overflow chain.
pub(crate) enum Value {
    Inline(Vec<u8>),
    Overflow(PageId),
}

impl Value {
    pub(crate) fn copy(cell: &LeafCell) -> Value {
        if cell.is_overflow() {
            Value::Overflow(PageId(cell.overflow_page()))
        } else {
            Value::Inline(cell.inline.to_vec())
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
            moves: Arc::new(AtomicU64::new(0)),
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

    /// Descends to the leaf covering `key`, recording nothing on the way.
    fn leaf_for(&self, key: &[u8]) -> io::Result<PageId> {
        let mut page = self.root();
        loop {
            let child = self.store.read(page, |p| {
                (layout::node_type(p) != LEAF).then(|| layout::internal_descend(p, key).1)
            })?;
            self.metrics.page_reads.inc();
            match child {
                Some(child) => page = PageId(child),
                None => return Ok(page),
            }
        }
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

    /// [`Self::moves`] now.
    fn moves(&self) -> u64 {
        self.moves.load(Ordering::SeqCst)
    }

    /// Reads `leaf`, the leaf a descent that began at `moves == since`
    /// found for `key`, with `f`; returns the leaf it read last and what
    /// `f` said there.
    ///
    /// Splits and shares move cells right, writing the page that gains
    /// them before the one that loses them, and tell the parent last. So
    /// while one is under way (or was since `since`) `key` may have left
    /// the leaf the parents routed it to, for a leaf further right. When
    /// `key` sorts after every cell of `leaf`, the read moves right while
    /// the next leaf's first key is at or below `key`. With `moves` even,
    /// settled and still `since` after the read, nothing moved and no next
    /// leaf is read.
    fn settle<R>(
        &self,
        mut leaf: PageId,
        key: &[u8],
        since: u64,
        f: impl Fn(&PageBuf) -> R,
    ) -> io::Result<(PageId, R)> {
        loop {
            let (out, next) = self.store.read(leaf, |p| {
                let last = layout::ncells(p).checked_sub(1);
                let below = last.is_none_or(|i| layout::leaf_key(p, i).cmp_to(key).is_lt());
                (f(p), if below { layout::link(p) } else { u64::MAX })
            })?;
            let still = since & (UNSETTLED | 1) == 0 && self.moves() == since;
            if next == u64::MAX || still {
                return Ok((leaf, out));
            }
            let moved = self.store.read(PageId(next), |p| {
                layout::ncells(p) > 0 && layout::leaf_key(p, 0).cmp_to(key).is_le()
            })?;
            self.metrics.page_reads.inc();
            if !moved {
                return Ok((leaf, out));
            }
            leaf = PageId(next);
        }
    }

    /// A copied value, its overflow chain followed.
    pub(crate) fn resolve(&self, value: Value) -> io::Result<Vec<u8>> {
        match value {
            Value::Inline(v) => Ok(v),
            Value::Overflow(head) => {
                self.metrics.overflow_walks.inc();
                let mut out = Vec::new();
                overflow::read_chain(&self.store, head, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let since = self.moves();
        let leaf = self.leaf_for(key)?;
        let (_, hit) = self.settle(leaf, key, since, |p| {
            layout::leaf_search(p, key)
                .ok()
                .map(|i| Value::copy(&layout::leaf_cell(p, i)))
        })?;
        hit.map(|value| self.resolve(value)).transpose()
    }

    /// Inserts or replaces `key → value`.
    ///
    /// A full leaf makes room by moving cells right. Its right sibling
    /// under the same parent takes its tail (a share), or, when that
    /// sibling is nearly full too, the pair splits into three leaves
    /// about two thirds full each: uniformly spread keys fill
    /// leaves about 80 % instead of the 71 % 50/50 splits leave. A leaf
    /// without such a sibling splits 50/50, except the rightmost leaf when
    /// `key` sorts after all of its cells: ascending inserts (relationship
    /// ids, commit timestamps) then start a new rightmost leaf holding just
    /// `key` and leave the full leaf full.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        assert!(key.len() <= MAX_KEY, "key too large");
        let cell = self.stage(value)?;
        let leaf = self.leaf_for(key)?;
        self.put(leaf, key, &cell, None)
    }

    /// Inserts or replaces `key → value_of(floor)`, where `floor` is what
    /// [`Self::seek_floor`] returns for `key` before the insert: the entry
    /// `key` replaces, or else the greatest entry below it.
    ///
    /// One descent serves both the lookup and the insert: `floor` is read
    /// from the leaf the insert writes, and the insert goes where that read
    /// placed `key`. Only when `key` would be the leaf's first cell is the
    /// floor in a leaf to the left, found by `seek_floor`. An error from
    /// `value_of` leaves the tree unchanged. `value_of` may read the tree;
    /// should it also split or share a leaf, the insert descends again.
    pub fn insert_with<V, E>(
        &self,
        key: &[u8],
        value_of: impl FnOnce(Option<(&[u8], &[u8])>) -> Result<V, E>,
    ) -> Result<(), E>
    where
        V: AsRef<[u8]>,
        E: From<io::Error>,
    {
        assert!(key.len() <= MAX_KEY, "key too large");
        let since = self.moves();
        let leaf = self.leaf_for(key)?;
        // The floor cell's key and inline payload, copied out of the page
        // so that `value_of` runs without the page store's lock.
        let mut copy = [0u8; MAX_KEY + MAX_INLINE_VALUE];
        let (at, in_leaf) = self.store.read(leaf, |p| {
            let at = layout::leaf_search(p, key);
            let floor = match at {
                Ok(i) => Some(i),
                Err(i) => i.checked_sub(1),
            };
            let in_leaf = floor.map(|i| {
                let cell = layout::leaf_cell(p, i);
                let (klen, ilen) = (cell.key.len(), cell.inline.len());
                cell.key.copy_to(&mut copy[..klen]);
                copy[klen..klen + ilen].copy_from_slice(cell.inline);
                let head = cell.is_overflow().then(|| PageId(cell.overflow_page()));
                (klen, ilen, head)
            });
            (at, in_leaf)
        })?;
        let mut chain = Vec::new();
        let elsewhere;
        let floor = match in_leaf {
            Some((klen, _, Some(head))) => {
                self.metrics.overflow_walks.inc();
                overflow::read_chain(&self.store, head, &mut chain)?;
                Some((&copy[..klen], &chain[..]))
            }
            Some((klen, ilen, None)) => Some((&copy[..klen], &copy[klen..klen + ilen])),
            None => {
                elsewhere = self.seek_floor(key)?;
                elsewhere.as_ref().map(|(k, v)| (&k[..], &v[..]))
            }
        };
        let value = value_of(floor)?;
        let cell = self.stage(value.as_ref())?;
        if self.moves() != since {
            // `value_of` moved cells between leaves: `leaf` may no longer
            // cover `key`.
            let leaf = self.leaf_for(key)?;
            return Ok(self.put(leaf, key, &cell, None)?);
        }
        Ok(self.put(leaf, key, &cell, Some(at))?)
    }

    /// The leaf payload of `value`: the value itself, or the head of the
    /// overflow chain it is written to first.
    fn stage<'v>(&self, value: &'v [u8]) -> io::Result<Staged<'v>> {
        let vlen = value.len() as u32;
        if value.len() > MAX_INLINE_VALUE {
            let head = overflow::write_chain(&self.store, value)?;
            Ok(Staged::Overflow(vlen, head.0.to_le_bytes()))
        } else {
            Ok(Staged::Inline(value))
        }
    }

    /// Writes `key → cell` into `leaf`, the leaf that covers `key`. The
    /// leaf is searched once: the position that finds the cell `key`
    /// replaces is the one the new cell goes to. `placed` is what an
    /// earlier read of `leaf` said, with no split or share since: if the
    /// cells around the position agree, that search stands.
    fn put(
        &self,
        mut leaf: PageId,
        key: &[u8],
        cell: &Staged,
        mut placed: Option<Result<usize, usize>>,
    ) -> io::Result<()> {
        let (overflow, vlen, inline) = cell.parts();
        loop {
            // One touch of the leaf: drop the cell `key` replaces (its
            // chain is freed below), then put the new cell if it fits.
            // Otherwise the leaf splits, and `appends` says whether `key`
            // starts a new rightmost leaf.
            let outcome = self.store.write(leaf, |p| {
                let at = match placed {
                    Some(at) if layout::placed_at(p, key, at) => at,
                    _ => layout::leaf_search(p, key),
                };
                let (i, old_overflow) = match at {
                    Ok(i) => {
                        let cell = layout::leaf_cell(p, i);
                        let ovf = cell.is_overflow().then(|| PageId(cell.overflow_page()));
                        layout::leaf_remove(p, i);
                        (i, ovf)
                    }
                    Err(i) => (i, None),
                };
                if layout::leaf_put(p, i, overflow, key, vlen, inline) {
                    return Put::Done(old_overflow);
                }
                let n = layout::ncells(p);
                let appends = layout::link(p) == u64::MAX && n > 0 && i == n;
                Put::Split(appends, old_overflow)
            })?;
            let (split, old_overflow) = match outcome {
                Put::Done(old) => (None, old),
                Put::Split(appends, old) => (Some(appends), old),
            };
            if let Some(head) = old_overflow {
                overflow::free_chain(&self.store, head)?;
            }
            let Some(appends) = split else {
                return Ok(());
            };
            if self.split_and_put(leaf, key, appends, cell)? {
                return Ok(());
            }
            // The half of a 50/50 split that `key` belongs to has no room
            // for it under the shorter prefix it needs: put it again, from
            // the root.
            leaf = self.leaf_for(key)?;
            placed = None;
        }
    }

    /// Makes room in the full `leaf` for `key → cell` and puts it there
    /// or in the leaf that now covers it: a share or a split into three
    /// when the leaf has a right sibling under the same parent and the
    /// cells fit, else a split in two, which links the new leaf into the
    /// parent. Returns whether the cell went in. With `appends`, the new
    /// leaf holds just `key`.
    fn split_and_put(
        &self,
        leaf: PageId,
        key: &[u8],
        appends: bool,
        cell: &Staged,
    ) -> io::Result<bool> {
        let (overflow, vlen, inline) = cell.parts();
        // Walk down again, this time recording the path that receives the
        // new separator. Nothing above the leaf changed, so this walk ends
        // at `leaf`.
        let (mut path, _) = self.descend(key)?;
        let moving = Moving::begin(&self.moves);
        if !appends && self.share_or_split3(&mut path, leaf, key, cell)? {
            moving.finish();
            return Ok(true);
        }
        // Any cell for `key` was removed first, so the search can only
        // miss; fold both arms to stay panic-free regardless.
        let put_cell = |p: &mut PageBuf| {
            let i = match layout::leaf_search(p, key) {
                Ok(i) | Err(i) => i,
            };
            layout::leaf_put(p, i, overflow, key, vlen, inline)
        };
        let (sep, new_leaf, done) = if appends {
            self.metrics.splits.inc();
            let new_leaf = self.store.allocate()?;
            let done = self.store.write(new_leaf, |p| {
                layout::init(p, LEAF);
                put_cell(p)
            })?;
            self.store
                .write(leaf, |p| layout::set_link(p, new_leaf.0))?;
            (key.to_vec(), new_leaf, done)
        } else {
            let (sep, new_leaf) = self.split_leaf(leaf)?;
            let target = if key < sep.as_slice() { leaf } else { new_leaf };
            (sep, new_leaf, self.store.write(target, put_cell)?)
        };
        #[cfg(test)]
        tests::mid_move(self)?;
        self.insert_into_parent(&mut path, sep, new_leaf)?;
        moving.finish();
        Ok(done)
    }

    /// Makes room in the full `leaf`, the child `path` ends at, by moving
    /// cells into its right sibling under the same parent, and puts
    /// `key → cell` with them; see [`plan`]. Returns `false`, nothing
    /// written, when there is no such sibling, when the parent cannot take
    /// the sibling's new separator, or when the cells do not fit.
    ///
    /// The pages are written right to left, each before the page that
    /// loses its cells to it, then the parent: a scan that has read a leaf
    /// meets its moved cells again further right (and skips them, as it
    /// resumes after its last key), and a descent that the parent still
    /// routes to a leaf that lost `key` finds it by moving right.
    fn share_or_split3(
        &self,
        path: &mut Vec<(PageId, isize)>,
        leaf: PageId,
        key: &[u8],
        cell: &Staged,
    ) -> io::Result<bool> {
        let Some(&(parent, taken)) = path.last() else {
            return Ok(false);
        };
        let j = (taken + 1) as usize;
        let sibling = self.store.read(parent, |p| {
            (j < layout::ncells(p)).then(|| PageId(layout::internal_child(p, j)))
        })?;
        let Some(right) = sibling else {
            return Ok(false);
        };
        let lp = self.store.read(leaf, |p| p.clone())?;
        let rp = self.store.read(right, |p| p.clone())?;
        if layout::link(&lp) != right.0 {
            return Ok(false);
        }
        let (overflow, vlen, inline) = cell.parts();
        let at = match layout::leaf_search(&lp, key) {
            Ok(i) | Err(i) => i,
        };
        let mut cells = Vec::with_capacity(layout::ncells(&lp) + 1 + layout::ncells(&rp));
        let mut left = layout::leaf_cells(&lp);
        cells.extend(left.by_ref().take(at));
        cells.push(LeafCell::new(key, overflow, vlen, inline));
        cells.extend(left);
        let lend = cells.len();
        cells.extend(layout::leaf_cells(&rp));
        // Every part's prefix is at least the one the whole run shares, so
        // cells sized under it bound what each part takes.
        let plen = layout::cells_prefix(&cells).len();
        let sizes: Vec<usize> = cells.iter().map(|c| c.bytes_under(plen)).collect();
        let Some(plan) = plan(&sizes, lend, PAGE_SIZE - SLOTS_OFF - plen) else {
            return Ok(false);
        };
        let first = match plan {
            Plan::Share(m) | Plan::Three(m, _) => m,
        };
        let sep = cells[first].key.to_vec();
        if !self
            .store
            .read(parent, |p| layout::internal_key_fits(p, j, sep.len()))?
        {
            return Ok(false);
        }
        let rebuild = |page: PageId, link: u64, part: &[LeafCell]| {
            self.store
                .write(page, |p| layout::rebuild_leaf(p, link, part))
        };
        let new_leaf = match plan {
            Plan::Share(m) => {
                self.metrics.shares.inc();
                rebuild(right, layout::link(&rp), &cells[m..])?;
                #[cfg(test)]
                tests::mid_move(self)?;
                rebuild(leaf, right.0, &cells[..m])?;
                None
            }
            Plan::Three(a, b) => {
                self.metrics.splits.inc();
                let new_leaf = self.store.allocate()?;
                rebuild(new_leaf, layout::link(&rp), &cells[b..])?;
                #[cfg(test)]
                tests::mid_move(self)?;
                rebuild(right, new_leaf.0, &cells[a..b])?;
                #[cfg(test)]
                tests::mid_move(self)?;
                rebuild(leaf, right.0, &cells[..a])?;
                Some((cells[b].key.to_vec(), new_leaf))
            }
        };
        #[cfg(test)]
        tests::mid_move(self)?;
        self.store
            .write(parent, |p| layout::internal_set_key(p, j, &sep))?;
        if let Some((sep, new_leaf)) = new_leaf {
            #[cfg(test)]
            tests::mid_move(self)?;
            self.insert_into_parent(path, sep, new_leaf)?;
        }
        Ok(true)
    }

    /// Splits `leaf` at half its live bytes, returning the separator key
    /// and the new right sibling. Each half is rebuilt under its own
    /// prefix.
    ///
    /// The new sibling is written in full before `leaf` drops the moved
    /// cells and links to it in one write, so a concurrent scan sees every
    /// cell either in `leaf` or down its link.
    fn split_leaf(&self, leaf: PageId) -> io::Result<(Vec<u8>, PageId)> {
        self.metrics.splits.inc();
        let new_page = self.store.allocate()?;
        let (split_at, right) = self.store.read(leaf, |p| {
            let n = layout::ncells(p);
            debug_assert!(n >= 2);
            let total = layout::live_bytes(p);
            let mut acc = 0;
            let mut split_at = n / 2;
            for i in 0..n {
                acc += layout::leaf_cell_len(p, i) + 2;
                if acc >= total / 2 {
                    split_at = (i + 1).clamp(1, n - 1);
                    break;
                }
            }
            (split_at, layout::leaf_split_off(p, split_at))
        })?;
        let sep = layout::leaf_key(&right, 0).to_vec();
        self.store.write(new_page, |p| *p = right)?;
        #[cfg(test)]
        tests::mid_move(self)?;
        self.store.write(leaf, |p| {
            layout::truncate(p, split_at);
            layout::compact(p);
            layout::set_link(p, new_page.0);
        })?;
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

    /// Ordered scan over `[low, high)`. An empty `high` means "unbounded".
    pub fn scan(&self, low: &[u8], high: &[u8]) -> io::Result<Scan> {
        let leaf = self.leaf_for(low)?;
        Scan::new(self.clone(), leaf, low, high)
    }

    /// Ordered key-only scan over `[low, high)` — the range-stream API for
    /// index walks that resolve values lazily. Skips value and overflow
    /// reads entirely; see [`crate::scan::KeyScan`].
    pub fn scan_keys(&self, low: &[u8], high: &[u8]) -> io::Result<KeyScan> {
        let leaf = self.leaf_for(low)?;
        KeyScan::new(self.clone(), leaf, low, high)
    }

    /// The greatest entry with key `<= key` (floor lookup) — the access that
    /// finds "the snapshot with the closest timestamp" (Sec. 4.3).
    pub fn seek_floor(&self, key: &[u8]) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        let since = self.moves();
        let (path, leaf) = self.descend(key)?;
        if let Some((key, value)) = self.floor_in(leaf, key, since)? {
            return Ok(Some((key, self.resolve(value)?)));
        }
        // The floor lives in an earlier subtree; walk the path upward
        // looking for a sibling to our left, then take its rightmost
        // non-empty leaf. Settling that leaf re-reads the leaves right of
        // it, the starting leaf among them, should the floor have moved
        // right since the descent.
        for (page, idx) in path.iter().rev() {
            let candidates: Vec<u64> = self.store.read(*page, |p| {
                (-1..*idx)
                    .rev()
                    .map(|i| match i {
                        -1 => layout::link(p),
                        i => layout::internal_child(p, i as usize),
                    })
                    .collect()
            })?;
            for cand in candidates {
                let Some(left) = self.rightmost_leaf(PageId(cand))? else {
                    continue;
                };
                if let Some((key, value)) = self.floor_in(left, key, since)? {
                    return Ok(Some((key, self.resolve(value)?)));
                }
            }
        }
        Ok(None)
    }

    /// The greatest entry `<= key` in `leaf`, or in the leaf [`Self::settle`]
    /// moves right to; `None` when every key there is above `key`.
    fn floor_in(
        &self,
        leaf: PageId,
        key: &[u8],
        since: u64,
    ) -> io::Result<Option<(Vec<u8>, Value)>> {
        let (_, hit) = self.settle(leaf, key, since, |p| {
            let i = match layout::leaf_search(p, key) {
                Ok(i) => i,
                Err(i) => i.checked_sub(1)?,
            };
            let cell = layout::leaf_cell(p, i);
            Some((cell.key.to_vec(), Value::copy(&cell)))
        })?;
        Ok(hit)
    }

    /// The last leaf with entries in the subtree rooted at `page` (None if
    /// all are empty).
    fn rightmost_leaf(&self, page: PageId) -> io::Result<Option<PageId>> {
        enum Step {
            Leaf(bool),
            Children(Vec<u64>),
        }
        let step = self.store.read(page, |p| {
            let n = layout::ncells(p);
            if layout::node_type(p) == LEAF {
                return Step::Leaf(n > 0);
            }
            // Children right-to-left: cell n-1 … cell 0, then the leftmost
            // child (the link field).
            let mut kids: Vec<u64> = (0..n).rev().map(|i| layout::internal_child(p, i)).collect();
            kids.push(layout::link(p));
            Step::Children(kids)
        })?;
        let kids = match step {
            Step::Leaf(filled) => return Ok(filled.then_some(page)),
            Step::Children(kids) => kids,
        };
        for k in kids {
            if let Some(leaf) = self.rightmost_leaf(PageId(k))? {
                return Ok(Some(leaf));
            }
        }
        Ok(None)
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

    type Hook = Box<dyn Fn(&BTree) -> io::Result<()>>;

    thread_local! {
        static MID_MOVE: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Runs this thread's hook, if any, between two page writes of a split
    /// or a share: after each page that gains cells, before the parent
    /// learns of the move. An error from the hook stands for the next page
    /// write failing.
    pub(super) fn mid_move(t: &BTree) -> io::Result<()> {
        MID_MOVE.with(|h| match h.borrow().as_ref() {
            Some(f) => f(t),
            None => Ok(()),
        })
    }

    #[test]
    fn reads_between_a_moves_page_writes_see_every_entry_once() {
        let (_d, t) = open_tree(64);
        let value = |key: &[u8]| key.repeat(12);
        let n = 3_000u64;
        let order = move |i: u64| i * 7919 % n;
        // Keys `order(0..held)` are in; `order(held)` is being inserted,
        // and a move may write it with the cells it moves.
        let held = Rc::new(Cell::new(0u64));
        let stops = Rc::new(Cell::new(0u64));
        let hook = {
            let (held, stops) = (held.clone(), stops.clone());
            move |t: &BTree| {
                let pending = k(order(held.get()));
                let keys: Vec<Vec<u8>> = t
                    .scan_keys(&[], &[])
                    .unwrap()
                    .map(|k| k.unwrap())
                    .filter(|key| *key != pending)
                    .collect();
                assert_eq!(keys.len() as u64, held.get(), "keys skipped or repeated");
                assert!(keys.windows(2).all(|w| w[0] < w[1]));
                let mut entries = 0;
                for e in t.scan(&[], &[]).unwrap() {
                    let (key, v) = e.unwrap();
                    assert_eq!(v, value(&key));
                    entries += u64::from(key != pending);
                }
                assert_eq!(entries, held.get(), "entries skipped or repeated");
                // The keys of the leaves being rewritten (those within two
                // leaves of the pending key), and the gap after each, read
                // one at a time: the descent routes by the parent's old
                // separators.
                let at = keys.partition_point(|key| *key < pending);
                for key in &keys[at.saturating_sub(160)..(at + 160).min(keys.len())] {
                    assert_eq!(t.get(key).unwrap(), Some(value(key)), "get {key:?}");
                    let mut probe = key.clone();
                    probe.push(0);
                    let floor = t.seek_floor(&probe).unwrap().unwrap();
                    assert_eq!(floor, (key.clone(), value(key)), "floor of {probe:?}");
                }
                stops.set(stops.get() + 1);
                Ok(())
            }
        };
        MID_MOVE.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
        for i in 0..n {
            let key = k(order(i));
            t.insert(&key, &value(&key)).unwrap();
            held.set(held.get() + 1);
        }
        MID_MOVE.with(|h| h.borrow_mut().take());
        assert!(stops.get() >= 20, "{} stops", stops.get());
        let fill = t.verify().unwrap().fill();
        assert!(fill.leaf_fill() > 0.75, "{fill}");
    }

    #[test]
    fn point_reads_look_right_after_a_move_fails_part_way() {
        let value = |key: &[u8]| key.repeat(12);
        let n = 3_000u64;
        let order = move |i: u64| i * 7919 % n;
        // Fail each of a run of page writes in turn, one per tree: some
        // fall after a leaf lost cells and before its parent learnt where
        // they went.
        for fail_at in 20..32 {
            let (_d, t) = open_tree(64);
            let stops = Rc::new(Cell::new(0u64));
            let hook = {
                let stops = stops.clone();
                move |_: &BTree| {
                    stops.set(stops.get() + 1);
                    if stops.get() == fail_at {
                        return Err(io::Error::other("injected write error"));
                    }
                    Ok(())
                }
            };
            MID_MOVE.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
            let mut held = 0;
            while held < n && t.insert(&k(order(held)), &value(&k(order(held)))).is_ok() {
                held += 1;
            }
            MID_MOVE.with(|h| h.borrow_mut().take());
            assert!(held < n, "no write failed at stop {fail_at}");
            for key in (0..held).map(|i| k(order(i))) {
                let ctx = format!("key {key:?}, failed at stop {fail_at}");
                assert_eq!(t.get(&key).unwrap(), Some(value(&key)), "get {ctx}");
                let mut probe = key.clone();
                probe.push(0);
                let floor = t.seek_floor(&probe).unwrap().unwrap();
                assert_eq!(floor, (key.clone(), value(&key)), "floor of {ctx}");
            }
        }
    }

    #[test]
    fn plan_shares_while_the_pair_has_room_then_splits_in_three() {
        // A full leaf of ten 400-byte cells plus the new one, and a
        // sibling of four: even out by moving three.
        assert_eq!(plan(&[400; 15], 11, 4_000), Some(Plan::Share(8)));
        // Never moves the whole leaf, nor keeps it whole.
        assert_eq!(plan(&[800, 800, 3_000], 2, 4_000), Some(Plan::Share(1)));
        assert_eq!(plan(&[800, 800, 800], 2, 1_600), Some(Plan::Share(1)));
        // A sibling that would take less than `MIN_SHARE`: thirds, the
        // leaf's tail and the sibling's head in the middle.
        assert_eq!(plan(&[400; 20], 11, 4_000), Some(Plan::Three(7, 13)));
        assert_eq!(plan(&[400; 21], 11, 4_000), Some(Plan::Three(7, 14)));
        // Three pages cannot hold them either.
        assert_eq!(plan(&[400; 40], 20, 4_000), None);
        // An empty sibling takes half; with too much for two pages there
        // is no sibling tail to start a third.
        assert_eq!(plan(&[400; 11], 11, 4_000), Some(Plan::Share(6)));
        assert_eq!(plan(&[400; 25], 25, 4_000), None);
    }

    #[test]
    fn get_insert_basics() {
        let (_d, t) = open_tree(32);
        assert_eq!(t.get(b"missing").unwrap(), None);
        t.insert(b"a", b"1").unwrap();
        t.insert(b"b", b"2").unwrap();
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(t.get(b"b").unwrap().as_deref(), Some(b"2".as_slice()));
        // Upsert replaces.
        t.insert(b"a", b"one").unwrap();
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(b"one".as_slice()));
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

    /// Every leaf page, left to right.
    fn leaves(t: &BTree) -> Vec<PageId> {
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
        let mut leaves = Vec::new();
        while !page.is_null() {
            leaves.push(page);
            page = PageId(t.store.read(page, layout::link).unwrap());
        }
        leaves
    }

    /// `live_bytes / PAGE_SIZE` of every leaf, left to right.
    fn leaf_fills(t: &BTree) -> Vec<f64> {
        let live = |&leaf: &PageId| t.store.read(leaf, layout::live_bytes).unwrap();
        leaves(t)
            .iter()
            .map(|leaf| live(leaf) as f64 / PAGE_SIZE as f64)
            .collect()
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
        assert!(full.len() >= 30, "{} leaves", fills.len());
        assert!(full.iter().all(|&f| f >= 0.95), "{full:?}");
        assert!(*last > 0.0);
        assert_eq!(t.verify().unwrap().entries, n);

        // Shuffled inserts share with the right sibling and split two full
        // leaves into three. A 19-byte value makes a 23-byte cell (each
        // leaf's prefix holds the keys' first six bytes); a leaf whose keys
        // share a seventh byte too holds 22-byte cells.
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
            t.insert(&k(key), &[key as u8; 19]).unwrap();
        }
        let fills = leaf_fills(&t);
        let mean = fills.iter().sum::<f64>() / fills.len() as f64;
        assert_eq!(fills.len(), 77);
        assert!((0.793..0.794).contains(&mean), "mean leaf fill {mean}");
    }

    #[test]
    fn a_key_outside_a_long_prefix_splits_its_leaf_until_it_fits() {
        let (_d, t) = open_tree(64);
        // Keys behind one 40-byte prefix with one-byte values: full leaves
        // of four-byte cells, each leaf's prefix holding 41 key bytes.
        let key = |i: u16| [&[9u8; 40][..], &i.to_be_bytes()].concat();
        for i in 0..3_000u16 {
            t.insert(&key(i), &[i as u8]).unwrap();
        }
        let before = leaves(&t).len();
        // A key sharing nothing with them goes before the first leaf's
        // first cell: under an empty prefix every cell there widens by 41
        // bytes, more than either half of one split can hold.
        let big = vec![3u8; MAX_INLINE_VALUE];
        t.insert(&[1], &big).unwrap();
        assert!(
            leaves(&t).len() >= before + 3,
            "{before} → {}",
            leaves(&t).len()
        );
        let report = t.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.entries, 3_001);
        assert_eq!(t.get(&[1]).unwrap(), Some(big));
        assert_eq!(t.get(&key(1_234)).unwrap(), Some(vec![1_234u16 as u8]));
        assert_eq!(leaf_first_keys(&t)[0], [1]);
    }

    /// The first key of every leaf, left to right.
    fn leaf_first_keys(t: &BTree) -> Vec<Vec<u8>> {
        let first = |&leaf: &PageId| {
            t.store
                .read(leaf, |p| layout::leaf_key(p, 0).to_vec())
                .unwrap()
        };
        leaves(t).iter().map(first).collect()
    }

    #[test]
    fn insert_with_finds_the_floor_in_the_left_sibling() {
        let (_d, t) = open_tree(16);
        for i in 0..3_000u64 {
            t.insert(&k(i * 2), &(i * 2).to_le_bytes()).unwrap();
        }
        // Take a leaf's first cell out of its page: the separator above
        // the leaf still names its key, so putting it back descends to
        // that leaf and lands before every cell there. Its floor is the
        // left sibling's last.
        let firsts = leaf_first_keys(&t);
        assert!(firsts.len() >= 4, "{} leaves", firsts.len());
        let first = firsts[2].clone();
        t.store
            .write(leaves(&t)[2], |p| layout::leaf_remove(p, 0))
            .unwrap();
        let before = u64::from_be_bytes(first[..].try_into().unwrap()) - 2;
        let mut seen = None;
        t.insert_with(&first, |floor| {
            seen = floor.map(|(key, value)| (key.to_vec(), value.to_vec()));
            io::Result::Ok(b"back".to_vec())
        })
        .unwrap();
        assert_eq!(seen, Some((k(before), before.to_le_bytes().to_vec())));
        assert_eq!(t.get(&first).unwrap().as_deref(), Some(&b"back"[..]));
        // The insert went to the leaf the separator names.
        assert_eq!(leaf_first_keys(&t)[2], first);
        assert!(t.verify().unwrap().is_clean());
        // Below the smallest key there is no floor at all.
        t.insert_with(&[], |floor| {
            assert_eq!(floor, None);
            io::Result::Ok([])
        })
        .unwrap();
    }

    #[test]
    fn insert_with_descends_again_when_value_of_split_the_leaf() {
        let (_d, t) = open_tree(16);
        for i in 0..200u64 {
            t.insert(&k(i * 1_000), &[1; 40]).unwrap();
        }
        let writer = t.clone();
        // The closure fills the key's leaf until it splits at least once,
        // so the leaf the insert read may no longer cover the key.
        let key = k(100_500);
        t.insert_with(&key, |floor| {
            assert_eq!(floor.map(|(key, _)| key.to_vec()), Some(k(100_000)));
            for j in 1..400u64 {
                writer.insert(&k(100_000 + j), &[2; 40]).unwrap();
            }
            io::Result::Ok(b"late".to_vec())
        })
        .unwrap();
        assert_eq!(t.get(&key).unwrap().as_deref(), Some(&b"late"[..]));
        let report = t.verify().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.entries, 200 + 399 + 1);
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
