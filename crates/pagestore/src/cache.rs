//! A classic intrusive-list LRU cache for pages.
//!
//! Entries live in a slab; a doubly-linked list threaded through the slab
//! maintains recency so both hits and evictions are `O(1)`. Dirty pages are
//! handed back to the caller on eviction for write-back.

use crate::page::{PageBuf, PageId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const NIL: usize = usize::MAX;

struct Entry {
    page: PageId,
    buf: PageBuf,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// Hashes a page id with one multiply. Page ids are small dense integers
/// the store hands out itself, so they need spreading over the table, not
/// protection from chosen keys; SipHash did both at several times the cost.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci hashing: the golden-ratio multiply carries each bit of
        // the id upwards, and the fold brings the high half back down to
        // the low bits the table indexes with.
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>;

/// Cache hit/miss/eviction counters, exposed for the benchmark harness.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

/// Fixed-capacity LRU page cache.
pub struct LruCache {
    map: PageMap,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    stats: CacheStats,
}

impl LruCache {
    /// A cache holding at most `capacity` pages (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: PageMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Resolves `page` to its slot, counting a hit or a miss and making
    /// it the most recently used. The slot stays valid until the next
    /// [`Self::insert`] or [`Self::remove`]; read it with [`Self::buf`] or
    /// [`Self::buf_mut`], so one access costs one hash lookup and one
    /// counter tick.
    pub fn lookup(&mut self, page: PageId) -> Option<usize> {
        match self.map.get(&page) {
            Some(&i) => {
                self.stats.hits += 1;
                self.touch(i);
                Some(i)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The page in `slot`.
    pub fn buf(&self, slot: usize) -> &PageBuf {
        &self.slab[slot].buf
    }

    /// The page in `slot`, marked dirty.
    pub fn buf_mut(&mut self, slot: usize) -> &mut PageBuf {
        self.slab[slot].dirty = true;
        &mut self.slab[slot].buf
    }

    /// Inserts (or replaces) a page. Returns its slot and, if a *dirty*
    /// victim had to make room, the evicted `(page, buf)` pair; clean
    /// victims are dropped silently.
    pub fn insert(
        &mut self,
        page: PageId,
        buf: PageBuf,
        dirty: bool,
    ) -> (usize, Option<(PageId, PageBuf)>) {
        if let Some(&i) = self.map.get(&page) {
            self.slab[i].buf = buf;
            self.slab[i].dirty |= dirty;
            self.touch(i);
            return (i, None);
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let e = &mut self.slab[victim];
            self.map.remove(&e.page);
            self.stats.evictions += 1;
            if e.dirty {
                evicted = Some((e.page, std::mem::take(&mut e.buf)));
            }
            self.free.push(victim);
        }
        let i = if let Some(i) = self.free.pop() {
            self.slab[i] = Entry {
                page,
                buf,
                dirty,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.slab.push(Entry {
                page,
                buf,
                dirty,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(page, i);
        self.push_front(i);
        (i, evicted)
    }

    /// Removes a page, returning its buffer and dirtiness.
    pub fn remove(&mut self, page: PageId) -> Option<(PageBuf, bool)> {
        let i = self.map.remove(&page)?;
        self.unlink(i);
        self.free.push(i);
        let e = &mut self.slab[i];
        Some((std::mem::take(&mut e.buf), e.dirty))
    }

    /// Snapshots every dirty page for a full flush. Dirty bits are left
    /// set; the caller clears each with [`Self::clear_dirty`] only after
    /// its write-back succeeds, so a failed flush can be retried without
    /// losing pages.
    pub fn dirty_pages(&self) -> Vec<(PageId, PageBuf)> {
        let mut out = Vec::new();
        for e in &self.slab {
            if e.dirty && self.map.contains_key(&e.page) {
                out.push((e.page, e.buf.clone()));
            }
        }
        out
    }

    /// Clears a page's dirty bit after a successful write-back.
    pub fn clear_dirty(&mut self, page: PageId) {
        if let Some(&i) = self.map.get(&page) {
            self.slab[i].dirty = false;
        }
    }

    /// Page ids currently resident, most recent first (for tests).
    pub fn resident(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slab[i].page);
            i = self.slab[i].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(tag: u64) -> PageBuf {
        let mut b = PageBuf::zeroed();
        b.write_u64(0, tag);
        b
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCache::new(2);
        assert!(c.insert(PageId(1), buf(1), false).1.is_none());
        assert!(c.insert(PageId(2), buf(2), false).1.is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(PageId(1)).is_some());
        assert!(c.insert(PageId(3), buf(3), false).1.is_none()); // 2 evicted, clean
        assert_eq!(c.resident(), vec![PageId(3), PageId(1)]);
        assert!(c.lookup(PageId(2)).is_none());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 1
            }
        );
    }

    #[test]
    fn dirty_eviction_returns_buffer() {
        let mut c = LruCache::new(1);
        c.insert(PageId(1), buf(7), true);
        let (_, ev) = c.insert(PageId(2), buf(8), false);
        let (pid, b) = ev.expect("dirty page must be handed back");
        assert_eq!(pid, PageId(1));
        assert_eq!(b.read_u64(0), 7);
    }

    #[test]
    fn buf_mut_marks_dirty() {
        let mut c = LruCache::new(2);
        let (slot, _) = c.insert(PageId(1), buf(1), false);
        assert_eq!(c.lookup(PageId(1)), Some(slot));
        assert!(c.dirty_pages().is_empty());
        c.buf_mut(slot).write_u64(0, 99);
        let dirty = c.dirty_pages();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].1.read_u64(0), 99);
        // dirty_pages does not clear the bit; clear_dirty does.
        assert_eq!(c.dirty_pages().len(), 1);
        c.clear_dirty(PageId(1));
        assert!(c.dirty_pages().is_empty());
    }

    #[test]
    fn replace_existing_keeps_len() {
        let mut c = LruCache::new(4);
        c.insert(PageId(1), buf(1), false);
        let (slot, _) = c.insert(PageId(1), buf(2), false);
        assert_eq!(c.len(), 1);
        assert_eq!(c.buf(slot).read_u64(0), 2);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert(PageId(1), buf(1), true);
        let (b, dirty) = c.remove(PageId(1)).unwrap();
        assert!(dirty);
        assert_eq!(b.read_u64(0), 1);
        assert!(c.is_empty());
        c.insert(PageId(2), buf(2), false);
        assert_eq!(c.len(), 1);
        assert!(c.remove(PageId(9)).is_none());
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            c.insert(PageId(i % 16), buf(i), i % 3 == 0);
            if i % 5 == 0 {
                c.lookup(PageId(i % 16));
            }
        }
        assert!(c.len() <= 8);
        let res = c.resident();
        assert_eq!(res.len(), c.len());
    }
}
