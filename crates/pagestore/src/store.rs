//! The paged file: allocation, free list, cached reads and write-back.
//!
//! All I/O goes through [`vfs::Vfs`], so the store runs unchanged on the
//! production `StdVfs` and on the fault-injecting `SimVfs`. The file checks
//! itself: [`PageStore::sync`] ends the meta page with a **seal**, one
//! [`vfs::bulk_sum64`] over the rest of the meta page and the sum of every
//! other page, made durable by the same fsync as the pages. A verifying
//! open recomputes it, so a file torn by a crash, or written back after its
//! last sync, fails verification and the caller rebuilds it from its source
//! of truth (the change log).

use crate::cache::LruCache;
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use lock::{Mutex, Rank};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vfs::{VfsFile, VfsRef};

/// "AIONPGS7": the page-file format version. Version 1 laid B+Tree leaf
/// cells out with a seven-byte header; version 2 had the varint cell header
/// but 32-byte neighbour keys; version 3 kept its checksums in a
/// `<file>.sums` sidecar instead of the meta page's seal; version 4 wrote
/// the LineageStore's history keys as 16 fixed bytes and each entry's
/// chain base as an absolute timestamp; version 5 wrote each leaf cell's
/// whole key, a `[0]` value on every live neighbour entry and two chain
/// bytes on every full record; version 6 gave each leaf cell a varint for
/// each of its two lengths, and every full LineageStore record a chain
/// byte `0` in front of its body. This build reads none of them, and an old
/// file fails at open like a torn one, so the caller rebuilds it from the
/// change log.
const MAGIC: u64 = 0x4149_4F4E_5047_5337;
/// The magic without its version digit.
const MAGIC_STEM: u64 = MAGIC >> 8;
const META_MAGIC_OFF: usize = 0;
const META_PAGE_COUNT_OFF: usize = 8;
const META_FREE_HEAD_OFF: usize = 16;
const META_ROOTS_OFF: usize = 24;
/// The seal: the meta page's last eight bytes. A plain flush writes 0,
/// "not sealed".
const META_SEAL_OFF: usize = PAGE_SIZE - 8;
/// Number of u64 root slots available to clients on the meta page.
pub const ROOT_SLOTS: usize = 8;

struct Inner {
    cache: LruCache,
    page_count: u64,
    free_head: PageId,
    meta_dirty: bool,
    /// Checksum of each page as last written to the file.
    sums: Vec<u64>,
}

/// Handles into the store's registry, fetched once at open so the hot
/// path is a relaxed atomic op per event.
struct Metrics {
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    cache_evictions: Arc<obs::Counter>,
    read_latency: Arc<obs::Histogram>,
    writeback_latency: Arc<obs::Histogram>,
}

impl Metrics {
    fn new(registry: &obs::Registry) -> Metrics {
        Metrics {
            cache_hits: registry.counter("pagestore.cache.hits"),
            cache_misses: registry.counter("pagestore.cache.misses"),
            cache_evictions: registry.counter("pagestore.cache.evictions"),
            read_latency: registry.histogram("pagestore.read.latency_ns"),
            writeback_latency: registry.histogram("pagestore.writeback.latency_ns"),
        }
    }
}

/// A file of [`PAGE_SIZE`] pages behind an LRU cache.
///
/// All access goes through closures ([`PageStore::read`] /
/// [`PageStore::write`]) so pages cannot escape the cache lock; this mirrors
/// the pin/unpin discipline of a real page cache with none of the lifetime
/// hazards.
pub struct PageStore {
    file: Box<dyn VfsFile>,
    inner: Mutex<Inner>,
    /// The meta page's root slots, readable without `inner`'s lock: every
    /// B+Tree descent starts with one. `set_root` stores under the lock
    /// (which also marks the meta page dirty) with `Release`, `root` loads
    /// with `Acquire`: a reader that sees a new root sees every write the
    /// setter made before it.
    roots: [AtomicU64; ROOT_SLOTS],
    /// What the store, and every B+Tree over it, counts into.
    registry: Arc<obs::Registry>,
    metrics: Metrics,
}

/// Checksum of an all-zero page: what an allocated page that was never
/// written reads back as.
fn zero_page_sum() -> u64 {
    static SUM: OnceLock<u64> = OnceLock::new();
    *SUM.get_or_init(|| vfs::bulk_sum64(&[0u8; PAGE_SIZE]))
}

/// The seal over a meta page image (up to the seal) and the sums of every
/// page after it; `sums` is indexed by page id.
fn seal_of(meta: &PageBuf, sums: &[u64]) -> u64 {
    let mut bytes = meta.bytes()[..META_SEAL_OFF].to_vec();
    bytes.extend(sums.iter().skip(1).flat_map(|sum| sum.to_le_bytes()));
    vfs::bulk_sum64(&bytes)
}

impl PageStore {
    /// Opens (or creates) a page store at `path` with a cache of
    /// `cache_pages` pages, on the production file system, without
    /// checksum verification and counting into a registry of its own.
    pub fn open<P: AsRef<Path>>(path: P, cache_pages: usize) -> io::Result<PageStore> {
        let registry = Arc::new(obs::Registry::scoped());
        PageStore::open_with_vfs(&VfsRef::std(), path.as_ref(), cache_pages, false, registry)
    }

    /// Opens (or creates) a page store at `path` on `vfs`, counting into
    /// `registry`.
    ///
    /// With `verify` set, an existing non-empty file must match the seal on
    /// its meta page exactly — i.e. be the image of its most recent
    /// successful [`PageStore::sync`]. An unsealed or mismatching file
    /// yields `InvalidData`, signalling an unclean shutdown; the caller is
    /// expected to delete the file and rebuild from its source of truth.
    pub fn open_with_vfs(
        vfs: &VfsRef,
        path: &Path,
        cache_pages: usize,
        verify: bool,
        registry: Arc<obs::Registry>,
    ) -> io::Result<PageStore> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        let roots = std::array::from_fn(|_| AtomicU64::new(u64::MAX));
        let mut inner = Inner {
            cache: LruCache::new(cache_pages),
            page_count: 1,
            free_head: PageId::NULL,
            meta_dirty: true,
            sums: Vec::new(),
        };
        if len >= PAGE_SIZE as u64 {
            let mut meta = PageBuf::zeroed();
            file.read_exact_at(meta.bytes_mut().as_mut_slice(), 0)?;
            let magic = meta.read_u64(META_MAGIC_OFF);
            if magic != MAGIC {
                let detail = if magic >> 8 == MAGIC_STEM {
                    format!(
                        "page file version {}, this build reads {}",
                        magic.to_be_bytes().escape_ascii(),
                        MAGIC.to_be_bytes().escape_ascii()
                    )
                } else {
                    "not an aion page store (bad magic)".to_string()
                };
                return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
            }
            inner.page_count = meta.read_u64(META_PAGE_COUNT_OFF);
            inner.free_head = PageId(meta.read_u64(META_FREE_HEAD_OFF));
            for (i, slot) in roots.iter().enumerate() {
                slot.store(meta.read_u64(META_ROOTS_OFF + i * 8), Ordering::Relaxed);
            }
            inner.meta_dirty = false;
            // Checksum every page as it sits in the file now, so later
            // syncs seal pages this session never touches. Pages past EOF
            // (allocated, never flushed, file hole) read back as zeros.
            let zero = zero_page_sum();
            let mut buf = PageBuf::zeroed();
            for pid in 0..inner.page_count {
                let off = pid * PAGE_SIZE as u64;
                if off + PAGE_SIZE as u64 <= len {
                    file.read_exact_at(buf.bytes_mut().as_mut_slice(), off)?;
                    inner.sums.push(vfs::bulk_sum64(buf.bytes().as_slice()));
                } else {
                    inner.sums.push(zero);
                }
            }
            if verify && meta.read_u64(META_SEAL_OFF) != seal_of(&meta, &inner.sums) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "page file does not match the seal of its last sync; rebuild required",
                ));
            }
        }
        Ok(PageStore {
            file,
            inner: Mutex::new(Rank::PageStore, inner),
            roots,
            metrics: Metrics::new(&registry),
            registry,
        })
    }

    /// Total allocated pages, including the meta page and free pages.
    pub fn page_count(&self) -> u64 {
        self.inner.lock().page_count
    }

    /// On-disk footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// The registry the store and every B+Tree over it count into.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Reads root slot `slot` from the meta page (`u64::MAX` when unset).
    pub fn root(&self, slot: usize) -> u64 {
        self.roots[slot].load(Ordering::Acquire)
    }

    /// Persists a root pointer in meta slot `slot`.
    pub fn set_root(&self, slot: usize, value: u64) {
        let mut g = self.inner.lock();
        self.roots[slot].store(value, Ordering::Release);
        g.meta_dirty = true;
    }

    /// Writes a page image to the file and records its checksum.
    fn write_page(
        &self,
        inner: &mut Inner,
        pid: PageId,
        bytes: &[u8; PAGE_SIZE],
    ) -> io::Result<()> {
        self.file.write_all_at(bytes.as_slice(), pid.offset())?;
        let idx = pid.0 as usize;
        if inner.sums.len() <= idx {
            inner.sums.resize(idx + 1, zero_page_sum());
        }
        inner.sums[idx] = vfs::bulk_sum64(bytes.as_slice());
        Ok(())
    }

    /// Resolves `page` to its cache slot with one cache lookup — one hit
    /// or one miss, booked in the `pagestore.cache.*` counters — reading
    /// the page from the file on a miss.
    fn load(&self, inner: &mut Inner, page: PageId) -> io::Result<usize> {
        if let Some(slot) = inner.cache.lookup(page) {
            self.metrics.cache_hits.inc();
            return Ok(slot);
        }
        self.metrics.cache_misses.inc();
        let mut buf = PageBuf::zeroed();
        {
            let _t = self.metrics.read_latency.start_timer();
            self.file
                .read_exact_at(buf.bytes_mut().as_mut_slice(), page.offset())?;
        }
        let (slot, evicted) = inner.cache.insert(page, buf, false);
        if let Some((pid, dirty)) = evicted {
            self.metrics.cache_evictions.inc();
            let _t = self.metrics.writeback_latency.start_timer();
            if let Err(e) = self.write_page(inner, pid, dirty.bytes()) {
                // Write-back failed: the victim's buffer is the only copy
                // of its updates, so undo the load (the incoming page was
                // clean) and put the victim back, still dirty.
                inner.cache.remove(page);
                inner.cache.insert(pid, dirty, true);
                return Err(e);
            }
        }
        Ok(slot)
    }

    /// Runs `f` over an immutable view of `page`.
    pub fn read<R>(&self, page: PageId, f: impl FnOnce(&PageBuf) -> R) -> io::Result<R> {
        debug_assert!(!page.is_null());
        let mut inner = self.inner.lock();
        let slot = self.load(&mut inner, page)?;
        Ok(f(inner.cache.buf(slot)))
    }

    /// Runs `f` over a mutable view of `page`, marking it dirty.
    pub fn write<R>(&self, page: PageId, f: impl FnOnce(&mut PageBuf) -> R) -> io::Result<R> {
        debug_assert!(!page.is_null());
        let mut inner = self.inner.lock();
        let slot = self.load(&mut inner, page)?;
        Ok(f(inner.cache.buf_mut(slot)))
    }

    /// Allocates a zeroed page, reusing the free list when possible.
    pub fn allocate(&self) -> io::Result<PageId> {
        let mut inner = self.inner.lock();
        if !inner.free_head.is_null() {
            let head = inner.free_head;
            let slot = self.load(&mut inner, head)?;
            let buf = inner.cache.buf_mut(slot);
            let next = PageId(buf.read_u64(0));
            *buf = PageBuf::zeroed();
            inner.free_head = next;
            inner.meta_dirty = true;
            return Ok(head);
        }
        let page = PageId(inner.page_count);
        inner.page_count += 1;
        inner.meta_dirty = true;
        if let (_, Some((pid, dirty))) = inner.cache.insert(page, PageBuf::zeroed(), true) {
            self.metrics.cache_evictions.inc();
            let _t = self.metrics.writeback_latency.start_timer();
            self.write_page(&mut inner, pid, dirty.bytes())?;
        }
        Ok(page)
    }

    /// Returns `page` to the free list.
    pub fn free(&self, page: PageId) -> io::Result<()> {
        debug_assert!(!page.is_null() && page != PageId::META);
        let mut inner = self.inner.lock();
        let old_head = inner.free_head;
        let slot = self.load(&mut inner, page)?;
        inner.cache.buf_mut(slot).write_u64(0, old_head.0);
        inner.free_head = page;
        inner.meta_dirty = true;
        Ok(())
    }

    /// Walks the free list, returning the pages on it in LIFO order. The
    /// walk is defensive — it stops (without error) at a pointer outside
    /// the file or once it has visited `page_count` pages, so a corrupt
    /// list terminates; callers detect corruption by checking the returned
    /// pages for duplicates or overlap with live data.
    pub fn free_list(&self) -> io::Result<Vec<PageId>> {
        let mut inner = self.inner.lock();
        let cap = inner.page_count as usize;
        let mut out = Vec::new();
        let mut cur = inner.free_head;
        while !cur.is_null() && out.len() < cap {
            if cur.0 >= inner.page_count {
                break;
            }
            let slot = self.load(&mut inner, cur)?;
            let next = PageId(inner.cache.buf(slot).read_u64(0));
            out.push(cur);
            cur = next;
        }
        Ok(out)
    }

    /// Reconciles a set of reachable (live) pages against the free list:
    /// every allocated page other than the meta page must be exactly one of
    /// live or free. Returns a description of each discrepancy — duplicate
    /// free-list entries, pages both live and free, and leaked pages.
    pub fn reconcile_free_list(
        &self,
        reachable: &std::collections::BTreeSet<u64>,
    ) -> io::Result<Vec<String>> {
        let free = self.free_list()?;
        let mut problems = Vec::new();
        let mut free_set = std::collections::BTreeSet::new();
        for p in &free {
            if !free_set.insert(p.0) {
                problems.push(format!("page {} appears twice on the free list", p.0));
            }
            if reachable.contains(&p.0) {
                problems.push(format!("page {} is both live and on the free list", p.0));
            }
        }
        let leaked: Vec<u64> = (1..self.page_count())
            .filter(|p| !reachable.contains(p) && !free_set.contains(p))
            .collect();
        if !leaked.is_empty() {
            problems.push(format!(
                "{} page(s) neither reachable nor free (first: {})",
                leaked.len(),
                leaked[0]
            ));
        }
        Ok(problems)
    }

    /// Writes every dirty page, then the meta page: always and sealed
    /// over the resulting file when `seal` is set, else only when it
    /// changed and with a seal of 0.
    fn write_back(&self, inner: &mut Inner, seal: bool) -> io::Result<()> {
        for (pid, buf) in inner.cache.dirty_pages() {
            let _t = self.metrics.writeback_latency.start_timer();
            // Grow the file lazily: write_all_at extends as needed. The
            // dirty bit clears only after the write succeeds, so a flush
            // that fails partway leaves the unwritten pages dirty and a
            // later flush retries them.
            self.write_page(inner, pid, buf.bytes())?;
            inner.cache.clear_dirty(pid);
        }
        if !seal && !inner.meta_dirty {
            return Ok(());
        }
        let mut meta = PageBuf::zeroed();
        meta.write_u64(META_MAGIC_OFF, MAGIC);
        meta.write_u64(META_PAGE_COUNT_OFF, inner.page_count);
        meta.write_u64(META_FREE_HEAD_OFF, inner.free_head.0);
        for (i, slot) in self.roots.iter().enumerate() {
            meta.write_u64(META_ROOTS_OFF + i * 8, slot.load(Ordering::Acquire));
        }
        if seal {
            inner
                .sums
                .resize(inner.page_count as usize, zero_page_sum());
            meta.write_u64(META_SEAL_OFF, seal_of(&meta, &inner.sums));
        }
        self.write_page(inner, PageId::META, meta.bytes())?;
        inner.meta_dirty = false;
        Ok(())
    }

    /// Writes every dirty page and, when it changed, the meta page back to
    /// the file. The file verifies again only after the next
    /// [`PageStore::sync`].
    pub fn flush(&self) -> io::Result<()> {
        self.write_back(&mut self.inner.lock(), false)
    }

    /// Writes every dirty page, then the meta page with the seal over the
    /// resulting file, then fsyncs once. A crash before the fsync completes
    /// leaves new pages beside an old meta page or the reverse, and neither
    /// matches the seal it carries.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.write_back(&mut inner, true)?;
        self.file.sync_data()
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    /// A four-page-cache store at `path` on `vfs`, counting into a
    /// detached registry.
    fn open_on(vfs: &VfsRef, path: &Path, verify: bool) -> io::Result<PageStore> {
        PageStore::open_with_vfs(vfs, path, 4, verify, Arc::new(obs::Registry::new()))
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(dir.path().join("p.db"), 4).unwrap();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        store.write(a, |p| p.write_u64(0, 111)).unwrap();
        store.write(b, |p| p.write_u64(0, 222)).unwrap();
        assert_eq!(store.read(a, |p| p.read_u64(0)).unwrap(), 111);
        assert_eq!(store.read(b, |p| p.read_u64(0)).unwrap(), 222);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("p.db");
        let page;
        {
            let store = PageStore::open(&path, 4).unwrap();
            page = store.allocate().unwrap();
            store.write(page, |p| p.write_u64(100, 0xABCD)).unwrap();
            store.set_root(0, page.0);
            store.sync().unwrap();
        }
        let store = PageStore::open(&path, 4).unwrap();
        assert_eq!(store.root(0), page.0);
        assert_eq!(store.read(page, |p| p.read_u64(100)).unwrap(), 0xABCD);
        assert_eq!(store.root(1), u64::MAX);
    }

    #[test]
    fn eviction_write_back_under_tiny_cache() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(dir.path().join("p.db"), 2).unwrap();
        let pages: Vec<PageId> = (0..16).map(|_| store.allocate().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            store.write(p, |b| b.write_u64(0, i as u64 * 7)).unwrap();
        }
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(store.read(p, |b| b.read_u64(0)).unwrap(), i as u64 * 7);
        }
        let evictions = store
            .registry()
            .snapshot()
            .counter("pagestore.cache.evictions");
        assert!(evictions > Some(0));
    }

    #[test]
    fn cache_stats_and_obs_counters_book_one_hit_or_miss_per_access() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(dir.path().join("p.db"), 4).unwrap();
        let hits_misses = || {
            let snap = store.registry().snapshot();
            (
                snap.counter("pagestore.cache.hits").unwrap_or(0),
                snap.counter("pagestore.cache.misses").unwrap_or(0),
            )
        };
        // Fresh pages enter the cache without a lookup: no access is booked.
        let pages: Vec<PageId> = (0..8).map(|_| store.allocate().unwrap()).collect();
        assert_eq!(hits_misses(), (0, 0));

        let mut accesses = 0;
        // The last four allocated pages are resident, the first four were
        // evicted: four misses (each evicting a resident page), then hits on
        // what those loads brought in.
        for &p in &pages[..4] {
            store.write(p, |b| b.write_u64(0, p.0)).unwrap();
            accesses += 1;
        }
        for &p in &pages[..4] {
            assert_eq!(store.read(p, |b| b.read_u64(0)).unwrap(), p.0);
            accesses += 1;
        }
        // free + allocate-from-free-list: one access each.
        store.free(pages[0]).unwrap();
        assert_eq!(store.allocate().unwrap(), pages[0]);
        accesses += 2;
        // free_list walks nothing (the list is empty again).
        assert!(store.free_list().unwrap().is_empty());
        // One more miss: page 7 was evicted by the loads above.
        store.read(pages[7], |_| ()).unwrap();
        accesses += 1;

        let delta = hits_misses();
        assert_eq!(delta, (6, 5));
        assert_eq!(delta.0 + delta.1, accesses);
    }

    #[test]
    fn free_list_reuse() {
        let dir = tempdir().unwrap();
        let store = PageStore::open(dir.path().join("p.db"), 4).unwrap();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        let count = store.page_count();
        store.free(a).unwrap();
        store.free(b).unwrap();
        let c = store.allocate().unwrap();
        let d = store.allocate().unwrap();
        // LIFO reuse, no growth.
        assert_eq!(c, b);
        assert_eq!(d, a);
        assert_eq!(store.page_count(), count);
        // Freed pages come back zeroed.
        assert_eq!(store.read(c, |p| p.read_u64(0)).unwrap(), 0);
    }

    #[test]
    fn free_list_survives_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("p.db");
        let freed;
        {
            let store = PageStore::open(&path, 4).unwrap();
            let a = store.allocate().unwrap();
            let _b = store.allocate().unwrap();
            store.free(a).unwrap();
            freed = a;
            store.sync().unwrap();
        }
        let store = PageStore::open(&path, 4).unwrap();
        assert_eq!(store.allocate().unwrap(), freed);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("junk.db");
        VfsRef::std()
            .write(&path, &vec![0x42u8; PAGE_SIZE])
            .unwrap();
        assert!(PageStore::open(&path, 4).is_err());
    }

    #[test]
    fn older_version_rejected_by_name() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("old.db");
        PageStore::open(&path, 4).unwrap().sync().unwrap();
        let mut raw = VfsRef::std().read(&path).unwrap();
        assert_eq!(&raw[..8], b"7SGPNOIA", "little-endian AIONPGS7");
        for version in [b'1', b'2', b'3', b'4', b'5', b'6'] {
            raw[0] = version;
            VfsRef::std().write(&path, &raw).unwrap();
            let err = PageStore::open(&path, 4).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!(
                    "page file version AIONPGS{}, this build reads AIONPGS7",
                    char::from(version)
                )
            );
        }
    }

    #[test]
    fn verify_accepts_synced_file_and_rejects_tampering() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("v.db");
        {
            let store = open_on(&vfs, &path, false).unwrap();
            let p = store.allocate().unwrap();
            store.write(p, |b| b.write_u64(0, 42)).unwrap();
            store.sync().unwrap();
        }
        // Clean reopen verifies.
        open_on(&vfs, &path, true).unwrap();
        // A byte flipped after the last sync is detected.
        let mut raw = vfs.read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        vfs.write(&path, &raw).unwrap();
        let err = open_on(&vfs, &path, true).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Non-verifying open still works (legacy path).
        open_on(&vfs, &path, false).unwrap();
    }

    #[test]
    fn verify_rejects_a_flipped_meta_byte() {
        let dir = tempdir().unwrap();
        let (vfs, path) = (VfsRef::std(), dir.path().join("m.db"));
        let store = PageStore::open(&path, 4).unwrap();
        store.set_root(0, store.allocate().unwrap().0);
        store.sync().unwrap();
        drop(store);
        let synced = vfs.read(&path).unwrap();
        // The free head, a root slot, the unused middle and the seal itself.
        for off in [16, 27, PAGE_SIZE / 2, PAGE_SIZE - 3] {
            let mut raw = synced.clone();
            raw[off] ^= 1;
            vfs.write(&path, &raw).unwrap();
            let err = open_on(&vfs, &path, true).err();
            assert_eq!(
                err.map(|e| e.kind()),
                Some(io::ErrorKind::InvalidData),
                "byte {off}"
            );
        }
    }

    /// A page rolled back to its bytes from before the last sync is valid
    /// on its own; the seal still rejects the file.
    #[test]
    fn verify_rejects_a_lost_write() {
        let dir = tempdir().unwrap();
        let (vfs, path) = (VfsRef::std(), dir.path().join("l.db"));
        let store = PageStore::open(&path, 4).unwrap();
        let p = store.allocate().unwrap();
        store.sync().unwrap();
        let before = vfs.read(&path).unwrap();
        store.write(p, |b| b.write_u64(0, 2)).unwrap();
        store.sync().unwrap();
        drop(store);
        open_on(&vfs, &path, true).unwrap();
        let mut raw = vfs.read(&path).unwrap();
        raw[PAGE_SIZE..].copy_from_slice(&before[PAGE_SIZE..]);
        vfs.write(&path, &raw).unwrap();
        let err = open_on(&vfs, &path, true).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }

    /// A plain flush writes the meta page unsealed: the file verifies
    /// again only after a sync.
    #[test]
    fn verify_rejects_a_flushed_meta_page() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("f.db");
        let store = PageStore::open(&path, 4).unwrap();
        store.sync().unwrap();
        store.set_root(0, 1);
        store.flush().unwrap();
        let err = open_on(&VfsRef::std(), &path, true).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        store.sync().unwrap();
        open_on(&VfsRef::std(), &path, true).unwrap();
    }

    /// A sync after one page changed writes that page and the sealed meta
    /// page, fsyncs once, and leaves no other file.
    #[test]
    fn sync_writes_the_page_and_the_meta_page_and_fsyncs_once() {
        let sim = vfs::SimVfs::new(7);
        let vfs = VfsRef::new(Arc::new(sim.clone()));
        let store = open_on(&vfs, Path::new("/s.db"), false).unwrap();
        let p = store.allocate().unwrap();
        store.sync().unwrap();
        store.write(p, |b| b.write_u64(0, 9)).unwrap();
        let before = sim.op_count();
        store.sync().unwrap();
        assert_eq!(sim.op_count() - before, 3);
        drop(store);
        assert_eq!(vfs.read_dir(Path::new("/")).unwrap().len(), 1);
        open_on(&vfs, Path::new("/s.db"), true).unwrap();
    }

    #[test]
    fn verify_rejects_unsynced_shutdown() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("u.db");
        {
            let store = open_on(&vfs, &path, false).unwrap();
            let p = store.allocate().unwrap();
            store.write(p, |b| b.write_u64(0, 7)).unwrap();
            store.sync().unwrap();
            // More writes after the sync: Drop flushes them to the file
            // but never syncs, so the file no longer matches the seal
            // of its last sync.
            store.write(p, |b| b.write_u64(0, 8)).unwrap();
        }
        let err = open_on(&vfs, &path, true).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn verify_survives_pages_allocated_but_never_synced_before() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("w.db");
        {
            let store = open_on(&vfs, &path, false).unwrap();
            for _ in 0..8 {
                store.allocate().unwrap();
            }
            store.sync().unwrap();
        }
        let store = open_on(&vfs, &path, true).unwrap();
        assert_eq!(store.page_count(), 9);
    }
}
