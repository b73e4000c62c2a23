//! The paged file: allocation, free list, cached reads and write-back.
//!
//! All I/O goes through [`vfs::Vfs`], so the store runs unchanged on the
//! production `StdVfs` and on the fault-injecting `SimVfs`. Alongside the
//! page file the store maintains a **checksum sidecar** (`<file>.sums`),
//! rewritten atomically-by-footer at every [`PageStore::sync`]: it records
//! one [`vfs::bulk_sum64`] checksum per page plus a footer checksum over the
//! whole sidecar, so `open_with_vfs(.., verify: true)` can tell a cleanly
//! synced file from one torn by a crash — a torn file fails verification
//! and the caller rebuilds it from its source of truth (the change log).

use crate::cache::{CacheStats, LruCache};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vfs::{VfsFile, VfsRef};

/// "AIONPGS3": the page-file format version. Version 1 laid B+Tree leaf
/// cells out with a seven-byte header; version 2 had the varint cell header
/// but 32-byte neighbour keys. This build reads neither, and an old file
/// fails at open like a torn one, so the caller rebuilds it from the change
/// log.
const MAGIC: u64 = 0x4149_4F4E_5047_5333;
/// The magic without its version digit.
const MAGIC_STEM: u64 = MAGIC >> 8;
const META_MAGIC_OFF: usize = 0;
const META_PAGE_COUNT_OFF: usize = 8;
const META_FREE_HEAD_OFF: usize = 16;
const META_ROOTS_OFF: usize = 24;
/// Number of u64 root slots available to clients on the meta page.
pub const ROOT_SLOTS: usize = 8;

/// Suffix of the checksum sidecar next to every page file.
pub const SUMS_SUFFIX: &str = "sums";

/// "AIONSUM2": version 1 carried FNV-1a sums. An old sidecar fails
/// verification like a torn one, and the caller rebuilds the page file.
const SUMS_MAGIC: u64 = 0x4149_4F4E_5355_4D32;
const SUMS_HEADER: usize = 24; // magic + generation + count
const SUMS_FOOTER: usize = 8;

struct Inner {
    cache: LruCache,
    page_count: u64,
    free_head: PageId,
    meta_dirty: bool,
    /// Checksum of each page as last written to the file.
    sums: Vec<u64>,
    /// Monotonic sync counter, persisted in the sidecar header.
    generation: u64,
}

/// Handles into the process-wide metrics registry, fetched once at open
/// so the hot path is a relaxed atomic op per event. All page stores in
/// the process aggregate into the same series.
struct Metrics {
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    cache_evictions: Arc<obs::Counter>,
    read_latency: Arc<obs::Histogram>,
    writeback_latency: Arc<obs::Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            cache_hits: obs::counter("pagestore.cache.hits"),
            cache_misses: obs::counter("pagestore.cache.misses"),
            cache_evictions: obs::counter("pagestore.cache.evictions"),
            read_latency: obs::histogram("pagestore.read.latency_ns"),
            writeback_latency: obs::histogram("pagestore.writeback.latency_ns"),
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
    sums_file: Box<dyn VfsFile>,
    inner: Mutex<Inner>,
    /// The meta page's root slots, readable without `inner`'s lock: every
    /// B+Tree descent starts with one. `set_root` stores under the lock
    /// (which also marks the meta page dirty) with `Release`, `root` loads
    /// with `Acquire`: a reader that sees a new root sees every write the
    /// setter made before it.
    roots: [AtomicU64; ROOT_SLOTS],
    metrics: Metrics,
}

fn unclean(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("page store failed checksum verification ({detail}); rebuild required"),
    )
}

/// A magic number as the eight ASCII characters it spells.
fn magic_name(magic: u64) -> String {
    magic.to_be_bytes().escape_ascii().to_string()
}

/// Checksum of an all-zero page: what an allocated page that was never
/// written reads back as.
fn zero_page_sum() -> u64 {
    static SUM: OnceLock<u64> = OnceLock::new();
    *SUM.get_or_init(|| vfs::bulk_sum64(&[0u8; PAGE_SIZE]))
}

/// Parses a sidecar image, returning `(generation, per-page checksums)`.
fn decode_sidecar(bytes: &[u8]) -> io::Result<(u64, Vec<u64>)> {
    let le = |b: &[u8]| -> u64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(&b[..8]);
        u64::from_le_bytes(a)
    };
    if bytes.len() < SUMS_HEADER + SUMS_FOOTER {
        return Err(unclean("sidecar truncated"));
    }
    let body = &bytes[..bytes.len() - SUMS_FOOTER];
    if le(&bytes[bytes.len() - SUMS_FOOTER..]) != vfs::bulk_sum64(body) {
        return Err(unclean("sidecar footer checksum mismatch"));
    }
    if le(&bytes[0..8]) != SUMS_MAGIC {
        return Err(unclean("sidecar bad magic"));
    }
    let generation = le(&bytes[8..16]);
    let count = le(&bytes[16..24]) as usize;
    if body.len() != SUMS_HEADER + count * 8 {
        return Err(unclean("sidecar count/length mismatch"));
    }
    let sums = (0..count)
        .map(|i| le(&body[SUMS_HEADER + i * 8..]))
        .collect();
    Ok((generation, sums))
}

fn encode_sidecar(generation: u64, sums: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SUMS_HEADER + sums.len() * 8 + SUMS_FOOTER);
    out.extend_from_slice(&SUMS_MAGIC.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(sums.len() as u64).to_le_bytes());
    for s in sums {
        out.extend_from_slice(&s.to_le_bytes());
    }
    let footer = vfs::bulk_sum64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

impl PageStore {
    /// Opens (or creates) a page store at `path` with a cache of
    /// `cache_pages` pages, on the production file system and without
    /// checksum verification.
    pub fn open<P: AsRef<Path>>(path: P, cache_pages: usize) -> io::Result<PageStore> {
        PageStore::open_with_vfs(&VfsRef::std(), path.as_ref(), cache_pages, false)
    }

    /// Opens (or creates) a page store at `path` on `vfs`.
    ///
    /// With `verify` set, an existing non-empty file must match its
    /// checksum sidecar exactly — i.e. be the image of its most recent
    /// successful [`PageStore::sync`]. A missing, torn, or mismatching
    /// sidecar yields `InvalidData`, signalling an unclean shutdown; the
    /// caller is expected to delete the file (and its
    /// [`PageStore::sums_path`]) and rebuild from its source of truth.
    pub fn open_with_vfs(
        vfs: &VfsRef,
        path: &Path,
        cache_pages: usize,
        verify: bool,
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
            generation: 0,
        };
        if len >= PAGE_SIZE as u64 {
            let mut meta = PageBuf::zeroed();
            file.read_exact_at(meta.bytes_mut().as_mut_slice(), 0)?;
            let magic = meta.read_u64(META_MAGIC_OFF);
            if magic != MAGIC {
                let detail = if magic >> 8 == MAGIC_STEM {
                    format!(
                        "page file version {}, this build reads {}",
                        magic_name(magic),
                        magic_name(MAGIC)
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
            // syncs write a sidecar covering pages this session never
            // touches. Pages past EOF (allocated, never flushed, file
            // hole) read back as zeros.
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
            if verify {
                let side = vfs
                    .read(&vfs::sidecar_path(path, SUMS_SUFFIX))
                    .map_err(|_| unclean("sidecar missing or unreadable"))?;
                let (generation, expected) = decode_sidecar(&side)?;
                if expected.len() as u64 != inner.page_count {
                    return Err(unclean("sidecar page count differs from meta page"));
                }
                if expected != inner.sums {
                    return Err(unclean("page contents differ from last synced state"));
                }
                inner.generation = generation;
            }
        }
        let sums_file = vfs.open(&vfs::sidecar_path(path, SUMS_SUFFIX))?;
        Ok(PageStore {
            file,
            sums_file,
            inner: Mutex::new(inner),
            roots,
            metrics: Metrics::new(),
        })
    }

    /// The checksum-sidecar path for a page store at `path`.
    pub fn sums_path(path: &Path) -> std::path::PathBuf {
        vfs::sidecar_path(path, SUMS_SUFFIX)
    }

    /// Total allocated pages, including the meta page and free pages.
    pub fn page_count(&self) -> u64 {
        self.inner.lock().page_count
    }

    /// On-disk footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.lock().cache.stats()
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
    /// or one miss, booked alike in [`CacheStats`] and the `obs` counters —
    /// reading the page from the file on a miss.
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

    fn flush_locked(&self, inner: &mut Inner) -> io::Result<()> {
        for (pid, buf) in inner.cache.dirty_pages() {
            let _t = self.metrics.writeback_latency.start_timer();
            // Grow the file lazily: write_all_at extends as needed. The
            // dirty bit clears only after the write succeeds, so a flush
            // that fails partway leaves the unwritten pages dirty and a
            // later flush retries them.
            self.write_page(inner, pid, buf.bytes())?;
            inner.cache.clear_dirty(pid);
        }
        if inner.meta_dirty {
            let mut meta = PageBuf::zeroed();
            meta.write_u64(META_MAGIC_OFF, MAGIC);
            meta.write_u64(META_PAGE_COUNT_OFF, inner.page_count);
            meta.write_u64(META_FREE_HEAD_OFF, inner.free_head.0);
            for (i, slot) in self.roots.iter().enumerate() {
                meta.write_u64(META_ROOTS_OFF + i * 8, slot.load(Ordering::Acquire));
            }
            self.write_page(inner, PageId::META, meta.bytes())?;
            inner.meta_dirty = false;
        }
        Ok(())
    }

    /// Writes every dirty page (and the meta page) back to the file.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    /// Flushes, fsyncs the page file, then rewrites and fsyncs the
    /// checksum sidecar. The sidecar's footer checksum makes it an atomic
    /// unit: if it verifies at open, the page file is exactly the image
    /// this sync made durable.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        self.file.sync_data()?;
        inner.generation += 1;
        let count = inner.page_count as usize;
        inner.sums.resize(count, zero_page_sum());
        let bytes = encode_sidecar(inner.generation, &inner.sums[..count]);
        self.sums_file.set_len(bytes.len() as u64)?;
        self.sums_file.write_all_at(&bytes, 0)?;
        self.sums_file.sync_data()
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
        assert!(store.cache_stats().evictions > 0);
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
        assert_eq!(&raw[..8], b"3SGPNOIA", "little-endian AIONPGS3");
        for version in [b'1', b'2'] {
            raw[0] = version;
            VfsRef::std().write(&path, &raw).unwrap();
            let err = PageStore::open(&path, 4).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!(
                    "page file version AIONPGS{}, this build reads AIONPGS3",
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
            let store = PageStore::open_with_vfs(&vfs, &path, 4, false).unwrap();
            let p = store.allocate().unwrap();
            store.write(p, |b| b.write_u64(0, 42)).unwrap();
            store.sync().unwrap();
        }
        // Clean reopen verifies.
        PageStore::open_with_vfs(&vfs, &path, 4, true).unwrap();
        // A byte flipped after the last sync is detected.
        let mut raw = vfs.read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        vfs.write(&path, &raw).unwrap();
        let err = PageStore::open_with_vfs(&vfs, &path, 4, true)
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Non-verifying open still works (legacy path).
        PageStore::open_with_vfs(&vfs, &path, 4, false).unwrap();
    }

    #[test]
    fn verify_rejects_unsynced_shutdown() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("u.db");
        {
            let store = PageStore::open_with_vfs(&vfs, &path, 4, false).unwrap();
            let p = store.allocate().unwrap();
            store.write(p, |b| b.write_u64(0, 7)).unwrap();
            store.sync().unwrap();
            // More writes after the sync: Drop flushes them to the file
            // but never syncs, so the sidecar no longer matches.
            store.write(p, |b| b.write_u64(0, 8)).unwrap();
        }
        let err = PageStore::open_with_vfs(&vfs, &path, 4, true)
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn verify_survives_pages_allocated_but_never_synced_before() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("w.db");
        {
            let store = PageStore::open_with_vfs(&vfs, &path, 4, false).unwrap();
            for _ in 0..8 {
                store.allocate().unwrap();
            }
            store.sync().unwrap();
        }
        let store = PageStore::open_with_vfs(&vfs, &path, 4, true).unwrap();
        assert_eq!(store.page_count(), 9);
    }
}
