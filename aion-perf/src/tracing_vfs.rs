//! `TracingVfs`: a wrapper around the production `StdVfs` that counts and
//! times every read, write and fsync per file. It goes in through the public
//! `AionConfig::vfs` seam and is used in the traced phase only; the timed
//! windows run on plain `StdVfs`.

use crate::span::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vfs::{Vfs, VfsFile, VfsRef};

/// Counters of one file (or, summed, of all files).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub fsync_calls: u64,
    pub fsync_ns: u64,
}

impl IoCounts {
    /// What happened since `earlier` was taken.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
            fsync_calls: self.fsync_calls - earlier.fsync_calls,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }

    fn add(&mut self, other: &IoCounts) {
        self.read_calls += other.read_calls;
        self.read_bytes += other.read_bytes;
        self.read_ns += other.read_ns;
        self.write_calls += other.write_calls;
        self.write_bytes += other.write_bytes;
        self.write_ns += other.write_ns;
        self.fsync_calls += other.fsync_calls;
        self.fsync_ns += other.fsync_ns;
    }
}

#[derive(Default)]
struct FileCells {
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    fsync_calls: AtomicU64,
    fsync_ns: AtomicU64,
}

impl FileCells {
    fn snapshot(&self) -> IoCounts {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoCounts {
            read_calls: get(&self.read_calls),
            read_bytes: get(&self.read_bytes),
            read_ns: get(&self.read_ns),
            write_calls: get(&self.write_calls),
            write_bytes: get(&self.write_bytes),
            write_ns: get(&self.write_ns),
            fsync_calls: get(&self.fsync_calls),
            fsync_ns: get(&self.fsync_ns),
        }
    }
}

struct Shared {
    tracer: Arc<Tracer>,
    files: Mutex<BTreeMap<PathBuf, Arc<FileCells>>>,
    /// Every fsync's duration, for the median.
    fsync_samples: Mutex<Vec<u64>>,
}

impl Shared {
    fn cells(&self, path: &Path) -> Arc<FileCells> {
        self.files
            .lock()
            .expect("no thread panics holding the file table")
            .entry(path.to_path_buf())
            .or_default()
            .clone()
    }

    /// Times `f`, counts the call and records a span. Returns the result
    /// and the call's duration.
    fn timed<R>(
        &self,
        name: &'static str,
        calls: &AtomicU64,
        ns: &AtomicU64,
        f: impl FnOnce() -> io::Result<R>,
    ) -> (io::Result<R>, u64) {
        let start = self.tracer.now_ns();
        let result = f();
        let end = self.tracer.now_ns();
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(end - start, Ordering::Relaxed);
        self.tracer.leaf(name, start, end);
        (result, end - start)
    }
}

/// The counting file system. Cheap to clone into a [`VfsRef`].
#[derive(Clone)]
pub struct TracingVfs {
    inner: VfsRef,
    shared: Arc<Shared>,
}

impl TracingVfs {
    pub fn new(tracer: Arc<Tracer>) -> TracingVfs {
        TracingVfs {
            inner: VfsRef::std(),
            shared: Arc::new(Shared {
                tracer,
                files: Mutex::new(BTreeMap::new()),
                fsync_samples: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn vfs_ref(&self) -> VfsRef {
        VfsRef::new(Arc::new(self.clone()))
    }

    /// Counters per file path.
    pub fn per_file(&self) -> BTreeMap<PathBuf, IoCounts> {
        self.shared
            .files
            .lock()
            .expect("no thread panics holding the file table")
            .iter()
            .map(|(p, c)| (p.clone(), c.snapshot()))
            .collect()
    }

    /// Counters summed over the files whose path satisfies `keep`.
    pub fn total_where(&self, keep: impl Fn(&Path) -> bool) -> IoCounts {
        let mut total = IoCounts::default();
        for (path, counts) in self.per_file() {
            if keep(&path) {
                total.add(&counts);
            }
        }
        total
    }

    pub fn total(&self) -> IoCounts {
        self.total_where(|_| true)
    }

    /// Number of fsync samples so far; pass it to [`fsync_samples_since`]
    /// later to get the samples of an interval.
    ///
    /// [`fsync_samples_since`]: TracingVfs::fsync_samples_since
    pub fn fsync_mark(&self) -> usize {
        self.shared
            .fsync_samples
            .lock()
            .expect("no thread panics holding the samples")
            .len()
    }

    pub fn fsync_samples_since(&self, mark: usize) -> Vec<u64> {
        self.shared
            .fsync_samples
            .lock()
            .expect("no thread panics holding the samples")[mark..]
            .to_vec()
    }
}

struct TracedFile {
    inner: Box<dyn VfsFile>,
    cells: Arc<FileCells>,
    shared: Arc<Shared>,
}

impl VfsFile for TracedFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let c = &self.cells;
        c.read_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.shared
            .timed("vfs.read", &c.read_calls, &c.read_ns, || {
                self.inner.read_exact_at(buf, offset)
            })
            .0
    }

    fn write_all_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let c = &self.cells;
        c.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.shared
            .timed("vfs.write", &c.write_calls, &c.write_ns, || {
                self.inner.write_all_at(data, offset)
            })
            .0
    }

    fn sync_data(&self) -> io::Result<()> {
        let c = &self.cells;
        let (result, took) = self
            .shared
            .timed("vfs.fsync", &c.fsync_calls, &c.fsync_ns, || {
                self.inner.sync_data()
            });
        self.shared
            .fsync_samples
            .lock()
            .expect("no thread panics holding the samples")
            .push(took);
        result
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for TracingVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TracedFile {
            inner: self.inner.open(path)?,
            cells: self.shared.cells(path),
            shared: self.shared.clone(),
        }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<(String, u64)>> {
        self.inner.read_dir(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let c = self.shared.cells(path);
        let (result, _) = self
            .shared
            .timed("vfs.read", &c.read_calls, &c.read_ns, || {
                self.inner.read(path)
            });
        if let Ok(bytes) = &result {
            c.read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let c = self.shared.cells(path);
        c.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.shared
            .timed("vfs.write", &c.write_calls, &c.write_ns, || {
                self.inner.write(path, data)
            })
            .0
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("vfs-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counts_bytes_calls_and_fsyncs_per_file() {
        let dir = scratch("counts");
        let tracer = Arc::new(Tracer::new());
        let tv = TracingVfs::new(tracer);
        let fs = tv.vfs_ref();
        let a = fs.open(&dir.join("a")).unwrap();
        a.write_all_at(b"hello world", 0).unwrap();
        a.sync_data().unwrap();
        let mut buf = [0u8; 5];
        a.read_exact_at(&mut buf, 6).unwrap();
        assert_eq!(&buf, b"world");
        fs.write(&dir.join("b"), b"xyz").unwrap();
        assert_eq!(fs.read(&dir.join("b")).unwrap(), b"xyz");

        let per_file = tv.per_file();
        let ca = &per_file[&dir.join("a")];
        assert_eq!((ca.write_calls, ca.write_bytes), (1, 11));
        assert_eq!((ca.read_calls, ca.read_bytes), (1, 5));
        assert_eq!(ca.fsync_calls, 1);
        let total = tv.total();
        assert_eq!(total.write_bytes, 14);
        assert_eq!(total.read_bytes, 8);
        assert_eq!(tv.fsync_samples_since(0).len(), 1);
        let only_b = tv.total_where(|p| p.ends_with("b"));
        assert_eq!(only_b.write_bytes, 3);
        assert_eq!(total.since(&only_b).write_bytes, 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The untraced run has the tracer off: file operations through the
    /// wrapper must then add no span.
    #[test]
    fn adds_no_span_while_the_tracer_is_off() {
        let dir = scratch("spans");
        let tracer = Arc::new(Tracer::new());
        let tv = TracingVfs::new(tracer.clone());
        let fs = tv.vfs_ref();
        let f = fs.open(&dir.join("f")).unwrap();
        f.write_all_at(b"abc", 0).unwrap();
        f.sync_data().unwrap();
        assert_eq!(tracer.span_count(), 0, "untraced: no spans");
        assert_eq!(tv.total().write_calls, 1, "counts are still kept");

        tracer.set_enabled(true);
        let root = tracer.open("request", None, 1);
        f.write_all_at(b"abc", 3).unwrap();
        f.sync_data().unwrap();
        tracer.close(root);
        let spans = tracer.drain();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "vfs.write", "vfs.fsync"]);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
