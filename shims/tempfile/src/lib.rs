//! Offline stand-in for `tempfile` 3: `tempdir()` creating a uniquely
//! named directory under the system temp dir, removed on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};
use std::{fs, io};

static COUNTER: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consume the guard without deleting the directory.
    pub fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TempDir {
    #[allow(
        clippy::disallowed_methods,
        reason = "stand-in for the tempfile crate: makes and removes test scratch directories, off the storage path"
    )]
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "stand-in for the tempfile crate: makes and removes test scratch directories, off the storage path"
)]
pub fn tempdir() -> io::Result<TempDir> {
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    for _ in 0..1024 {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("aion-{pid}-{nanos}-{n}"));
        match fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir { path }),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AlreadyExists,
        "could not create a unique temp dir",
    ))
}
