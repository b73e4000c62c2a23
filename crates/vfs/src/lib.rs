//! # aion-vfs — the virtual file system every storage layer runs on
//!
//! All file I/O in the storage crates (`pagestore`, `timestore` and the
//! layers above them) goes through the [`Vfs`] / [`VfsFile`] traits so a
//! single seam controls durability semantics:
//!
//! * [`StdVfs`] — a zero-overhead passthrough to `std::fs` with
//!   positioned reads/writes (`FileExt`). Production default.
//! * [`sim::SimVfs`] — a deterministic in-memory file system that, from a
//!   single `u64` seed, injects torn writes at configurable byte
//!   granularity, transient `EIO` / `ENOSPC`, and crash points that
//!   discard any data not yet fsynced. The crash-consistency simulation
//!   harness (`tests/sim_crash.rs`) is built on it.
//! * [`SplitMix64`] — the workspace's one small deterministic RNG, shared
//!   by the sim disk, the client's retry jitter and the chaos proxy.
//!
//! The model deliberately mirrors what a POSIX kernel guarantees — and
//! nothing more: a `write_all_at` buffers data that only [`VfsFile::sync_data`]
//! makes durable, and after a crash each un-synced chunk independently may
//! or may not have reached the platter (the OS flushes dirty pages in any
//! order). File *creation* is modelled as immediately durable; directory
//! fsync is out of scope.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::fmt;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

mod rng;
pub mod sim;

pub use rng::SplitMix64;
pub use sim::{FaultConfig, SimVfs};

/// An open file: positioned I/O plus explicit durability control.
pub trait VfsFile: Send + Sync {
    /// Fills `buf` from `offset`; errors if the file is too short.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes all of `data` at `offset`, extending the file as needed.
    /// The data is *not* durable until [`VfsFile::sync_data`] succeeds.
    fn write_all_at(&self, data: &[u8], offset: u64) -> io::Result<()>;
    /// Makes every prior write to this file durable.
    fn sync_data(&self) -> io::Result<()>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Current length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Whether the file is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A file system root: open/create files and the handful of whole-file and
/// directory operations the storage layers need.
pub trait Vfs: Send + Sync {
    /// Opens `path` read+write, creating it (empty) if absent. Never
    /// truncates.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the plain files directly under `path` as
    /// `(file name, length in bytes)`.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<(String, u64)>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Replaces the contents of `path` with `data` (create + truncate).
    /// Like `std::fs::write`, the result is not durable until a sync.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// A cheaply clonable, `Debug`-friendly handle to a [`Vfs`] — the type
/// configuration structs embed.
#[derive(Clone)]
pub struct VfsRef(Arc<dyn Vfs>);

impl VfsRef {
    /// Wraps an arbitrary [`Vfs`] implementation.
    pub fn new(vfs: Arc<dyn Vfs>) -> VfsRef {
        VfsRef(vfs)
    }

    /// The production passthrough to `std::fs`.
    pub fn std() -> VfsRef {
        VfsRef(Arc::new(StdVfs))
    }
}

impl std::ops::Deref for VfsRef {
    type Target = dyn Vfs;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for VfsRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("VfsRef(..)")
    }
}

impl Default for VfsRef {
    fn default() -> Self {
        VfsRef::std()
    }
}

const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`, 64-bit. The checksum of everything that is a
/// source of truth or crosses a wire — replication frames, cursor tokens,
/// epoch and watermark records — so its output is a stored format: it must
/// never change. Bulk derived files use [`bulk_sum64`].
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a over `bytes`, 32-bit: the change log's frame checksum. The log
/// is the source of truth, so this too is a stored format that must never
/// change. The log reads a frame whole before it checks it, so the sum is
/// only ever taken over one slice.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// 64-bit checksum for bulk *derived* files: page sums, the page file's
/// seal and snapshot footers, all rebuilt from the change log on mismatch.
///
/// FNV-1a is one multiply per byte on a single dependency chain; hashing
/// an 8 KiB page that way costs more than writing it. This kernel reads
/// 32-byte blocks as four little-endian words feeding four independent
/// lanes (`lane = rotl((lane ^ word) * P, 29)`), so the four multiply
/// chains overlap in the pipeline. Every step is a bijection of the lane
/// for a fixed word and of the word for a fixed lane, hence changing any
/// one word always changes the sum. The lanes are then folded in order,
/// the tail (`len % 32` bytes) is absorbed byte-wise and the length is
/// mixed in, so truncation and zero-extension change the sum as well.
pub fn bulk_sum64(bytes: &[u8]) -> u64 {
    const P: u64 = 0x9E37_79B1_85EB_CA87;
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(P).rotate_left(29);
    let mut lanes: [u64; 4] = [
        0x6A09_E667_F3BC_C908,
        0xBB67_AE85_84CA_A73B,
        0x3C6E_F372_FE94_F82B,
        0xA54F_F53A_5F1D_36F1,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            *lane = mix(*lane, u64::from_le_bytes(w));
        }
    }
    let mut h = lanes
        .iter()
        .fold(bytes.len() as u64, |h, &lane| mix(h, lane));
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
    }
    // Final avalanche (a bijection) so short inputs spread over all bits.
    h ^= h >> 32;
    h = h.wrapping_mul(P);
    h ^ (h >> 29)
}

// ---------------------------------------------------------------- StdVfs

/// The production VFS: a thin veneer over `std::fs`.
pub struct StdVfs;

#[allow(
    clippy::disallowed_types,
    reason = "StdVfs is the seam: the one place storage I/O reaches std::fs"
)]
struct StdFile(std::fs::File);

#[allow(
    clippy::disallowed_methods,
    reason = "StdVfs is the seam: the one place storage I/O reaches std::fs"
)]
impl VfsFile for StdFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.0.read_exact_at(buf, offset)
    }

    fn write_all_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_all_at(data, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "StdVfs is the seam: the one place storage I/O reaches std::fs"
)]
impl Vfs for StdVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_file() {
                out.push((entry.file_name().to_string_lossy().into_owned(), meta.len()));
            }
        }
        out.sort();
        Ok(out)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_vfs_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("f.bin");
        let f = vfs.open(&path).unwrap();
        f.write_all_at(b"hello", 3).unwrap();
        assert_eq!(f.len().unwrap(), 8);
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 3).unwrap();
        assert_eq!(&buf, b"hello");
        f.sync_data().unwrap();
        f.set_len(4).unwrap();
        assert_eq!(f.len().unwrap(), 4);
        assert!(vfs.exists(&path));
        vfs.write(&path, b"xyz").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"xyz");
        assert_eq!(vfs.read_dir(dir.path()).unwrap(), vec![("f.bin".into(), 3)]);
        vfs.remove_file(&path).unwrap();
        assert!(!vfs.exists(&path));
    }

    /// Wire frames, cursor tokens, epoch and watermark records carry this
    /// sum: these are the published FNV-1a test vectors and must not move.
    #[test]
    fn fnv64_known_answers() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(fnv64(&[0u8; 24]), 0x81D2_3FD7_003C_2305);
    }

    /// Change-log frames carry this sum: the published FNV-1a 32-bit test
    /// vectors.
    #[test]
    fn fnv32_known_answers() {
        assert_eq!(fnv32(b""), 0x811C_9DC5);
        assert_eq!(fnv32(b"a"), 0xE40C_292C);
        assert_eq!(fnv32(b"foobar"), 0xBF9C_F968);
    }

    /// A page of distinct pseudo-random words (xorshift64).
    fn test_page() -> Vec<u8> {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut page = Vec::with_capacity(8192);
        while page.len() < 8192 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            page.extend_from_slice(&x.to_le_bytes());
        }
        page
    }

    /// Sidecars and snapshot footers on disk carry this sum.
    #[test]
    fn bulk_sum64_known_answers() {
        assert_eq!(bulk_sum64(b""), 0x3DF1_28E2_D651_3CF5);
        assert_eq!(bulk_sum64(b"a"), 0xB2E0_8F0B_BCE6_3F28);
        assert_eq!(
            bulk_sum64(b"0123456789abcdef0123456789abcdef!"),
            0x6C1D_44D7_8484_7F53
        );
        assert_eq!(bulk_sum64(&[0u8; 8192]), 0x9FB9_AEA3_7F5C_5941);
        assert_eq!(bulk_sum64(&test_page()), 0xB169_C685_7037_045F);
    }

    #[test]
    fn bulk_sum64_sees_every_bit_flip_truncation_and_extension() {
        let mut page = test_page();
        let sum = bulk_sum64(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(bulk_sum64(&page), sum, "bit {bit} flipped");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        for len in 0..page.len() {
            assert_ne!(bulk_sum64(&page[..len]), sum, "truncated to {len}");
        }
        for extra in 1..=64 {
            page.push(0);
            assert_ne!(bulk_sum64(&page), sum, "zero-extended by {extra}");
        }
        let zeros = [0u8; 2 * 8192];
        assert_ne!(bulk_sum64(&zeros[..8192]), bulk_sum64(&zeros));
        for len in 0..8192 {
            assert_ne!(bulk_sum64(&zeros[..len]), bulk_sum64(&zeros[..8192]));
        }
    }

    #[test]
    fn bulk_sum64_sees_every_swap_of_two_aligned_words() {
        let mut page = test_page();
        let sum = bulk_sum64(&page);
        let words = page.len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                for k in 0..8 {
                    page.swap(i * 8 + k, j * 8 + k);
                }
                assert_ne!(bulk_sum64(&page), sum, "words {i} and {j} swapped");
                for k in 0..8 {
                    page.swap(i * 8 + k, j * 8 + k);
                }
            }
        }
    }
}
