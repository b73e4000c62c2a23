//! Deterministic fault-injecting in-memory file system.
//!
//! [`SimVfs`] models the durability contract of a POSIX file system under
//! a crash, driven entirely by one `u64` seed:
//!
//! * every `write_all_at` / `set_len` buffers a **pending** operation that
//!   only `sync_data` folds into the file's **durable** image;
//! * a crash (triggered at a configured *fault point* or manually via
//!   [`SimVfs::crash_now`]) runs a seeded lottery over every pending
//!   operation: each [`FaultConfig::torn_granularity`]-sized chunk of an
//!   un-synced write independently survives or is discarded, which yields
//!   torn frames, torn pages, out-of-order partial flushes and lost tails
//!   — everything real kernels produce;
//! * after a crash every operation on every handle fails until
//!   [`SimVfs::heal`] resets the fault plan, simulating the process
//!   restart after which the database reopens from the durable image;
//! * independent of crashes, mutating operations can fail with transient
//!   `EIO` / `ENOSPC` at a configured rate.
//!
//! Mutating operations (`write_all_at`, `set_len`, `sync_data`, whole-file
//! `write`, `remove_file`) are numbered globally; [`SimVfs::op_count`]
//! exposes the counter so a harness can first measure a workload and then
//! re-run it crashing at every fault point. All behaviour is a pure
//! function of (seed, operation sequence), so a printed seed reproduces a
//! failure exactly.
//!
//! Simplifications, on purpose: file creation and removal are durable
//! immediately (directory fsync is not modelled), and reads always see the
//! latest written (live) data, like a page cache.

use crate::{SplitMix64, Vfs, VfsFile};
use lock::{Mutex, Rank};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fault plan for a [`SimVfs`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Crash at the mutating operation with this global index: the
    /// operation itself does not complete (a write participates torn in
    /// the crash lottery; a sync does not run) and every later operation
    /// fails until [`SimVfs::heal`].
    pub crash_at_op: Option<u64>,
    /// Probability that a mutating operation fails with a transient
    /// `EIO`/`ENOSPC` (alternating) instead of running. `0.0` disables.
    pub io_error_rate: f64,
    /// Chunk size (bytes, ≥ 1) at which un-synced writes tear in a crash.
    pub torn_granularity: usize,
    /// Probability that each un-synced chunk survives the crash.
    pub survive_probability: f64,
}

impl FaultConfig {
    /// No faults: behaves like a perfectly reliable disk with a volatile
    /// write cache.
    pub fn none() -> FaultConfig {
        FaultConfig {
            crash_at_op: None,
            io_error_rate: 0.0,
            torn_granularity: 512,
            survive_probability: 0.5,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

enum Pending {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

#[derive(Default)]
struct SimFile {
    /// What reads observe (page cache view).
    live: Vec<u8>,
    /// What survives a crash (the platter).
    durable: Vec<u8>,
    /// Un-synced operations, in order, awaiting sync or the crash lottery.
    pending: Vec<Pending>,
}

fn apply_write(img: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let offset = offset as usize;
    let end = offset + data.len();
    if img.len() < end {
        img.resize(end, 0);
    }
    img[offset..end].copy_from_slice(data);
}

fn apply_set_len(img: &mut Vec<u8>, len: u64) {
    img.resize(len as usize, 0);
}

struct State {
    files: BTreeMap<PathBuf, SimFile>,
    fault: FaultConfig,
    rng: SplitMix64,
    ops: u64,
    crashed: bool,
    enospc_next: bool,
}

impl State {
    /// The crash lottery: fold each file's pending operations into its
    /// durable image, each torn-granularity chunk surviving independently.
    fn crash(&mut self) {
        let granularity = self.fault.torn_granularity.max(1);
        let survive = self.fault.survive_probability;
        let paths: Vec<PathBuf> = self.files.keys().cloned().collect();
        for path in paths {
            let (mut durable, pending) = match self.files.get_mut(&path) {
                Some(f) => (f.durable.clone(), std::mem::take(&mut f.pending)),
                None => continue,
            };
            for op in &pending {
                match op {
                    Pending::Write { offset, data } => {
                        let mut pos = 0usize;
                        while pos < data.len() {
                            let end = (pos + granularity).min(data.len());
                            if self.rng.next_f64() < survive {
                                apply_write(&mut durable, offset + pos as u64, &data[pos..end]);
                            }
                            pos = end;
                        }
                    }
                    Pending::SetLen(len) => {
                        if self.rng.next_f64() < survive {
                            apply_set_len(&mut durable, *len);
                        }
                    }
                }
            }
            if let Some(f) = self.files.get_mut(&path) {
                f.live = durable.clone();
                f.durable = durable;
            }
        }
        self.crashed = true;
    }

    /// Gate for a mutating operation: post-crash failure, op accounting,
    /// the crash point, and transient error injection. Returns `Ok(true)`
    /// when the caller should crash *after* recording the op as pending
    /// (so the op participates torn in the lottery).
    fn mutation_gate(&mut self) -> io::Result<bool> {
        if self.crashed {
            return Err(crashed_error());
        }
        let op = self.ops;
        self.ops += 1;
        if self.fault.crash_at_op == Some(op) {
            return Ok(true);
        }
        if self.fault.io_error_rate > 0.0 && self.rng.next_f64() < self.fault.io_error_rate {
            self.enospc_next = !self.enospc_next;
            let msg = if self.enospc_next {
                "sim: injected ENOSPC"
            } else {
                "sim: injected EIO"
            };
            return Err(io::Error::other(msg));
        }
        Ok(false)
    }

    fn read_gate(&self) -> io::Result<()> {
        if self.crashed {
            return Err(crashed_error());
        }
        Ok(())
    }
}

fn crashed_error() -> io::Error {
    io::Error::other("sim: crashed (I/O after crash point)")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("sim: no such file {}", path.display()),
    )
}

/// The deterministic fault-injecting VFS. Cheap to clone; all clones share
/// one file-system state.
#[derive(Clone)]
pub struct SimVfs {
    state: Arc<Mutex<State>>,
}

impl SimVfs {
    /// A fault-free simulated disk seeded with `seed` (the seed only
    /// matters once faults are armed).
    pub fn new(seed: u64) -> SimVfs {
        SimVfs::with_faults(seed, FaultConfig::none())
    }

    /// A simulated disk with `fault` armed.
    pub fn with_faults(seed: u64, fault: FaultConfig) -> SimVfs {
        SimVfs {
            state: Arc::new(Mutex::new(
                Rank::SimVfs,
                State {
                    files: BTreeMap::new(),
                    fault,
                    rng: SplitMix64::new(seed),
                    ops: 0,
                    crashed: false,
                    enospc_next: false,
                },
            )),
        }
    }

    /// Total mutating operations issued so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether a crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Crashes immediately: runs the torn-write lottery over all pending
    /// data and fails every subsequent operation until [`SimVfs::heal`].
    pub fn crash_now(&self) {
        self.state.lock().crash();
    }

    /// Clears the crashed flag and disarms all faults, keeping the durable
    /// image — the "machine rebooted, disk intact" transition before a
    /// database reopen.
    pub fn heal(&self) {
        let mut s = self.state.lock();
        s.crashed = false;
        s.fault = FaultConfig::none();
    }

    /// Re-arms a fault plan (e.g. error injection for a post-recovery
    /// phase).
    pub fn arm(&self, fault: FaultConfig) {
        self.state.lock().fault = fault;
    }
}

struct SimHandle {
    state: Arc<Mutex<State>>,
    path: PathBuf,
}

impl VfsFile for SimHandle {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let s = self.state.lock();
        s.read_gate()?;
        let file = s
            .files
            .get(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > file.live.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "sim: read past end of file",
            ));
        }
        buf.copy_from_slice(&file.live[start..end]);
        Ok(())
    }

    fn write_all_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        let mut s = self.state.lock();
        let crash_after = s.mutation_gate()?;
        let file = s.files.entry(self.path.clone()).or_default();
        apply_write(&mut file.live, offset, data);
        file.pending.push(Pending::Write {
            offset,
            data: data.to_vec(),
        });
        if crash_after {
            s.crash();
            return Err(crashed_error());
        }
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        let mut s = self.state.lock();
        let crash_instead = s.mutation_gate()?;
        if crash_instead {
            s.crash();
            return Err(crashed_error());
        }
        let file = s
            .files
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        file.durable = file.live.clone();
        file.pending.clear();
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut s = self.state.lock();
        let crash_after = s.mutation_gate()?;
        let file = s.files.entry(self.path.clone()).or_default();
        apply_set_len(&mut file.live, len);
        file.pending.push(Pending::SetLen(len));
        if crash_after {
            s.crash();
            return Err(crashed_error());
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        let s = self.state.lock();
        s.read_gate()?;
        let file = s
            .files
            .get(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        Ok(file.live.len() as u64)
    }
}

impl Vfs for SimVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.state.lock();
        s.read_gate()?;
        s.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(SimHandle {
            state: self.state.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        // Directories are implicit; creation succeeds unless crashed.
        self.state.lock().read_gate()
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<(String, u64)>> {
        let s = self.state.lock();
        s.read_gate()?;
        let mut out = Vec::new();
        for (p, f) in &s.files {
            if p.parent() == Some(path) {
                if let Some(name) = p.file_name() {
                    out.push((name.to_string_lossy().into_owned(), f.live.len() as u64));
                }
            }
        }
        Ok(out)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.state.lock();
        s.read_gate()?;
        s.files
            .get(path)
            .map(|f| f.live.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let crash_after = s.mutation_gate()?;
        let file = s.files.entry(path.to_path_buf()).or_default();
        file.live = data.to_vec();
        file.pending.push(Pending::SetLen(0));
        file.pending.push(Pending::Write {
            offset: 0,
            data: data.to_vec(),
        });
        if crash_after {
            s.crash();
            return Err(crashed_error());
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let crash_instead = s.mutation_gate()?;
        if crash_instead {
            s.crash();
            return Err(crashed_error());
        }
        // Removal is durable immediately (directory fsync not modelled).
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn p(s: &str) -> &Path {
        Path::new(s)
    }

    #[test]
    fn synced_data_survives_a_crash() {
        let sim = SimVfs::new(7);
        let f = sim.open(p("/a")).unwrap();
        f.write_all_at(b"durable", 0).unwrap();
        f.sync_data().unwrap();
        f.write_all_at(b"volatile", 7).unwrap();
        sim.crash_now();
        assert!(sim.has_crashed());
        assert!(f.sync_data().is_err(), "I/O fails after crash");
        sim.heal();
        let got = sim.read(p("/a")).unwrap();
        assert_eq!(&got[..7], b"durable", "synced prefix intact");
    }

    #[test]
    fn unsynced_data_tears_deterministically() {
        // Same seed ⇒ same lottery.
        let image = |seed: u64| {
            let sim = SimVfs::with_faults(
                seed,
                FaultConfig {
                    torn_granularity: 1,
                    survive_probability: 0.5,
                    ..FaultConfig::none()
                },
            );
            let f = sim.open(p("/t")).unwrap();
            f.write_all_at(&[0xFF; 64], 0).unwrap();
            sim.crash_now();
            sim.heal();
            sim.read(p("/t")).unwrap()
        };
        assert_eq!(image(1), image(1));
        // Torn, not all-or-nothing: with 64 independent coin flips the
        // surviving image whp either lost the tail or contains holes.
        let a = image(2);
        assert!(a.len() < 64 || a.contains(&0));
    }

    #[test]
    fn crash_at_op_fires_and_counts() {
        let sim = SimVfs::with_faults(
            3,
            FaultConfig {
                crash_at_op: Some(2),
                ..FaultConfig::none()
            },
        );
        let f = sim.open(p("/x")).unwrap();
        f.write_all_at(b"1", 0).unwrap(); // op 0
        f.sync_data().unwrap(); // op 1
        assert!(f.write_all_at(b"2", 1).is_err()); // op 2 → crash
        assert!(sim.has_crashed());
        sim.heal();
        assert_eq!(sim.read(p("/x")).unwrap()[0], b'1');
    }

    #[test]
    fn io_error_injection_is_transient() {
        let sim = SimVfs::with_faults(
            11,
            FaultConfig {
                io_error_rate: 0.5,
                ..FaultConfig::none()
            },
        );
        let f = sim.open(p("/e")).unwrap();
        let mut errors = 0;
        let mut oks = 0;
        for i in 0..64u64 {
            match f.write_all_at(&[i as u8], i) {
                Ok(()) => oks += 1,
                Err(_) => errors += 1,
            }
        }
        assert!(errors > 0 && oks > 0, "rate 0.5 must mix outcomes");
        assert!(!sim.has_crashed());
    }

    #[test]
    fn whole_file_write_is_pending_until_sync() {
        let sim = SimVfs::with_faults(
            5,
            FaultConfig {
                survive_probability: 0.0,
                ..FaultConfig::none()
            },
        );
        sim.write(p("/snap"), b"snapshot-bytes").unwrap();
        assert_eq!(sim.read(p("/snap")).unwrap(), b"snapshot-bytes");
        sim.crash_now();
        sim.heal();
        assert!(sim.read(p("/snap")).unwrap().is_empty());
    }

    #[test]
    fn read_dir_lists_files_with_lengths() {
        let sim = SimVfs::new(1);
        sim.write(p("/d/a"), b"xx").unwrap();
        sim.write(p("/d/b"), b"yyy").unwrap();
        sim.write(p("/d/sub/c"), b"z").unwrap();
        let listing = sim.read_dir(p("/d")).unwrap();
        assert_eq!(listing, vec![("a".into(), 2), ("b".into(), 3)]);
    }
}
