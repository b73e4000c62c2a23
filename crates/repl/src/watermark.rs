//! The replica's replay watermark: `(log cursor, latest applied ts)`,
//! persisted through the VFS seam so crash simulation covers it.
//!
//! Durability contract: the watermark is only written *after* the
//! database it describes has fsynced ([`aion::Aion::sync`]), so it
//! never claims more than the durable prefix. The record is a single
//! 24-byte checksummed blob; a torn or corrupt file simply fails to
//! load and the replica resyncs from offset 0 — which is safe because
//! replay is idempotent (frames at or below the local latest timestamp
//! are skipped) — so no corruption mode can invent progress.

use aion_server::protocol::{put_u64, Reader};
use std::io;
use std::path::{Path, PathBuf};
use vfs::{fnv64, VfsRef};

/// File name of the watermark record inside a replica's data directory.
pub const WATERMARK_FILE: &str = "repl.watermark";

/// A replica's durable replay position.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Watermark {
    /// Byte offset into the primary's log of the next frame needed
    /// (i.e. everything before this offset is applied and durable).
    pub offset: u64,
    /// Latest commit timestamp applied and durable locally.
    pub ts: u64,
}

/// Persists and restores a [`Watermark`] at a fixed path.
pub struct WatermarkStore {
    vfs: VfsRef,
    path: PathBuf,
}

impl WatermarkStore {
    /// A store writing `dir/repl.watermark` through `vfs`.
    pub fn new(vfs: VfsRef, dir: &Path) -> WatermarkStore {
        WatermarkStore {
            vfs,
            path: dir.join(WATERMARK_FILE),
        }
    }

    /// The backing file path (diagnostics, tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads the persisted watermark. `None` means "no usable record"
    /// — absent, short, or corrupt — and the caller must resync from
    /// offset 0. Corruption is deliberately indistinguishable from
    /// absence: both answers are safe, and treating a torn record as an
    /// error would wedge a replica that a full resync could heal.
    pub fn load(&self) -> Option<Watermark> {
        let bytes = self.vfs.read(&self.path).ok()?;
        let mut r = Reader::new(&bytes);
        let (offset, ts, sum) = (r.u64().ok()?, r.u64().ok()?, r.u64().ok()?);
        r.finish().ok()?;
        (fnv64(&bytes[..16]) == sum).then_some(Watermark { offset, ts })
    }

    /// Durably replaces the watermark. Call only after the database
    /// state it describes is itself durable.
    pub fn store(&self, wm: Watermark) -> io::Result<()> {
        let mut record = Vec::with_capacity(24);
        put_u64(&mut record, wm.offset);
        put_u64(&mut record, wm.ts);
        let sum = fnv64(&record);
        put_u64(&mut record, sum);
        let file = self.vfs.open(&self.path)?;
        // A crash between these steps leaves a short or stale record;
        // either fails `load` or describes an older durable prefix —
        // both recoverable, never an overclaim.
        file.set_len(0)?;
        file.write_all_at(&record, 0)?;
        file.sync_data()
    }
}
