//! Offline rejoin preparation for a deposed primary (DESIGN.md §17).
//!
//! A primary that kept accepting writes after the cluster promoted a
//! replica holds a **divergent log suffix**: commits acked only locally,
//! at timestamps the new primary has reused (or will reuse) for
//! different commits. Those frames can never be replayed into the new
//! timeline — but they were acknowledged once, so they are evidence and
//! must not be silently destroyed. [`prepare_rejoin`] runs with the
//! database **closed** and:
//!
//! 1. probes the current primary's replication handshake (the `HelloAck`
//!    is answered before any gate, so a deposed node always learns the
//!    cluster epoch and its own fork point);
//! 2. reads the local `timestore.log` through [`ChangeLog::scan`], which
//!    indexes its frames and leaves a torn tail in place, looks up the
//!    first frame past the fork point in that index, and archives the
//!    file from there — including any torn tail — **byte-exact** into a
//!    checksummed archive file `timestore.log.divergent-<epoch>`;
//! 3. truncates the log back to the fork point, deletes its durable-end
//!    record (which points past the new end) and the derived state that
//!    indexed the divergent suffix (`lineage.db`), so the next open
//!    rebuilds from the surviving prefix;
//! 4. adopts the cluster epoch into the local chain, fencing the node's
//!    write path before it ever reopens.
//!
//! Archive layout (all integers little-endian):
//!
//! ```text
//! magic "AIONDIVG" | u32 version (1) | u64 epoch | u64 fence_ts |
//! u64 byte_len | u64 fnv64(bytes) | bytes (raw log suffix, verbatim)
//! ```
//!
//! The kept prefix is checked by content when the node first resyncs:
//! the replayer's handshake compares its log chain with the primary's.

use crate::epoch::EpochState;
use crate::wire::{await_hello_ack, send_hello, HelloAck};
use aion_server::protocol::{put_u32, put_u64, Reader};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use timestore::log::parse_frame;
use timestore::{ChangeLog, CommitFrame};
use vfs::{fnv64, VfsRef};

/// Magic prefix of a divergence archive.
pub const DIVERGENCE_MAGIC: &[u8; 8] = b"AIONDIVG";

const DIVERGENCE_VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// What [`prepare_rejoin`] did, for operators and tests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RejoinReport {
    /// The cluster epoch learned from the primary's handshake.
    pub primary_epoch: u64,
    /// The fork point of this node's old epoch: commits with
    /// `ts > fence_ts` were divergent.
    pub fence_ts: u64,
    /// Byte offset the log was truncated to (its new end).
    pub fork_offset: u64,
    /// Complete frames moved into the archive.
    pub archived_frames: u64,
    /// Raw bytes moved into the archive (frames plus any torn tail).
    pub archived_bytes: u64,
    /// The archive file, when a divergent suffix existed.
    pub archive_path: Option<PathBuf>,
}

/// A divergence archive read back for inspection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DivergenceArchive {
    /// The epoch whose promotion orphaned these bytes.
    pub epoch: u64,
    /// The fork point recorded at archive time.
    pub fence_ts: u64,
    /// The raw log suffix, verbatim.
    pub bytes: Vec<u8>,
}

impl DivergenceArchive {
    /// Decodes the quarantined commit frames. Any torn tail the archive
    /// preserved verbatim is not decodable and is skipped — exactly the
    /// bytes the log itself would have discarded on recovery.
    pub fn frames(&self) -> Vec<CommitFrame> {
        let mut frames = Vec::new();
        let mut offset = 0usize;
        while let Some((frame, next)) = parse_frame(&self.bytes, offset) {
            frames.push(frame);
            offset = next;
        }
        frames
    }
}

/// Prepares a deposed primary rooted at `dir` to rejoin the cluster as
/// a replica of `primary`. The database at `dir` must be **closed** —
/// this function rewrites the log file underneath it.
///
/// Idempotent: running it twice (or on a node that never diverged)
/// archives nothing the second time and returns a report with
/// `archive_path: None`.
pub fn prepare_rejoin(
    vfs: &VfsRef,
    dir: &Path,
    primary: SocketAddr,
    connect_timeout: Duration,
) -> io::Result<RejoinReport> {
    let epochs = EpochState::load(vfs.clone(), dir);
    let my_epoch = epochs.current().epoch;
    let ts_dir = dir.join("timestore");
    let log_path = ts_dir.join("timestore.log");
    let log = ChangeLog::scan(vfs, &log_path, 0).map_err(io::Error::other)?;
    let ack = probe_primary(primary, connect_timeout, my_epoch, &log)?;
    let (primary_epoch, fence_ts) = (ack.head.epoch, ack.fence_ts);

    if primary_epoch <= my_epoch {
        // The "primary" is not ahead of us; there is no newer timeline
        // to quarantine against. (Either we *are* current, or the peer
        // is itself stale — in both cases rejoin prep is a no-op.)
        return Ok(RejoinReport {
            primary_epoch,
            fence_ts: u64::MAX,
            fork_offset: log.end_offset(),
            archived_frames: 0,
            archived_bytes: 0,
            archive_path: None,
        });
    }

    // Everything from the fork offset on — decodable frames *and* any
    // torn tail — is the divergent suffix.
    let (fork_offset, archived_frames) = log.frames_after(fence_ts);
    let suffix = log.bytes_from(fork_offset).map_err(io::Error::other)?;
    drop(log);

    let archive_path = if suffix.is_empty() {
        None
    } else {
        let path = ts_dir.join(format!("timestore.log.divergent-{primary_epoch}"));
        write_archive(vfs, &path, primary_epoch, fence_ts, &suffix)?;
        // Truncate the live log back to the fork point, then drop the
        // durable-end record that points past it and the lineage store
        // that may reference the suffix; the next open rebuilds the
        // lineage store from the surviving prefix and records a new end.
        let log = vfs.open(&log_path)?;
        log.set_len(fork_offset)?;
        log.sync_data()?;
        for stale in [
            ts_dir.join(timestore::store::DURABLE_END_FILE),
            dir.join("lineage.db"),
        ] {
            let _ = vfs.remove_file(&stale);
        }
        obs::counter("repl.divergent_frames_archived").add(archived_frames);
        Some(path)
    };

    // Adopt the cluster epoch last: once persisted, the node's write
    // path is fenced from the moment it reopens.
    epochs.adopt(ack.head)?;

    Ok(RejoinReport {
        primary_epoch,
        fence_ts,
        fork_offset,
        archived_frames,
        archived_bytes: suffix.len() as u64,
        archive_path,
    })
}

/// Reads a divergence archive back, verifying magic, version, length,
/// and checksum.
pub fn read_divergence_archive(vfs: &VfsRef, path: &Path) -> io::Result<DivergenceArchive> {
    let bytes = vfs.read(path)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut r = Reader::new(&bytes);
    if r.bytes(DIVERGENCE_MAGIC.len())? != DIVERGENCE_MAGIC {
        return Err(bad("bad divergence archive magic"));
    }
    if r.u32()? != DIVERGENCE_VERSION {
        return Err(bad("unsupported divergence archive version"));
    }
    let (epoch, fence_ts, byte_len, checksum) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let body = usize::try_from(byte_len)
        .ok()
        .and_then(|len| r.bytes(len).ok())
        .ok_or_else(|| bad("archive body shorter than its header claims"))?;
    r.finish()
        .map_err(|_| bad("trailing bytes after archive body"))?;
    if fnv64(body) != checksum {
        return Err(bad("divergence archive checksum mismatch"));
    }
    Ok(DivergenceArchive {
        epoch,
        fence_ts,
        bytes: body.to_vec(),
    })
}

fn write_archive(
    vfs: &VfsRef,
    path: &Path,
    epoch: u64,
    fence_ts: u64,
    suffix: &[u8],
) -> io::Result<()> {
    let mut out = Vec::with_capacity(HEADER_LEN + suffix.len());
    out.extend_from_slice(DIVERGENCE_MAGIC);
    put_u32(&mut out, DIVERGENCE_VERSION);
    put_u64(&mut out, epoch);
    put_u64(&mut out, fence_ts);
    put_u64(&mut out, suffix.len() as u64);
    put_u64(&mut out, fnv64(suffix));
    out.extend_from_slice(suffix);
    let file = vfs.open(path)?;
    file.write_all_at(&out, 0)?;
    file.set_len(out.len() as u64)?;
    file.sync_data()
}

/// One handshake round against the primary: send a Hello from the end
/// of `log`, read the pre-gate HelloAck.
fn probe_primary(
    primary: SocketAddr,
    connect_timeout: Duration,
    my_epoch: u64,
    log: &ChangeLog,
) -> io::Result<HelloAck> {
    let end = log.end_offset();
    let (chain, latest_ts) = (log.chain_at(end).unwrap_or(0), log.last_ts().unwrap_or(0));
    let mut stream = send_hello(primary, connect_timeout, end, chain, latest_ts, my_epoch)?;
    let deadline = Instant::now() + connect_timeout.max(Duration::from_secs(2));
    match await_hello_ack(&mut stream, || Instant::now() >= deadline)? {
        Some((ack, _)) => Ok(ack),
        None => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "primary did not answer the rejoin probe",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_roundtrips_and_detects_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let vfs = VfsRef::std();
        let path = dir.path().join("timestore.log.divergent-3");
        let suffix = vec![7u8; 100];
        write_archive(&vfs, &path, 3, 42, &suffix).unwrap();
        let back = read_divergence_archive(&vfs, &path).unwrap();
        assert_eq!(back.epoch, 3);
        assert_eq!(back.fence_ts, 42);
        assert_eq!(back.bytes, suffix);
        // Flip one body byte: the checksum must catch it.
        let mut bytes = vfs.read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        vfs.write(&path, &bytes).unwrap();
        assert!(read_divergence_archive(&vfs, &path).is_err());
    }

    #[test]
    fn fork_offset_splits_at_fence_and_keeps_torn_tail_in_suffix() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("timestore.log");
        let log = ChangeLog::open(&path).unwrap();
        for ts in 1..=4u64 {
            log.append(&CommitFrame {
                ts,
                records: Vec::new(),
            })
            .unwrap();
        }
        log.sync().unwrap();
        drop(log);
        // Append garbage (a torn tail) after the valid frames.
        let vfs = VfsRef::std();
        let mut bytes = vfs.read(&path).unwrap();
        let valid_len = bytes.len();
        bytes.extend_from_slice(&[0xAB; 5]);
        vfs.write(&path, &bytes).unwrap();

        let log = ChangeLog::scan(&vfs, &path, 0).unwrap();
        let frames: Vec<_> = log.iter_from(0).map(|e| e.unwrap()).collect();
        assert_eq!(
            frames.iter().map(|e| e.frame.ts).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        assert_eq!(log.end_offset() as usize, valid_len);
        // Fence at ts 2: frames 3 and 4 plus the torn tail diverge.
        let (fork, suffix_frames) = log.frames_after(2);
        assert!((fork as usize) < valid_len);
        assert_eq!(fork, frames[2].offset);
        assert_eq!(suffix_frames, 2);
        let suffix = log.bytes_from(fork).unwrap();
        assert_eq!(suffix, bytes[fork as usize..], "the torn tail is kept");
        let archive = DivergenceArchive {
            epoch: 1,
            fence_ts: 2,
            bytes: suffix,
        };
        assert_eq!(archive.frames().len(), 2);
        // Fence above everything: fork lands at the torn-tail boundary.
        assert_eq!(log.frames_after(10), (valid_len as u64, 0));
        // The scan left the file as it found it.
        assert_eq!(vfs.read(&path).unwrap(), bytes);
    }
}
