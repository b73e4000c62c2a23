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
//! 2. scans the local `timestore.log` for the first frame past the fork
//!    point and archives everything from there — including any torn
//!    tail — **byte-exact** into a checksummed archive file
//!    `timestore.log.divergent-<epoch>`;
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

use crate::epoch::EpochState;
use crate::wire::{await_hello_ack, send_hello, HelloAck};
use aion_server::protocol::{put_u32, put_u64, Reader};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use timestore::log::parse_frame;
use timestore::CommitFrame;
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
    let log_bytes = vfs.read(&log_path).unwrap_or_default();
    let (frames, frames_end) = scan_frames(&log_bytes);
    let latest_ts = frames.last().map_or(0, |(ts, _)| *ts);

    let ack = probe_primary(primary, connect_timeout, my_epoch, frames_end, latest_ts)?;
    let (primary_epoch, fence_ts) = (ack.head.epoch, ack.fence_ts);

    if primary_epoch <= my_epoch {
        // The "primary" is not ahead of us; there is no newer timeline
        // to quarantine against. (Either we *are* current, or the peer
        // is itself stale — in both cases rejoin prep is a no-op.)
        return Ok(RejoinReport {
            primary_epoch,
            fence_ts: u64::MAX,
            fork_offset: log_bytes.len() as u64,
            archived_frames: 0,
            archived_bytes: 0,
            archive_path: None,
        });
    }

    // Everything from the fork offset on — decodable frames *and* any
    // torn tail — is the divergent suffix.
    let (fork_offset, archived_frames) = fork_point(&frames, frames_end, fence_ts);
    let suffix = log_bytes.get(fork_offset as usize..).unwrap_or_default();

    let archive_path = if suffix.is_empty() {
        None
    } else {
        let path = ts_dir.join(format!("timestore.log.divergent-{primary_epoch}"));
        write_archive(vfs, &path, primary_epoch, fence_ts, suffix)?;
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

/// One handshake round against the primary: send a Hello, read the
/// pre-gate HelloAck.
fn probe_primary(
    primary: SocketAddr,
    connect_timeout: Duration,
    my_epoch: u64,
    log_end: u64,
    latest_ts: u64,
) -> io::Result<HelloAck> {
    let mut stream = send_hello(primary, connect_timeout, log_end, latest_ts, my_epoch)?;
    let deadline = Instant::now() + connect_timeout.max(Duration::from_secs(2));
    match await_hello_ack(&mut stream, || Instant::now() >= deadline)? {
        Some((ack, _)) => Ok(ack),
        None => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "primary did not answer the rejoin probe",
        )),
    }
}

/// Walks raw log bytes frame by frame ([`timestore::log::parse_frame`]),
/// stopping at the first frame that fails to parse (torn tail). Returns
/// every complete frame's `(ts, offset)` in log order and the offset
/// where they end.
fn scan_frames(bytes: &[u8]) -> (Vec<(u64, u64)>, u64) {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while let Some((frame, next)) = parse_frame(bytes, offset) {
        frames.push((frame.ts, offset as u64));
        offset = next;
    }
    (frames, offset as u64)
}

/// The fork offset — the start of the first frame with `ts > fence_ts`,
/// or `frames_end` when no complete frame is past the fence — and the
/// number of frames from there on. Log order is commit order, so the
/// first past-fence frame starts the divergent suffix.
fn fork_point(frames: &[(u64, u64)], frames_end: u64, fence_ts: u64) -> (u64, u64) {
    let fork = frames.partition_point(|(ts, _)| *ts <= fence_ts);
    let offset = frames.get(fork).map_or(frames_end, |(_, offset)| *offset);
    (offset, (frames.len() - fork) as u64)
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
        let log = timestore::ChangeLog::open(&path).unwrap();
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

        let (frames, end) = scan_frames(&bytes);
        assert_eq!(
            frames.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        assert_eq!(end as usize, valid_len);
        // Fence at ts 2: frames 3 and 4 plus the torn tail diverge.
        let (fork, suffix_frames) = fork_point(&frames, end, 2);
        assert!((fork as usize) < valid_len);
        assert_eq!(fork, frames[2].1);
        assert_eq!(suffix_frames, 2);
        assert_eq!(scan_frames(&bytes[fork as usize..]).0.len(), 2);
        // Fence above everything: fork lands at the torn-tail boundary.
        assert_eq!(fork_point(&frames, end, 10), (valid_len as u64, 0));
    }
}
