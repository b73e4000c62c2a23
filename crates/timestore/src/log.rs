//! The change log: an append-only file of checksummed commit frames.
//!
//! Frame layout: `u32 payload_len, u32 fnv32(payload), payload` where the
//! checksum is 32-bit FNV-1a ([`vfs::fnv32`]) and the payload is
//! `varint ts, varint n, n × (varint entity, record body)`.
//! One frame per committed transaction keeps commit batching intact and
//! makes the frame boundary the natural recovery unit.
//!
//! The paper seeks into the log through a B+Tree `ts → log offset`
//! (Sec. 4.3). Here the log is its own time index: the scan at open reads
//! every frame anyway, so it keeps each frame's `(ts, offset)` in memory,
//! every append adds its own, and `ChangeLog::iter_ts` finds a time
//! range by binary search. Commit timestamps are strictly increasing, so
//! the list is sorted by both.
//!
//! A frame is read from the file in two reads: its header, then its
//! payload, once. Before the payload buffer is allocated the length must
//! be at most [`MAX_FRAME_LEN`] and the frame must end inside the file as
//! scanned, so a damaged length field costs at most one allocation of the
//! bytes that back it. The frame is then checked and decoded in that
//! buffer by [`parse_frame`], the parser for log bytes already in memory:
//! nothing is read twice to check it first.

use encoding::varint;
use encoding::{updates_from_record, RecordBody};
use lpg::{GraphError, Result, Timestamp, Update};
use parking_lot::Mutex;
use std::path::Path;
use vfs::{fnv32, VfsFile, VfsRef};

/// Hard upper bound on a frame's payload. A corrupt length field can
/// otherwise demand an allocation as large as the file; no legitimate
/// commit comes anywhere near this.
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

/// One committed transaction in the log.
#[derive(Clone, PartialEq, Debug)]
pub struct CommitFrame {
    /// Commit timestamp shared by every update in the frame.
    pub ts: Timestamp,
    /// `(entity id, record body)` pairs in commit order.
    pub records: Vec<(u64, RecordBody)>,
}

impl CommitFrame {
    /// Builds a frame from logical updates.
    pub fn from_updates(ts: Timestamp, updates: &[Update]) -> CommitFrame {
        CommitFrame {
            ts,
            records: updates
                .iter()
                .map(|u| (u.entity().raw(), RecordBody::from_update(u)))
                .collect(),
        }
    }

    /// Expands the frame back into its logical updates, in commit order.
    pub fn updates(&self) -> Vec<Update> {
        self.records
            .iter()
            .flat_map(|(entity, body)| updates_from_record(*entity, body))
            .collect()
    }

    /// Serializes the frame payload (the bytes the log checksums and the
    /// replication stream ships — `varint ts, varint n, n × record`).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + self.records.len() * 16);
        varint::write_u64(&mut payload, self.ts);
        varint::write_u64(&mut payload, self.records.len() as u64);
        for (entity, body) in &self.records {
            varint::write_u64(&mut payload, *entity);
            body.encode(&mut payload);
        }
        payload
    }

    /// Parses a frame payload produced by [`CommitFrame::encode`];
    /// `None` on any truncation, trailing garbage, or malformed record.
    pub fn decode(payload: &[u8]) -> Option<CommitFrame> {
        let mut pos = 0;
        let ts = varint::read_u64(payload, &mut pos)?;
        let n = varint::read_u64(payload, &mut pos)? as usize;
        let mut records = Vec::with_capacity(n.min(100_000));
        for _ in 0..n {
            let entity = varint::read_u64(payload, &mut pos)?;
            let body = RecordBody::decode(payload, &mut pos)?;
            records.push((entity, body));
        }
        (pos == payload.len()).then_some(CommitFrame { ts, records })
    }
}

/// Splits a frame header into `(payload_len, checksum)`; `None` when the
/// length is over [`MAX_FRAME_LEN`].
fn parse_header(head: [u8; 8]) -> Option<(u64, u32)> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
    let len = u64::from(u32::from_le_bytes([l0, l1, l2, l3]));
    (len <= MAX_FRAME_LEN).then_some((len, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Parses the log frame starting at `offset` of raw log bytes held in
/// memory (a log file read whole, a divergence archive): the frame and
/// the offset of the next one, or `None` on truncation or any
/// length/checksum/structure failure — what a scan treats as the torn
/// tail. [`ChangeLog`] runs it on each frame it reads from the file.
pub fn parse_frame(bytes: &[u8], offset: usize) -> Option<(CommitFrame, usize)> {
    let body = offset.checked_add(8)?;
    let (len, checksum) = parse_header(bytes.get(offset..body)?.try_into().ok()?)?;
    let end = body.checked_add(usize::try_from(len).ok()?)?;
    let payload = bytes.get(body..end)?;
    if fnv32(payload) != checksum {
        return None;
    }
    Some((CommitFrame::decode(payload)?, end))
}

/// Append-only log file with torn-tail recovery.
pub struct ChangeLog {
    file: Box<dyn VfsFile>,
    tail: Mutex<Tail>,
    /// `(new end, old length)` when open truncated a torn tail.
    torn_tail: Option<(u64, u64)>,
}

/// The log's end and its time index, changed together by an append.
#[derive(Default)]
struct Tail {
    /// The next append position.
    end: u64,
    /// Every frame's `(ts, offset)`, in log order.
    frames: Vec<(Timestamp, u64)>,
}

impl ChangeLog {
    /// Opens (or creates) the log, scanning it to find a consistent end.
    /// A torn final frame (crash mid-append) is truncated away.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<ChangeLog> {
        ChangeLog::open_with_vfs(&VfsRef::std(), path.as_ref(), 0)
    }

    /// Opens (or creates) the log on `vfs`; see [`ChangeLog::open`].
    ///
    /// `durable_end` is the caller's proof of how far the log was once
    /// fsynced (the TimeStore records it next to the log at every sync). A
    /// bad frame *below* it cannot be a crash artifact — fsynced bytes
    /// survive crashes — so it is reported as corruption instead of being
    /// silently truncated away with every valid frame behind it. Bad
    /// frames at or past `durable_end` are the torn tail of a crash and
    /// are truncated. Pass 0 when no durable marker is available
    /// (truncate-only recovery).
    pub fn open_with_vfs(vfs: &VfsRef, path: &Path, durable_end: u64) -> Result<ChangeLog> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        let mut log = ChangeLog {
            file,
            tail: Mutex::default(),
            torn_tail: None,
        };
        let mut frames = Vec::new();
        let mut offset = 0u64;
        while offset < len {
            match log.read_frame_at(offset, len) {
                Some((frame, next)) => {
                    frames.push((frame.ts, offset));
                    offset = next;
                }
                None if offset < durable_end => {
                    return Err(GraphError::CorruptRecord(format!(
                        "corrupt log frame at offset {offset}, below the durable end {durable_end}"
                    )));
                }
                None => break, // torn tail
            }
        }
        if offset < len {
            log.file.set_len(offset)?;
            log.torn_tail = Some((offset, len));
        }
        *log.tail.lock() = Tail {
            end: offset,
            frames,
        };
        Ok(log)
    }

    /// Appends a commit frame; returns its starting offset.
    pub fn append(&self, frame: &CommitFrame) -> Result<u64> {
        let payload = frame.encode();
        if payload.len() as u64 > MAX_FRAME_LEN {
            return Err(GraphError::Storage(format!(
                "commit frame payload of {} bytes exceeds the {} byte frame cap",
                payload.len(),
                MAX_FRAME_LEN
            )));
        }
        let mut buf = Vec::with_capacity(payload.len() + 8);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let mut tail = self.tail.lock();
        let offset = tail.end;
        self.file.write_all_at(&buf, offset)?;
        tail.end = offset + buf.len() as u64;
        tail.frames.push((frame.ts, offset));
        Ok(offset)
    }

    /// `(offset, former length)` when open truncated a torn final frame at
    /// `offset`, else `None`.
    pub(crate) fn torn_tail(&self) -> Option<(u64, u64)> {
        self.torn_tail
    }

    /// Current end offset (the next append position).
    pub fn end_offset(&self) -> u64 {
        self.tail.lock().end
    }

    /// The timestamp of the last frame, `None` when the log is empty.
    pub(crate) fn last_ts(&self) -> Option<Timestamp> {
        self.tail.lock().frames.last().map(|(ts, _)| *ts)
    }

    /// The frame at `offset` of the file as scanned up to `file_len`, and
    /// the offset of the next one; `None` on any bound, checksum or
    /// structure failure. The header's length is bounded by
    /// [`MAX_FRAME_LEN`] and by `file_len` before the buffer grows to
    /// hold the payload, so it never outgrows the bytes that back it. The
    /// payload is read once and [`parse_frame`] checks it in the buffer:
    /// there is no second pass to check it before it is allocated.
    fn read_frame_at(&self, offset: u64, file_len: u64) -> Option<(CommitFrame, u64)> {
        if offset.checked_add(8)? > file_len {
            return None;
        }
        let mut buf = vec![0u8; 8];
        self.file.read_exact_at(&mut buf, offset).ok()?;
        let (len, _) = parse_header(buf[..].try_into().ok()?)?;
        if offset + 8 + len > file_len {
            return None;
        }
        buf.resize(8 + len as usize, 0);
        self.file.read_exact_at(&mut buf[8..], offset + 8).ok()?;
        let (frame, end) = parse_frame(&buf, 0)?;
        Some((frame, offset + end as u64))
    }

    /// Streams every frame from `offset` to the log end as of this call,
    /// one frame in memory at a time. Recovery replays and replication
    /// tailing both use this instead of materializing the whole suffix.
    pub fn iter_from(&self, offset: u64) -> LogIter<'_> {
        LogIter {
            log: self,
            offset,
            end: self.end_offset(),
        }
    }

    /// Streams the frames with a timestamp in `[start, end)`: the frames
    /// are contiguous, so a binary search for each bound gives the byte
    /// range to read.
    pub fn iter_ts(&self, start: Timestamp, end: Timestamp) -> LogIter<'_> {
        let tail = self.tail.lock();
        let offset_of = |ts: Timestamp| {
            let i = tail.frames.partition_point(|(t, _)| *t < ts);
            tail.frames.get(i).map_or(tail.end, |(_, offset)| *offset)
        };
        LogIter {
            log: self,
            offset: offset_of(start),
            end: offset_of(end),
        }
    }

    /// fsyncs the log.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// One frame yielded by [`ChangeLog::iter_from`].
#[derive(Clone, PartialEq, Debug)]
pub struct LogEntry {
    /// Byte offset of the frame header in the log.
    pub offset: u64,
    /// Offset of the frame that follows (the resume position after this
    /// frame — what replication acks and watermarks record).
    pub next: u64,
    /// The decoded commit.
    pub frame: CommitFrame,
}

/// Streaming cursor over log frames; see [`ChangeLog::iter_from`]. The
/// end is fixed at creation, so frames appended concurrently are not
/// yielded — create a fresh iterator to tail further.
pub struct LogIter<'a> {
    log: &'a ChangeLog,
    offset: u64,
    end: u64,
}

impl LogIter<'_> {
    /// The offset of the next frame this iterator yields; its end once
    /// it has yielded them all.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl Iterator for LogIter<'_> {
    type Item = Result<LogEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.end {
            return None;
        }
        let offset = self.offset;
        match self.log.read_frame_at(offset, self.end) {
            Some((frame, next)) => {
                self.offset = next;
                Some(Ok(LogEntry {
                    offset,
                    next,
                    frame,
                }))
            }
            None => {
                // Park the cursor so a corrupt frame errors once, not forever.
                self.offset = self.end;
                Some(Err(GraphError::Storage(format!(
                    "corrupt log frame at offset {offset}"
                ))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::NodeId;
    use tempfile::tempdir;

    fn add_node(i: u64) -> Update {
        Update::AddNode {
            id: NodeId::new(i),
            labels: vec![],
            props: vec![],
        }
    }

    #[test]
    fn append_and_read_back() {
        let dir = tempdir().unwrap();
        let log = ChangeLog::open(dir.path().join("c.log")).unwrap();
        let f1 = CommitFrame::from_updates(1, &[add_node(1), add_node(2)]);
        let f2 = CommitFrame::from_updates(2, &[Update::DeleteNode { id: NodeId::new(1) }]);
        let o1 = log.append(&f1).unwrap();
        let o2 = log.append(&f2).unwrap();
        assert!(o2 > o1);
        let all: Vec<_> = log.iter_from(0).collect::<Result<_>>().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].offset, all[0].next), (o1, o2));
        assert_eq!(all[0].frame, f1);
        assert_eq!(all[1].frame.ts, 2);
        assert_eq!(log.last_ts(), Some(2));
        // The in-memory parser walks the same bytes to the same frames
        // and stops where the file scan would: at a damaged frame.
        let mut bytes = VfsRef::std().read(&dir.path().join("c.log")).unwrap();
        assert_eq!(parse_frame(&bytes, 0), Some((f1, o2 as usize)));
        assert_eq!(parse_frame(&bytes, o2 as usize), Some((f2, bytes.len())));
        assert_eq!(parse_frame(&bytes, bytes.len()), None);
        assert_eq!(parse_frame(&bytes, usize::MAX - 3), None);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert_eq!(parse_frame(&bytes, o2 as usize), None);
    }

    /// `iter_ts` yields exactly the frames in `[start, end)`, from the
    /// frames appended and from those a reopen scanned.
    #[test]
    fn iter_ts_selects_a_time_range() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let stamps = [0, 3, 4, 10, 11];
        let in_range = |log: &ChangeLog, start, end| -> Vec<Timestamp> {
            let frames = log.iter_ts(start, end).collect::<Result<Vec<_>>>();
            frames.unwrap().iter().map(|e| e.frame.ts).collect()
        };
        let check = |log: &ChangeLog| {
            assert_eq!(in_range(log, 0, u64::MAX), stamps);
            assert_eq!(in_range(log, 1, 11), [3, 4, 10]);
            assert_eq!(in_range(log, 4, 5), [4]);
            assert_eq!(in_range(log, 5, 10), [] as [Timestamp; 0]);
            assert_eq!(in_range(log, 11, 4), [] as [Timestamp; 0]);
            assert_eq!(in_range(log, 12, u64::MAX), [] as [Timestamp; 0]);
        };
        {
            let log = ChangeLog::open(&path).unwrap();
            assert_eq!(log.last_ts(), None);
            for ts in stamps {
                log.append(&CommitFrame::from_updates(ts, &[add_node(ts)]))
                    .unwrap();
            }
            check(&log);
        }
        let log = ChangeLog::open(&path).unwrap();
        check(&log);
        assert_eq!(log.last_ts(), Some(11));
    }

    #[test]
    fn updates_roundtrip() {
        let ops = vec![add_node(5), Update::DeleteNode { id: NodeId::new(5) }];
        let frame = CommitFrame::from_updates(9, &ops);
        assert_eq!(frame.ts, 9);
        assert_eq!(frame.updates(), ops);
    }

    #[test]
    fn reopen_preserves_end_offset() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let end;
        {
            let log = ChangeLog::open(&path).unwrap();
            log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
                .unwrap();
            end = log.end_offset();
            log.sync().unwrap();
        }
        let log = ChangeLog::open(&path).unwrap();
        assert_eq!(log.end_offset(), end);
        assert_eq!(log.iter_from(0).count(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let good_end;
        {
            let log = ChangeLog::open(&path).unwrap();
            log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
                .unwrap();
            good_end = log.end_offset();
            log.append(&CommitFrame::from_updates(2, &[add_node(2)]))
                .unwrap();
            log.sync().unwrap();
        }
        // Simulate a crash that tore the second frame.
        let f = VfsRef::std().open(&path).unwrap();
        f.set_len(good_end + 5).unwrap();
        drop(f);
        let log = ChangeLog::open(&path).unwrap();
        assert_eq!(log.end_offset(), good_end);
        let frames: Vec<_> = log.iter_from(0).collect::<Result<_>>().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].frame.ts, 1);
        // The log accepts appends again after truncation.
        log.append(&CommitFrame::from_updates(2, &[add_node(2)]))
            .unwrap();
        assert_eq!(log.iter_from(0).count(), 2);
    }

    #[test]
    fn oversized_len_frame_is_rejected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let good_end;
        {
            let log = ChangeLog::open(&path).unwrap();
            log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
                .unwrap();
            good_end = log.end_offset();
            log.sync().unwrap();
        }
        // A corrupt header claiming a ~4 GiB payload, "backed" by a sparse
        // file so the length bound alone does not reject it. The frame cap
        // must discard it instead of allocating gigabytes.
        let f = VfsRef::std().open(&path).unwrap();
        let mut head = Vec::new();
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        f.write_all_at(&head, good_end).unwrap();
        f.set_len(good_end + 8 + u64::from(u32::MAX)).unwrap();
        drop(f);
        let log = ChangeLog::open(&path).unwrap();
        assert_eq!(log.end_offset(), good_end);
        assert_eq!(log.iter_from(0).count(), 1);
    }

    #[test]
    fn in_bound_bogus_len_fails_the_checksum() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let good_end;
        {
            let log = ChangeLog::open(&path).unwrap();
            log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
                .unwrap();
            good_end = log.end_offset();
            log.sync().unwrap();
        }
        // A 8 MiB claimed payload under the cap and within the (sparse)
        // file: it is read into one buffer, and the checksum rejects it.
        let bogus = 8u64 * 1024 * 1024;
        let f = VfsRef::std().open(&path).unwrap();
        let mut head = Vec::new();
        head.extend_from_slice(&(bogus as u32).to_le_bytes());
        head.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        f.write_all_at(&head, good_end).unwrap();
        f.set_len(good_end + 8 + bogus).unwrap();
        drop(f);
        let log = ChangeLog::open(&path).unwrap();
        assert_eq!(log.end_offset(), good_end);
    }

    #[test]
    fn corrupted_payload_detected() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        {
            let log = ChangeLog::open(&path).unwrap();
            log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
                .unwrap();
            log.sync().unwrap();
        }
        // Flip a payload byte.
        let vfs = VfsRef::std();
        let mut bytes = vfs.read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        vfs.write(&path, &bytes).unwrap();
        let log = ChangeLog::open(&path).unwrap();
        assert_eq!(log.end_offset(), 0, "bad checksum ⇒ frame discarded");
    }
}
