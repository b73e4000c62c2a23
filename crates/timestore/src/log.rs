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
//! Each frame's entry also holds the chain before it: `chain_k =
//! fnv64(chain_{k-1} ‖ sum_k)` over the frames' stored checksums, 0 for
//! none (a hash chain, Haber and Stornetta 1991). Equal chains at an
//! offset mean equal frames before it; replication compares them.
//!
//! A frame is read from the file in two reads: its header, then its
//! payload, once. Before the payload buffer is allocated the length must
//! be at most [`MAX_FRAME_LEN`] and the frame must end inside the file as
//! scanned, so a damaged length field costs at most one allocation of the
//! bytes that back it. The frame is then checked and decoded in that
//! buffer by [`parse_frame`], the parser for log bytes already in memory:
//! nothing is read twice to check it first.

use encoding::varint;
use encoding::{record, updates_from_record, RecordBody};
use lock::{Mutex, Rank};
use lpg::{GraphError, Result, Timestamp, Update};
use std::path::Path;
use vfs::{fnv32, fnv64, VfsFile, VfsRef};

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

/// A commit's payload on its way to [`ChangeLog::append_payload`].
pub enum Payload {
    /// `varint n, n × record`, encoded on the committer's thread: the
    /// append puts `varint ts` in front.
    Records(Vec<u8>),
    /// A whole payload, appended byte for byte (what a primary shipped).
    Whole(Vec<u8>),
}

impl Payload {
    /// Encodes a local commit's updates straight from the updates: each
    /// record is the bytes `RecordBody::from_update(op).encode` writes,
    /// with no labels, properties or values copied on the way.
    pub fn records(updates: &[Update]) -> Payload {
        let mut out = Vec::with_capacity(8 + updates.len() * 16);
        varint::write_u64(&mut out, updates.len() as u64);
        for op in updates {
            varint::write_u64(&mut out, op.entity().raw());
            record::encode_update(&mut out, op);
        }
        Payload::Records(out)
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

/// The log's end, its chain there and its index, changed together by an
/// append.
#[derive(Default)]
struct Tail {
    /// The next append position.
    end: u64,
    chain: u64,
    /// Every frame's `(ts, offset, chain before it)`, in log order.
    frames: Vec<(Timestamp, u64, u64)>,
}

impl Tail {
    /// Indexes the frame at the end, from its bytes (header first).
    fn push(&mut self, ts: Timestamp, frame: &[u8]) {
        self.frames.push((ts, self.end, self.chain));
        let mut link = [0u8; 12];
        link[..8].copy_from_slice(&self.chain.to_le_bytes());
        link[8..].copy_from_slice(&frame[4..8]); // the stored checksum
        self.chain = fnv64(&link);
        self.end += frame.len() as u64;
    }
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
        let log = ChangeLog::scan(vfs, path, durable_end)?;
        if let Some((end, _)) = log.torn_tail {
            log.file.set_len(end)?;
        }
        Ok(log)
    }

    /// Reads the log as [`ChangeLog::open_with_vfs`] does, but leaves a
    /// torn tail in the file, for a reader that needs the file's bytes as
    /// they are ([`ChangeLog::bytes_from`]).
    pub fn scan(vfs: &VfsRef, path: &Path, durable_end: u64) -> Result<ChangeLog> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        let mut log = ChangeLog {
            file,
            tail: Mutex::new(Rank::LogTail, Tail::default()),
            torn_tail: None,
        };
        let mut tail = Tail::default();
        while tail.end < len {
            let offset = tail.end;
            match log.read_frame_at(offset, len) {
                Some((frame, bytes)) => tail.push(frame.ts, &bytes),
                None if offset < durable_end => {
                    return Err(GraphError::CorruptRecord(format!(
                        "corrupt log frame at offset {offset}, below the durable end {durable_end}"
                    )));
                }
                None => break, // torn tail
            }
        }
        if tail.end < len {
            log.torn_tail = Some((tail.end, len));
        }
        *log.tail.get_mut() = tail;
        Ok(log)
    }

    /// Appends a commit frame; returns its starting offset.
    pub fn append(&self, frame: &CommitFrame) -> Result<u64> {
        self.append_payload(frame.ts, &Payload::Whole(frame.encode()))
    }

    /// Appends the frame of the commit at `ts` (a [`Payload::Whole`]
    /// must encode that timestamp); returns its starting offset.
    pub fn append_payload(&self, ts: Timestamp, payload: &Payload) -> Result<u64> {
        let mut buf = vec![0u8; 8];
        match payload {
            Payload::Records(records) => {
                varint::write_u64(&mut buf, ts);
                buf.extend_from_slice(records);
            }
            Payload::Whole(bytes) => buf.extend_from_slice(bytes),
        }
        let len = buf.len() as u64 - 8;
        if len > MAX_FRAME_LEN {
            return Err(GraphError::Storage(format!(
                "commit frame payload of {len} bytes exceeds the {MAX_FRAME_LEN} byte frame cap"
            )));
        }
        let sum = fnv32(&buf[8..]);
        buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut tail = self.tail.lock();
        let offset = tail.end;
        self.file.write_all_at(&buf, offset)?;
        tail.push(ts, &buf);
        Ok(offset)
    }

    /// `(offset, former length)` when open truncated a torn final frame at
    /// `offset` (or [`ChangeLog::scan`] found one there), else `None`.
    pub(crate) fn torn_tail(&self) -> Option<(u64, u64)> {
        self.torn_tail
    }

    /// Current end offset (the next append position).
    pub fn end_offset(&self) -> u64 {
        self.tail.lock().end
    }

    /// The chain of the frames before `offset`; `None` when `offset` is
    /// not a frame boundary.
    pub fn chain_at(&self, offset: u64) -> Option<u64> {
        let tail = self.tail.lock();
        if offset == tail.end {
            return Some(tail.chain);
        }
        let i = tail.frames.binary_search_by_key(&offset, |f| f.1);
        Some(tail.frames[i.ok()?].2)
    }

    /// Where the frames with a timestamp above `ts` start (the log end
    /// when there are none), and how many there are.
    pub fn frames_after(&self, ts: Timestamp) -> (u64, u64) {
        let tail = self.tail.lock();
        let i = tail.frames.partition_point(|f| f.0 <= ts);
        let offset = tail.frames.get(i).map_or(tail.end, |f| f.1);
        (offset, (tail.frames.len() - i) as u64)
    }

    /// The timestamp of the last frame, `None` when the log is empty.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.tail.lock().frames.last().map(|f| f.0)
    }

    /// The file's bytes from `offset` to its end, a torn tail that
    /// [`ChangeLog::scan`] left included.
    pub fn bytes_from(&self, offset: u64) -> Result<Vec<u8>> {
        let len = self.file.len()?.saturating_sub(offset);
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    /// The frame at `offset` of the file as scanned up to `file_len`, and
    /// its bytes, header first; `None` on any bound, checksum or
    /// structure failure. The header's length is bounded by
    /// [`MAX_FRAME_LEN`] and by `file_len` before the buffer grows to
    /// hold the payload, so it never outgrows the bytes that back it. The
    /// payload is read once and [`parse_frame`] checks it in the buffer:
    /// there is no second pass to check it before it is allocated.
    fn read_frame_at(&self, offset: u64, file_len: u64) -> Option<(CommitFrame, Vec<u8>)> {
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
        let (frame, _) = parse_frame(&buf, 0)?;
        Some((frame, buf))
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
            let i = tail.frames.partition_point(|f| f.0 < ts);
            tail.frames.get(i).map_or(tail.end, |f| f.1)
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
    /// The frame's bytes as read from the log: the 8-byte header, then
    /// the payload the replication stream ships.
    pub bytes: Vec<u8>,
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
            Some((frame, bytes)) => {
                let next = offset + bytes.len() as u64;
                self.offset = next;
                Some(Ok(LogEntry {
                    offset,
                    next,
                    frame,
                    bytes,
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

    /// The chain a reopen scans equals the one the appends built, at every
    /// frame boundary, also after a torn tail is truncated; an offset
    /// inside a frame has none.
    #[test]
    fn chain_is_rebuilt_by_the_open_scan() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("c.log");
        let log = ChangeLog::open(&path).unwrap();
        let mut built = vec![(0, log.chain_at(0).unwrap())];
        for ts in 1..=4 {
            log.append(&CommitFrame::from_updates(ts, &[add_node(ts)]))
                .unwrap();
            let end = log.end_offset();
            built.push((end, log.chain_at(end).unwrap()));
        }
        assert_eq!(built[0].1, 0, "the empty log's chain");
        let distinct: std::collections::HashSet<u64> = built.iter().map(|b| b.1).collect();
        assert_eq!(distinct.len(), built.len());
        for offset in [1, built[2].0 - 1, built[2].0 + 3, built[4].0 + 1] {
            assert_eq!(log.chain_at(offset), None, "offset {offset}");
        }
        log.sync().unwrap();
        drop(log);
        let check = |log: &ChangeLog, frames: usize| {
            for &(offset, chain) in &built[..=frames] {
                assert_eq!(log.chain_at(offset), Some(chain), "offset {offset}");
            }
            assert_eq!(log.end_offset(), built[frames].0);
        };
        check(&ChangeLog::open(&path).unwrap(), 4);
        // Tear the last frame: the reopen cuts it and keeps the chain
        // before it, and the same append extends it as before.
        let f = VfsRef::std().open(&path).unwrap();
        f.set_len(built[3].0 + 5).unwrap();
        drop(f);
        let log = ChangeLog::open(&path).unwrap();
        check(&log, 3);
        assert_eq!(log.chain_at(built[4].0), None);
        log.append(&CommitFrame::from_updates(4, &[add_node(4)]))
            .unwrap();
        check(&log, 4);
    }

    /// A local commit's records and the whole payload of the same commit
    /// append the same bytes; a frame of the same length with other
    /// bytes gives another chain.
    #[test]
    fn records_and_whole_payloads_append_the_same_frame() {
        let dir = tempdir().unwrap();
        let vfs = VfsRef::std();
        let logs: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|name| ChangeLog::open(dir.path().join(name)).unwrap())
            .collect();
        logs[0]
            .append_payload(7, &Payload::records(&[add_node(1)]))
            .unwrap();
        logs[1]
            .append(&CommitFrame::from_updates(7, &[add_node(1)]))
            .unwrap();
        logs[2]
            .append(&CommitFrame::from_updates(7, &[add_node(2)]))
            .unwrap();
        let bytes = |name: &str| vfs.read(&dir.path().join(name)).unwrap();
        assert_eq!(bytes("a"), bytes("b"));
        assert_eq!(bytes("a").len(), bytes("c").len());
        assert_ne!(bytes("a"), bytes("c"));
        let heads: Vec<_> = logs.iter().map(|l| l.chain_at(l.end_offset())).collect();
        assert_eq!(heads[0], heads[1]);
        assert_ne!(heads[0], heads[2]);
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
