//! How the change log reads its file: each frame's bytes once, and a
//! damaged length field refused by the frame's checksum.

use lpg::{NodeId, Result, Update};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tempfile::tempdir;
use timestore::log::{ChangeLog, CommitFrame};
use vfs::{StdVfs, Vfs, VfsFile, VfsRef};

/// `std::fs`, counting the bytes its files read.
#[derive(Default)]
struct CountingVfs(Arc<AtomicU64>);

struct CountingFile(Box<dyn VfsFile>, Arc<AtomicU64>);

impl VfsFile for CountingFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.1.fetch_add(buf.len() as u64, Ordering::Relaxed);
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
        self.0.len()
    }
}

impl Vfs for CountingVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile(StdVfs.open(path)?, self.0.clone())))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<(String, u64)>> {
        StdVfs.read_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        StdVfs.write(path, data)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

fn add_node(i: u64) -> Update {
    Update::AddNode {
        id: NodeId::new(i),
        labels: vec![],
        props: vec![],
    }
}

/// The scan at open, and a walk over every frame, each read every byte of
/// the log once: a payload is not read a second time to check it.
#[test]
fn each_byte_is_read_once() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("c.log");
    {
        let log = ChangeLog::open(&path).unwrap();
        // Small frames, and one larger than 64 KiB.
        for ts in 1..=20 {
            log.append(&CommitFrame::from_updates(ts, &[add_node(ts)]))
                .unwrap();
        }
        let big: Vec<Update> = (100..20_100).map(add_node).collect();
        log.append(&CommitFrame::from_updates(21, &big)).unwrap();
        log.sync().unwrap();
    }
    let n = StdVfs.read(&path).unwrap().len() as u64;
    assert!(n > 64 * 1024);
    let counting = CountingVfs::default();
    let read = counting.0.clone();
    let log = ChangeLog::open_with_vfs(&VfsRef::new(Arc::new(counting)), &path, n).unwrap();
    assert_eq!(log.end_offset(), n);
    assert_eq!(read.load(Ordering::Relaxed), n, "the open scan");
    assert_eq!(log.iter_from(0).count(), 21);
    assert_eq!(
        read.load(Ordering::Relaxed),
        2 * n,
        "the scan, then one walk"
    );
}

/// A mid-log length field damaged to a value that still fits in the file
/// is caught by the checksum: below the durable end the open fails and
/// leaves the file as found; with no durable end the log ends before the
/// damaged frame, and the frames before it index as they did.
#[test]
fn in_file_length_damage_is_rejected() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("c.log");
    let (second, third);
    {
        let log = ChangeLog::open(&path).unwrap();
        log.append(&CommitFrame::from_updates(1, &[add_node(1)]))
            .unwrap();
        second = log
            .append(&CommitFrame::from_updates(2, &[add_node(2)]))
            .unwrap();
        third = log
            .append(&CommitFrame::from_updates(3, &[add_node(3)]))
            .unwrap();
        log.sync().unwrap();
    }
    let vfs = VfsRef::std();
    let mut bytes = vfs.read(&path).unwrap();
    let len = bytes.len() as u64;
    // The second frame claims every byte to the end of the file, more than
    // its own payload.
    let claimed = (len - second - 8) as u32;
    assert!(u64::from(claimed) > third - second - 8);
    bytes[second as usize..second as usize + 4].copy_from_slice(&claimed.to_le_bytes());
    vfs.write(&path, &bytes).unwrap();
    let err = ChangeLog::open_with_vfs(&vfs, &path, len).err().unwrap();
    assert!(err.to_string().contains(&format!(
        "corrupt log frame at offset {second}, below the durable end"
    )));
    assert_eq!(vfs.read(&path).unwrap().len() as u64, len, "left as found");
    let log = ChangeLog::open_with_vfs(&vfs, &path, 0).unwrap();
    assert_eq!(log.end_offset(), second);
    let frames: Vec<_> = log.iter_ts(0, u64::MAX).collect::<Result<_>>().unwrap();
    assert_eq!(frames.len(), 1);
    assert_eq!((frames[0].frame.ts, frames[0].next), (1, second));
}
