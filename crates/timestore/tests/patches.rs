//! Node segments written as patches: a snapshot file holds the nodes that
//! changed since a segment's base, not the segment, and its patch lists
//! every node that may differ from that base — also one a commit changed
//! while the file was being written, and one the floor's patch listed
//! before a reopen.

use encoding::snapshot::{self, Inline};
use lpg::{NodeId, PropertyValue, StrId, Timestamp, Update};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};
use vfs::{StdVfs, Vfs, VfsFile, VfsRef};

fn add_nodes(ids: std::ops::Range<u64>) -> Vec<Update> {
    ids.map(|id| Update::AddNode {
        id: NodeId::new(id),
        labels: vec![StrId::new(1)],
        props: vec![(StrId::new(2), PropertyValue::Int(id as i64))],
    })
    .collect()
}

fn set(id: u64, value: i64) -> Update {
    Update::SetNodeProp {
        id: NodeId::new(id),
        key: StrId::new(3),
        value: PropertyValue::Int(value),
    }
}

fn config(vfs: VfsRef) -> TimeStoreConfig {
    TimeStoreConfig {
        policy: SnapshotPolicy::Never,
        vfs,
        ..Default::default()
    }
}

/// What the snapshot file at `ts` holds inline.
fn inline(dir: &Path, ts: Timestamp) -> Inline {
    let name = format!("snapshots/snap_{ts:020}.aisnap");
    let bytes = VfsRef::std().read(&dir.join(name)).unwrap();
    snapshot::open(&bytes).unwrap().inline()
}

/// Every snapshot file equals the log replayed to its ts: the audit loads
/// each one from disk, sharing nothing, and compares.
fn assert_files_match_the_log(store: &TimeStore) {
    let findings = store.audit(true).unwrap().findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn one_changed_node_per_segment_is_written_as_64_patches() {
    let dir = tempdir().unwrap();
    let store = TimeStore::open(dir.path(), config(VfsRef::std())).unwrap();
    store.append_commit(1, &add_nodes(0..64 * 64)).unwrap();
    store.write_snapshot().unwrap();
    let whole = inline(dir.path(), 1);
    assert_eq!(whole.patches, 0);
    let changes: Vec<Update> = (0..64).map(|s| set(s * 64 + 5, -1)).collect();
    store.append_commit(2, &changes).unwrap();
    store.write_snapshot().unwrap();
    let patched = inline(dir.path(), 2);
    assert_eq!(
        (patched.node_bytes, patched.patches),
        (0, 64),
        "{patched:?}"
    );
    // One record per segment: about a 64th of the segments' bytes.
    assert!(
        patched.patch_bytes * 32 < whole.node_bytes,
        "{patched:?} against {whole:?}"
    );
    assert_files_match_the_log(&store);
}

/// `std::fs`, except that the first snapshot file synced after `armed` is
/// set waits in its sync: it meets the test at `paused` and goes on once
/// the test meets it at `resume`.
struct PausingVfs {
    armed: AtomicBool,
    paused: Barrier,
    resume: Barrier,
}

struct PausingFile(Box<dyn VfsFile>, Option<Arc<PausingVfs>>);

impl VfsFile for PausingFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.0.read_exact_at(buf, offset)
    }
    fn write_all_at(&self, data: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_all_at(data, offset)
    }
    fn sync_data(&self) -> io::Result<()> {
        if let Some(vfs) = self
            .1
            .as_ref()
            .filter(|v| v.armed.swap(false, Ordering::AcqRel))
        {
            vfs.paused.wait();
            vfs.resume.wait();
        }
        self.0.sync_data()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn len(&self) -> io::Result<u64> {
        self.0.len()
    }
}

/// Opens through `std::fs`; a snapshot file gets the pause.
struct Pausing(Arc<PausingVfs>);

impl Vfs for Pausing {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let snapshot = path.extension().is_some_and(|e| e == "aisnap");
        let gate = snapshot.then(|| self.0.clone());
        Ok(Box::new(PausingFile(StdVfs.open(path)?, gate)))
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

#[test]
fn a_node_changed_while_a_snapshot_is_written_is_listed_by_the_next() {
    let dir = tempdir().unwrap();
    let gate = Arc::new(PausingVfs {
        armed: AtomicBool::new(false),
        paused: Barrier::new(2),
        resume: Barrier::new(2),
    });
    let vfs = VfsRef::new(Arc::new(Pausing(gate.clone())));
    let store = TimeStore::open(dir.path(), config(vfs)).unwrap();
    // Two segments, written whole at 1.
    store.append_commit(1, &add_nodes(0..128)).unwrap();
    store.write_snapshot().unwrap();
    // Segment 0 changes at 2: the file at 2 patches it and references
    // segment 1 as the file at 1 wrote it.
    store.append_commit(2, &[set(3, 2)]).unwrap();
    gate.armed.store(true, Ordering::Release);
    std::thread::scope(|s| {
        let writer = s.spawn(|| store.write_snapshot());
        // The file at 2 is encoded and being synced: a commit lands in
        // both segments before it is done.
        gate.paused.wait();
        store.append_commit(3, &[set(5, 3), set(70, 3)]).unwrap();
        gate.resume.wait();
        writer.join().unwrap().unwrap();
    });
    let at_2 = inline(dir.path(), 2);
    assert_eq!((at_2.node_bytes, at_2.patches), (0, 1), "{at_2:?}");
    // The file at 3 lists what changed at 3 in both segments, node 70
    // included though the file at 2 holds its segment unpatched.
    store.write_snapshot().unwrap();
    let at_3 = inline(dir.path(), 3);
    assert_eq!((at_3.node_bytes, at_3.patches), (0, 2), "{at_3:?}");
    assert_files_match_the_log(&store);
}

#[test]
fn the_nodes_the_floors_patch_lists_stay_listed_after_a_reopen() {
    let dir = tempdir().unwrap();
    let open = || TimeStore::open(dir.path(), config(VfsRef::std())).unwrap();
    let store = open();
    store.append_commit(1, &add_nodes(0..64)).unwrap();
    store.write_snapshot().unwrap();
    store.append_commit(2, &[set(3, 2)]).unwrap();
    store.write_snapshot().unwrap();
    store.sync().unwrap();
    drop(store);
    // The floor is the file at 2, whose patch lists node 3: the next patch
    // lists it too, beside node 5.
    let store = open();
    store.append_commit(3, &[set(5, 3)]).unwrap();
    store.write_snapshot().unwrap();
    let (at_2, at_3) = (inline(dir.path(), 2), inline(dir.path(), 3));
    assert_eq!((at_3.node_bytes, at_3.patches), (0, 1), "{at_3:?}");
    assert!(
        at_3.patch_bytes > at_2.patch_bytes,
        "{at_3:?} against {at_2:?}"
    );
    assert_files_match_the_log(&store);
}
