//! Opening a data directory written by an older version. Its derived files
//! are not converted: they fail verification like a torn file would, the
//! page files are rebuilt from the change log — whose format did not
//! change — and the stale snapshots are dropped at open. Five inputs:
//!
//! * written before the bulk checksum (`vfs::bulk_sum64`, sidecar magic
//!   `AIONSUM2`): page-checksum sidecars and snapshot footers carry FNV-1a
//!   sums (`AIONSUM1`);
//! * written before snapshot files shared segments: every snapshot is a
//!   version-1 whole-graph body behind a *valid* `bulk_sum64` footer;
//! * written before leaf cells had a varint header, or before neighbour
//!   keys were compact: the page files carry the page-file magic `AIONPGS1`
//!   or `AIONPGS2` behind a *valid* checksum sidecar;
//! * written while the TimeStore kept its `ts → log offset` tree: a
//!   `timestore.idx` page file with its checksum sidecar, and no
//!   durable-end record next to the log. Open deletes both files.

use aion::{Aion, AionConfig};
use check::CheckLevel;
use lpg::{Graph, NodeId, PropertyValue, RelId};
use pagestore::{PageStore, PAGE_SIZE};
use std::path::Path;
use std::sync::Arc;
use timestore::SnapshotPolicy;
use vfs::{fnv64, VfsRef};

fn config(dir: &Path) -> AionConfig {
    let mut config = AionConfig::new(dir);
    config.timestore.policy = SnapshotPolicy::EveryNOps(10);
    config
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Rewrites `<page_file>.sums` the way version 1 wrote it: magic
/// `AIONSUM1`, one FNV-1a sum per page, FNV-1a footer over the rest.
fn reseal_sidecar_v1(page_file: &Path) {
    let sums_path = PageStore::sums_path(page_file);
    let current = VfsRef::std().read(&sums_path).unwrap();
    assert_eq!(&current[..8], b"2MUSNOIA", "little-endian AIONSUM2");
    let (generation, count) = (u64_at(&current, 8), u64_at(&current, 16) as usize);
    let mut pages = VfsRef::std().read(page_file).unwrap();
    pages.resize(count * PAGE_SIZE, 0); // allocated, never written: a hole
    let mut out = Vec::new();
    out.extend_from_slice(b"1MUSNOIA");
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(count as u64).to_le_bytes());
    for page in pages.chunks_exact(PAGE_SIZE) {
        out.extend_from_slice(&fnv64(page).to_le_bytes());
    }
    let footer = fnv64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    assert_eq!(
        out.len(),
        current.len(),
        "same sidecar length in both versions"
    );
    VfsRef::std().write(&sums_path, &out).unwrap();
}

/// Rewrites a page file's magic to `AIONPGS<version>` and reseals its
/// `AIONSUM2` sidecar over the new bytes, so the format version is the only
/// thing wrong with the file.
fn rewrite_page_magic(page_file: &Path, version: u8) {
    let mut pages = VfsRef::std().read(page_file).unwrap();
    assert_eq!(&pages[..8], b"3SGPNOIA", "little-endian AIONPGS3");
    pages[0] = version;
    VfsRef::std().write(page_file, &pages).unwrap();
    let sums_path = PageStore::sums_path(page_file);
    let mut sums = VfsRef::std().read(&sums_path).unwrap();
    // Header (magic, generation, count), then one sum per page from page
    // 0, then the footer over everything before it.
    let meta_sum = vfs::bulk_sum64(&pages[..PAGE_SIZE]);
    sums[24..32].copy_from_slice(&meta_sum.to_le_bytes());
    let body = sums.len() - 8;
    let footer = vfs::bulk_sum64(&sums[..body]);
    sums[body..].copy_from_slice(&footer.to_le_bytes());
    VfsRef::std().write(&sums_path, &sums).unwrap();
}

/// Rewrites a snapshot's footer as FNV-1a over its payload.
fn reseal_snapshot_v1(path: &Path) {
    let mut bytes = VfsRef::std().read(path).unwrap();
    let payload_len = bytes.len() - 8;
    let footer = fnv64(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&footer.to_le_bytes());
    VfsRef::std().write(path, &bytes).unwrap();
}

fn snapshot_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let snap_dir = dir.join("timestore/snapshots");
    let files = VfsRef::std().read_dir(&snap_dir).unwrap();
    files.iter().map(|(name, _)| snap_dir.join(name)).collect()
}

/// History: nodes, relationships, property churn, synced and closed; the
/// graph after every commit is the oracle for "readable at its timestamp".
fn write_history(dir: &Path) -> Vec<(u64, Arc<Graph>)> {
    let mut history = Vec::new();
    let db = Aion::open(config(dir)).unwrap();
    let (label, key) = (db.intern("N"), db.intern("v"));
    for i in 0..20u64 {
        let ts = db
            .write(|txn| txn.add_node(NodeId::new(i), vec![label], vec![]))
            .unwrap();
        history.push((ts, db.latest_graph()));
    }
    for i in 0..20u64 {
        let ts = db
            .write(|txn| {
                txn.add_rel(
                    RelId::new(i),
                    NodeId::new(i),
                    NodeId::new((i * 7 + 1) % 20),
                    None,
                    vec![],
                )?;
                txn.set_node_prop(NodeId::new(i % 5), key, PropertyValue::Int(i as i64))
            })
            .unwrap();
        history.push((ts, db.latest_graph()));
    }
    db.lineage_barrier(db.latest_ts());
    db.sync().unwrap();
    history
}

/// Every state of `history` reads back from both stores, and the full
/// audit is clean.
fn assert_history(db: &Aion, history: &[(u64, Arc<Graph>)]) {
    assert_eq!(db.latest_ts(), history.last().unwrap().0);
    db.lineage_barrier(db.latest_ts());
    for (ts, want) in history {
        assert!(db.get_graph_at(*ts).unwrap().same_as(want), "at ts {ts}");
        for node in want.nodes() {
            let got = db.lineagestore().node_at(node.id, *ts).unwrap();
            assert_eq!(got.as_ref(), Some(node), "node {:?} at ts {ts}", node.id);
        }
    }
    let report = db.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn old_checksums_are_rebuilt_from_the_log() {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let page_files = [dir.join("lineage.db")];
    let history = write_history(dir);
    let snapshots = snapshot_files(dir);
    assert!(
        snapshots.len() >= 3,
        "the history crosses snapshot boundaries"
    );

    for file in &page_files {
        reseal_sidecar_v1(file);
        let err = PageStore::open_with_vfs(&VfsRef::std(), file, 4, true)
            .err()
            .expect("a version-1 sidecar must not verify");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    for snapshot in &snapshots {
        reseal_snapshot_v1(snapshot);
    }

    {
        let db = Aion::open(config(dir)).unwrap();
        assert!(
            snapshot_files(dir).is_empty(),
            "stale snapshots are dropped"
        );
        assert_eq!(db.timestore().stats().snapshot_count, 0);
        assert_history(&db, &history);
        db.sync().unwrap();
    }
    for file in &page_files {
        let sums = VfsRef::std().read(&PageStore::sums_path(file)).unwrap();
        assert_eq!(&sums[..8], b"2MUSNOIA", "the next sync writes AIONSUM2");
        PageStore::open_with_vfs(&VfsRef::std(), file, 4, true).unwrap();
    }
}

/// PR 17's pinned whole-graph snapshot body: the version-1 format.
const VERSION_1_BODY: &str = include_str!("../crates/encoding/tests/golden/snapshot_200.hex");

#[test]
fn version_1_snapshots_are_dropped_at_open() {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let history = write_history(dir);
    let snapshots = snapshot_files(dir);
    assert!(
        snapshots.len() >= 3,
        "the history crosses snapshot boundaries"
    );
    let hex: Vec<u8> = VERSION_1_BODY
        .bytes()
        .filter(u8::is_ascii_hexdigit)
        .collect();
    let mut v1: Vec<u8> = hex
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect();
    v1.extend_from_slice(&vfs::bulk_sum64(&v1).to_le_bytes());
    for snapshot in &snapshots {
        VfsRef::std().write(snapshot, &v1).unwrap();
    }

    let db = Aion::open(config(dir)).unwrap();
    // Dropped by the open, before anything read them.
    assert!(
        snapshot_files(dir).is_empty(),
        "version-1 snapshots are dropped"
    );
    assert_eq!(db.timestore().stats().snapshot_count, 0);
    assert_history(&db, &history);
    // The next snapshot is written in the current version.
    for i in 100..110u64 {
        db.write(|txn| txn.add_node(NodeId::new(i), vec![], vec![]))
            .unwrap();
    }
    let written = snapshot_files(dir);
    assert_eq!(written.len(), 1);
    let bytes = VfsRef::std().read(&written[0]).unwrap();
    assert!(encoding::snapshot::open(&bytes).is_some());
    assert!(encoding::snapshot::open(&v1).is_none());
}

/// A directory whose page files carry the older page-file version
/// `version` opens: both page files are rebuilt from the log before any
/// read, the snapshots are kept, and history reads back from both stores.
fn old_page_files_are_rebuilt_at_open(version: u8) {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let page_files = [dir.join("lineage.db")];
    let history = write_history(dir);
    let mut snapshots = snapshot_files(dir);
    snapshots.sort();
    let old_magic = [version, b'S', b'G', b'P', b'N', b'O', b'I', b'A'];
    for file in &page_files {
        rewrite_page_magic(file, version);
        let err = PageStore::open_with_vfs(&VfsRef::std(), file, 4, true)
            .err()
            .expect("an old page file must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let found = format!("version AIONPGS{}", char::from(version));
        assert!(err.to_string().contains(&found), "{err}");
    }

    {
        let db = Aion::open(config(dir)).unwrap();
        // Rebuilt by the open, before anything read them: the old files
        // were deleted, and the new ones are empty or the current version.
        for file in &page_files {
            let bytes = VfsRef::std().read(file).unwrap();
            assert!(!bytes.starts_with(&old_magic), "{file:?} still old");
        }
        // The snapshot files did not change format: they are kept.
        let mut kept = snapshot_files(dir);
        kept.sort();
        assert_eq!(kept, snapshots);
        assert_history(&db, &history);
        db.sync().unwrap();
    }
    for file in &page_files {
        let bytes = VfsRef::std().read(file).unwrap();
        assert_eq!(&bytes[..8], b"3SGPNOIA", "the next sync writes AIONPGS3");
        PageStore::open_with_vfs(&VfsRef::std(), file, 4, true).unwrap();
    }
}

#[test]
fn version_1_page_files_are_rebuilt_at_open() {
    old_page_files_are_rebuilt_at_open(b'1');
}

#[test]
fn version_2_page_files_are_rebuilt_at_open() {
    old_page_files_are_rebuilt_at_open(b'2');
}

/// Writes the TimeStore's index page file the way an older build left it:
/// a tree root at slot 0 and the durable log end at slot 2, synced, so the
/// file verifies against its checksum sidecar.
fn write_old_index_file(index_file: &Path, log_end: u64) {
    let store = PageStore::open(index_file, 4).unwrap();
    let page = store.allocate().unwrap();
    store.set_root(0, page.0);
    store.set_root(2, log_end);
    store.sync().unwrap();
}

#[test]
fn an_index_file_from_an_older_build_is_deleted_at_open() {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let ts_dir = dir.join("timestore");
    let old_files = [
        ts_dir.join("timestore.idx"),
        ts_dir.join("timestore.idx.sums"),
    ];
    let marker = ts_dir.join(timestore::store::DURABLE_END_FILE);
    let history = write_history(dir);
    let mut snapshots = snapshot_files(dir);
    snapshots.sort();
    let log_len = VfsRef::std()
        .read(&ts_dir.join("timestore.log"))
        .unwrap()
        .len();
    VfsRef::std().remove_file(&marker).unwrap();
    write_old_index_file(&old_files[0], log_len as u64);
    assert!(old_files.iter().all(|f| f.exists()));

    {
        let db = Aion::open(config(dir)).unwrap();
        assert!(old_files.iter().all(|f| !f.exists()), "deleted at open");
        assert!(
            db.timestore().repairs().is_empty(),
            "{:?}",
            db.timestore().repairs()
        );
        // The snapshot files did not change: they are kept.
        let mut kept = snapshot_files(dir);
        kept.sort();
        assert_eq!(kept, snapshots);
        assert_history(&db, &history);
        // Open recorded how far the log it found is durable.
        assert_eq!(db.timestore().durable_log_end(), log_len as u64);
        assert_eq!(VfsRef::std().read(&marker).unwrap().len(), 16);
    }
    let db = Aion::open(config(dir)).unwrap();
    assert!(db.timestore().repairs().is_empty());
    assert_history(&db, &history);
}
