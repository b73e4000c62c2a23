//! Opening a data directory written by an older version. Its derived files
//! are not converted: they fail verification like a torn file would, the
//! page file is rebuilt from the change log — whose format did not change
//! — and the stale snapshots are dropped at open. Seven kinds of input:
//!
//! * written before the bulk checksum (`vfs::bulk_sum64`): snapshot footers
//!   carry FNV-1a sums;
//! * written before snapshot files shared segments: every snapshot is a
//!   version-1 whole-graph body behind a *valid* `bulk_sum64` footer;
//! * written before node segments carried patches: every snapshot is a
//!   sealed version-2 file;
//! * written before leaf cells had a varint header, before neighbour keys
//!   were compact, or before the page file sealed itself: the page file
//!   carries the page-file magic `AIONPGS1`, `AIONPGS2` or `AIONPGS3`, with
//!   its checksums in a `lineage.db.sums` sidecar. Open deletes the
//!   sidecar;
//! * written before history keys were compact: the page file carries
//!   `AIONPGS4` and the seal on its meta page;
//! * written before leaves held their keys' shared prefix once, live
//!   neighbour entries had empty values and full records one chain byte:
//!   the page file carries `AIONPGS5`;
//! * written before a leaf cell's two lengths shared one varint and full
//!   records lost their chain byte: the page file carries `AIONPGS6`;
//! * written while the TimeStore kept its `ts → log offset` tree: a
//!   `timestore.idx` page file with its checksum sidecar, and no
//!   durable-end record next to the log. Open deletes both files.

use aion::{Aion, AionConfig};
use check::CheckLevel;
use lpg::{Direction, Graph, NodeId, PropertyValue, RelId};
use pagestore::{PageStore, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use timestore::SnapshotPolicy;
use vfs::{fnv64, VfsRef};

fn config(dir: &Path) -> AionConfig {
    let mut config = AionConfig::new(dir);
    config.timestore.policy = SnapshotPolicy::EveryNOps(10);
    config
}

/// `<page_file>.sums`, the checksum sidecar older builds kept beside a
/// page file.
/// Opens `file` as a page store that must match the seal of its last
/// sync.
fn open_verified(file: &Path) -> std::io::Result<PageStore> {
    let registry = Arc::new(obs::Registry::new());
    PageStore::open_with_vfs(&VfsRef::std(), file, 4, true, registry)
}

fn sidecar(page_file: &Path) -> PathBuf {
    let mut path = page_file.as_os_str().to_owned();
    path.push(".sums");
    path.into()
}

/// Writes the checksum sidecar the way older builds did: magic
/// `AIONSUM2`, a generation, the page count, one sum per page and a
/// footer over the rest.
fn write_old_sidecar(page_file: &Path) {
    let pages = VfsRef::std().read(page_file).unwrap();
    let mut out = Vec::new();
    out.extend_from_slice(b"2MUSNOIA");
    out.extend_from_slice(&1u64.to_le_bytes());
    out.extend_from_slice(&((pages.len() / PAGE_SIZE) as u64).to_le_bytes());
    for page in pages.chunks_exact(PAGE_SIZE) {
        out.extend_from_slice(&vfs::bulk_sum64(page).to_le_bytes());
    }
    let footer = vfs::bulk_sum64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    VfsRef::std().write(&sidecar(page_file), &out).unwrap();
}

/// Rewrites the seal on a page file's meta page the way
/// `PageStore::sync` writes it: `bulk_sum64` over the meta page up to the
/// seal and the sum of every other page, a page past the end being zeros.
fn reseal(pages: &mut [u8]) {
    let count = u64::from_le_bytes(pages[8..16].try_into().unwrap()) as usize;
    let seal_off = PAGE_SIZE - 8;
    let mut sealed = pages[..seal_off].to_vec();
    for p in 1..count {
        let sum = match pages.get(p * PAGE_SIZE..(p + 1) * PAGE_SIZE) {
            Some(page) => vfs::bulk_sum64(page),
            None => vfs::bulk_sum64(&[0; PAGE_SIZE]),
        };
        sealed.extend_from_slice(&sum.to_le_bytes());
    }
    let seal = vfs::bulk_sum64(&sealed);
    pages[seal_off..PAGE_SIZE].copy_from_slice(&seal.to_le_bytes());
}

/// Rewrites a page file's magic to `AIONPGS<version>`, so the format
/// version is the only thing wrong with the file: up to version 3 beside
/// the checksum sidecar those versions kept, from version 4 under the
/// seal on its meta page.
fn rewrite_page_magic(page_file: &Path, version: u8) {
    let mut pages = VfsRef::std().read(page_file).unwrap();
    assert_eq!(&pages[..8], b"7SGPNOIA", "little-endian AIONPGS7");
    pages[0] = version;
    if version >= b'4' {
        reseal(&mut pages);
        VfsRef::std().write(page_file, &pages).unwrap();
    } else {
        VfsRef::std().write(page_file, &pages).unwrap();
        write_old_sidecar(page_file);
    }
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
        for rel in want.rels() {
            let got = db.lineagestore().rel_at(rel.id, *ts).unwrap();
            assert_eq!(got.as_ref(), Some(rel), "rel {:?} at ts {ts}", rel.id);
        }
    }
    let report = db.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn old_checksums_are_rebuilt_from_the_log() {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let history = write_history(dir);
    let snapshots = snapshot_files(dir);
    assert!(
        snapshots.len() >= 3,
        "the history crosses snapshot boundaries"
    );
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
    open_verified(&dir.join("lineage.db")).unwrap();
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

/// The pinned anchor of the version-2 snapshot pair: a whole-graph file in
/// the format before node segments carried patches, sealed.
const VERSION_2_FILE: &str = include_str!("../crates/encoding/tests/golden/snapshot_v2_100.hex");
/// The pinned anchor of the version-4 snapshot pair: a whole-graph file in
/// the format whose manifest named every segment in one level, sealed.
const VERSION_4_FILE: &str = include_str!("../crates/encoding/tests/golden/snapshot_v4_100.hex");

#[test]
fn version_2_snapshots_are_dropped_at_open() {
    old_snapshots_are_dropped_at_open(VERSION_2_FILE, 2);
}

#[test]
fn version_4_snapshots_are_dropped_at_open() {
    old_snapshots_are_dropped_at_open(VERSION_4_FILE, 4);
}

/// Every snapshot file of a history replaced by the sealed file `hex` of
/// format `version`: open drops them all before anything reads them, the
/// log re-derives history, and the next snapshot is written in the current
/// version.
fn old_snapshots_are_dropped_at_open(hex: &str, version: u8) {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let history = write_history(dir);
    let snapshots = snapshot_files(dir);
    assert!(
        snapshots.len() >= 3,
        "the history crosses snapshot boundaries"
    );
    let hex: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
    let old: Vec<u8> = hex
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect();
    // Its footer verifies: only the version is refused.
    let payload = old.len() - 8;
    assert_eq!(
        vfs::bulk_sum64(&old[..payload]).to_le_bytes(),
        old[payload..]
    );
    assert_eq!(encoding::snapshot::version(&old), Some(version));
    for snapshot in &snapshots {
        VfsRef::std().write(snapshot, &old).unwrap();
    }

    let db = Aion::open(config(dir)).unwrap();
    // Dropped by the open, before anything read them.
    assert!(
        snapshot_files(dir).is_empty(),
        "version-{version} snapshots are dropped"
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
    assert!(encoding::snapshot::open(&old).is_none());
}

/// A directory whose page file carries the older page-file version
/// `version`, beside its checksum sidecar up to version 3, opens: the page
/// file is rebuilt from the log before any read, the sidecar is deleted,
/// the snapshots are kept, and history reads back from both stores.
fn old_page_file_is_rebuilt_at_open(version: u8) {
    let dir = tempfile::tempdir().unwrap();
    let history = write_history(dir.path());
    rebuild_old_page_file(dir.path(), version, &history, |_| ());
}

/// Rewrites the page file of `dir`, which holds `history`, to carry the
/// older page-file version `version`, checks that it is refused by name
/// and that `Aion::open` rebuilds it, and runs `reads` on the reopened
/// database.
fn rebuild_old_page_file(
    dir: &Path,
    version: u8,
    history: &[(u64, Arc<Graph>)],
    reads: impl FnOnce(&Aion),
) {
    let file = dir.join("lineage.db");
    let mut snapshots = snapshot_files(dir);
    snapshots.sort();
    let old_magic = [version, b'S', b'G', b'P', b'N', b'O', b'I', b'A'];
    rewrite_page_magic(&file, version);
    let err = open_verified(&file)
        .err()
        .expect("an old page file must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let found = format!("version AIONPGS{}", char::from(version));
    assert!(err.to_string().contains(&found), "{err}");

    {
        let db = Aion::open(config(dir)).unwrap();
        // Rebuilt by the open, before anything read it: the old file was
        // deleted, and the new one is empty or the current version.
        let bytes = VfsRef::std().read(&file).unwrap();
        assert!(!bytes.starts_with(&old_magic), "{file:?} still old");
        assert!(
            !VfsRef::std().exists(&sidecar(&file)),
            "the sidecar is deleted at open"
        );
        // The snapshot files did not change format: they are kept.
        let mut kept = snapshot_files(dir);
        kept.sort();
        assert_eq!(kept, snapshots);
        assert_history(&db, history);
        reads(&db);
        db.sync().unwrap();
    }
    let bytes = VfsRef::std().read(&file).unwrap();
    assert_eq!(&bytes[..8], b"7SGPNOIA", "the next sync writes AIONPGS7");
    assert!(!VfsRef::std().exists(&sidecar(&file)), "and no sidecar");
    open_verified(&file).unwrap();
}

#[test]
fn version_1_page_files_are_rebuilt_at_open() {
    old_page_file_is_rebuilt_at_open(b'1');
}

#[test]
fn version_2_page_files_are_rebuilt_at_open() {
    old_page_file_is_rebuilt_at_open(b'2');
}

#[test]
fn version_3_page_files_are_rebuilt_at_open() {
    old_page_file_is_rebuilt_at_open(b'3');
}

#[test]
fn version_4_page_files_are_rebuilt_at_open() {
    old_page_file_is_rebuilt_at_open(b'4');
}

/// Every node's two-hop expansion in both directions at every time of
/// `history`, from the LineageStore.
fn expansions(db: &Aion, history: &[(u64, Arc<Graph>)]) -> Vec<Vec<(NodeId, u32)>> {
    let mut out = Vec::new();
    for (ts, graph) in history {
        for node in graph.nodes() {
            for dir in [Direction::Outgoing, Direction::Incoming] {
                let hits = db.lineagestore().expand(node.id, dir, 2, *ts).unwrap();
                out.push(hits.into_iter().map(|h| (h.node.id, h.hop)).collect());
            }
        }
    }
    out
}

/// A directory whose page file carries the older page-file version
/// `version`, and whose history deleted relationships, opens as
/// [`rebuild_old_page_file`] checks, and every two-hop expansion reads
/// back as before.
fn old_neighbour_entries_are_rebuilt_at_open(version: u8) {
    let dir = tempfile::tempdir().unwrap();
    let dir = dir.path();
    let mut history = write_history(dir);
    // Deleted relationships give the neighbour indexes the entries whose
    // value is not empty.
    let before = {
        let db = Aion::open(config(dir)).unwrap();
        for rel in [2u64, 9, 15] {
            let ts = db.write(|txn| txn.delete_rel(RelId::new(rel))).unwrap();
            history.push((ts, db.latest_graph()));
        }
        db.lineage_barrier(db.latest_ts());
        db.sync().unwrap();
        expansions(&db, &history)
    };
    assert!(before.iter().any(|hits| !hits.is_empty()));
    rebuild_old_page_file(dir, version, &history, |db| {
        assert_eq!(expansions(db, &history), before);
    });
}

#[test]
fn version_5_page_files_are_rebuilt_at_open() {
    old_neighbour_entries_are_rebuilt_at_open(b'5');
}

#[test]
fn version_6_page_files_are_rebuilt_at_open() {
    old_neighbour_entries_are_rebuilt_at_open(b'6');
}

/// The version-6 input differs from a current file in its version digit
/// only: the same bytes resealed under `AIONPGS7` open with verification.
#[test]
fn the_resealed_input_differs_in_its_version_only() {
    let dir = tempfile::tempdir().unwrap();
    let file = dir.path().join("lineage.db");
    write_history(dir.path());
    rewrite_page_magic(&file, b'6');
    let mut pages = VfsRef::std().read(&file).unwrap();
    pages[0] = b'7';
    reseal(&mut pages);
    VfsRef::std().write(&file, &pages).unwrap();
    open_verified(&file).unwrap();
}

/// Writes the TimeStore's index page file the way an older build left it:
/// a tree root at slot 0 and the durable log end at slot 2, synced, with
/// its checksum sidecar beside it.
fn write_old_index_file(index_file: &Path, log_end: u64) {
    let store = PageStore::open(index_file, 4).unwrap();
    let page = store.allocate().unwrap();
    store.set_root(0, page.0);
    store.set_root(2, log_end);
    store.sync().unwrap();
    drop(store);
    write_old_sidecar(index_file);
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
    assert!(old_files.iter().all(|f| VfsRef::std().exists(f)));

    {
        let db = Aion::open(config(dir)).unwrap();
        assert!(
            old_files.iter().all(|f| !VfsRef::std().exists(f)),
            "deleted at open"
        );
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
