//! Failure injection: crashes between the synchronous TimeStore append and
//! the asynchronous LineageStore cascade, torn log tails, damaged log
//! frames, a lost durable-end record and corrupt snapshot files — in every case the change log is the
//! source of truth and recovery must restore a fully consistent system.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "deliberately corrupts files out-of-band (rename/copy/truncate) to simulate external damage the Vfs seam must detect, so it cannot itself run through the seam"
)]

use aion::{Aion, AionConfig};
use lpg::{Direction, NodeId, PropertyValue, RelId, StrId};
use std::fs::OpenOptions;
use tempfile::tempdir;

fn seed(db: &Aion, n: u64) -> u64 {
    let label = db.intern("N");
    for i in 0..n {
        db.write(|txn| {
            txn.add_node(
                NodeId::new(i),
                vec![label],
                vec![(db.intern("v"), PropertyValue::Int(i as i64))],
            )
        })
        .unwrap();
    }
    for i in 0..n {
        db.write(|txn| {
            txn.add_rel(
                RelId::new(i),
                NodeId::new(i),
                NodeId::new((i + 1) % n),
                None,
                vec![],
            )
        })
        .unwrap();
    }
    db.latest_ts()
}

#[test]
fn lineage_store_lost_entirely() {
    let dir = tempdir().unwrap();
    let last;
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        last = seed(&db, 20);
        db.lineage_barrier(last);
        db.sync().unwrap();
    }
    std::fs::remove_file(dir.path().join("lineage.db")).unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    // Catch-up replay rebuilt the whole fine-grained history.
    assert_eq!(db.lineagestore().applied_ts(), last);
    let hist = db.get_node(NodeId::new(7), 0, last + 1).unwrap();
    assert_eq!(hist.len(), 1);
    let hits = db
        .lineagestore()
        .expand(NodeId::new(0), Direction::Outgoing, 3, last)
        .unwrap();
    assert_eq!(hits.len(), 3);
}

#[test]
fn lineage_store_lags_behind() {
    // Simulate a crash mid-cascade: open with sync_lineage, write some,
    // then re-open after manually rolling the watermark back by deleting
    // the lineage store and replacing it with a stale copy.
    let dir = tempdir().unwrap();
    let mid;
    let last;
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        mid = seed(&db, 10);
        db.lineage_barrier(mid);
        db.sync().unwrap();
        // Keep a stale copy of the lineage store.
        std::fs::copy(
            dir.path().join("lineage.db"),
            dir.path().join("lineage.stale"),
        )
        .unwrap();
        // More commits the stale copy will not contain.
        last = {
            let l = db.intern("Late");
            db.write(|txn| txn.add_node(NodeId::new(500), vec![l], vec![]))
                .unwrap()
        };
        db.lineage_barrier(last);
        db.sync().unwrap();
    }
    std::fs::rename(
        dir.path().join("lineage.stale"),
        dir.path().join("lineage.db"),
    )
    .unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    // Recovery replayed the missing tail into the LineageStore.
    assert_eq!(db.lineagestore().applied_ts(), last);
    assert!(db
        .lineagestore()
        .node_at(NodeId::new(500), last)
        .unwrap()
        .is_some());
}

#[test]
fn torn_log_tail_truncated_and_system_still_opens() {
    let dir = tempdir().unwrap();
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        seed(&db, 10);
        db.sync().unwrap();
    }
    // Append garbage to the log (a torn frame from a crash mid-write).
    let log_path = dir.path().join("timestore").join("timestore.log");
    {
        use std::io::Write;
        let mut f = OpenOptions::new().append(true).open(&log_path).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    // All committed data survives; the torn tail is gone; writes continue.
    assert_eq!(db.latest_graph().node_count(), 10);
    let ts = db
        .write(|txn| txn.add_node(NodeId::new(99), vec![], vec![]))
        .unwrap();
    assert!(db.get_graph_at(ts).unwrap().has_node(NodeId::new(99)));
}

#[test]
fn mid_log_corruption_detected_not_truncated() {
    // A bad frame *below* the synced log end is damage, not a torn tail:
    // truncating there would silently drop every acknowledged commit
    // behind it, so open must refuse instead.
    let dir = tempdir().unwrap();
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        seed(&db, 10);
        db.sync().unwrap();
    }
    let log_path = dir.path().join("timestore").join("timestore.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&log_path, &bytes).unwrap();
    let err = Aion::open(AionConfig::new(dir.path()))
        .err()
        .expect("open must fail on mid-log corruption");
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt log frame") && msg.contains("durable end"),
        "unexpected error: {msg}"
    );
    // The log file was left as found for forensics — not truncated.
    assert_eq!(std::fs::read(&log_path).unwrap().len(), bytes.len());
}

#[test]
fn mid_log_length_damage_detected_not_truncated() {
    // The same refusal when the damage is to a frame's length field and
    // the damaged length still fits in the file: the frame's checksum,
    // not a bound, is what rejects it.
    let dir = tempdir().unwrap();
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        seed(&db, 10);
        db.sync().unwrap();
    }
    let log_path = dir.path().join("timestore").join("timestore.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    // Walk the frames (`u32 len, u32 checksum, payload`) to the first one
    // past the middle, and make it claim every byte to the end of the file.
    let frame_len = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut at = 0;
    while at < bytes.len() / 2 {
        at += 8 + frame_len(at) as usize;
    }
    assert!(at < bytes.len(), "the log has a frame past its middle");
    let claimed = (bytes.len() - at - 8) as u32;
    assert!(claimed > frame_len(at));
    bytes[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
    std::fs::write(&log_path, &bytes).unwrap();
    let err = Aion::open(AionConfig::new(dir.path()))
        .err()
        .expect("open must fail on a damaged length field");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("corrupt log frame at offset {at}")) && msg.contains("durable end"),
        "unexpected error: {msg}"
    );
    assert_eq!(std::fs::read(&log_path).unwrap().len(), bytes.len());
}

#[test]
fn corrupt_snapshot_file_falls_back_to_log_replay() {
    let dir = tempdir().unwrap();
    let last;
    {
        let mut cfg = AionConfig::new(dir.path());
        cfg.timestore.policy = timestore::SnapshotPolicy::EveryNOps(10);
        let db = Aion::open(cfg).unwrap();
        last = seed(&db, 20);
        db.sync().unwrap();
    }
    // Corrupt every snapshot file.
    let snap_dir = dir.path().join("timestore").join("snapshots");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&snap_dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"garbage").unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "the policy must have produced snapshots");
    let mut cfg = AionConfig::new(dir.path());
    cfg.timestore.policy = timestore::SnapshotPolicy::Never;
    let db = Aion::open(cfg).unwrap();
    // Historical reads still work (log replay from scratch).
    let g = db.get_graph_at(last / 2).unwrap();
    assert!(g.node_count() > 0);
    let full = db.get_graph_at(last).unwrap();
    assert_eq!(full.node_count(), 20);
    assert_eq!(full.rel_count(), 20);
}

#[test]
fn durable_end_record_lost_history_still_reads_back() {
    let dir = tempdir().unwrap();
    let last;
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        last = seed(&db, 15);
        db.sync().unwrap();
    }
    let ts_dir = dir.path().join("timestore");
    std::fs::remove_file(ts_dir.join(timestore::store::DURABLE_END_FILE)).unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    assert!(db.timestore().repairs().is_empty());
    assert_eq!(db.latest_ts(), last);
    let diff = db.get_diff(1, last + 1).unwrap();
    assert_eq!(diff.len(), 30);
    // Interleaved reads across the log's time index.
    for probe in [1, last / 3, last / 2, last] {
        let g = db.get_graph_at(probe).unwrap();
        g.check_consistency().unwrap();
    }
}

// --------------------------------------------------------------------------
// Corruption injection: flip bytes in the on-disk structures and assert the
// `aion-fsck` machinery (the `check` crate the binary is built on) reports
// each corruption class as a typed finding instead of panicking.
//
// Classes covered: B+Tree key ordering, overflow-chain integrity, lineage
// interval overlap, and cross-store divergence.

mod corruption {
    use check::{check_stores, CheckLevel, Subsystem};
    use encoding::keys::decode_history_key;
    use lineagestore::{LineageStore, LineageStoreConfig};
    use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
    use pagestore::PAGE_SIZE;
    use tempfile::tempdir;
    use timestore::{TimeStore, TimeStoreConfig};

    // Raw slotted-page layout (crates/btree/src/layout.rs): integers LE,
    // a leaf cell starts `varint klen, varint (vlen << 1 | overflow)`.
    const LEAF: u8 = 1;
    const NCELLS_OFF: usize = 2;
    const SLOTS_OFF: usize = 16;

    fn read_u16(b: &[u8], off: usize) -> usize {
        u16::from_le_bytes([b[off], b[off + 1]]) as usize
    }

    /// Reads the LEB128 varint at `b[*pos..]`, advancing `pos`.
    fn read_varint(b: &[u8], pos: &mut usize) -> u64 {
        let mut v = 0u64;
        for shift in (0..35).step_by(7) {
            let byte = b[*pos];
            *pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
        }
        v
    }

    /// The leaf cell at `off`: `(klen, overflow, offset of its key)`.
    fn leaf_cell(b: &[u8], off: usize) -> (usize, bool, usize) {
        let mut pos = off;
        let klen = read_varint(b, &mut pos) as usize;
        let overflow = read_varint(b, &mut pos) & 1 != 0;
        (klen, overflow, pos)
    }

    fn read_u64(b: &[u8], off: usize) -> u64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(&b[off..off + 8]);
        u64::from_le_bytes(a)
    }

    /// Page indexes (excluding the meta page 0) whose first byte tags a leaf.
    fn leaf_pages(file: &[u8]) -> Vec<usize> {
        (1..file.len() / PAGE_SIZE)
            .filter(|p| file[p * PAGE_SIZE] == LEAF)
            .collect()
    }

    /// Seeds a TimeStore and a LineageStore with the same commits: chains
    /// long enough to span the materialization threshold, plus
    /// relationships and a tombstone.
    fn seed_lineage(ts: &TimeStore, ls: &LineageStore, big_value_node: Option<u64>) {
        let mut t = 0u64;
        let mut commit = |ops: &[Update]| {
            t += 1;
            ts.append_commit(t, ops).unwrap();
            ls.apply_commit(t, ops).unwrap();
        };
        for i in 0..20u64 {
            let props = if big_value_node == Some(i) {
                // Large enough to exceed MAX_INLINE_VALUE (1 KiB) so the
                // materialized record lands in an overflow chain.
                vec![(
                    StrId::new(1),
                    PropertyValue::IntArray((0..1500).map(|x| i64::MAX - x).collect()),
                )]
            } else {
                vec![]
            };
            commit(&[Update::AddNode {
                id: NodeId::new(i),
                labels: vec![StrId::new(0)],
                props,
            }]);
            if i > 0 {
                commit(&[Update::AddRel {
                    id: RelId::new(i),
                    src: NodeId::new(i - 1),
                    tgt: NodeId::new(i),
                    label: None,
                    props: vec![],
                }]);
            }
        }
        // Property churn: several versions per node so entity chains have
        // adjacent same-entity cells within one leaf.
        for round in 0..6u64 {
            for node in 0..6u64 {
                commit(&[Update::SetNodeProp {
                    id: NodeId::new(node),
                    key: StrId::new(2),
                    value: PropertyValue::Int((round * 10 + node) as i64),
                }]);
            }
        }
        commit(&[Update::DeleteRel { id: RelId::new(3) }]);
        ts.sync().unwrap();
        ls.sync().unwrap();
    }

    /// A TimeStore and a LineageStore in `dir`; `lineage.db`'s path.
    fn build_lineage_db(dir: &std::path::Path, big_value_node: Option<u64>) -> std::path::PathBuf {
        let path = dir.join("lineage.db");
        let ts = TimeStore::open(dir.join("timestore"), TimeStoreConfig::default()).unwrap();
        let ls = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
        seed_lineage(&ts, &ls, big_value_node);
        path
    }

    #[test]
    fn fsck_detects_btree_key_order_corruption() {
        let dir = tempdir().unwrap();
        let path = build_lineage_db(dir.path(), None);
        let mut file = std::fs::read(&path).unwrap();
        // Swap the first two slot-directory entries of a leaf: its keys are
        // now out of order on disk.
        let page = leaf_pages(&file)
            .into_iter()
            .find(|&p| read_u16(&file, p * PAGE_SIZE + NCELLS_OFF) >= 2)
            .expect("a leaf with two cells must exist");
        let s = page * PAGE_SIZE + SLOTS_OFF;
        file.swap(s, s + 2);
        file.swap(s + 1, s + 3);
        std::fs::write(&path, &file).unwrap();

        let ls = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
        let findings = ls.audit().unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check.ends_with("/structure") && f.detail.contains("[key-order]")),
            "key-order corruption not reported: {findings:?}"
        );
    }

    #[test]
    fn fsck_detects_overflow_chain_corruption() {
        let dir = tempdir().unwrap();
        let path = build_lineage_db(dir.path(), Some(2));
        let mut file = std::fs::read(&path).unwrap();
        // Find a leaf cell flagged as overflow and point its chain head's
        // `next` pointer far outside the file.
        let mut corrupted = false;
        'outer: for page in leaf_pages(&file) {
            let base = page * PAGE_SIZE;
            for i in 0..read_u16(&file, base + NCELLS_OFF) {
                let off = base + read_u16(&file, base + SLOTS_OFF + i * 2);
                let (klen, overflow, key) = leaf_cell(&file, off);
                if overflow {
                    let head = read_u64(&file, key + klen) as usize;
                    let next_off = head * PAGE_SIZE;
                    file[next_off..next_off + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
                    corrupted = true;
                    break 'outer;
                }
            }
        }
        assert!(
            corrupted,
            "the big property must have produced an overflow chain"
        );
        std::fs::write(&path, &file).unwrap();

        let ls = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
        let findings = ls.audit().unwrap().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check.ends_with("/structure") && f.detail.contains("[overflow-chain]")),
            "overflow corruption not reported: {findings:?}"
        );
    }

    #[test]
    fn fsck_detects_lineage_interval_overlap() {
        let dir = tempdir().unwrap();
        let path = build_lineage_db(dir.path(), None);
        let mut file = std::fs::read(&path).unwrap();
        // Find two adjacent history cells for the same entity whose keys
        // are as long (so their timestamps are as wide) and rewrite the
        // second version's timestamp to its predecessor's: the derived
        // validity intervals now overlap.
        let mut damaged = Vec::new();
        'outer: for page in leaf_pages(&file) {
            let base = page * PAGE_SIZE;
            let ncells = read_u16(&file, base + NCELLS_OFF);
            for i in 0..ncells.saturating_sub(1) {
                let (alen, _, a) =
                    leaf_cell(&file, base + read_u16(&file, base + SLOTS_OFF + i * 2));
                let (blen, _, b) = leaf_cell(
                    &file,
                    base + read_u16(&file, base + SLOTS_OFF + (i + 1) * 2),
                );
                let (ka, kb) = (&file[a..a + alen], &file[b..b + blen]);
                let same_entity = match (decode_history_key(ka), decode_history_key(kb)) {
                    (Some((ida, _)), Some((idb, _))) => ida == idb,
                    _ => false,
                };
                if same_entity && alen == blen {
                    damaged = ka.to_vec();
                    file[b..b + blen].copy_from_slice(&damaged);
                    break 'outer;
                }
            }
        }
        assert!(
            !damaged.is_empty(),
            "property churn must produce adjacent same-entity versions"
        );
        std::fs::write(&path, &file).unwrap();

        let ts = TimeStore::open(dir.path().join("timestore"), TimeStoreConfig::default()).unwrap();
        let ls = LineageStore::open(&path, LineageStoreConfig::default()).unwrap();
        let report = check_stores(&ts, &ls, CheckLevel::Full).unwrap();
        let key = format!("key {damaged:?}:");
        assert!(
            report
                .by_subsystem(Subsystem::CrossStore)
                .any(|f| f.check == "differential" && f.detail.contains(&key)),
            "interval overlap not reported at {key}\n{report}"
        );
    }

    #[test]
    fn fsck_detects_cross_store_divergence() {
        let dir = tempdir().unwrap();
        let ts = TimeStore::open(dir.path().join("timestore"), TimeStoreConfig::default()).unwrap();
        let ls = LineageStore::open(dir.path().join("lineage.db"), LineageStoreConfig::default())
            .unwrap();
        let mut t = 0u64;
        for i in 0..25u64 {
            t += 1;
            let ops = vec![Update::AddNode {
                id: NodeId::new(i),
                labels: vec![StrId::new(0)],
                props: vec![],
            }];
            ts.append_commit(t, &ops).unwrap();
            ls.apply_commit(t, &ops).unwrap();
        }
        // A phantom write only the LineageStore sees, below its watermark:
        // the stores now answer historical queries differently.
        ls.apply_update(
            t,
            &Update::AddNode {
                id: NodeId::new(7_777),
                labels: vec![],
                props: vec![],
            },
        )
        .unwrap();
        ts.sync().unwrap();
        ls.sync().unwrap();
        drop((ts, ls));

        let ts = TimeStore::open(dir.path().join("timestore"), TimeStoreConfig::default()).unwrap();
        let ls = LineageStore::open(dir.path().join("lineage.db"), LineageStoreConfig::default())
            .unwrap();
        let report = check_stores(&ts, &ls, CheckLevel::Full).unwrap();
        assert!(
            report
                .by_subsystem(Subsystem::CrossStore)
                .any(|f| f.check == "differential"),
            "divergence not reported:\n{report}"
        );
    }
}

#[test]
fn uncommitted_transaction_leaves_no_trace_after_restart() {
    let dir = tempdir().unwrap();
    let last;
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        last = seed(&db, 5);
        // A failing transaction (duplicate node).
        let err = db.write(|txn| txn.add_node(NodeId::new(0), vec![], vec![]));
        assert!(err.is_err());
        db.sync().unwrap();
    }
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    assert_eq!(db.latest_ts(), last);
    assert_eq!(db.latest_graph().node_count(), 5);
    let tg = db.get_temporal_graph(1, last + 1).unwrap();
    // Every version present exactly once: no phantom writes.
    assert_eq!(tg.nodes.len(), 5);
    let _ = StrId::new(0);
}
