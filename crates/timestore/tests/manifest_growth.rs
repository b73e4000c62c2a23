//! Growth class of a snapshot file's manifest: constant in the history.
//!
//! The same seeded history is built at ×1, ×2 and ×4 of a base: each
//! scale has that many times the nodes, the snapshot intervals and so the
//! relationships. Every interval does the same work at every scale: it
//! changes one node in each of four segments of the first node run
//! (segments 0 to 63) and appends 256 relationships (four segments), and
//! ends in a snapshot. So
//! the newest file has the same changes to record at every scale, and its
//! manifest — the bytes that are no segment or patch — must not grow with
//! the graph: at most 1.15× per doubling. A manifest that names every
//! segment of the graph again grows 2× per doubling.

use encoding::snapshot;
use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};
use vfs::{SplitMix64, VfsRef};

/// Nodes at ×1: one run of 64 node segments.
const NODES: u64 = 4_096;
/// Snapshot intervals at ×1.
const INTERVALS: u64 = 16;
/// Relationships each interval appends.
const RELS_PER_INTERVAL: u64 = 256;
/// Node segments each interval changes, consecutive ones of the first node
/// run.
const TOUCHED_SEGMENTS: u64 = 4;

/// Builds the history at `scale` × the base and returns the bytes of the
/// newest snapshot file's manifest.
fn newest_manifest_bytes(scale: u64) -> u64 {
    let dir = tempdir().unwrap();
    let config = TimeStoreConfig {
        policy: SnapshotPolicy::Never,
        ..Default::default()
    };
    let store = TimeStore::open(dir.path(), config).unwrap();
    let nodes = NODES * scale;
    let add: Vec<Update> = (0..nodes)
        .map(|id| Update::AddNode {
            id: NodeId::new(id),
            labels: vec![StrId::new(1)],
            props: vec![(StrId::new(2), PropertyValue::Int(id as i64))],
        })
        .collect();
    store.append_commit(1, &add).unwrap();
    store.write_snapshot().unwrap();
    let mut rng = SplitMix64::new(7);
    let mut next_rel = 0;
    let mut ts = 1;
    for _ in 0..INTERVALS * scale {
        ts += 1;
        let first = rng.below(64);
        let mut ops: Vec<Update> = (0..TOUCHED_SEGMENTS)
            .map(|k| Update::SetNodeProp {
                id: NodeId::new((first + k) % 64 * 64 + rng.below(64)),
                key: StrId::new(3),
                value: PropertyValue::Int(ts as i64),
            })
            .collect();
        for _ in 0..RELS_PER_INTERVAL {
            ops.push(Update::AddRel {
                id: RelId::new(next_rel),
                src: NodeId::new(rng.below(nodes)),
                tgt: NodeId::new(rng.below(nodes)),
                label: Some(StrId::new(4)),
                props: vec![],
            });
            next_rel += 1;
        }
        store.append_commit(ts, &ops).unwrap();
        store.write_snapshot().unwrap();
    }
    let name = format!("snapshots/snap_{ts:020}.aisnap");
    let bytes = VfsRef::std().read(&dir.path().join(name)).unwrap();
    let inline = snapshot::open(&bytes).unwrap().inline();
    let segments = inline.node_bytes + inline.patch_bytes + inline.rel_bytes;
    bytes.len() as u64 - segments
}

#[test]
fn the_newest_manifest_stays_flat_as_the_history_doubles() {
    let bytes: Vec<u64> = [1, 2, 4].into_iter().map(newest_manifest_bytes).collect();
    println!("newest manifest at x1, x2, x4: {bytes:?} B");
    for pair in bytes.windows(2) {
        let ratio = pair[1] as f64 / pair[0] as f64;
        assert!(
            ratio <= 1.15,
            "{bytes:?} B: {ratio:.2}x for a doubled history"
        );
    }
}
