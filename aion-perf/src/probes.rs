//! Micro-probes: a scratch `PageStore` + `BTree` + `LineageStore`, filled
//! from the same generated updates, times the functions that cannot be
//! reached on the live store without mutating it; and the record codec is
//! timed over records built from those updates.

use crate::dataset::Dataset;
use crate::report::Metrics;
use btree::BTree;
use encoding::{keys, RecordBody};
use lineagestore::{LineageStore, LineageStoreConfig};
use lpg::Update;
use pagestore::PageStore;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds per item of the fastest of three runs of `f` over `items`.
fn best_ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..3)
        .map(|_| {
            let began = Instant::now();
            f();
            began.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0);
    best as f64 / items.max(1) as f64
}

/// Runs every probe. `budget` bounds how many generated updates each uses.
pub fn run(data: &Dataset, scratch: &Path, cache_pages: usize, budget: usize) -> Metrics {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create the probe directory");
    let mut m = Metrics::new();

    // The updates the probes work from, in history order: materialised
    // records (node and relationship creations) and deltas (property sets).
    let updates: Vec<(u64, &Update)> = data
        .commits
        .iter()
        .flat_map(|(ts, ops)| ops.iter().map(move |op| (*ts, op)))
        .take(budget)
        .collect();
    let deltas: Vec<&Update> = data
        .commits
        .iter()
        .flat_map(|(_, ops)| ops.iter())
        .filter(|op| op.is_modify())
        .take(budget / 4)
        .collect();

    // encoding: encode and decode of materialised and delta records.
    let bodies: Vec<RecordBody> = updates
        .iter()
        .map(|(_, op)| *op)
        .chain(deltas.iter().copied())
        .map(RecordBody::from_update)
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode_ns = best_ns_per_item(bodies.len(), || {
        encoded = bodies.iter().map(RecordBody::to_bytes).collect();
        std::hint::black_box(&encoded);
    });
    let decode_ns = best_ns_per_item(encoded.len(), || {
        for bytes in &encoded {
            std::hint::black_box(RecordBody::from_bytes(std::hint::black_box(bytes)));
        }
    });
    m.insert("encoding.record_encode_ns", encode_ns);
    m.insert("encoding.record_decode_ns", decode_ns);
    m.insert(
        "encoding.bytes_per_update",
        data.user_bytes as f64 / data.updates.max(1) as f64,
    );

    // btree: insert, point get and range scan with the entity-history keys
    // the LineageStore uses, on a scratch paged file with the same cache.
    let store = Arc::new(
        PageStore::open(scratch.join("probe.pages"), cache_pages).expect("open the probe pages"),
    );
    let tree = BTree::open(store.clone(), 0).expect("open the probe tree");
    let entries: Vec<([u8; 16], &Vec<u8>)> = updates
        .iter()
        .zip(&encoded)
        .enumerate()
        .map(|(i, ((ts, op), bytes))| {
            // Node and relationship ids overlap; keep their keys apart.
            let id = op.entity().raw() * 2 + u64::from(op.is_rel());
            (keys::entity_ts_key(id, *ts + i as u64), bytes)
        })
        .collect();
    let splits = obs::counter("btree.splits");
    let splits_before = splits.get();
    let began = Instant::now();
    for (key, value) in &entries {
        tree.insert(key, value).expect("probe insert");
    }
    let insert_ns = began.elapsed().as_nanos() as f64 / entries.len().max(1) as f64;
    m.insert("btree.insert_ns", insert_ns);
    m.insert(
        "btree.splits_per_kinsert",
        (splits.get() - splits_before) as f64 * 1000.0 / entries.len().max(1) as f64,
    );
    // Every seventh key, so successive gets land on different leaves.
    let probes: Vec<&[u8; 16]> = entries.iter().step_by(7).map(|(k, _)| k).collect();
    let get_ns = best_ns_per_item(probes.len(), || {
        for key in &probes {
            std::hint::black_box(tree.get(*key).expect("probe get"));
        }
    });
    m.insert("btree.get_ns", get_ns);
    let scan_ns = best_ns_per_item(entries.len(), || {
        let scan = tree.scan(&[0u8; 16], &[0xFF; 16]).expect("probe scan");
        assert_eq!(scan.count(), entries.len(), "the scan returns every entry");
    });
    m.insert("btree.scan_ns_per_entry", scan_ns);
    drop(tree);
    drop(store);

    // lineagestore: cost of applying one update (what the cascade and the
    // set-up pay per update).
    let lineage = LineageStore::open(
        scratch.join("probe.lineage"),
        LineageStoreConfig {
            cache_pages,
            ..Default::default()
        },
    )
    .expect("open the probe LineageStore");
    let mut applied = 0usize;
    let began = Instant::now();
    for (ts, ops) in &data.commits {
        if applied >= budget {
            break;
        }
        lineage.apply_commit(*ts, ops).expect("probe apply");
        applied += ops.len();
    }
    m.insert(
        "lineagestore.apply_us_per_update",
        began.elapsed().as_secs_f64() * 1e6 / applied.max(1) as f64,
    );
    drop(lineage);
    let _ = std::fs::remove_dir_all(scratch);
    m
}
