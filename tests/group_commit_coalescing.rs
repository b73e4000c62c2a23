//! Group-commit coalescing, alone in its own test binary: the assertion
//! is an exact delta of the `core.group_commit.size` histogram in the
//! process-global `obs` registry, so no sibling test may commit between
//! the two snapshots. One binary ⇒ one process ⇒ one registry ⇒ exact
//! delta. The root fix is ROADMAP item 3(a) (a per-instance
//! `obs::Registry`); until it lands this file holds exactly one test.

use aion::{Aion, AionConfig};
use lpg::NodeId;
use std::sync::Arc;
use tempfile::tempdir;

/// Group commit must actually coalesce: with 8 writers committing under
/// `sync_on_commit` and a small latency budget, the log-writer thread
/// batches concurrent commits into shared fsyncs, so the
/// `core.group_commit.size` histogram records fewer groups (= fsyncs)
/// than commits while every commit still gets a distinct, per-thread
/// monotone timestamp.
#[test]
fn group_commit_coalesces_concurrent_writers() {
    let dir = tempdir().unwrap();
    let mut cfg = AionConfig::new(dir.path());
    cfg.sync_on_commit = true;
    cfg.commit_latency_budget = std::time::Duration::from_millis(2);
    let db = Arc::new(Aion::open(cfg).unwrap());

    // Metrics are process-global; measure this test as a delta.
    let before = obs::snapshot();
    let (groups0, commits0) = before
        .histogram("core.group_commit.size")
        .map(|h| (h.count, h.sum))
        .unwrap_or((0, 0));

    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 40;
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut stamps = Vec::with_capacity(PER_WRITER as usize);
                for i in 0..PER_WRITER {
                    let id = NodeId::new(t * 10_000 + i);
                    stamps.push(db.write(|txn| txn.add_node(id, vec![], vec![])).unwrap());
                }
                stamps
            })
        })
        .collect();
    let per_thread: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Each thread saw strictly increasing acknowledgements...
    for stamps in &per_thread {
        for w in stamps.windows(2) {
            assert!(w[0] < w[1], "per-thread commit order preserved");
        }
    }
    // ...and across threads every commit got a unique timestamp.
    let mut all: Vec<u64> = per_thread.iter().flatten().copied().collect();
    all.sort_unstable();
    let len = all.len();
    all.dedup();
    assert_eq!(all.len(), len, "no duplicate commit timestamps");
    assert_eq!(len as u64, WRITERS * PER_WRITER);

    let after = obs::snapshot();
    let (groups1, commits1) = after
        .histogram("core.group_commit.size")
        .map(|h| (h.count, h.sum))
        .expect("group size histogram exists");
    let groups = groups1 - groups0;
    let commits = commits1 - commits0;
    assert_eq!(
        commits,
        WRITERS * PER_WRITER,
        "histogram sum counts every commit"
    );
    assert!(
        groups < commits,
        "coalescing: {groups} fsync groups must be fewer than {commits} commits"
    );

    // The grouped commits are all durable and replayable.
    db.lineage_barrier(db.latest_ts());
    assert_eq!(
        db.latest_graph().node_count(),
        (WRITERS * PER_WRITER) as usize
    );
    let replayed = db.get_graph_at(db.latest_ts()).unwrap();
    assert!(replayed.same_as(&db.latest_graph()));
}
