//! Concurrency stress: writers and temporal readers racing on one Aion
//! instance. Validates the HTAP claim — reads are unaffected by the
//! temporal machinery and never observe inconsistent states, while writes
//! keep strictly increasing commit timestamps — and that of two writers
//! racing on one entity, the log writer commits exactly one.

use aion::{Aion, AionConfig, WriteTxn};
use lpg::{Direction, GraphError, NodeId, PropertyValue, RelId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use tempfile::tempdir;
use vfs::{SimVfs, VfsRef};

#[test]
fn writers_and_readers_race_safely() {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let value = db.intern("value");

    // Seed a ring.
    const N: u64 = 40;
    for i in 0..N {
        db.write(|txn| txn.add_node(NodeId::new(i), vec![], vec![]))
            .unwrap();
    }
    for i in 0..N {
        db.write(|txn| {
            txn.add_rel(
                RelId::new(i),
                NodeId::new(i),
                NodeId::new((i + 1) % N),
                None,
                vec![],
            )
        })
        .unwrap();
    }
    let seeded_ts = db.latest_ts();

    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));

    // Writer: property churn plus node/rel growth.
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        let commits = commits.clone();
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let ts = db
                    .write(|txn| {
                        txn.set_node_prop(NodeId::new(i % N), value, PropertyValue::Int(i as i64))
                    })
                    .expect("write");
                assert!(ts > last, "commit timestamps must increase");
                last = ts;
                commits.fetch_add(1, Ordering::Relaxed);
            }
            last
        })
    };

    // Readers: latest-graph scans, historical snapshots, point histories.
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut iters = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    iters += 1;
                    match r {
                        0 => {
                            // Latest graph is always structurally consistent.
                            let g = db.latest_graph();
                            assert_eq!(g.rel_count(), N as usize);
                            assert!(g.node_count() >= N as usize);
                            g.check_consistency().expect("consistent latest");
                        }
                        1 => {
                            // Historical snapshot while writes continue.
                            let g = db.get_graph_at(seeded_ts).expect("snapshot");
                            assert_eq!(g.node_count(), N as usize);
                            assert_eq!(g.rel_count(), N as usize);
                        }
                        _ => {
                            // Point history through the fallback-aware API.
                            let id = NodeId::new(iters % N);
                            let end = db.latest_ts() + 1;
                            let hist = db.get_node(id, 0, end).expect("history");
                            assert!(!hist.is_empty());
                            // Versions must be well-formed.
                            for w in hist.windows(2) {
                                assert!(w[0].valid.end <= w[1].valid.start);
                            }
                            let _ = db.get_relationships(id, Direction::Both, 0, end);
                        }
                    }
                }
                iters
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    let last_ts = writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made progress");
    }
    let total_commits = commits.load(Ordering::Relaxed);
    assert!(total_commits > 50, "writer made progress ({total_commits})");

    // Quiesce and verify end state from both stores: the full audit
    // compares lineage.db with its rebuild from the log and replays the log
    // against the live graph.
    db.lineage_barrier(last_ts);
    db.latest_graph().check_consistency().unwrap();
    let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "stores converge: {report:?}");
}

#[test]
fn concurrent_writers_serialize() {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut stamps = Vec::new();
                for i in 0..100u64 {
                    let id = NodeId::new(t * 1_000 + i);
                    stamps.push(db.write(|txn| txn.add_node(id, vec![], vec![])).unwrap());
                }
                stamps
            })
        })
        .collect();
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    // Every commit got a unique timestamp.
    all.sort_unstable();
    let len = all.len();
    all.dedup();
    assert_eq!(all.len(), len, "no duplicate commit timestamps");
    assert_eq!(db.latest_graph().node_count(), 400);
    // History replays to the same end state after the races.
    let replayed = db.get_graph_at(db.latest_ts()).unwrap();
    assert!(replayed.same_as(&db.latest_graph()));
}

/// Temporal readers racing the background lineage cascade while it catches
/// up after a simulated crash and reopen. Pre-crash, commits are fsynced
/// (`sync_on_commit`) but the LineageStore never is, so the crash leaves
/// the lineage far behind the durable log; the reopen must replay the gap,
/// and readers must see consistent history throughout the post-reopen
/// churn (fallback to the TimeStore whenever the cascade lags).
#[test]
fn readers_race_cascade_catchup_after_crash_reopen() {
    let sim = SimVfs::new(7);
    let config = || {
        let mut cfg = AionConfig::new(PathBuf::from("/simdb"));
        cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
        cfg.sync_on_commit = true; // durable log, never-synced lineage
        cfg
    };

    // Phase 1: a committed prefix, then a crash before any lineage sync.
    const PRE: u64 = 60;
    {
        let db = Aion::open(config()).unwrap();
        let value = db.intern("value");
        for i in 0..PRE {
            db.write(|txn| {
                txn.add_node(
                    NodeId::new(i),
                    vec![],
                    vec![(value, PropertyValue::Int(i as i64))],
                )
            })
            .unwrap();
        }
        // Let the cascade apply everything in memory, then pull the plug:
        // the page cache never reached the file, so the durable lineage is
        // still empty while all PRE commits are in the fsynced log.
        db.lineage_barrier(db.latest_ts());
        sim.crash_now();
    }
    assert!(sim.has_crashed());
    sim.heal();

    // Phase 2: reopen replays the gap, then readers race fresh writes
    // flowing through the background cascade.
    let db = Arc::new(Aion::open(config()).unwrap());
    assert_eq!(db.latest_ts(), PRE, "fsynced commits survive the crash");
    assert_eq!(
        db.lineagestore().applied_ts(),
        PRE,
        "reopen catch-up replays the cascade gap"
    );
    let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "post-recovery audit: {report:?}");

    let value = db.intern("value");
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = PRE;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                db.write(|txn| {
                    txn.add_node(
                        NodeId::new(i),
                        vec![],
                        vec![(value, PropertyValue::Int(i as i64))],
                    )
                })
                .expect("post-reopen write");
            }
            i
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut iters = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    iters += 1;
                    match r {
                        0 => {
                            // The pre-crash prefix is immutable history.
                            let g = db.get_graph_at(PRE).expect("prefix snapshot");
                            assert_eq!(g.node_count(), PRE as usize);
                        }
                        1 => {
                            // Point history across the crash boundary; the
                            // cascade may still lag, forcing the fallback.
                            let id = NodeId::new(iters % PRE);
                            let end = db.latest_ts() + 1;
                            let hist = db.get_node(id, 0, end).expect("history");
                            assert!(!hist.is_empty());
                            for w in hist.windows(2) {
                                assert!(w[0].valid.end <= w[1].valid.start);
                            }
                        }
                        _ => {
                            let g = db.latest_graph();
                            assert!(g.node_count() >= PRE as usize);
                            g.check_consistency().expect("consistent latest");
                        }
                    }
                }
                iters
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let last = writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made progress");
    }
    assert!(last > PRE, "writer made progress after reopen");

    // Quiesce: the cascade drains and both stores agree again.
    db.lineage_barrier(db.latest_ts());
    assert!(!db.lineage_wedged(), "no faults were armed");
    db.latest_graph().check_consistency().unwrap();
    let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "final audit: {report:?}");
}

/// Runs `first` and `second` as two concurrent `write`s over a database
/// `setup` seeded, and checks that the writer let exactly one of them
/// commit: the other gets an error `refused` accepts, and the stores stay
/// whole — nothing wedged, the audit clean, the history at the latest
/// timestamp equal to the latest graph, and a reopen that accepts a write.
///
/// Each closure buffers its update and then waits at a barrier, so both
/// transactions are built before either commits: a check made when the
/// update is buffered sees the graph as neither commit left it.
fn race<F, G>(
    setup: impl FnOnce(&Aion),
    first: F,
    second: G,
    refused: impl Fn(usize, &GraphError) -> bool,
) where
    F: Fn(&mut WriteTxn) -> lpg::Result<()> + Sync,
    G: Fn(&mut WriteTxn) -> lpg::Result<()> + Sync,
{
    let dir = tempdir().unwrap();
    {
        let db = Aion::open(AionConfig::new(dir.path())).unwrap();
        setup(&db);
        let before = db.latest_ts();
        let barrier = Barrier::new(2);
        let run = |f: &(dyn Fn(&mut WriteTxn) -> lpg::Result<()> + Sync)| {
            db.write(|txn| {
                f(txn)?;
                barrier.wait();
                Ok(())
            })
        };
        let results = std::thread::scope(|s| {
            let a = s.spawn(|| run(&first));
            let b = s.spawn(|| run(&second));
            [a.join().unwrap(), b.join().unwrap()]
        });
        let won: Vec<usize> = (0..2).filter(|&i| results[i].is_ok()).collect();
        assert_eq!(won.len(), 1, "exactly one commit wins: {results:?}");
        let lost = 1 - won[0];
        let err = results[lost].as_ref().unwrap_err();
        assert!(refused(lost, err), "writer {lost} got {err:?}");
        assert_eq!(db.latest_ts(), before + 1, "the refused batch used no ts");
        db.lineage_barrier(db.latest_ts());
        assert!(!db.lineage_wedged());
        let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
        assert!(report.is_clean(), "audit: {report:?}");
        let at_latest = db.get_graph_at(db.latest_ts()).unwrap();
        assert!(at_latest.same_as(&db.latest_graph()));
        db.sync().unwrap();
    }
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    db.write(|txn| txn.add_node(NodeId::new(1_000), vec![], vec![]))
        .unwrap();
}

fn nodes(db: &Aion, ids: &[u64]) {
    for &id in ids {
        db.write(|txn| txn.add_node(NodeId::new(id), vec![], vec![]))
            .unwrap();
    }
}

#[test]
fn the_same_node_added_twice_commits_once() {
    let add = |txn: &mut WriteTxn| txn.add_node(NodeId::new(5), vec![], vec![]);
    race(
        |db| nodes(db, &[1]),
        add,
        add,
        |_, e| *e == GraphError::NodeExists(NodeId::new(5)),
    );
}

#[test]
fn the_same_relationship_id_added_twice_commits_once() {
    let rel = RelId::new(7);
    race(
        |db| nodes(db, &[1, 2, 3]),
        |txn| txn.add_rel(rel, NodeId::new(1), NodeId::new(2), None, vec![]),
        |txn| txn.add_rel(rel, NodeId::new(2), NodeId::new(3), None, vec![]),
        |_, e| *e == GraphError::RelExists(rel),
    );
}

#[test]
fn one_relationship_deleted_twice_commits_once() {
    let rel = RelId::new(7);
    let setup = |db: &Aion| {
        nodes(db, &[1, 2]);
        db.write(|txn| txn.add_rel(rel, NodeId::new(1), NodeId::new(2), None, vec![]))
            .unwrap();
    };
    let delete = |txn: &mut WriteTxn| txn.delete_rel(rel);
    race(setup, delete, delete, |_, e| {
        *e == GraphError::RelNotFound(rel)
    });
}

#[test]
fn a_relationship_racing_the_deletion_of_its_endpoint_commits_once() {
    let (rel, gone) = (RelId::new(7), NodeId::new(2));
    race(
        |db| nodes(db, &[1, 2]),
        |txn| txn.delete_node(gone),
        |txn| txn.add_rel(rel, NodeId::new(1), gone, None, vec![]),
        |lost, e| match lost {
            // The relationship landed first.
            0 => *e == GraphError::NodeHasRelationships(gone),
            _ => *e == GraphError::EndpointMissing { rel, node: gone },
        },
    );
}
