//! Faults during group commit (DESIGN.md §15).
//!
//! * When every mutating VFS operation fails with transient
//!   `ENOSPC`/`EIO`, the group-commit log writer must degrade to **clean
//!   typed rejections** — each writer gets an error naming the injected
//!   fault, nothing is acked, nothing wedges — and recover to full service
//!   the moment space returns, with no residue from the rejected commits.
//! * When a commit fails after its frame reached the log, its durability
//!   is uncertain: the LineageStore wedges, and that must be visible to
//!   `lineage_wedged()` and end `lineage_barrier()` instead of leaving it
//!   waiting for a watermark that will not move.

use aion::{Aion, AionConfig, CheckLevel};
use lpg::NodeId;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use vfs::{FaultConfig, SimVfs, VfsRef};

fn config(sim: &SimVfs) -> AionConfig {
    let mut cfg = AionConfig::new("/enospc-db");
    cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
    cfg.sync_on_commit = true;
    // A real latency budget so concurrent writers actually share group
    // fsyncs — the degradation under test is the log writer's, not the
    // per-caller fallback's.
    cfg.commit_latency_budget = Duration::from_millis(1);
    cfg
}

fn create(db: &Aion, id: u64) -> Result<u64, lpg::GraphError> {
    db.write(|tx| tx.add_node(NodeId::new(id), vec![], vec![]))
}

#[test]
fn enospc_during_group_commit_rejects_cleanly_and_recovers() {
    let sim = SimVfs::new(77);
    let db = Arc::new(Aion::open(config(&sim)).unwrap());

    // Healthy baseline.
    for id in 1..=10 {
        create(&db, id).unwrap();
    }
    let healthy_ts = db.latest_ts();

    // The disk fills: every mutating operation now fails.
    sim.arm(FaultConfig {
        io_error_rate: 1.0,
        ..FaultConfig::none()
    });

    // Concurrent writers all get typed rejections — no panic, no hang,
    // no partial ack. The error carries the injected fault through the
    // whole commit pipeline.
    let handles: Vec<_> = (0..4u64)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut errors = Vec::new();
                for op in 0..5u64 {
                    match create(&db, 1_000 + w * 100 + op) {
                        Ok(ts) => return Err(ts),
                        Err(e) => errors.push(e.to_string()),
                    }
                }
                Ok(errors)
            })
        })
        .collect();
    for h in handles {
        let errors = h
            .join()
            .expect("writer must not panic under ENOSPC")
            .unwrap_or_else(|ts| panic!("write acked at ts {ts} on a full disk"));
        assert_eq!(errors.len(), 5);
        for e in &errors {
            assert!(
                e.contains("injected"),
                "rejection must surface the storage fault, got: {e}"
            );
        }
    }
    assert_eq!(
        db.latest_ts(),
        healthy_ts,
        "a rejected commit must not advance the timeline"
    );

    // Space returns: the very next writes succeed and the rejected ids
    // left no residue.
    sim.arm(FaultConfig::none());
    for id in 11..=20 {
        create(&db, id).unwrap_or_else(|e| panic!("write {id} failed after space returned: {e}"));
    }
    let g = db.latest_graph();
    for id in 1..=20 {
        assert!(g.node(NodeId::new(id)).is_some(), "acked node {id} missing");
    }
    for w in 0..4u64 {
        for op in 0..5u64 {
            let id = 1_000 + w * 100 + op;
            assert!(
                g.node(NodeId::new(id)).is_none(),
                "rejected node {id} leaked into the graph"
            );
        }
    }
    db.lineage_barrier(db.latest_ts());
    let report = db.check_consistency(CheckLevel::Full).unwrap();
    assert!(
        report.is_clean(),
        "audit dirty after ENOSPC storm: {report:?}"
    );

    // And the on-disk state reopens cleanly: the storm left no torn or
    // half-written log behind.
    drop(g);
    drop(db);
    let db = Aion::open(config(&sim)).unwrap();
    assert_eq!(db.latest_ts(), healthy_ts + 10);
    let report = db.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "audit dirty after reopen: {report:?}");
}

#[test]
fn uncertain_commit_wedges_the_cascade_visibly() {
    let sim = SimVfs::new(78);
    let db = Arc::new(Aion::open(config(&sim)).unwrap());
    for id in 1..=10 {
        create(&db, id).unwrap();
    }

    // Transient faults until a commit fails after its frame reached the
    // log (its timestamp is published): durability uncertain.
    sim.arm(FaultConfig {
        io_error_rate: 0.2,
        ..FaultConfig::none()
    });
    let mut id = 100;
    loop {
        let before = db.latest_ts();
        let failed = create(&db, id).is_err();
        id += 1;
        if failed && db.latest_ts() > before {
            break;
        }
        assert!(id < 10_000, "no commit failed after reaching the log");
    }

    // The disk heals; a later commit is acked, but the LineageStore must
    // not advance past the hole the uncertain commit left.
    sim.arm(FaultConfig::none());
    create(&db, id).unwrap();
    let (tx, rx) = mpsc::channel();
    let waiter = db.clone();
    let barrier = std::thread::spawn(move || {
        waiter.lineage_barrier(waiter.latest_ts());
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("lineage_barrier must return once the LineageStore is wedged");
    barrier.join().expect("the barrier thread must not panic");
    assert!(db.lineage_wedged());
}
