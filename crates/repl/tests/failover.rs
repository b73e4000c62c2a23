//! Deterministic failover end-to-end (DESIGN.md §17): promotion bumps
//! and persists the epoch, a fence probe stops the deposed primary from
//! accepting writes, rejoin quarantines the divergent log suffix
//! byte-exact, and the deposed node resyncs cleanly as a replica of the
//! new primary. Also covers the replayer's heartbeat-timeout liveness
//! detector against a silent (half-open) link.

use aion::{Aion, AionConfig, CheckLevel};
use aion_server::protocol::{read_frame, write_frame};
use lpg::{NodeId, PropertyValue};
use repl::{
    decode_msg, encode_msg, prepare_rejoin, read_divergence_archive, LogShipper, NodeRole, ReplMsg,
    ReplNode, Replayer, ReplayerConfig,
};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;
use vfs::VfsRef;

fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// The replayer's counter `name`.
fn count(replayer: &Replayer, name: &str) -> u64 {
    replayer.metrics().counter(name).unwrap_or(0)
}

fn open_db(path: &std::path::Path) -> Arc<Aion> {
    Arc::new(Aion::open(AionConfig::new(path)).unwrap())
}

fn add_node(db: &Aion, id: u64) -> u64 {
    db.write(|tx| {
        tx.add_node(
            NodeId::new(id),
            vec![],
            vec![(db.intern("v"), PropertyValue::Int(id as i64))],
        )
    })
    .unwrap()
}

#[test]
fn promotion_fences_old_primary_and_rejoin_archives_divergence() {
    let adir = tempdir().unwrap();
    let bdir = tempdir().unwrap();
    let db_a = open_db(adir.path());
    let db_b = open_db(bdir.path());

    // A is the epoch-0 primary; B replicates from it.
    let mut node_a = ReplNode::new_primary(db_a.clone(), VfsRef::std(), adir.path()).unwrap();
    for i in 1..=10 {
        add_node(&db_a, i);
    }
    let a_repl_addr = node_a.shipper_addr().unwrap();
    let mut node_b = ReplNode::new_replica(
        db_b.clone(),
        ReplayerConfig::new(a_repl_addr, bdir.path()),
        Arc::new(AtomicBool::new(true)),
    );
    assert_eq!(node_b.role(), NodeRole::Replica);
    assert!(
        wait_for(10, || db_b.latest_ts() == db_a.latest_ts()),
        "replica never converged (last error {:?})",
        node_b.replayer().and_then(Replayer::last_error)
    );
    let fence_ts = db_a.latest_ts();

    // Sever the replication link (B stops replaying), then commit a
    // suffix on A that will never ship: the divergence.
    node_b.shutdown();
    for i in 11..=13 {
        add_node(&db_a, i);
    }
    let divergent_tail = db_a.latest_ts();
    assert!(divergent_tail > fence_ts);

    // Promote B. The bump is persisted, writes open, and the fence
    // probe tells A (still alive — a partition, not a crash) that epoch
    // 1 exists: its write path must refuse from that moment on.
    let record = node_b.promote().unwrap();
    assert_eq!(node_b.role(), NodeRole::Primary);
    assert_eq!(record.epoch, 1);
    assert_eq!(record.base_ts, fence_ts);
    assert!(!node_b
        .read_only_flag()
        .load(std::sync::atomic::Ordering::Acquire));
    assert!(
        wait_for(10, || db_a.is_fenced()),
        "fence probe never reached the old primary"
    );
    let err = db_a
        .write(|tx| tx.add_node(NodeId::new(999), vec![], vec![]))
        .expect_err("deposed primary must refuse direct writes");
    assert!(
        matches!(err, lpg::GraphError::Fenced { held: 0, seen: 1 }),
        "want Fenced {{held: 0, seen: 1}}, got {err:?}"
    );

    // The new primary accepts writes in epoch 1.
    for i in 21..=25 {
        add_node(&db_b, i);
    }

    // Rejoin A: close its database, quarantine the divergent suffix.
    node_a.shutdown();
    let vfs = VfsRef::std();
    let pre_rejoin_log = vfs
        .read(&adir.path().join("timestore/timestore.log"))
        .unwrap();
    drop(node_a);
    drop(db_a);
    let b_repl_addr = node_b.shipper_addr().unwrap();
    let report = prepare_rejoin(&vfs, adir.path(), b_repl_addr, Duration::from_secs(5)).unwrap();
    assert_eq!(report.primary_epoch, 1);
    assert_eq!(report.fence_ts, fence_ts);
    assert_eq!(report.archived_frames, 3, "commits 11..=13 were divergent");
    let archive_path = report
        .archive_path
        .clone()
        .expect("suffix must be archived");

    // Byte-exact quarantine: the archive body is exactly the log bytes
    // beyond the fork offset, checksummed.
    let archive = read_divergence_archive(&vfs, &archive_path).unwrap();
    assert_eq!(archive.epoch, 1);
    assert_eq!(archive.fence_ts, fence_ts);
    assert_eq!(
        archive.bytes,
        pre_rejoin_log[report.fork_offset as usize..],
        "archived suffix is not byte-exact"
    );

    // Running rejoin again is a no-op (nothing left to quarantine).
    let again = prepare_rejoin(&vfs, adir.path(), b_repl_addr, Duration::from_secs(5)).unwrap();
    assert_eq!(again.archive_path, None);
    assert_eq!(again.archived_frames, 0);

    // A comes back as a replica of B and converges on the epoch-1
    // timeline: the new commits arrive, the quarantined ones are gone.
    let db_a2 = open_db(adir.path());
    assert_eq!(
        db_a2.latest_ts(),
        fence_ts,
        "truncation must stop at the fork"
    );
    let node_a2 = ReplNode::new_replica(
        db_a2.clone(),
        ReplayerConfig::new(b_repl_addr, adir.path()),
        Arc::new(AtomicBool::new(true)),
    );
    assert!(
        wait_for(10, || db_a2.latest_ts() == db_b.latest_ts()),
        "rejoined node never converged (last error {:?})",
        node_a2.replayer().and_then(Replayer::last_error)
    );
    let g = db_a2.latest_graph();
    for i in 1..=10 {
        assert!(
            g.node(NodeId::new(i)).is_some(),
            "shared prefix node {i} lost"
        );
    }
    for i in 21..=25 {
        assert!(g.node(NodeId::new(i)).is_some(), "epoch-1 node {i} missing");
    }
    for i in 11..=13 {
        assert!(
            g.node(NodeId::new(i)).is_none(),
            "divergent node {i} leaked back after quarantine"
        );
    }
    // The rejoined node adopted epoch 1 durably and is no longer fenced
    // (it holds nothing, but applies the epoch-1 stream).
    assert_eq!(node_a2.epochs().current().epoch, 1);

    // Full audit clean on both sides of the failover.
    for (name, db) in [("rejoined", &db_a2), ("new primary", &db_b)] {
        let report = db.check_consistency(CheckLevel::Full).unwrap();
        assert!(report.is_clean(), "{name} audit dirty: {report:?}");
    }

    drop(node_a2);
    drop(node_b);
}

/// Rejoin keeps the frames up to the fork point; whether they are the
/// new primary's is checked by content when the node first resyncs. Here
/// the new primary never replicated from the deposed one: its frames up
/// to the fork have the same lengths and other bytes, and the rejoined
/// node is refused in its first session.
#[test]
fn a_rejoined_node_whose_kept_frames_differ_is_refused() {
    let adir = tempdir().unwrap();
    let bdir = tempdir().unwrap();
    let db_a = open_db(adir.path());
    let db_b = open_db(bdir.path());
    // A, the deposed epoch-0 primary, holds nodes 1..=7 with `v = i`; B
    // holds nodes 1..=5 with node 1 at `v = 9`, and is promoted to epoch
    // 1 at its ts 5.
    for i in 1..=7 {
        add_node(&db_a, i);
    }
    let v = db_b.intern("v");
    db_b.write(|tx| tx.add_node(NodeId::new(1), vec![], vec![(v, PropertyValue::Int(9))]))
        .unwrap();
    for i in 2..=5 {
        add_node(&db_b, i);
    }
    let fence_ts = db_b.latest_ts();
    repl::EpochState::load(VfsRef::std(), bdir.path())
        .bump(fence_ts)
        .unwrap();
    let node_b = ReplNode::new_primary(db_b.clone(), VfsRef::std(), bdir.path()).unwrap();
    let b_repl_addr = node_b.shipper_addr().unwrap();

    drop(db_a);
    let vfs = VfsRef::std();
    let report = prepare_rejoin(&vfs, adir.path(), b_repl_addr, Duration::from_secs(5)).unwrap();
    assert_eq!((report.primary_epoch, report.fence_ts), (1, fence_ts));
    assert_eq!(report.archived_frames, 2, "commits 6 and 7 were divergent");
    assert_eq!(
        report.fork_offset,
        db_b.timestore().log().end_offset(),
        "the kept frames have the new primary's lengths"
    );

    let db_a = open_db(adir.path());
    assert_eq!(db_a.latest_ts(), fence_ts);
    let mut cfg = ReplayerConfig::new(b_repl_addr, adir.path());
    cfg.reconnect_backoff = Duration::from_millis(5);
    let node_a = ReplNode::new_replica(db_a.clone(), cfg, Arc::new(AtomicBool::new(true)));
    let replayer = node_a.replayer().unwrap();
    assert!(
        wait_for(10, || replayer.diverged()),
        "the rejoined node was served (last error {:?})",
        replayer.last_error()
    );
    let g = db_a.latest_graph();
    assert_eq!(
        g.node(NodeId::new(1)).unwrap().prop(db_a.intern("v")),
        Some(&PropertyValue::Int(1))
    );
    drop(node_a);
    drop(node_b);
}

#[test]
fn stale_primary_cannot_fence_a_newer_node() {
    // A node that already holds epoch 2 ignores a Hello at epoch 1:
    // adoption and fencing only ever move epochs forward.
    let dir = tempdir().unwrap();
    let db = open_db(dir.path());
    let node = ReplNode::new_primary(db.clone(), VfsRef::std(), dir.path()).unwrap();
    node.epochs().bump(0).unwrap();
    node.epochs().bump(0).unwrap();
    db.set_held_epoch(2);
    db.observe_epoch(1);
    assert!(!db.is_fenced(), "a stale epoch must never fence");
    add_node(&db, 1);
    drop(node);
}

/// A fake primary that completes the replication handshake and then
/// goes silent — the half-open-link shape the heartbeat timeout exists
/// to catch. Returns the listener address and keeps accepting so the
/// replayer's reconnects land somewhere.
fn start_silent_primary() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                let Ok(hello) = read_frame(&mut stream) else {
                    return;
                };
                let Ok(ReplMsg::Hello {
                    start_offset,
                    chain,
                    ..
                }) = decode_msg(&hello)
                else {
                    return;
                };
                let ack = ReplMsg::HelloAck {
                    resume_offset: start_offset,
                    chain,
                    epoch: 0,
                    epoch_base_ts: 0,
                    fence_ts: u64::MAX,
                };
                if write_frame(&mut stream, &encode_msg(&ack)).is_err() {
                    return;
                }
                // Handshake done; now say nothing, forever. The socket
                // stays open so only the heartbeat timeout can notice.
                std::thread::sleep(Duration::from_secs(3600));
            });
        }
    });
    addr
}

#[test]
fn heartbeat_timeout_marks_link_down_and_reconnects() {
    let dir = tempdir().unwrap();
    let db = open_db(dir.path());
    let addr = start_silent_primary();
    let mut cfg = ReplayerConfig::new(addr, dir.path());
    cfg.heartbeat_timeout = Duration::from_millis(100);
    cfg.reconnect_backoff = Duration::from_millis(5);
    let mut replayer = Replayer::start(db.clone(), cfg);

    // The silent link is detected, surfaced, and retried: two timeouts
    // prove detect → reconnect → handshake → detect again.
    assert!(
        wait_for(10, || count(&replayer, "repl.heartbeat_timeouts") >= 2),
        "heartbeat timeout never fired twice (last error {:?})",
        replayer.last_error()
    );
    assert!(count(&replayer, "repl.replay.reconnects") >= 1);
    let err = replayer.last_error().unwrap_or_default();
    assert!(
        err.contains("heartbeat"),
        "timeout not surfaced in last_error: {err}"
    );
    replayer.shutdown();
}

/// A replayer's reconnect and heartbeat-timeout counts are its own: one
/// driven into timeouts against a silent primary leaves a healthy
/// replayer in the same process at zero for both.
#[test]
fn a_replayers_counts_are_its_own() {
    let pdir = tempdir().unwrap();
    let hdir = tempdir().unwrap();
    let sdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let healthy_db = open_db(hdir.path());
    let mut healthy = Replayer::start(
        healthy_db.clone(),
        ReplayerConfig::new(shipper.addr(), hdir.path()),
    );

    let mut cfg = ReplayerConfig::new(start_silent_primary(), sdir.path());
    cfg.heartbeat_timeout = Duration::from_millis(100);
    cfg.reconnect_backoff = Duration::from_millis(5);
    let mut silent = Replayer::start(open_db(sdir.path()), cfg);

    for i in 0..5 {
        add_node(&primary, i);
    }
    assert!(
        wait_for(10, || count(&silent, "repl.heartbeat_timeouts") >= 2
            && count(&silent, "repl.replay.reconnects") >= 1),
        "the silent link never timed out twice (last error {:?})",
        silent.last_error()
    );
    assert!(
        wait_for(10, || healthy.watermark().ts == primary.latest_ts()),
        "the healthy replica never converged (last error {:?})",
        healthy.last_error()
    );
    assert_eq!(count(&healthy, "repl.heartbeat_timeouts"), 0);
    assert_eq!(count(&healthy, "repl.replay.reconnects"), 0);
    // The process-wide series counts the silent replayer's trips.
    assert!(obs::counter("repl.heartbeat_timeouts").get() >= 2);
    assert!(obs::counter("repl.replay.reconnects").get() >= 1);
    silent.shutdown();
    healthy.shutdown();
    shipper.shutdown();
}
