//! End-to-end replication basics: a primary ships its commit log, a
//! replica replays it into a byte copy of that log, watermarks advance
//! durably, reads obey the staleness gate, and the routed client sees
//! its own writes.

use aion::{Aion, AionConfig, CheckLevel};
use aion_server::protocol::{read_frame, write_frame};
use aion_server::{ClientConfig, RoutedClient, ServedBy, Server, ServerConfig};
use lpg::{NodeId, PropertyValue, RelId};
use repl::{decode_msg, encode_msg, LogShipper, ReplMsg, ReplNode, Replayer, ReplayerConfig};
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;

/// Polls `cond` for up to `secs` seconds.
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

fn log_bytes(dir: &Path) -> Vec<u8> {
    vfs::VfsRef::std()
        .read(&dir.join("timestore").join("timestore.log"))
        .unwrap()
}

/// Commits a mixed history over node and relationship ids from `base`:
/// labels; Int, Float (a NaN too) and Bool properties; relationships;
/// set and remove; label add and remove; relationship and node deletes;
/// multi-update commits.
fn mixed_history(db: &Aion, base: u64) {
    let (person, city, knows) = (db.intern("Person"), db.intern("City"), db.intern("KNOWS"));
    let (age, score, flag) = (db.intern("age"), db.intern("score"), db.intern("flag"));
    let n = |i: u64| NodeId::new(base + i);
    let r = |i: u64| RelId::new(base + i);
    db.write(|tx| {
        for i in 0..4 {
            tx.add_node(
                n(i),
                vec![person],
                vec![
                    (age, PropertyValue::Int(i as i64)),
                    (score, PropertyValue::Float(i as f64 * 0.5)),
                    (flag, PropertyValue::Bool(i % 2 == 0)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db.write(|tx| {
        tx.add_rel(
            r(0),
            n(0),
            n(1),
            Some(knows),
            vec![(score, PropertyValue::Float(1.5))],
        )?;
        tx.add_rel(r(1), n(1), n(2), Some(knows), vec![])
    })
    .unwrap();
    db.write(|tx| tx.set_node_prop(n(0), score, PropertyValue::Float(f64::NAN)))
        .unwrap();
    db.write(|tx| tx.remove_node_prop(n(1), age)).unwrap();
    db.write(|tx| {
        tx.add_label(n(2), city)?;
        tx.remove_label(n(3), person)
    })
    .unwrap();
    db.write(|tx| tx.set_rel_prop(r(1), flag, PropertyValue::Bool(true)))
        .unwrap();
    db.write(|tx| tx.remove_rel_prop(r(0), score)).unwrap();
    db.write(|tx| tx.delete_rel(r(0))).unwrap();
    db.write(|tx| {
        tx.delete_rel(r(1))?;
        tx.delete_node(n(2))
    })
    .unwrap();
}

#[test]
fn replica_log_is_a_byte_prefix_of_the_primary_log() {
    let adir = tempdir().unwrap();
    let bdir = tempdir().unwrap();
    let cdir = tempdir().unwrap();
    let db_a = open_db(adir.path());
    let db_b = open_db(bdir.path());
    let db_c = open_db(cdir.path());
    mixed_history(&db_a, 0);

    // B and C replicate from A: history written before they connect and
    // a live tail.
    let mut shipper_a = LogShipper::start(db_a.clone()).unwrap();
    let mut cfg_b = ReplayerConfig::new(shipper_a.addr(), bdir.path());
    cfg_b.sync_every = 3;
    let mut node_b = ReplNode::new_replica(db_b.clone(), cfg_b, Arc::new(AtomicBool::new(true)));
    let cfg_c = ReplayerConfig::new(shipper_a.addr(), cdir.path());
    let mut replayer_c = Replayer::start(db_c.clone(), cfg_c.clone());
    mixed_history(&db_a, 100);
    let head = db_a.latest_ts();
    assert!(
        wait_for(10, || {
            node_b.replayer().unwrap().watermark().ts == head && replayer_c.watermark().ts == head
        }),
        "replicas never converged (last errors {:?}, {:?})",
        node_b.replayer().unwrap().last_error(),
        replayer_c.last_error()
    );
    let log_a = log_bytes(adir.path());
    assert_eq!(log_bytes(bdir.path()), log_a, "replica B's log differs");
    assert_eq!(log_bytes(cdir.path()), log_a, "replica C's log differs");
    // The durable watermark is the replica's log end.
    let wm = node_b.replayer().unwrap().watermark();
    assert_eq!(wm.offset, log_a.len() as u64);

    // Promote B. C, which followed A, follows B from its own log end;
    // B's log goes on from A's.
    replayer_c.shutdown();
    node_b.promote().unwrap();
    shipper_a.shutdown();
    mixed_history(&db_b, 200);
    let cfg_c = ReplayerConfig {
        primary: node_b.shipper_addr().unwrap(),
        ..cfg_c
    };
    let replayer_c = Replayer::start(db_c.clone(), cfg_c);
    assert!(
        wait_for(10, || replayer_c.watermark().ts == db_b.latest_ts()),
        "replica C never followed the promoted primary (last error {:?})",
        replayer_c.last_error()
    );
    assert!(!replayer_c.diverged());
    let log_b = log_bytes(bdir.path());
    assert!(log_b.starts_with(&log_a) && log_b.len() > log_a.len());
    assert_eq!(log_bytes(cdir.path()), log_b, "replica C's log differs");
    drop(replayer_c);
    node_b.shutdown();
}

/// A replica directory that holds commits of its own is not a prefix of
/// the primary's log: the replayer refuses it instead of skipping the
/// primary's frames at the timestamps it already holds and merging the
/// two histories.
#[test]
fn a_replica_with_history_of_its_own_is_refused() {
    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let replica = open_db(rdir.path());
    for i in 1..=10 {
        add_node(&primary, i);
    }
    // The replica's own commit at ts 1: three nodes the primary never had.
    let own = replica.intern("own");
    replica
        .write(|tx| {
            for i in 1001..=1003 {
                tx.add_node(
                    NodeId::new(i),
                    vec![],
                    vec![(own, PropertyValue::Bool(true))],
                )?;
            }
            Ok(())
        })
        .unwrap();
    let own_ts = replica.latest_ts();
    let own_graph = replica.latest_graph();

    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let mut cfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    cfg.reconnect_backoff = Duration::from_millis(5);
    let mut replayer = Replayer::start(replica.clone(), cfg);
    assert!(
        wait_for(10, || replayer.diverged()),
        "replayer never flagged divergence (last error {:?})",
        replayer.last_error()
    );
    let err = replayer.last_error().unwrap_or_default();
    assert!(
        err.contains("diverged"),
        "divergence not in last_error: {err}"
    );
    // Nothing of the primary's was applied: the replica's graph is its own.
    assert_eq!(replica.latest_ts(), own_ts);
    assert!(replica.latest_graph().same_as(&own_graph));
    assert!(replica.latest_graph().node(NodeId::new(2)).is_none());
    replayer.shutdown();
    shipper.shutdown();
}

/// A replica directory whose own commit is as long as the primary's frame
/// at the same timestamp: the offsets agree, so only the log chains tell
/// the two histories apart. The replica is refused, not merged.
#[test]
fn a_replica_whose_own_frame_has_the_primarys_length_is_refused() {
    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let replica = open_db(rdir.path());
    for i in 1..=5 {
        add_node(&primary, i);
    }
    // The replica's own node 1 with `v = 9` at ts 1, where the primary
    // has `v = 1`: one frame of the same length.
    let v = replica.intern("v");
    replica
        .write(|tx| tx.add_node(NodeId::new(1), vec![], vec![(v, PropertyValue::Int(9))]))
        .unwrap();
    assert_eq!(replica.latest_ts(), 1);
    let (primary_resume, _) = primary.timestore().log().frames_after(1);
    assert_eq!(log_bytes(rdir.path()).len() as u64, primary_resume);
    assert_ne!(
        log_bytes(rdir.path()),
        log_bytes(pdir.path())[..primary_resume as usize]
    );

    let refusals = obs::counter("server.repl.handshake_refusals");
    let refused_before = refusals.get();
    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let mut cfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    cfg.reconnect_backoff = Duration::from_millis(5);
    let mut replayer = Replayer::start(replica.clone(), cfg);
    assert!(
        wait_for(10, || replayer.diverged()),
        "replayer never flagged divergence (last error {:?})",
        replayer.last_error()
    );
    assert!(
        wait_for(10, || refusals.get() > refused_before),
        "the shipper never counted a refusal"
    );
    // Nothing of the primary's was applied: ts 1 and `v = 9` stay.
    assert_eq!(replica.latest_ts(), 1);
    let g = replica.latest_graph();
    assert_eq!(
        g.node(NodeId::new(1)).unwrap().prop(v),
        Some(&PropertyValue::Int(9))
    );
    assert!(g.node(NodeId::new(2)).is_none());
    replayer.shutdown();
    shipper.shutdown();
}

/// A stub primary that answers an empty replica's handshake and ships
/// `payload` as the frame at offset 0, then stays silent with the
/// link open.
fn start_stub_primary(payload: Vec<u8>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let payload = payload.clone();
            std::thread::spawn(move || {
                let Ok(ReplMsg::Hello {
                    start_offset: 0,
                    chain,
                    ..
                }) = read_frame(&mut stream).and_then(|hello| decode_msg(&hello))
                else {
                    return;
                };
                let ack = ReplMsg::HelloAck {
                    resume_offset: 0,
                    chain,
                    epoch: 0,
                    epoch_base_ts: 0,
                    fence_ts: u64::MAX,
                };
                let frame = ReplMsg::Frame {
                    offset: 0,
                    epoch: 0,
                    payload,
                };
                for msg in [ack, frame] {
                    if write_frame(&mut stream, &encode_msg(&msg)).is_err() {
                        return;
                    }
                }
                std::thread::sleep(Duration::from_secs(3600));
            });
        }
    });
    addr
}

/// The replica's log holds the bytes it was shipped, not a re-encoding:
/// a payload whose record count is the non-canonical varint `0x81 0x00`
/// (1 in two bytes) ends the replica's log as it is.
#[test]
fn a_replica_appends_the_payload_bytes_it_was_shipped() {
    let rdir = tempdir().unwrap();
    let replica = open_db(rdir.path());
    let update = lpg::Update::AddNode {
        id: NodeId::new(1),
        labels: vec![],
        props: vec![],
    };
    let frame = timestore::CommitFrame::from_updates(1, std::slice::from_ref(&update));
    let canonical = frame.encode();
    assert_eq!(canonical[..2], [0x01, 0x01], "varint ts 1, varint count 1");
    let mut payload = vec![0x01, 0x81, 0x00];
    payload.extend_from_slice(&canonical[2..]);
    assert_eq!(timestore::CommitFrame::decode(&payload), Some(frame));

    let mut cfg = ReplayerConfig::new(start_stub_primary(payload.clone()), rdir.path());
    cfg.heartbeat_timeout = Duration::from_secs(30);
    let mut replayer = Replayer::start(replica.clone(), cfg);
    assert!(
        wait_for(10, || replica.latest_ts() == 1),
        "the shipped frame was never applied (last error {:?})",
        replayer.last_error()
    );
    replayer.shutdown();
    assert!(!replayer.diverged());
    let log = log_bytes(rdir.path());
    assert_eq!(log.len(), 8 + payload.len());
    assert!(log.ends_with(&payload), "the log re-encoded the payload");
    drop(replayer);
    drop(replica);
    // The log reopens on those bytes.
    let replica = open_db(rdir.path());
    assert_eq!(replica.latest_ts(), 1);
    assert!(replica.latest_graph().node(NodeId::new(1)).is_some());
}

#[test]
fn replica_converges_and_resumes_after_restart() {
    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let replica = open_db(rdir.path());

    for i in 1..=20 {
        add_node(&primary, i);
    }
    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let mut cfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    cfg.sync_every = 4;
    let replayer = Replayer::start(replica.clone(), cfg.clone());

    // Catch-up: everything written before the replica connected arrives.
    assert!(
        wait_for(10, || replica.latest_ts() == primary.latest_ts()),
        "replica never caught up: {} vs {} (last error: {:?})",
        replica.latest_ts(),
        primary.latest_ts(),
        replayer.last_error(),
    );
    // Live tail: new commits stream through.
    for i in 21..=40 {
        add_node(&primary, i);
    }
    assert!(wait_for(10, || replica.latest_ts() == primary.latest_ts()));
    let g = replica.latest_graph();
    for i in 1..=40 {
        assert!(g.node(NodeId::new(i)).is_some(), "node {i} missing");
    }
    // The watermark converges to the primary's ts (heartbeat flushes the
    // partial batch) and never exceeds it.
    assert!(wait_for(10, || replayer.watermark().ts == primary.latest_ts()));
    let wm = replayer.watermark();
    assert!(wm.offset > 0);

    // The primary saw the replica's acked watermark.
    assert!(wait_for(10, || {
        shipper
            .replica_watermarks()
            .iter()
            .any(|(_, w)| w.ts == primary.latest_ts())
    }));

    // Restart the replayer: it must resume from the replica's log end,
    // not refetch history into double-apply (latest_ts can't regress and
    // fsck stays clean).
    drop(replayer);
    for i in 41..=50 {
        add_node(&primary, i);
    }
    let replayer2 = Replayer::start(replica.clone(), cfg);
    assert!(
        wait_for(10, || replica.latest_ts() == primary.latest_ts()),
        "replica did not resume: last error {:?}",
        replayer2.last_error()
    );
    let g = replica.latest_graph();
    assert!(g.node(NodeId::new(50)).is_some());

    let report = replica.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "replica fsck dirty: {report:?}");
    drop(replayer2);
    shipper.shutdown();
}

#[test]
fn read_only_replica_rejects_writes_and_stale_reads() {
    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let replica = open_db(rdir.path());

    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let replayer = Replayer::start(
        replica.clone(),
        ReplayerConfig::new(shipper.addr(), rdir.path()),
    );

    let mut replica_srv = Server::start_with(
        replica.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = aion_server::Client::connect(replica_srv.addr()).unwrap();

    // Writes are refused with the typed ReadOnlyReplica error.
    let err = client
        .run("CREATE (n {_id: 1})", vec![])
        .expect_err("write must be refused on a read-only replica");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

    // A read demanding a watermark from the future is refused as stale.
    let far_future = primary.latest_ts() + 1_000;
    let err = client
        .run_with_watermark("MATCH (n) WHERE id(n) = 1 RETURN n", vec![], far_future)
        .expect_err("stale replica must refuse");
    assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

    // Once replication delivers the commit, the same floor succeeds.
    let ts = add_node(&primary, 7);
    assert!(wait_for(10, || replica.latest_ts() >= ts));
    let (result, watermark) = client
        .run_with_watermark("MATCH (n) WHERE id(n) = 7 RETURN n", vec![], ts)
        .unwrap();
    assert_eq!(result.rows.len(), 1);
    assert!(watermark >= ts);

    replica_srv.shutdown();
    drop(replayer);
    shipper.shutdown();
}

#[test]
fn routed_client_reads_its_own_writes_from_replicas() {
    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = open_db(pdir.path());
    let replica = open_db(rdir.path());

    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let replayer = Replayer::start(
        replica.clone(),
        ReplayerConfig::new(shipper.addr(), rdir.path()),
    );
    let mut primary_srv = Server::start(primary.clone()).unwrap();
    let mut replica_srv = Server::start_with(
        replica.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut router = RoutedClient::new(
        primary_srv.addr(),
        vec![replica_srv.addr()],
        ClientConfig::default(),
    );
    for i in 1..=10 {
        // Write goes to the primary...
        let (_, served) = router
            .run_traced(&format!("CREATE (n {{_id: {i}, v: {i}}})"), vec![])
            .unwrap();
        assert_eq!(served, ServedBy::Primary, "writes must hit the primary");
        // ...and the immediately following read must see it, wherever it
        // lands: the session watermark forces replicas to be caught up
        // or refuse (falling back to the primary).
        let (result, _) = router
            .run_traced(&format!("MATCH (n) WHERE id(n) = {i} RETURN n"), vec![])
            .unwrap();
        assert_eq!(result.rows.len(), 1, "read-your-writes violated for {i}");
    }
    // The session watermark tracked the primary's commits.
    assert_eq!(router.session_watermark(), primary.latest_ts());

    // With a caught-up replica, reads are eventually served by it.
    assert!(wait_for(10, || replica.latest_ts() == primary.latest_ts()));
    let mut replica_served = false;
    for _ in 0..5 {
        let (_, served) = router
            .run_traced("MATCH (n) WHERE id(n) = 1 RETURN n", vec![])
            .unwrap();
        if served == ServedBy::Replica(0) {
            replica_served = true;
            break;
        }
    }
    assert!(replica_served, "replica never served a caught-up read");

    primary_srv.shutdown();
    replica_srv.shutdown();
    drop(replayer);
    shipper.shutdown();
}

#[test]
fn divergent_replica_is_refused_and_stops() {
    // Replica replays a real history from primary A...
    let adir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary_a = open_db(adir.path());
    let replica = open_db(rdir.path());
    for i in 1..=10 {
        add_node(&primary_a, i);
    }
    let mut shipper_a = LogShipper::start(primary_a.clone()).unwrap();
    let mut cfg = ReplayerConfig::new(shipper_a.addr(), rdir.path());
    cfg.sync_every = 2;
    let mut replayer = Replayer::start(replica.clone(), cfg);
    assert!(wait_for(10, || replica.latest_ts() == primary_a.latest_ts()));
    assert!(wait_for(10, || {
        replayer.watermark().ts == primary_a.latest_ts()
    }));
    replayer.shutdown();
    shipper_a.shutdown();

    // ...then is pointed at a primary with *less* history (a stand-in
    // for a primary that lost its disk). The replayer must mark itself
    // diverged and stop reconnecting.
    let bdir = tempdir().unwrap();
    let primary_b = open_db(bdir.path());
    add_node(&primary_b, 999); // shorter history: ts 1 < replica's ts 10
    let mut shipper_b = LogShipper::start(primary_b.clone()).unwrap();
    let mut cfg = ReplayerConfig::new(shipper_b.addr(), rdir.path());
    cfg.reconnect_backoff = Duration::from_millis(5);
    let mut replayer = Replayer::start(replica.clone(), cfg);
    assert!(
        wait_for(10, || replayer.diverged()),
        "replayer never flagged divergence (last error {:?})",
        replayer.last_error()
    );
    let err = replayer.last_error().unwrap_or_default();
    assert!(
        err.contains("diverged"),
        "divergence not surfaced in last_error: {err}"
    );
    // Nothing from the divergent primary was applied; local state is
    // exactly what primary A shipped.
    assert_eq!(replica.latest_ts(), primary_a.latest_ts());
    assert!(replica.latest_graph().node(NodeId::new(999)).is_none());
    // The stopped replayer does not keep hammering the primary.
    let reconnects = replayer.reconnect_count();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(replayer.reconnect_count(), reconnects);
    replayer.shutdown();
    shipper_b.shutdown();
}
