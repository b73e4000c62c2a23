//! Failover chaos soak (DESIGN.md §17): a primary and two replicas
//! replicate through fault-injecting [`aion_server::ChaosProxy`] links
//! while writers commit through the query layer. Mid-storm the
//! replication links are severed, the primary acks a few more commits
//! (the divergent suffix), and then it is killed. The most-caught-up
//! replica is promoted through the server's `Promote` control
//! operation; routed clients fail over to it by probing epochs; the
//! lagging replica re-points; the deposed primary rejoins via
//! [`repl::prepare_rejoin`]. The suite asserts the failover contract:
//!
//! * **no acked commit in any epoch lost** — every acked `_id` is
//!   either present on every node after convergence or decodable from
//!   the divergence archive (nothing simply vanishes);
//! * **byte-exact quarantine** — the archive body equals the deposed
//!   primary's log suffix beyond the fork offset, verbatim;
//! * **fencing** — the rejoined old primary refuses direct writes with
//!   the typed `Fenced` error;
//! * **client-transparent rerouting** — a `RoutedClient` still pointed
//!   at the dead primary finds the new one by epoch probing
//!   (`client.route.failovers` advances) and read-your-writes holds on
//!   the new timeline;
//! * **monotone epochs and watermarks** — neither a replica watermark
//!   nor the `repl.epoch` gauge ever moves backwards;
//! * **clean audits** — `CheckLevel::Full` is clean on all three nodes.
//!
//! Knobs: `AION_FAILOVER_SOAK_SEEDS` (default 2),
//! `AION_FAILOVER_SOAK_OPS` (writes per writer, default 25).

use aion::{Aion, AionConfig, CheckLevel};
use aion_server::{
    ChaosConfig, ChaosProxy, Client, ClientConfig, RoutedClient, Server, ServerConfig,
};
use lpg::NodeId;
use repl::{prepare_rejoin, read_divergence_archive, ReplNode, ReplayerConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tempfile::tempdir;
use vfs::VfsRef;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

fn client_config(seed: u64, n: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(2),
        retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        jitter_seed: seed.wrapping_mul(1_000_003) ^ n,
    }
}

#[test]
fn failover_chaos_soak() {
    let seeds = env_u64("AION_FAILOVER_SOAK_SEEDS", 2);
    let ops = env_u64("AION_FAILOVER_SOAK_OPS", 25);
    for seed in 0..seeds {
        run_failover(seed, ops);
    }
}

/// A replica's role manager, shared with its server's promote handler.
#[allow(
    clippy::disallowed_types,
    reason = "the handler holds it under the server's Promote lock and across the node's own ranked locks: a test harness lock outside lock::Rank"
)]
type NodeLock = std::sync::Mutex<ReplNode>;

struct ReplicaHarness {
    db: Arc<Aion>,
    node: Arc<NodeLock>,
    proxy: ChaosProxy,
    server: Server,
    dir: tempfile::TempDir,
}

fn start_replica(seed: u64, shipper_addr: SocketAddr) -> ReplicaHarness {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let proxy = ChaosProxy::start(shipper_addr, ChaosConfig::storm(seed)).unwrap();
    let server = Server::start_with(
        db.clone(),
        ServerConfig {
            read_only: true,
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut cfg = ReplayerConfig::new(proxy.addr(), dir.path());
    cfg.sync_every = 4;
    cfg.reconnect_backoff = Duration::from_millis(5);
    let node = Arc::new(NodeLock::new(ReplNode::new_replica(
        db.clone(),
        cfg,
        server.read_only_flag(),
    )));
    // Wire the Promote control operation straight to the role manager —
    // the same path `aion-admin promote` exercises.
    let handler_node = node.clone();
    server.set_promote_handler(move || {
        let mut node = handler_node.lock().unwrap_or_else(|p| p.into_inner());
        node.promote().map(|record| record.epoch)
    });
    ReplicaHarness {
        db,
        node,
        proxy,
        server,
        dir,
    }
}

fn run_failover(seed: u64, ops: u64) {
    let pdir = tempdir().unwrap();
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let node_p = ReplNode::new_primary(primary.clone(), VfsRef::std(), pdir.path()).unwrap();
    let shipper_addr = node_p.shipper_addr().unwrap();
    let mut primary_srv = Server::start_with(
        primary.clone(),
        ServerConfig {
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary_srv.addr();

    let mut replicas = vec![
        start_replica(seed.wrapping_mul(2) + 1, shipper_addr),
        start_replica(seed.wrapping_mul(2) + 2, shipper_addr),
    ];
    let replica_addrs: Vec<_> = replicas.iter().map(|r| r.server.addr()).collect();

    // Monitors: replica watermarks and every node's epoch chain are
    // monotone through the storm, the kill, and the failover.
    let stop_monitor = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = stop_monitor.clone();
        let probes: Vec<_> = replicas
            .iter()
            .map(|r| {
                let node = r.node.lock().unwrap_or_else(|p| p.into_inner());
                let replayer = node.replayer().expect("replica must be replaying");
                replayer.watermark_probe()
            })
            .collect();
        let nodes: Vec<_> = replicas.iter().map(|r| r.node.clone()).collect();
        std::thread::spawn(move || {
            let mut last_wm: Vec<_> = probes.iter().map(|p| p()).collect();
            let mut last_epoch = vec![0u64; nodes.len()];
            while !stop.load(Ordering::Acquire) {
                for (i, probe) in probes.iter().enumerate() {
                    let now = probe();
                    assert!(
                        now.offset >= last_wm[i].offset && now.ts >= last_wm[i].ts,
                        "replica {i} watermark regressed: {:?} -> {now:?} (seed {seed})",
                        last_wm[i]
                    );
                    last_wm[i] = now;
                }
                for (i, node) in nodes.iter().enumerate() {
                    let epoch = {
                        let node = node.lock().unwrap_or_else(|p| p.into_inner());
                        node.epochs().current().epoch
                    };
                    assert!(
                        epoch >= last_epoch[i],
                        "node {i} epoch regressed: {} -> {epoch} (seed {seed})",
                        last_epoch[i]
                    );
                    last_epoch[i] = epoch;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Phase A — storm: writers commit unique _ids through the primary's
    // query server while the replication links chew on chaos.
    let (tx, rx) = mpsc::channel::<Vec<u64>>();
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let tx = tx.clone();
        let cfg = client_config(seed, w);
        handles.push(std::thread::spawn(move || {
            let mut acked = Vec::new();
            if let Ok(mut client) = Client::connect_with(primary_addr, cfg) {
                for op in 0..ops {
                    let id = 1 + seed * 10_000_000 + w * 100_000 + op;
                    if client
                        .run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new())
                        .is_ok()
                    {
                        acked.push(id);
                    }
                }
            }
            let _ = tx.send(acked);
        }));
    }
    drop(tx);
    let mut acked_old_epoch: Vec<u64> = Vec::new();
    for _ in 0..2 {
        let ids = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("a soak writer hung (seed {seed})"));
        acked_old_epoch.extend(ids);
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        !acked_old_epoch.is_empty(),
        "storm acked nothing (seed {seed})"
    );
    // Writers can finish before the storm has had a chance to bite; the
    // replication links keep flowing (frames, heartbeats), so hold the
    // storm open until faults landed and both replicas made progress.
    assert!(
        wait_for(30, || {
            replicas
                .iter()
                .map(|r| r.proxy.stats().total_faults())
                .sum::<u64>()
                > 0
                && replicas.iter().all(|r| r.db.latest_ts() > 0)
        }),
        "storm injected no faults (seed {seed})"
    );

    // Phase B — sever replication, then ack a divergent suffix: these
    // commits can never ship, so rejoin must quarantine them.
    for r in &mut replicas {
        r.proxy.stop();
    }
    let mut divergent_acked = Vec::new();
    {
        let mut client = Client::connect_with(primary_addr, client_config(seed, 7)).unwrap();
        for op in 0..5u64 {
            let id = 1 + seed * 10_000_000 + 500_000 + op;
            client
                .run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new())
                .unwrap_or_else(|e| panic!("divergent write {id} refused: {e} (seed {seed})"));
            divergent_acked.push(id);
        }
    }
    acked_old_epoch.extend(&divergent_acked);

    // Phase C — kill the primary and promote the most-caught-up replica
    // (highest replayed timestamp) through the Promote control op.
    primary_srv.shutdown();
    drop(node_p);
    let pre_kill_log = VfsRef::std()
        .read(&pdir.path().join("timestore/timestore.log"))
        .unwrap();
    drop(primary_srv);
    drop(primary);

    let target = usize::from(replicas[1].db.latest_ts() > replicas[0].db.latest_ts());
    let lagging = 1 - target;
    let mut admin = Client::connect_with(replica_addrs[target], client_config(seed, 8)).unwrap();
    let new_epoch = admin.promote().unwrap();
    assert_eq!(new_epoch, 1, "first promotion must mint epoch 1");
    let status = admin.status().unwrap();
    assert!(status.writable(), "promoted node must accept writes");
    assert_eq!(status.epoch, 1);
    let fence_ts = {
        let node = replicas[target]
            .node
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        node.epochs().current().base_ts
    };
    let new_shipper_addr = {
        let node = replicas[target]
            .node
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        node.shipper_addr().expect("promoted node must ship")
    };

    // Re-point the lagging replica at the new primary.
    {
        let mut node = replicas[lagging]
            .node
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        node.shutdown();
        let mut cfg = ReplayerConfig::new(new_shipper_addr, replicas[lagging].dir.path());
        cfg.sync_every = 4;
        cfg.reconnect_backoff = Duration::from_millis(5);
        *node = ReplNode::new_replica(
            replicas[lagging].db.clone(),
            cfg,
            replicas[lagging].server.read_only_flag(),
        );
    }

    // Phase D — client-transparent rerouting: a router still configured
    // with the dead primary probes epochs and lands on the new one.
    let failovers_before = obs::counter("client.route.failovers").get();
    let mut router = RoutedClient::new(primary_addr, replica_addrs.clone(), client_config(seed, 9));
    let mut acked_new_epoch = Vec::new();
    for op in 0..ops {
        let id = 1 + seed * 10_000_000 + 700_000 + op;
        router
            .run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new())
            .unwrap_or_else(|e| panic!("post-failover write {id} failed: {e} (seed {seed})"));
        acked_new_epoch.push(id);
        let rows = router
            .run(
                &format!("MATCH (n) WHERE id(n) = {id} RETURN n"),
                Vec::new(),
            )
            .map(|r| r.rows.len());
        assert_eq!(
            rows.ok(),
            Some(1),
            "read-your-writes violated across failover for _id {id} (seed {seed})"
        );
    }
    assert!(
        obs::counter("client.route.failovers").get() > failovers_before,
        "router never recorded a failover (seed {seed})"
    );

    // Phase E — the deposed primary rejoins: quarantine the divergent
    // suffix, verify it byte-exact, and resync as a replica.
    let vfs = VfsRef::std();
    let report =
        prepare_rejoin(&vfs, pdir.path(), new_shipper_addr, Duration::from_secs(5)).unwrap();
    assert_eq!(report.primary_epoch, 1);
    assert_eq!(report.fence_ts, fence_ts);
    let archived_ids: BTreeSet<u64> = match &report.archive_path {
        Some(path) => {
            let archive = read_divergence_archive(&vfs, path).unwrap();
            assert_eq!(archive.epoch, 1);
            assert_eq!(
                archive.bytes,
                pre_kill_log[report.fork_offset as usize..],
                "divergence archive is not byte-exact (seed {seed})"
            );
            let frames = archive.frames();
            assert!(frames.iter().all(|f| f.ts > fence_ts));
            frames
                .iter()
                .flat_map(|f| f.records.iter().map(|(entity, _)| *entity))
                .collect()
        }
        None => BTreeSet::new(),
    };
    // The suffix acked after the links were severed can never have
    // shipped; it must be in the archive.
    for id in &divergent_acked {
        assert!(
            archived_ids.contains(id),
            "divergent acked _id {id} missing from the archive (seed {seed})"
        );
    }

    let rejoined = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let rejoined_srv = Server::start_with(
        rejoined.clone(),
        ServerConfig {
            read_only: true,
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut cfg = ReplayerConfig::new(new_shipper_addr, pdir.path());
    cfg.sync_every = 4;
    cfg.reconnect_backoff = Duration::from_millis(5);
    let node_rejoined = ReplNode::new_replica(rejoined.clone(), cfg, rejoined_srv.read_only_flag());
    // The rejoined node adopted epoch 1 during rejoin prep but holds no
    // epoch itself: once its replication role loads the chain, direct
    // writes are refused with the typed fence error.
    let fence_err = rejoined
        .write(|tx| tx.add_node(NodeId::new(999_999_999), vec![], vec![]))
        .expect_err("deposed primary must be fenced");
    assert!(
        matches!(fence_err, lpg::GraphError::Fenced { .. }),
        "want Fenced, got {fence_err:?} (seed {seed})"
    );

    // Phase F — convergence and the cross-epoch audit.
    let new_primary = &replicas[target].db;
    let others = [&replicas[lagging].db, &rejoined];
    for (i, db) in others.iter().enumerate() {
        assert!(
            wait_for(30, || db.latest_ts() == new_primary.latest_ts()),
            "node {i} never converged on the new timeline: {} vs {} (seed {seed})",
            db.latest_ts(),
            new_primary.latest_ts()
        );
    }
    stop_monitor.store(true, Ordering::Release);
    monitor.join().unwrap();

    new_primary.lineage_barrier(new_primary.latest_ts());
    let final_graph = new_primary.latest_graph();
    let mut lost = Vec::new();
    for id in acked_old_epoch.iter().chain(&acked_new_epoch) {
        let surviving = final_graph.node(NodeId::new(*id)).is_some();
        if !surviving && !archived_ids.contains(id) {
            lost.push(*id);
        }
    }
    assert!(
        lost.is_empty(),
        "acked commits neither survived nor archived: {lost:?} (seed {seed})"
    );
    // Epoch-1 acks are on the authoritative timeline, never quarantined.
    for id in &acked_new_epoch {
        assert!(
            final_graph.node(NodeId::new(*id)).is_some(),
            "epoch-1 acked _id {id} lost (seed {seed})"
        );
    }
    let final_nodes = final_graph.node_count();
    for (i, db) in others.iter().enumerate() {
        let g = db.latest_graph();
        assert_eq!(
            g.node_count(),
            final_nodes,
            "node {i} count diverges after failover (seed {seed})"
        );
    }
    for (name, db) in [
        ("new primary", new_primary),
        ("lagging replica", others[0]),
        ("rejoined primary", others[1]),
    ] {
        let audit = db.check_consistency(CheckLevel::Full).unwrap();
        assert!(
            audit.is_clean(),
            "{name} audit dirty (seed {seed}): {audit:?}"
        );
    }

    drop(node_rejoined);
    let mut rejoined_srv = rejoined_srv;
    rejoined_srv.shutdown();
    for r in &mut replicas {
        r.node.lock().unwrap_or_else(|p| p.into_inner()).shutdown();
        r.server.shutdown();
    }
}

/// Satellite regression: a paged read does not lose its cursor when the
/// transport under it fails. The client classifies paged reads as
/// idempotent (retried internally) and [`aion_server::client`]'s page
/// iterator keeps its resume token on transport errors, so pagination
/// survives reconnects — the exact shape of a failover re-route.
#[test]
fn pagination_survives_transport_faults() {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let total = 60u64;
    db.write(|tx| {
        for id in 1..=total {
            tx.add_node(NodeId::new(id), vec![], vec![])?;
        }
        Ok(())
    })
    .unwrap();
    let mut server = Server::start_with(
        db.clone(),
        ServerConfig {
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The client talks through a fault-injecting proxy: pages fail
    // mid-iteration, the client reconnects, and the cursor must resume
    // exactly where it left off — every id once, none twice.
    let mut proxy = ChaosProxy::start(server.addr(), ChaosConfig::storm(11)).unwrap();
    let mut client = Client::connect_with(proxy.addr(), client_config(11, 0)).unwrap();
    let mut seen = Vec::new();
    let mut transport_errors = 0u64;
    let mut pages = client.pages("MATCH (n) RETURN n", Vec::new(), 7);
    loop {
        match pages.next() {
            Some(Ok(page)) => {
                seen.extend(page.rows.iter().filter_map(|row| match row.first() {
                    Some(query::Value::Node { id, .. }) => Some(*id),
                    _ => None,
                }));
            }
            Some(Err(e)) => {
                assert_ne!(
                    e.kind(),
                    std::io::ErrorKind::InvalidInput,
                    "cursor must stay valid across transport faults: {e}"
                );
                transport_errors += 1;
                assert!(
                    transport_errors < 1_000,
                    "pagination never made progress through the storm"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            None => break,
        }
    }
    let unique: BTreeSet<u64> = seen.iter().copied().collect();
    assert_eq!(
        seen.len(),
        unique.len(),
        "pagination duplicated rows across reconnects"
    );
    assert_eq!(
        unique,
        (1..=total).collect::<BTreeSet<u64>>(),
        "pagination lost rows across reconnects"
    );
    proxy.stop();
    server.shutdown();
}
