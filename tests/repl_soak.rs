//! Replication chaos soak (DESIGN.md §13): a primary and two read
//! replicas, with each replica's replication link routed through a
//! fault-injecting [`aion_server::ChaosProxy`] that delays, corrupts,
//! splits, and severs the frame stream. While the storm runs, writers
//! commit through the primary's query server and a routed client
//! interleaves writes with bounded-staleness reads. The suite asserts
//! the replication contract:
//!
//! * **no acked commit lost** — every `_id` whose `CREATE` was acked is
//!   present on the primary *and on every replica* after convergence;
//! * **convergence** — after the storm, both replicas reach the
//!   primary's latest timestamp with the full consistency audit clean
//!   on all three nodes, and node counts agree (differential check);
//! * **monotone watermarks** — no replica's durable watermark (offset
//!   or timestamp) ever moves backwards, even across reconnects forced
//!   by corrupted frames;
//! * **bounded staleness** — a routed read issued right after a write
//!   always observes that write (`min_watermark` makes a lagging
//!   replica refuse rather than serve older state).
//!
//! Knobs: `AION_REPL_SOAK_SEEDS` (default 2), `AION_REPL_SOAK_OPS`
//! (writes per writer, default 30).

use aion::{Aion, AionConfig, CheckLevel};
use aion_server::{
    ChaosConfig, ChaosProxy, Client, ClientConfig, RoutedClient, Server, ServerConfig,
};
use lpg::NodeId;
use repl::{LogShipper, Replayer, ReplayerConfig, Watermark};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tempfile::tempdir;

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

#[test]
fn replication_chaos_soak() {
    let seeds = env_u64("AION_REPL_SOAK_SEEDS", 2);
    let ops = env_u64("AION_REPL_SOAK_OPS", 30);
    for seed in 0..seeds {
        run_storm(seed, ops);
    }
}

struct ReplicaNode {
    db: Arc<Aion>,
    replayer: Replayer,
    proxy: ChaosProxy,
    server: Server,
    _dir: tempfile::TempDir,
}

fn start_replica(seed: u64, shipper_addr: SocketAddr) -> ReplicaNode {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    // The chaos sits on the *replication link*: replayer → proxy → primary.
    let proxy = ChaosProxy::start(shipper_addr, ChaosConfig::storm(seed)).unwrap();
    let mut cfg = ReplayerConfig::new(proxy.addr(), dir.path());
    // Small batches and fast reconnects: many watermark writes and many
    // resume handshakes per storm.
    cfg.sync_every = 4;
    cfg.reconnect_backoff = Duration::from_millis(5);
    let replayer = Replayer::start(db.clone(), cfg);
    let server = Server::start_with(
        db.clone(),
        ServerConfig {
            read_only: true,
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    ReplicaNode {
        db,
        replayer,
        proxy,
        server,
        _dir: dir,
    }
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

fn run_storm(seed: u64, ops: u64) {
    let pdir = tempdir().unwrap();
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let mut primary_srv = Server::start_with(
        primary.clone(),
        ServerConfig {
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut shipper = LogShipper::start(primary.clone()).unwrap();

    let mut replicas = vec![
        start_replica(seed.wrapping_mul(2) + 1, shipper.addr()),
        start_replica(seed.wrapping_mul(2) + 2, shipper.addr()),
    ];

    // Watermark monotonicity monitor: polls both replicas' durable
    // watermarks throughout the storm.
    let stop_monitor = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = stop_monitor.clone();
        let watchers: Vec<_> = replicas
            .iter()
            .map(|r| r.replayer.watermark_probe())
            .collect();
        std::thread::spawn(move || {
            let mut last: Vec<Watermark> = watchers.iter().map(|p| p()).collect();
            while !stop.load(Ordering::Acquire) {
                for (i, probe) in watchers.iter().enumerate() {
                    let now = probe();
                    assert!(
                        now.offset >= last[i].offset && now.ts >= last[i].ts,
                        "replica {i} watermark moved backwards: {:?} -> {now:?}",
                        last[i]
                    );
                    last[i] = now;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Writers: unique-_id CREATEs through the primary's query server.
    let (tx, rx) = mpsc::channel::<Vec<u64>>();
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let tx = tx.clone();
        let addr = primary_srv.addr();
        let cfg = client_config(seed, w);
        handles.push(std::thread::spawn(move || {
            let mut acked = Vec::new();
            if let Ok(mut client) = Client::connect_with(addr, cfg) {
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
    // Routed client: write-then-read pairs prove bounded staleness live
    // under the storm — a lagging replica must refuse (StaleReplica) and
    // the router must fall back, never serve older state.
    {
        let tx = tx.clone();
        let primary_addr = primary_srv.addr();
        let replica_addrs: Vec<_> = replicas.iter().map(|r| r.server.addr()).collect();
        let cfg = client_config(seed, 99);
        handles.push(std::thread::spawn(move || {
            let mut acked = Vec::new();
            let mut router = RoutedClient::new(primary_addr, replica_addrs, cfg);
            for op in 0..ops {
                let id = 1 + seed * 10_000_000 + 900_000 + op;
                if router
                    .run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new())
                    .is_ok()
                {
                    acked.push(id);
                    let rows = router
                        .run(
                            &format!("MATCH (n) WHERE id(n) = {id} RETURN n"),
                            Vec::new(),
                        )
                        .map(|r| r.rows.len());
                    assert_eq!(
                        rows.ok(),
                        Some(1),
                        "read-your-writes violated for _id {id} (seed {seed})"
                    );
                }
            }
            let _ = tx.send(acked);
        }));
    }
    drop(tx);

    let mut acked: Vec<u64> = Vec::new();
    for _ in 0..3 {
        let ids = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("a soak client hung (seed {seed})"));
        acked.extend(ids);
    }
    for h in handles {
        h.join().unwrap();
    }
    // The clients can finish before either proxy drew a fault: keep
    // committing through the primary until one has, for at most 30 s.
    let mut client = Client::connect_with(primary_srv.addr(), client_config(seed, 98)).unwrap();
    let mut id = 1 + seed * 10_000_000 + 800_000;
    wait_for(30, || {
        let faults: u64 = replicas
            .iter()
            .map(|r| r.proxy.stats().total_faults())
            .sum();
        if faults > 0 {
            return true;
        }
        if client
            .run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new())
            .is_ok()
        {
            acked.push(id);
        }
        id += 1;
        false
    });
    drop(client);
    assert!(
        !acked.is_empty(),
        "storm acked nothing — the soak proved nothing (seed {seed})"
    );

    // Heal phase: lift the chaos (point replayers straight at the
    // primary) and require convergence.
    let mut faults = 0;
    for r in &mut replicas {
        faults += r.proxy.stats().total_faults();
        r.replayer.shutdown();
        r.proxy.stop();
        let mut cfg = ReplayerConfig::new(shipper.addr(), r._dir.path());
        cfg.sync_every = 4;
        r.replayer = Replayer::start(r.db.clone(), cfg);
    }
    assert!(faults > 0, "storm injected no faults (seed {seed})");

    let latest = primary.latest_ts();
    for (i, r) in replicas.iter().enumerate() {
        assert!(
            wait_for(30, || r.db.latest_ts() == primary.latest_ts()),
            "replica {i} never converged: {} vs {} (seed {seed}, last error {:?})",
            r.db.latest_ts(),
            primary.latest_ts(),
            r.replayer.last_error()
        );
        // Watermark converges to the primary's head.
        assert!(
            wait_for(10, || r.replayer.watermark().ts == primary.latest_ts()),
            "replica {i} watermark stalled at {:?} (seed {seed})",
            r.replayer.watermark()
        );
    }
    stop_monitor.store(true, Ordering::Release);
    monitor.join().unwrap();

    // Differential check: every acked commit on all three nodes, equal
    // node counts, and a clean full audit everywhere.
    primary.lineage_barrier(latest);
    let primary_nodes = primary.latest_graph().node_count();
    for id in &acked {
        assert!(
            primary.latest_graph().node(NodeId::new(*id)).is_some(),
            "acked _id {id} lost on primary (seed {seed})"
        );
    }
    let report = primary.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "primary audit (seed {seed}): {report:?}");
    for (i, r) in replicas.iter().enumerate() {
        let g = r.db.latest_graph();
        assert_eq!(
            g.node_count(),
            primary_nodes,
            "replica {i} node count diverges (seed {seed})"
        );
        for id in &acked {
            assert!(
                g.node(NodeId::new(*id)).is_some(),
                "acked _id {id} missing on replica {i} (seed {seed})"
            );
        }
        let report = r.db.check_consistency(CheckLevel::Full).unwrap();
        assert!(
            report.is_clean(),
            "replica {i} audit (seed {seed}): {report:?}"
        );
    }

    for mut r in replicas {
        r.replayer.shutdown();
        r.server.shutdown();
    }
    primary_srv.shutdown();
    shipper.shutdown();
}
