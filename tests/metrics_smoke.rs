//! Observability smoke test: after a workload runs through the full
//! stack — ingest, snapshots, reopen, historical reads, temporal Cypher —
//! `Aion::metrics()` must report non-zero activity in every layer, and
//! both exposition formats must be well-formed. The tests assert deltas of
//! process-global counters, so they take turns (`serial`).

use aion::{Aion, AionConfig};
use aion_suite::*;
use lpg::{Direction, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;

/// Serializes this binary's tests: each commits, and one asserts exact
/// deltas of the process-global commit counters.
#[allow(
    clippy::disallowed_types,
    reason = "held around whole tests, outside every lock::Rank: a test-only lock"
)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn metrics_cover_every_layer_after_a_workload() {
    let _serial = serial();
    let spec = workload::DATASETS[0].scaled(0.0005);
    let w = workload::generate(spec, 11);
    let dir = tempdir().unwrap();

    // Ingest, snapshot, close.
    {
        let mut config = AionConfig::new(dir.path());
        // A snapshot mid-stream so the reopened instance has a real base.
        config.timestore.policy = timestore::SnapshotPolicy::EveryNOps(200);
        let db = Aion::open(config).unwrap();
        for (ts, ops) in w.batches(50) {
            db.write_at(ts, |txn| ops.into_iter().try_for_each(|u| txn.push(u)))
                .unwrap();
        }
        db.lineage_barrier(db.latest_ts());
        db.sync().unwrap();
    }

    // Reopen and read history: point lookups replay deltas on a snapshot
    // base (timestore), expansion routes through the lineage store, and
    // temporal Cypher runs the query stages.
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    let latest = db.latest_ts();
    for t in [latest / 4, latest / 2, latest] {
        let g = db.get_graph_at(t).unwrap();
        assert!(g.node_count() > 0 || t == 0);
    }
    let _ = db.expand(NodeId::new(0), Direction::Both, 2, latest);
    let r = query::execute(
        &db,
        "MATCH (n) WHERE id(n) = 0 RETURN id(n)",
        &query::Params::new(),
    )
    .unwrap();
    assert_eq!(r.rows.len(), 1);

    let snap = db.metrics();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let hist_count = |name: &str| snap.histogram(name).map(|h| h.count).unwrap_or(0);

    // Pagestore: the reopened index reads pages from disk.
    assert!(
        counter("pagestore.cache.hits") + counter("pagestore.cache.misses") > 0,
        "pagestore cache traffic"
    );
    assert!(counter("btree.page.reads") > 0, "btree page reads");
    // Timestore: ingest appended to the log; the reopen + historical reads
    // replayed deltas onto snapshot bases.
    assert!(counter("timestore.log.appends") > 0, "log appends");
    assert!(
        counter("timestore.snapshot.replays") > 0,
        "snapshot replays"
    );
    assert!(hist_count("timestore.snapshot.replay.latency_ns") > 0);
    // Lineagestore: the cascade applied every commit.
    assert!(
        counter("lineagestore.updates.applied") > 0,
        "lineage ingest"
    );
    // Core + query: commits and the executed statement were timed.
    assert!(counter("core.commits") > 0, "commits");
    assert!(hist_count("core.commit.latency_ns") > 0);
    // Group commit: every commit belongs to a log-writer group, and the
    // ingest loop's explicit `sync()` above flushed an unsynced log tail.
    let groups = snap
        .histogram("core.group_commit.size")
        .expect("group size");
    assert!(groups.count > 0, "group commit groups formed");
    assert!(
        groups.sum >= counter("core.commits"),
        "histogram sum counts every grouped commit"
    );
    assert!(
        counter("core.group_commit.forced_flushes") > 0,
        "explicit sync with an unsynced log tail is a forced flush"
    );
    // A failed commit counts in `core.commits_failed`, not `core.commits`.
    let commits_before = counter("core.commits");
    let failed_before = counter("core.commits_failed");
    db.write_at(1, |txn| {
        txn.add_node(NodeId::new(u64::MAX - 1), vec![], vec![])
    })
    .expect_err("stale forced timestamp must be rejected");
    let snap = db.metrics();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        counter("core.commits"),
        commits_before,
        "failed commits must not count as commits"
    );
    assert_eq!(
        counter("core.commits_failed"),
        failed_before + 1,
        "failed commits count separately"
    );
    // So does a batch the log writer refuses for a constraint (Sec. 3).
    let taken = NodeId::new(0);
    assert!(db.latest_graph().has_node(taken));
    let refused = db.write(|txn| txn.add_node(taken, vec![], vec![]));
    assert_eq!(refused, Err(lpg::GraphError::NodeExists(taken)));
    let snap = db.metrics();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        counter("core.commits"),
        commits_before,
        "a refused batch is not a commit"
    );
    assert_eq!(
        counter("core.commits_failed"),
        failed_before + 2,
        "a refused batch counts as a failed commit"
    );
    assert!(counter("query.executed") > 0, "queries");
    assert!(hist_count("query.exec.latency_ns") > 0, "query latency");

    // Exposition formats parse: every Prometheus line is a comment or a
    // `name value` pair; the JSON is non-empty and brace-balanced.
    let prom = snap.to_prometheus();
    assert!(!prom.is_empty());
    for line in prom.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().unwrap();
        assert!(name.starts_with("aion_"), "metric name prefix: {line}");
        let value = parts.next().unwrap_or_else(|| panic!("no value: {line}"));
        assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        assert!(parts.next().is_none(), "trailing tokens: {line}");
    }
    let json = snap.to_json();
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced JSON"
    );
    assert!(json.contains("\"counters\""));
}

/// The replication layer's metrics (`server.repl.*`, `repl.replay.*`,
/// `client.route.*`) must read back non-zero after a replicated
/// workload that exercises shipping, replay, a stale rejection, a
/// read-only rejection, and routed reads.
#[test]
fn repl_metrics_read_back_after_replication() {
    use aion_server::{Client, ClientConfig, RoutedClient, Server, ServerConfig};
    use repl::{LogShipper, Replayer, ReplayerConfig};
    let _serial = serial();

    let pdir = tempdir().unwrap();
    let rdir = tempdir().unwrap();
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let replica = Arc::new(Aion::open(AionConfig::new(rdir.path())).unwrap());

    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let mut rcfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    rcfg.sync_every = 1;
    let mut replayer = Replayer::start(replica.clone(), rcfg);

    let mut primary_srv = Server::start(primary.clone()).unwrap();
    let mut replica_srv = Server::start_with(
        replica.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A read-only rejection and a stale rejection, straight at the replica.
    let mut direct = Client::connect(replica_srv.addr()).unwrap();
    assert!(direct.run("CREATE (n {_id: 999})", vec![]).is_err());
    assert!(direct
        .run_with_watermark("MATCH (n) RETURN count(n)", vec![], u64::MAX)
        .is_err());

    // Replicated writes plus routed reads.
    let mut router = RoutedClient::new(
        primary_srv.addr(),
        vec![replica_srv.addr()],
        ClientConfig::default(),
    );
    for i in 1..=8 {
        router
            .run(&format!("CREATE (n:R {{_id: {i}}})"), vec![])
            .unwrap();
        router
            .run(&format!("MATCH (n) WHERE id(n) = {i} RETURN n"), vec![])
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.latest_ts() != primary.latest_ts() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(replica.latest_ts(), primary.latest_ts());

    let snap = obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    // Primary side: frames went out and came back acked.
    assert!(counter("server.repl.frames_shipped") > 0, "frames shipped");
    assert!(counter("server.repl.frames_acked") > 0, "frames acked");
    assert!(counter("server.repl.stale_rejects") > 0, "stale rejects");
    assert!(
        counter("server.repl.read_only_rejects") > 0,
        "read-only rejects"
    );
    // Replica side: frames applied, durable watermark tracked.
    assert!(counter("repl.replay.frames_applied") > 0, "frames applied");
    assert_eq!(
        snap.gauge("repl.replay.watermark_ts"),
        Some(i64::try_from(replayer.watermark().ts).unwrap()),
        "watermark gauge tracks the durable watermark"
    );
    // Router: writes hit the primary, and every logical call was counted.
    assert!(counter("client.route.primary_writes") >= 8, "routed writes");
    assert!(
        counter("client.route.replica_reads") + counter("client.route.primary_reads") >= 8,
        "routed reads"
    );
    // The new metrics flow through exposition like every other layer.
    let prom = snap.to_prometheus();
    assert!(prom.contains("aion_server_repl_frames_shipped"));
    assert!(prom.contains("aion_repl_replay_watermark_ts"));

    primary_srv.shutdown();
    replica_srv.shutdown();
    replayer.shutdown();
    shipper.shutdown();
}

/// The failover layer's metrics (`repl.epoch`, `server.writes_fenced`,
/// `repl.divergent_frames_archived`, `client.route.failovers`) must
/// read back after a fenced write, a rejoin quarantine, and a routed
/// failover — and appear in both exposition formats.
#[test]
fn failover_metrics_read_back() {
    use aion_server::{ClientConfig, RoutedClient, Server};
    use repl::{prepare_rejoin, ReplNode};
    use vfs::VfsRef;
    let _serial = serial();

    // A fenced write: the node learns of a newer epoch, so the server
    // refuses the commit with the typed error and counts it.
    let fdir = tempdir().unwrap();
    let fenced_db = Arc::new(Aion::open(AionConfig::new(fdir.path())).unwrap());
    let mut fenced_srv = Server::start(fenced_db.clone()).unwrap();
    fenced_db.observe_epoch(5);
    let mut client = aion_server::Client::connect(fenced_srv.addr()).unwrap();
    let err = client
        .run("CREATE (n {_id: 1})", vec![])
        .expect_err("fenced node must refuse the write");
    assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);

    // A rejoin quarantine: a node with three epoch-0 commits meets a
    // primary already at epoch 1 (fork at ts 0) — all three frames are
    // archived and counted.
    let ddir = tempdir().unwrap();
    {
        let deposed = Aion::open(AionConfig::new(ddir.path())).unwrap();
        for i in 1..=3 {
            deposed
                .write(|tx| tx.add_node(NodeId::new(i), vec![], vec![]))
                .unwrap();
        }
        deposed.sync().unwrap();
    }
    let pdir = tempdir().unwrap();
    let new_primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let node = ReplNode::new_primary(new_primary.clone(), VfsRef::std(), pdir.path()).unwrap();
    node.epochs().bump(0).unwrap();
    let report = prepare_rejoin(
        &VfsRef::std(),
        ddir.path(),
        node.shipper_addr().unwrap(),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(report.archived_frames, 3);

    // A routed failover: the configured primary is unreachable, the
    // probe finds a writable node, and the route moves.
    let tdir = tempdir().unwrap();
    let target_db = Arc::new(Aion::open(AionConfig::new(tdir.path())).unwrap());
    let mut target_srv = Server::start(target_db.clone()).unwrap();
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut router = RoutedClient::new(
        dead,
        vec![target_srv.addr()],
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 0,
            ..ClientConfig::default()
        },
    );
    router.run("CREATE (n {_id: 10})", vec![]).unwrap();

    let snap = obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(counter("server.writes_fenced") >= 1, "fenced writes");
    assert!(
        counter("repl.divergent_frames_archived") >= 3,
        "archived frames"
    );
    assert!(counter("client.route.failovers") >= 1, "route failovers");
    assert!(snap.gauge("repl.epoch").is_some(), "epoch gauge");

    // All four flow through both exposition formats.
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    for (prom_name, json_name) in [
        ("aion_server_writes_fenced", "\"server.writes_fenced\""),
        (
            "aion_repl_divergent_frames_archived",
            "\"repl.divergent_frames_archived\"",
        ),
        ("aion_client_route_failovers", "\"client.route.failovers\""),
        ("aion_repl_epoch", "\"repl.epoch\""),
    ] {
        assert!(
            prom.contains(prom_name),
            "{prom_name} missing in Prometheus"
        );
        assert!(json.contains(json_name), "{json_name} missing in JSON");
    }

    fenced_srv.shutdown();
    target_srv.shutdown();
    drop(node);
}
