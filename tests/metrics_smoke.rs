//! Observability tests: after a workload runs through the full stack —
//! ingest, snapshots, reopen, historical reads, temporal Cypher —
//! `Aion::metrics()` must report non-zero activity in every layer, both
//! exposition formats must be well-formed, and every metric an instance
//! registers must be in DESIGN.md's catalogue. Each instance counts into
//! its own registry, so the tests assert exact counts of the instances
//! they drive.

use aion::{Aion, AionConfig};
use aion_server::{Client, Server, ServerConfig};
use aion_suite::*;
use lpg::{Direction, NodeId};
use query::Value;
use repl::{LogShipper, Replayer, ReplayerConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;

/// Waits up to ten seconds for the replica to reach the primary's latest
/// commit.
fn converge(primary: &Aion, replica: &Aion) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.latest_ts() != primary.latest_ts() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(replica.latest_ts(), primary.latest_ts());
}

#[test]
fn metrics_cover_every_layer_after_a_workload() {
    let spec = workload::DATASETS[0].scaled(0.0005);
    let w = workload::generate(spec, 11);
    let dir = tempdir().unwrap();

    // Ingest, snapshot, close.
    let ingest = {
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
        db.metrics()
    };

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
    let ingested = |name: &str| ingest.counter(name).unwrap_or(0);

    // Pagestore: the reopened index reads pages from disk.
    assert!(
        counter("pagestore.cache.hits") + counter("pagestore.cache.misses") > 0,
        "pagestore cache traffic"
    );
    assert!(counter("btree.page.reads") > 0, "btree page reads");
    // Timestore: ingest appended to the log; the reopen + historical reads
    // replayed deltas onto snapshot bases.
    assert!(ingested("timestore.log.appends") > 0, "log appends");
    assert!(
        counter("timestore.snapshot.replays") > 0,
        "snapshot replays"
    );
    assert!(hist_count("timestore.snapshot.replay.latency_ns") > 0);
    // Lineagestore: the cascade applied every commit.
    assert!(
        ingested("lineagestore.updates.applied") > 0,
        "lineage ingest"
    );
    // Core + query: commits and the executed statement were timed.
    assert!(ingested("core.commits") > 0, "commits");
    let commit_latency = ingest.histogram("core.commit.latency_ns");
    assert!(commit_latency.is_some_and(|h| h.count > 0));
    // Group commit: every commit belongs to a log-writer group, and the
    // ingest loop's explicit `sync()` above flushed an unsynced log tail.
    let groups = ingest
        .histogram("core.group_commit.size")
        .expect("group size");
    assert!(groups.count > 0, "group commit groups formed");
    assert_eq!(
        groups.sum,
        ingested("core.commits"),
        "histogram sum counts every grouped commit"
    );
    assert!(
        ingested("core.group_commit.forced_flushes") > 0,
        "explicit sync with an unsynced log tail is a forced flush"
    );
    // A failed commit counts in `core.commits_failed`, not `core.commits`:
    // the reopened instance has committed nothing yet.
    assert_eq!(counter("core.commits"), 0);
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
    use aion_server::{ClientConfig, RoutedClient};

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
    converge(&primary, &replica);

    // Primary side: frames went out and came back acked.
    let shipped = shipper.metrics();
    let counter = |name: &str| shipped.counter(name).unwrap_or(0);
    assert!(counter("server.repl.frames_shipped") > 0, "frames shipped");
    assert!(counter("server.repl.frames_acked") > 0, "frames acked");
    // The replica's server refused the direct write, and stale reads: the
    // direct one, and routed ones that reached it before their write.
    let served = replica_srv.metrics();
    let counter = |name: &str| served.counter(name).unwrap_or(0);
    assert!(counter("server.repl.stale_rejects") > 0, "stale rejects");
    assert_eq!(
        counter("server.repl.read_only_rejects"),
        1,
        "read-only rejects"
    );
    // Replica side: frames applied, durable watermark tracked.
    let replayed = replayer.metrics();
    let applied = replayed.counter("repl.replay.frames_applied");
    assert!(applied.unwrap_or(0) > 0, "frames applied");
    assert_eq!(
        replayed.gauge("repl.replay.watermark_ts"),
        Some(i64::try_from(replayer.watermark().ts).unwrap()),
        "watermark gauge tracks the durable watermark"
    );
    // Router: writes hit the primary, and every logical call was counted.
    // The router counts process-wide.
    let snap = obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
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
    use aion_server::{ClientConfig, RoutedClient};
    use repl::{prepare_rejoin, ReplNode};
    use vfs::VfsRef;

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

/// A latest-time reader beside a single-statement writer, both through
/// `Server`. Each read pins the version it reads when it starts, so a
/// commit that lands before the read reaches the TimeStore cannot make it
/// rebuild that version: no read loads a snapshot file or replays the log.
#[test]
fn latest_reads_never_rebuild_the_version_they_pinned() {
    const SEED: u64 = 64;
    const WRITER_BASE: u64 = 10_000;
    let dir = tempdir().unwrap();
    let mut config = AionConfig::new(dir.path());
    // Snapshot files every few commits: a read that lost its version
    // would load one and replay the log from it.
    config.timestore.policy = timestore::SnapshotPolicy::EveryNOps(8);
    let db = Arc::new(Aion::open(config).unwrap());
    let server = Server::start_with(db.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr();
    // `(replays, snapshot segments decoded, GraphStore hits)` so far.
    let rebuilds = || {
        let snap = db.metrics();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        (
            counter("timestore.snapshot.replays"),
            counter("timestore.snapshot.segments_decoded"),
            counter("timestore.graphstore.hits"),
        )
    };

    let mut client = Client::connect(addr).unwrap();
    for i in 0..SEED {
        client
            .run(&format!("CREATE (n:Base {{_id: {i}}})"), Vec::new())
            .unwrap();
    }
    db.lineage_barrier(db.latest_ts());
    let before = rebuilds();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                client
                    .run(
                        &format!("CREATE (n:Churn {{_id: {}}})", WRITER_BASE + i),
                        Vec::new(),
                    )
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    // Whole-graph counts always read the TimeStore at the latest time;
    // point reads do whenever the LineageStore lags.
    let deadline = Instant::now() + Duration::from_secs(2);
    let (mut counts, mut points) = (0u64, 0u64);
    while Instant::now() < deadline {
        let result = client.run("MATCH (n) RETURN count(n)", Vec::new()).unwrap();
        match result.rows.as_slice() {
            [row] => assert!(matches!(row.as_slice(), [Value::Int(n)] if *n >= SEED as i64)),
            rows => panic!("one count row expected, got {rows:?}"),
        }
        counts += 1;
        let id = Value::Int((points % SEED) as i64);
        let result = client
            .run(
                "MATCH (n) WHERE id(n) = $id RETURN id(n)",
                vec![("id".into(), id.clone())],
            )
            .unwrap();
        assert_eq!(result.rows, vec![vec![id]]);
        points += 1;
    }
    stop.store(true, Ordering::Release);
    let written = writer.join().unwrap();
    let after = rebuilds();

    assert!(written > 0, "the writer made no progress");
    assert_eq!(after.0, before.0, "replays during {counts} counts");
    assert_eq!(after.1, before.1, "snapshot segments decoded");
    assert!(after.2 - before.2 >= counts, "every count read its pin");
}

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
    cfg.commit_latency_budget = Duration::from_millis(2);
    let db = Arc::new(Aion::open(cfg).unwrap());

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

    let (groups, commits) = db
        .metrics()
        .histogram("core.group_commit.size")
        .map(|h| (h.count, h.sum))
        .expect("group size histogram exists");
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

/// Every metric name DESIGN.md §9's table documents: each backticked name
/// in a row, its brace group expanded, both as written and under the
/// row's layer prefix.
fn catalogue() -> BTreeSet<String> {
    let design = include_str!("../DESIGN.md");
    let section = design.split("\n## 9.").nth(1).expect("DESIGN.md §9");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| ")) {
        let mut cells = row.split('|').map(str::trim).skip(1);
        let (Some(layer), Some(metrics)) = (cells.next(), cells.next()) else {
            continue;
        };
        for written in metrics.split('`').skip(1).step_by(2) {
            let alternatives = match (written.find('{'), written.find('}')) {
                (Some(open), Some(close)) if open < close => written[open + 1..close]
                    .split(',')
                    .map(|alt| format!("{}{alt}{}", &written[..open], &written[close + 1..]))
                    .collect(),
                _ => vec![written.to_string()],
            };
            for name in alternatives {
                names.insert(format!("{layer}.{name}"));
                names.insert(name);
            }
        }
    }
    names
}

/// DESIGN.md's metric catalogue is tied to the code: every counter, gauge
/// and histogram that an `Aion`, its `Server` and a primary–replica pair
/// register is named in §9's table.
#[test]
fn every_registered_metric_is_in_the_design_catalogue() {
    let (pdir, rdir) = (tempdir().unwrap(), tempdir().unwrap());
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let replica = Arc::new(Aion::open(AionConfig::new(rdir.path())).unwrap());
    let mut server = Server::start(primary.clone()).unwrap();
    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let mut replayer = Replayer::start(
        replica.clone(),
        ReplayerConfig::new(shipper.addr(), rdir.path()),
    );
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..4 {
        client
            .run(&format!("CREATE (n:C {{_id: {i}}})"), Vec::new())
            .unwrap();
    }
    client.run("MATCH (n) RETURN count(n)", Vec::new()).unwrap();
    client.metrics().unwrap();
    converge(&primary, &replica);

    let documented = catalogue();
    let snapshots = [
        primary.metrics(),
        server.metrics(),
        shipper.metrics(),
        replica.metrics(),
        replayer.metrics(),
    ];
    let mut missing = BTreeSet::new();
    for snap in &snapshots {
        let names = snap.counters.iter().map(|(n, _)| n);
        let names = names.chain(snap.gauges.iter().map(|(n, _)| n));
        let names = names.chain(snap.histograms.iter().map(|h| &h.name));
        missing.extend(names.filter(|n| !documented.contains(*n)));
    }
    assert!(
        missing.is_empty(),
        "registered but not in DESIGN.md §9: {missing:?}"
    );

    server.shutdown();
    replayer.shutdown();
    shipper.shutdown();
}
