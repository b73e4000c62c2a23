//! `Request::Metrics` end to end: a client drives queries, then fetches
//! the process-wide metrics snapshot over the wire and sees the work it
//! just caused reflected in every layer.

use aion::{Aion, AionConfig};
use aion_server::{Client, Server};
use query::Value;
use std::sync::Arc;
use tempfile::tempdir;

#[test]
fn metrics_snapshot_travels_over_the_wire() {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let server = Server::start(db.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for i in 0..8 {
        client
            .run(&format!("CREATE (n:Person {{_id: {i}, v: {i}}})"), vec![])
            .unwrap();
    }
    db.lineage_barrier(db.latest_ts());
    let r = client
        .run(
            "MATCH (n) WHERE id(n) = $id RETURN n.v",
            vec![("id".into(), Value::Int(3))],
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)]]);

    let snap = client.metrics().unwrap();

    // The wire snapshot must carry the work the client just generated.
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter {name} missing from wire snapshot"))
    };
    assert!(counter("server.requests") >= 10, "all requests counted");
    assert!(counter("query.executed") >= 9, "queries counted");
    assert!(counter("core.commits") >= 8, "commits counted");
    assert!(counter("timestore.log.appends") >= 8, "log appends counted");
    assert!(
        counter("lineagestore.commits.applied") >= 8,
        "lineage ingest counted"
    );
    let run_hist = snap
        .histogram("server.request.run.latency_ns")
        .expect("run latency histogram on the wire");
    assert!(run_hist.count >= 9);
    assert!(run_hist.sum > 0);
    assert!(run_hist.p50 <= run_hist.p95 && run_hist.p95 <= run_hist.p99);

    // The snapshot equals the process-wide view modulo work recorded after
    // it was taken: every wire counter must be <= the live value now.
    let live = obs::snapshot();
    for (name, v) in &snap.counters {
        let now = live
            .counter(name)
            .unwrap_or_else(|| panic!("counter {name} vanished"));
        assert!(now >= *v, "{name} went backwards: wire {v}, live {now}");
    }
}
