//! A latest-time reader beside a single-statement writer, both through
//! `Server`. Each read pins the version it reads when it starts, so a
//! commit that lands before the read reaches the TimeStore cannot make it
//! rebuild that version: no read loads a snapshot file or replays the log.
//!
//! The obs registry is process-wide, so this binary holds exactly one test.

use aion::{Aion, AionConfig};
use aion_server::{Client, Server, ServerConfig};
use query::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timestore::SnapshotPolicy;

const SEED: u64 = 64;
const WRITER_BASE: u64 = 10_000;

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

/// `(replays, snapshot segments decoded, GraphStore hits)` so far.
fn rebuilds() -> (u64, u64, u64) {
    (
        counter("timestore.snapshot.replays"),
        counter("timestore.snapshot.segments_decoded"),
        counter("timestore.graphstore.hits"),
    )
}

#[test]
fn latest_reads_never_rebuild_the_version_they_pinned() {
    let dir = tempfile::tempdir().unwrap();
    let mut config = AionConfig::new(dir.path());
    // Snapshot files every few commits: a read that lost its version
    // would load one and replay the log from it.
    config.timestore.policy = SnapshotPolicy::EveryNOps(8);
    let db = Arc::new(Aion::open(config).unwrap());
    let server = Server::start_with(db.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr();

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
