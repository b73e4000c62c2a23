//! Result-budget enforcement at the wire: a `BudgetExceeded` abort is a
//! typed per-request failure, never a wedged connection or a leaked
//! pinned stream, and it composes with the request deadline inside one
//! batch. Paging is the sanctioned escape hatch under the same caps.

use aion::{Aion, AionConfig};
use aion_server::{Client, ClientConfig, Server, ServerConfig};
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::{tempdir, TempDir};

fn test_server(cfg: ServerConfig) -> (TempDir, Arc<Aion>, Server) {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let server = Server::start_with(db.clone(), cfg).unwrap();
    (dir, db, server)
}

fn no_retry() -> ClientConfig {
    ClientConfig {
        retries: 0,
        request_timeout: Duration::from_secs(20),
        ..ClientConfig::default()
    }
}

fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn seed(client: &mut Client, n: u64) {
    for i in 0..n {
        client
            .run(&format!("CREATE (x:Item {{_id: {i}}})"), Vec::new())
            .unwrap();
    }
}

#[test]
fn budget_exceeded_mid_stream_neither_wedges_nor_leaks() {
    let (_dir, db, server) = test_server(ServerConfig {
        max_result_rows: 5,
        ..ServerConfig::default()
    });
    let mut client = Client::connect_with(server.addr(), no_retry()).unwrap();
    seed(&mut client, 40);
    db.lineage_barrier(db.latest_ts());

    let open_streams = || db.metrics().gauge("core.stream.open").unwrap_or(0);

    // The full scan trips the row cap mid-stream with a typed error…
    let err = client.run("MATCH (n) RETURN n", Vec::new()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::OutOfMemory, "got: {err}");
    assert!(
        err.to_string().contains("budget"),
        "error should name the budget, got: {err}"
    );

    // …but the request was aborted, not the connection: the same client
    // keeps working without reconnecting.
    client.ping().unwrap();
    assert_eq!(client.reconnect_count(), 0);
    let small = client
        .run("MATCH (n) WHERE id(n) = 0 RETURN n", Vec::new())
        .unwrap();
    assert_eq!(small.rows.len(), 1);

    // Paging is the sanctioned way out: every page fits the same cap, so
    // the identical scan drains completely, page by page.
    let mut rows = 0usize;
    for page in client.pages("MATCH (n) RETURN n", Vec::new(), 4) {
        rows += page.unwrap().rows.len();
    }
    assert_eq!(rows, 40);

    // No pinned stream leaked from the aborted request, and dropping the
    // client releases the connection.
    assert!(
        wait_for(Duration::from_secs(5), || open_streams() == 0),
        "aborted scan leaked a pinned stream: {}",
        open_streams()
    );
    let baseline = server.active_connections();
    drop(client);
    assert!(
        wait_for(Duration::from_secs(5), || {
            server.active_connections() < baseline
        }),
        "connection not released after client drop"
    );
}

#[test]
fn row_budget_and_deadline_compose_in_one_batch() {
    let (_dir, db, server) = test_server(ServerConfig {
        max_result_rows: 3,
        request_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_with(server.addr(), no_retry()).unwrap();
    seed(&mut client, 12);
    db.lineage_barrier(db.latest_ts());

    // One request, both limits: the scan overruns the row budget, the
    // sleep overruns the deadline — each statement gets its own typed
    // error and neither aborts the batch bookkeeping.
    let started = Instant::now();
    let (results, _watermark) = client
        .run_batch(
            vec![
                ("MATCH (n) RETURN n".to_string(), Vec::new()),
                ("CALL aion.sleep(10000)".to_string(), Vec::new()),
            ],
            0,
        )
        .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "batch must abort near the deadline, not sleep it out"
    );
    assert_eq!(results.len(), 2);
    let budget_err = results[0].as_ref().unwrap_err();
    assert_eq!(
        budget_err.kind(),
        ErrorKind::OutOfMemory,
        "got: {budget_err}"
    );
    let deadline_err = results[1].as_ref().unwrap_err();
    assert_eq!(
        deadline_err.kind(),
        ErrorKind::TimedOut,
        "got: {deadline_err}"
    );
    assert!(
        deadline_err.to_string().contains("deadline"),
        "got: {deadline_err}"
    );

    // The connection survives the double abort.
    client.ping().unwrap();
    assert_eq!(client.reconnect_count(), 0);
}
