//! Client/server integration: Cypher over the wire, concurrent clients,
//! error propagation, shutdown.

use aion::{Aion, AionConfig};
use aion_server::{Client, Server};
use query::Value;
use std::sync::Arc;
use tempfile::tempdir;

/// Statements the server has run.
fn queries(server: &Server) -> u64 {
    server.metrics().counter("server.queries").unwrap_or(0)
}

fn start() -> (tempfile::TempDir, Arc<Aion>, Server) {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    let server = Server::start(db.clone()).unwrap();
    (dir, db, server)
}

#[test]
fn query_over_the_wire() {
    let (_d, db, server) = start();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    client
        .run("CREATE (n:Person {_id: 1, name: 'ada'})", vec![])
        .unwrap();
    client.run("CREATE (n:Person {_id: 2})", vec![]).unwrap();
    db.lineage_barrier(db.latest_ts());
    let r = client
        .run(
            "MATCH (n) WHERE id(n) = $id RETURN n.name",
            vec![("id".into(), Value::Int(1))],
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Str("ada".into())]]);
    let r = client
        .run("MATCH (n:Person) RETURN count(n)", vec![])
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    assert_eq!(queries(&server), 4);
}

#[test]
fn errors_propagate_without_closing_connection() {
    let (_d, _db, server) = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.run("THIS IS NOT CYPHER", vec![]).unwrap_err();
    assert!(err.to_string().contains("parse") || err.to_string().contains("unknown"));
    // Connection still usable.
    client.run("CREATE (n {_id: 5})", vec![]).unwrap();
    let r = client
        .run("MATCH (n) WHERE id(n) = 5 RETURN id(n)", vec![])
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(5)]]);
}

#[test]
fn run_batch_pipelines_statements_in_one_frame() {
    let (_d, db, server) = start();
    let mut client = Client::connect(server.addr()).unwrap();
    // Writes, a failing statement mid-batch, then reads — all one frame.
    let (results, watermark) = client
        .run_batch(
            vec![
                ("CREATE (n:Person {_id: 1, name: 'ada'})".into(), vec![]),
                ("CREATE (n:Person {_id: 2})".into(), vec![]),
                ("THIS IS NOT CYPHER".into(), vec![]),
                (
                    "MATCH (n) WHERE id(n) = $id RETURN n.name".into(),
                    vec![("id".into(), Value::Int(1))],
                ),
            ],
            0,
        )
        .unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    // The parse error is per-statement; the batch keeps going.
    assert!(results[2].is_err());
    let read = results[3].as_ref().unwrap();
    assert_eq!(read.rows, vec![vec![Value::Str("ada".into())]]);
    assert!(watermark >= 2, "watermark reflects the batch's own writes");
    // The writes are visible to later requests on the same connection.
    db.lineage_barrier(db.latest_ts());
    let r = client
        .run("MATCH (n:Person) RETURN count(n)", vec![])
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    // Each batched statement counts toward the query counter.
    assert_eq!(queries(&server), 5);
    // An empty batch is a no-op that still answers.
    let (results, _) = client.run_batch(vec![], 0).unwrap();
    assert!(results.is_empty());
}

#[test]
fn concurrent_clients() {
    let (_d, db, server) = start();
    // Seed.
    {
        let mut c = Client::connect(server.addr()).unwrap();
        for i in 0..20 {
            c.run(
                &format!("CREATE (n:Person {{_id: {i}, v: {}}})", i + 1),
                vec![],
            )
            .unwrap();
        }
        db.lineage_barrier(db.latest_ts());
    }
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut sum = 0i64;
                for i in 0..50 {
                    let id = (t * 7 + i) % 20;
                    let r = c
                        .run(
                            "MATCH (n) WHERE id(n) = $id RETURN n.v",
                            vec![("id".into(), Value::Int(id))],
                        )
                        .unwrap();
                    sum += r.rows[0][0].as_int().unwrap();
                }
                sum
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
    assert_eq!(queries(&server), 220);
}

#[test]
fn shutdown_stops_accepting() {
    let (_d, _db, mut server) = start();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
    // New connections are refused or die immediately.
    let still_up = Client::connect(addr).and_then(|mut c| c.ping()).is_ok();
    assert!(!still_up, "server should not serve after shutdown");
}
