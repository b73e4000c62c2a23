//! Client/server mode: temporal Cypher over the Bolt-style protocol
//! (Sec. 6.7) — the way an application would actually use Aion.
//!
//! ```text
//! cargo run --example cypher_server
//! ```

use aion::{Aion, AionConfig};
use aion_server::{Client, Server};
use query::Value;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let dir = tempfile::tempdir().expect("tempdir");
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).expect("open db"));
    let server = Server::start(db.clone())?;
    println!("server listening on {}", server.addr());

    let mut client = Client::connect(server.addr())?;
    client.ping()?;

    // Build a small social graph over the wire.
    for (id, name_, age) in [(1, "ada", 36), (2, "bob", 29), (3, "cyd", 41)] {
        client.run(
            &format!("CREATE (n:Person {{_id: {id}, name: '{name_}', age: {age}}})"),
            vec![],
        )?;
    }
    client.run(
        "MATCH (a), (b) WHERE id(a) = 1 AND id(b) = 2 CREATE (a)-[:KNOWS {_id: 1}]->(b)",
        vec![],
    )?;
    client.run(
        "MATCH (a), (b) WHERE id(a) = 2 AND id(b) = 3 CREATE (a)-[:KNOWS {_id: 2}]->(b)",
        vec![],
    )?;
    let before_update = db.latest_ts();
    client.run("MATCH (n) WHERE id(n) = 2 SET n.age = 30", vec![])?;
    db.lineage_barrier(db.latest_ts());

    // Parameterized point lookup.
    let r = client.run(
        "MATCH (n) WHERE id(n) = $id RETURN n.name, n.age",
        vec![("id".into(), Value::Int(2))],
    )?;
    println!("\nnow:   bob = {:?}", r.rows[0]);

    // Time travel over the wire.
    let r = client.run(
        &format!("USE GDB FOR SYSTEM_TIME AS OF {before_update} MATCH (n) WHERE id(n) = 2 RETURN n.name, n.age"),
        vec![],
    )?;
    println!("was:   bob = {:?}", r.rows[0]);

    // Variable-hop expansion (Fig. 1b).
    let last = db.latest_ts();
    let r = client.run(
        &format!(
            "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n)-[*2]->(m) WHERE id(n) = 1 RETURN id(m)"
        ),
        vec![],
    )?;
    println!(
        "\nada's 2-hop neighbourhood: {:?}",
        r.rows.iter().map(|row| row[0].clone()).collect::<Vec<_>>()
    );

    // Aggregate scan.
    let r = client.run("MATCH (n:Person) RETURN count(n)", vec![])?;
    println!("person count: {}", r.rows[0][0]);
    let queries = server.metrics().counter("server.queries").unwrap_or(0);
    println!("\nserver handled {queries} queries");
    Ok(())
}
