//! Cursor pagination over the wire (DESIGN.md §16): streaming scans,
//! per-request result budgets, and resumable snapshot-pinned pages.
//!
//! ```text
//! cargo run --example paging
//! ```

use aion::{Aion, AionConfig};
use aion_server::{Client, Server, ServerConfig};
use query::Value;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let dir = tempfile::tempdir().expect("tempdir");
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).expect("open db"));
    // Arm a server-wide result budget: any single request may return at
    // most 100 rows — larger results must page.
    let server = Server::start_with(
        db.clone(),
        ServerConfig {
            max_result_rows: 100,
            ..ServerConfig::default()
        },
    )?;
    println!("server listening on {}", server.addr());

    let mut client = Client::connect(server.addr())?;
    for i in 0..500 {
        client.run(
            &format!("CREATE (n:Person {{_id: {i}, age: {}}})", 18 + i % 60),
            vec![],
        )?;
    }
    db.lineage_barrier(db.latest_ts());

    // A one-shot scan of all 500 rows trips the 100-row budget with a
    // typed error; the connection survives.
    let err = client
        .run("MATCH (n:Person) RETURN n", vec![])
        .expect_err("500 rows cannot fit a 100-row budget");
    println!("\none-shot scan: {err}");

    // Paging drains the same scan 64 rows at a time. The first page pins
    // the snapshot, so concurrent writers never tear the result; at most
    // one page is materialized at any moment.
    let mut rows = 0usize;
    let mut pages = 0usize;
    for page in client.pages("MATCH (n:Person) RETURN n", vec![], 64) {
        let page = page?;
        rows += page.rows.len();
        pages += 1;
    }
    println!("paged scan:    {rows} rows across {pages} pages of <= 64");

    // Manual cursor handling (what `pages` does under the hood) — useful
    // when pages are fetched across requests or processes.
    let first = client.run_page("MATCH (n:Person) RETURN n.age", vec![], 0, 5, None)?;
    println!(
        "manual page 1: {} rows, cursor: {} bytes",
        first.result.rows.len(),
        first.cursor.as_ref().map_or(0, Vec::len),
    );
    let second = client.run_page("MATCH (n:Person) RETURN n.age", vec![], 0, 5, first.cursor)?;
    println!("manual page 2: {:?}", second.result.rows);

    // A cursor is checksummed and fingerprinted: corruption or resuming
    // it under a different query is rejected, never mis-resumed.
    let mut bad = second.cursor.clone().expect("more pages remain");
    bad[10] ^= 0x40;
    let err = client
        .run_page("MATCH (n:Person) RETURN n.age", vec![], 0, 5, Some(bad))
        .expect_err("corrupt cursor must be rejected");
    println!("bit flip:      {err}");
    let err = client
        .run_page(
            "MATCH (n:Person) RETURN n.age LIMIT 9",
            vec![],
            0,
            5,
            second.cursor,
        )
        .expect_err("cursor minted for another query must be rejected");
    println!("wrong query:   {err}");

    // LIMIT is pushed into the stream: this touches O(3) index entries
    // even though 500 nodes exist.
    let touched = || db.metrics().counter("lineage.stream.entries_touched");
    let before = touched().unwrap_or(0);
    let r = client.run("MATCH (n:Person) RETURN id(n) LIMIT 3", vec![])?;
    let ids: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
    println!(
        "LIMIT 3:       {ids:?} ({} index entries touched)",
        touched().unwrap_or(0) - before
    );

    Ok(())
}
