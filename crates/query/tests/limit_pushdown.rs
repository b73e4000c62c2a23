//! LIMIT pushdown regression gate: `RETURN … LIMIT k` over a large graph
//! must touch O(k) lineage index entries — not the whole index — and a
//! paged drain must never materialize more than one page of rows at a
//! time; and `LIMIT k` over a hub's edges must resolve O(k) neighbours.
//! All are asserted through the process-wide obs counters, so the tests
//! serialize on a lock to keep their deltas isolated.

use aion::{Aion, AionConfig};
use lpg::{NodeId, RelId};
use query::{execute, execute_paged, ExecBudget, Params, QueryResult};
use tempfile::tempdir;

/// Serializes tests that read deltas of process-global counters.
#[allow(
    clippy::disallowed_types,
    reason = "held around whole queries, outside every lock::Rank: a test-only lock"
)]
static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const NODES: u64 = 20_000;
const RELS_PER_NODE: u64 = 3; // 60k edges

/// Builds the 20k-node / 60k-edge ring lattice through the transaction
/// API (Cypher would dominate the test's runtime), then waits for the
/// lineage index so the streaming scan path serves the reads.
fn big_db() -> (tempfile::TempDir, Aion) {
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    for chunk in (0..NODES).collect::<Vec<u64>>().chunks(1000) {
        let ids = chunk.to_vec();
        db.write(|txn| {
            for i in &ids {
                txn.add_node(NodeId::new(*i), vec![], vec![])?;
            }
            Ok(())
        })
        .unwrap();
    }
    for chunk in (0..NODES).collect::<Vec<u64>>().chunks(1000) {
        let ids = chunk.to_vec();
        db.write(|txn| {
            for i in &ids {
                for k in 0..RELS_PER_NODE {
                    txn.add_rel(
                        RelId::new(i * RELS_PER_NODE + k),
                        NodeId::new(*i),
                        NodeId::new((i + k + 1) % NODES),
                        None,
                        vec![],
                    )?;
                }
            }
            Ok(())
        })
        .unwrap();
    }
    db.lineage_barrier(db.latest_ts());
    (dir, db)
}

#[test]
fn limit_touches_o_of_limit_index_entries() {
    let _guard = METRICS_LOCK.lock().unwrap();
    let (_d, db) = big_db();
    let touched = obs::counter("lineage.stream.entries_touched");
    let params = Params::new();

    // LIMIT 10: the stream stops after ten entities, so only a handful
    // of index entries are ever examined.
    let before = touched.get();
    let r = execute(&db, "MATCH (n) RETURN id(n) LIMIT 10", &params).unwrap();
    assert_eq!(r.rows.len(), 10);
    let limited = touched.get() - before;
    assert!(
        (10..=64).contains(&limited),
        "LIMIT 10 must touch O(LIMIT) index entries, touched {limited}"
    );

    // Control: without LIMIT the same scan walks the full index, proving
    // the counter measures what the assertion above relies on.
    let before = touched.get();
    let r = execute(&db, "MATCH (n) RETURN id(n)", &params).unwrap();
    assert_eq!(r.rows.len(), NODES as usize);
    let full = touched.get() - before;
    assert!(
        full >= NODES,
        "unlimited scan should touch at least one entry per node, touched {full}"
    );
}

#[test]
fn paged_scan_materializes_at_most_one_page() {
    let _guard = METRICS_LOCK.lock().unwrap();
    let (_d, db) = big_db();
    let streamed = obs::counter("query.rows_streamed");
    let params = Params::new();
    let q = "MATCH (n) RETURN id(n)";

    let mut rows = Vec::new();
    let mut cursor: Option<Vec<u8>> = None;
    let mut started = false;
    let drain_before = streamed.get();
    while !started || cursor.is_some() {
        started = true;
        let before = streamed.get();
        let page = execute_paged(
            &db,
            q,
            &params,
            ExecBudget::unlimited(),
            64,
            cursor.take().as_deref(),
        )
        .unwrap();
        let delta = streamed.get() - before;
        assert!(
            delta <= 64,
            "one page must stream at most page_size rows, streamed {delta}"
        );
        assert!(page.result.rows.len() <= 64);
        assert_eq!(page.result.rows.len() as u64, delta);
        rows.extend(page.result.rows);
        cursor = page.cursor;
    }
    assert_eq!(rows.len(), NODES as usize);
    // Paging re-reads nothing and skips nothing: over the whole drain the
    // counter grows by exactly the result's row count.
    assert_eq!(streamed.get() - drain_before, rows.len() as u64);

    // The paged drain and the one-shot scan agree end to end, and the
    // one-shot scan streams each row once too.
    let before = streamed.get();
    let full: QueryResult = execute(&db, q, &params).unwrap();
    assert_eq!(streamed.get() - before, full.rows.len() as u64);
    assert_eq!(full.rows, rows);
}

/// LIMIT bounds the pull for traversals too: over a hub with 1200
/// out-edges, `RETURN m LIMIT 5` resolves five neighbours, not one per
/// edge. No counter counts `get_node` calls, so the B+Tree page reads
/// they cost stand in: the same pattern without an end variable (no
/// neighbour lookups at all) is the floor, the unlimited query the
/// control.
#[test]
fn limit_bounds_neighbour_lookups_on_a_hub() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const EDGES: u64 = 1200;
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    db.write(|txn| {
        for i in 0..=EDGES {
            txn.add_node(NodeId::new(i), vec![], vec![])?;
        }
        for i in 1..=EDGES {
            txn.add_rel(RelId::new(i), NodeId::new(0), NodeId::new(i), None, vec![])?;
        }
        Ok(())
    })
    .unwrap();
    db.lineage_barrier(db.latest_ts());

    let reads = obs::counter("btree.page.reads");
    let mut params = Params::new();
    params.insert("hub".into(), query::Value::Int(0));
    let page_reads = |q: &str, rows: usize| {
        let before = reads.get();
        assert_eq!(execute(&db, q, &params).unwrap().rows.len(), rows, "{q}");
        reads.get() - before
    };
    let floor = page_reads(
        "MATCH (n)-[r]->() WHERE id(n) = $hub RETURN r",
        EDGES as usize,
    );
    let limited = page_reads("MATCH (n)-[r]->(m) WHERE id(n) = $hub RETURN m LIMIT 5", 5);
    let full = page_reads(
        "MATCH (n)-[r]->(m) WHERE id(n) = $hub RETURN m",
        EDGES as usize,
    );
    assert!(
        limited <= floor + 5 * 16,
        "LIMIT 5 must resolve O(LIMIT) neighbours: {limited} page reads vs floor {floor}"
    );
    assert!(
        full >= floor + EDGES,
        "unlimited resolves every neighbour: {full} page reads vs floor {floor}"
    );
}
