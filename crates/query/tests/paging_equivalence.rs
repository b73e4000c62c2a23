//! Pagination equivalence battery: for every page size, draining a paged
//! execution must concatenate to *exactly* the unpaged result, for every
//! bind source and sink — and the node-scan shapes must in turn match a
//! test-local oracle evaluated straight over the snapshot graph, sharing
//! no filter or projection code with the executor. Cursor tokens must
//! survive round-trips and reject every truncation and bit-flip rather
//! than mis-resuming.

use aion::{Aion, AionConfig};
use lpg::{GraphError, PropertyValue};
use proptest::prelude::*;
use query::{execute, execute_paged, ExecBudget, Params, QueryResult, Value};
use tempfile::tempdir;

fn db() -> (tempfile::TempDir, Aion) {
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    (dir, db)
}

fn exec(db: &Aion, q: &str) -> QueryResult {
    execute(db, q, &Params::new()).unwrap_or_else(|e| panic!("{q}: {e}"))
}

/// Seeds `n` nodes: even ids are `Person`, odd ids are `Org`, each with a
/// `v` property equal to its id; a ring `i → i+1` (rel ids `i`) plus hub
/// edges `0 → i` (rel ids `100+i`, so `0 → 1` is a multi-edge); and two
/// later updates of node 0 so it has a three-version history. Waits for
/// the lineage index so node scans walk it.
fn seed(db: &Aion, n: u64) {
    for i in 0..n {
        let label = if i % 2 == 0 { "Person" } else { "Org" };
        exec(db, &format!("CREATE (x:{label} {{_id: {i}, v: {i}}})"));
    }
    for i in 0..n {
        for (rid, src, tgt) in [(i, i, (i + 1) % n), (100 + i, 0, i)] {
            exec(
                db,
                &format!(
                    "MATCH (a), (b) WHERE id(a) = {src} AND id(b) = {tgt} \
                     CREATE (a)-[:E {{_id: {rid}}}]->(b)"
                ),
            );
        }
    }
    for w in 1..=2 {
        exec(db, &format!("MATCH (x) WHERE id(x) = 0 SET x.w = {w}"));
    }
    db.lineage_barrier(db.latest_ts());
}

/// Drains a paged execution at `page_size`, asserting each page is at
/// most one page of rows, then returns the concatenation.
fn drain_pages(db: &Aion, q: &str, page_size: usize) -> QueryResult {
    let params = Params::new();
    let mut cursor: Option<Vec<u8>> = None;
    let mut out: Option<QueryResult> = None;
    let mut pinned = None;
    for _round in 0..10_000 {
        let page = execute_paged(
            db,
            q,
            &params,
            ExecBudget::unlimited(),
            page_size,
            cursor.as_deref(),
        )
        .unwrap_or_else(|e| panic!("{q} (page_size {page_size}): {e}"));
        assert!(
            page.result.rows.len() <= page_size.max(1),
            "page overflowed: {} rows at page_size {page_size}",
            page.result.rows.len()
        );
        // Every page of one drain is pinned to the same snapshot.
        match pinned {
            None => pinned = Some(page.snapshot_ts),
            Some(ts) => assert_eq!(ts, page.snapshot_ts, "snapshot drifted between pages"),
        }
        match &mut out {
            None => out = Some(page.result),
            Some(acc) => {
                assert_eq!(acc.columns, page.result.columns);
                acc.rows.extend(page.result.rows);
            }
        }
        match page.cursor {
            Some(c) => cursor = Some(c),
            None => return out.expect("at least one page"),
        }
    }
    panic!("paged drain of {q} did not terminate");
}

/// A node-scan query, kept structurally so the oracle never parses
/// Cypher: `MATCH (n[:label]) [WHERE id(n) = id | n.v >= min_v]
/// RETURN ret [ORDER BY n.v DESC] [LIMIT limit]`.
#[derive(Clone, Copy, Default, Debug)]
struct Scan {
    label: Option<&'static str>,
    id: Option<u64>,
    min_v: Option<i64>,
    ret: Ret,
    desc_by_v: bool,
    limit: Option<usize>,
}

#[derive(Clone, Copy, Default, Debug)]
enum Ret {
    #[default]
    Node,
    Id,
    V,
}

impl Ret {
    fn text(self) -> &'static str {
        match self {
            Ret::Node => "n",
            Ret::Id => "id(n)",
            Ret::V => "n.v",
        }
    }
}

impl Scan {
    fn text(&self) -> String {
        let label = self.label.map(|l| format!(":{l}")).unwrap_or_default();
        let filter = match (self.id, self.min_v) {
            (Some(id), _) => format!(" WHERE id(n) = {id}"),
            (None, Some(v)) => format!(" WHERE n.v >= {v}"),
            (None, None) => String::new(),
        };
        let ret = self.ret.text();
        let order = if self.desc_by_v {
            " ORDER BY n.v DESC"
        } else {
            ""
        };
        let limit = self
            .limit
            .map(|l| format!(" LIMIT {l}"))
            .unwrap_or_default();
        format!("MATCH (n{label}){filter} RETURN {ret}{order}{limit}")
    }

    /// The expected result, straight from the snapshot graph: sorted ids →
    /// label/id/property filter → sort → projection → LIMIT.
    fn oracle(&self, db: &Aion) -> QueryResult {
        let g = db.get_graph_at(db.latest_ts()).unwrap();
        let name = |id| db.interner().resolve(id).unwrap().to_string();
        let v_of = |n: &lpg::Node| match n.prop(db.intern("v")) {
            Some(PropertyValue::Int(v)) => *v,
            other => panic!("seeded nodes carry an integer v, got {other:?}"),
        };
        let mut nodes: Vec<&lpg::Node> = g.nodes().collect();
        nodes.sort_by_key(|n| n.id);
        nodes.retain(|n| {
            self.label
                .is_none_or(|l| n.labels.iter().any(|x| name(*x) == l))
                && self.id.is_none_or(|id| n.id.raw() == id)
                && self.min_v.is_none_or(|v| v_of(n) >= v)
        });
        if self.desc_by_v {
            nodes.sort_by_key(|n| std::cmp::Reverse(v_of(n)));
        }
        nodes.truncate(self.limit.unwrap_or(usize::MAX));
        let cell = |n: &lpg::Node| match self.ret {
            Ret::Id => Value::Int(n.id.raw() as i64),
            Ret::V => Value::Int(v_of(n)),
            Ret::Node => Value::Node {
                id: n.id.raw(),
                labels: n.labels.iter().map(|l| name(*l)).collect(),
                props: n
                    .props
                    .iter()
                    .map(|(k, v)| match v {
                        PropertyValue::Int(v) => (name(*k), Value::Int(*v)),
                        other => panic!("seeded properties are integers, got {other:?}"),
                    })
                    .collect(),
                valid: None,
            },
        };
        QueryResult {
            columns: vec![self.ret.text().to_string()],
            rows: nodes.into_iter().map(|n| vec![cell(n)]).collect(),
        }
    }
}

/// Node scans with and without label filters, predicates, projections,
/// LIMIT, ORDER BY and an id anchor (bare and labelled).
fn scans(limit: usize, anchor: u64, threshold: i64) -> Vec<Scan> {
    let all = Scan::default();
    let (person, org) = (Some("Person"), Some("Org"));
    let limit = Some(limit);
    vec![
        all,
        Scan {
            label: person,
            ..all
        },
        Scan {
            ret: Ret::Id,
            limit,
            ..all
        },
        Scan {
            label: person,
            min_v: Some(threshold),
            ret: Ret::V,
            limit,
            ..all
        },
        Scan {
            id: Some(anchor),
            ..all
        },
        Scan {
            label: org,
            id: Some(anchor),
            ..all
        },
        Scan {
            label: org,
            ret: Ret::V,
            desc_by_v: true,
            ..all
        },
        Scan {
            label: org,
            ret: Ret::V,
            desc_by_v: true,
            limit,
            ..all
        },
    ]
}

/// Every other bind source and sink: relationship by id, 1-hop, n-hop,
/// aggregates, and a system-time window returning a version history.
fn traversals(db: &Aion, anchor: u64) -> Vec<String> {
    vec![
        format!("MATCH ()-[r]->() WHERE id(r) = {anchor} RETURN r"),
        "MATCH (n)-[r]->(m) WHERE id(n) = 0 RETURN id(m)".into(),
        "MATCH (n)-[r]->(m) WHERE id(n) = 0 RETURN r".into(),
        format!("MATCH (n)-[*2]->(m) WHERE id(n) = {anchor} RETURN id(m)"),
        "MATCH (n) RETURN count(n)".into(),
        "MATCH (n:Person) WHERE n.v >= 2 RETURN count(n)".into(),
        format!(
            "USE GDB FOR SYSTEM_TIME FROM 0 TO {} MATCH (n) WHERE id(n) = 0 RETURN n",
            db.latest_ts() + 1
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Paging with every page size in {1, 3, 7, ∞} concatenates to the
    /// exact unpaged result — order, dedup and LIMIT interaction included
    /// — and node scans match the snapshot-graph oracle.
    #[test]
    fn paged_concat_equals_unpaged(
        n in 1u64..24,
        limit in 1usize..20,
        anchor in 0u64..30,
        threshold in 0i64..24,
    ) {
        let (_d, db) = db();
        seed(&db, n);
        let mut queries = traversals(&db, anchor % n);
        for scan in scans(limit, anchor, threshold) {
            let unpaged = exec(&db, &scan.text());
            prop_assert_eq!(&unpaged, &scan.oracle(&db), "executor diverged from oracle on {:?}", scan);
            queries.push(scan.text());
        }
        for q in queries {
            let unpaged = exec(&db, &q);
            for page_size in [1usize, 3, 7, usize::MAX] {
                let paged = drain_pages(&db, &q, page_size);
                prop_assert_eq!(&paged, &unpaged, "page_size {} diverged on {}", page_size, q);
            }
        }
    }

    /// Corrupted cursors — every truncation and every single-bit flip —
    /// are rejected with a typed error; resuming from garbage never
    /// succeeds (which could silently skip or duplicate rows).
    #[test]
    fn corrupted_cursors_always_rejected(n in 4u64..16) {
        let (_d, db) = db();
        seed(&db, n);
        let params = Params::new();
        let q = "MATCH (n) RETURN n";
        let first = execute_paged(&db, q, &params, ExecBudget::unlimited(), 2, None).unwrap();
        let token = first.cursor.expect("more than one page must remain");

        // Round-trip sanity: the untouched token resumes fine.
        execute_paged(&db, q, &params, ExecBudget::unlimited(), 2, Some(&token)).unwrap();

        for cut in 0..token.len() {
            let r = execute_paged(&db, q, &params, ExecBudget::unlimited(), 2, Some(&token[..cut]));
            prop_assert!(
                matches!(r, Err(GraphError::CursorInvalid(_))),
                "truncation at {} must be CursorInvalid", cut
            );
        }
        for byte in 0..token.len() {
            for bit in 0..8 {
                let mut bad = token.clone();
                bad[byte] ^= 1 << bit;
                let r = execute_paged(&db, q, &params, ExecBudget::unlimited(), 2, Some(&bad));
                prop_assert!(
                    matches!(r, Err(GraphError::CursorInvalid(_))),
                    "bit flip at byte {} bit {} must be CursorInvalid", byte, bit
                );
            }
        }

        // A valid token from one query must not resume a different query.
        let other = "MATCH (n) RETURN id(n)";
        let r = execute_paged(&db, other, &params, ExecBudget::unlimited(), 2, Some(&token));
        prop_assert!(matches!(r, Err(GraphError::CursorInvalid(_))));
    }
}

/// LIMIT spanning multiple pages: the pages stop exactly at the limit,
/// never over-serving, and the final page carries no cursor.
#[test]
fn limit_exhausts_across_pages() {
    let (_d, db) = db();
    seed(&db, 20);
    let q = "MATCH (n) RETURN id(n) LIMIT 10";
    for page_size in [1usize, 3, 7, usize::MAX] {
        let got = drain_pages(&db, q, page_size);
        assert_eq!(got.rows.len(), 10, "page_size {page_size}");
        assert_eq!(got, exec(&db, q), "page_size {page_size}");
    }
}

/// Writes refuse to page: there is no meaningful cursor over a mutation.
#[test]
fn write_queries_cannot_be_paged() {
    let (_d, db) = db();
    let r = execute_paged(
        &db,
        "CREATE (n:Person {_id: 0})",
        &Params::new(),
        ExecBudget::unlimited(),
        4,
        None,
    );
    assert!(matches!(r, Err(GraphError::ExecError(_))), "got {r:?}");
}

/// A `*k` page resumes by row offset, and each page picks its store again.
/// Here the first page comes from the LineageStore; then the graph grows
/// past the planner's threshold, so the second page, at the same pinned
/// timestamp, comes from the TimeStore. Both stores yield the hits in one
/// order, so no row repeats and none is lost.
#[test]
fn a_k_hop_page_resumes_in_order_when_the_store_changes() {
    let (_d, db) = db();
    let (n, r) = (lpg::NodeId::new, lpg::RelId::new);
    db.write(|txn| {
        for i in 0..100 {
            txn.add_node(n(i), vec![], vec![])?;
        }
        txn.add_rel(r(1), n(0), n(5), None, vec![])?;
        txn.add_rel(r(2), n(0), n(3), None, vec![])
    })
    .unwrap();
    db.lineage_barrier(db.latest_ts());
    let q = "MATCH (a)-[*2]->(b) WHERE id(a) = 0 RETURN id(b)";
    let params = Params::new();
    let first = execute_paged(&db, q, &params, ExecBudget::unlimited(), 1, None).unwrap();
    let pinned = first.snapshot_ts;
    let cursor = first.cursor.expect("a second page");
    db.write(|txn| {
        for i in 0..2_998u64 {
            let (a, b) = (i % 80, (i % 80 + 1 + i / 80) % 80);
            txn.add_rel(r(1_000 + i), n(10 + a), n(10 + b), None, vec![])?;
        }
        Ok(())
    })
    .unwrap();
    let second = execute_paged(&db, q, &params, ExecBudget::unlimited(), 1, Some(&cursor)).unwrap();
    assert_eq!(second.snapshot_ts, pinned);
    let mut rows = first.result.rows;
    rows.extend(second.result.rows);
    if let Some(cursor) = second.cursor {
        let third = execute_paged(&db, q, &params, ExecBudget::unlimited(), 1, Some(&cursor));
        rows.extend(third.unwrap().result.rows);
    }
    let unpaged = exec(
        &db,
        &format!("USE GDB FOR SYSTEM_TIME AS OF {pinned} MATCH (a)-[*2]->(b) WHERE id(a) = 0 RETURN id(b)"),
    );
    assert_eq!(rows, unpaged.rows);
    assert_eq!(rows, vec![vec![Value::Int(3)], vec![Value::Int(5)]]);
}
