//! End-to-end temporal Cypher: the Fig. 1 query shapes plus writes, all
//! executed against a real Aion instance.

use aion::{Aion, AionConfig};
use lpg::GraphError;
use query::{execute, execute_paged, execute_with_budget, ExecBudget, Params, Value};
use std::time::Instant;
use tempfile::tempdir;

fn db() -> (tempfile::TempDir, Aion) {
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    (dir, db)
}

fn exec(db: &Aion, q: &str) -> query::QueryResult {
    execute(db, q, &Params::new()).unwrap_or_else(|e| panic!("{q}: {e}"))
}

/// Builds a five-node chain with labels and properties via Cypher alone.
fn seed(db: &Aion) -> u64 {
    for i in 0..5 {
        exec(
            db,
            &format!(
                "CREATE (n:Person {{_id: {i}, age: {}, name: 'p{i}'}})",
                20 + i
            ),
        );
    }
    for i in 0..4 {
        exec(
            db,
            &format!(
                "MATCH (a), (b) WHERE id(a) = {i} AND id(b) = {} CREATE (a)-[:KNOWS {{_id: {i}}}]->(b)",
                i + 1
            ),
        );
    }
    db.latest_ts()
}

#[test]
fn create_and_point_read() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let r = exec(&db, "MATCH (n) WHERE id(n) = 2 RETURN n");
    assert_eq!(r.rows.len(), 1);
    let Value::Node {
        id, labels, props, ..
    } = &r.rows[0][0]
    else {
        panic!("expected node, got {:?}", r.rows[0][0])
    };
    assert_eq!(*id, 2);
    assert_eq!(labels, &vec!["Person".to_string()]);
    assert!(props.contains(&("age".to_string(), Value::Int(22))));
}

#[test]
fn parameterized_lookup() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let mut params = Params::new();
    params.insert("id".into(), Value::Int(3));
    let r = execute(&db, "MATCH (n) WHERE id(n) = $id RETURN n.name", &params).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Str("p3".into())]]);
    // Missing parameter is an error.
    assert!(execute(
        &db,
        "MATCH (n) WHERE id(n) = $nope RETURN n",
        &Params::new()
    )
    .is_err());
}

#[test]
fn fig1a_history_between() {
    let (_d, db) = db();
    seed(&db);
    // Update node 1's property twice to create history.
    exec(&db, "MATCH (n) WHERE id(n) = 1 SET n.age = 99");
    exec(&db, "MATCH (n) WHERE id(n) = 1 SET n.age = 100");
    let last = db.latest_ts();
    db.lineage_barrier(last);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME BETWEEN 1 AND {} MATCH (n) WHERE id(n) = 1 RETURN n",
        last + 1
    );
    let r = exec(&db, &q);
    assert_eq!(r.rows.len(), 3, "three versions of node 1");
    // Versions carry intervals.
    let Value::Node { valid, .. } = &r.rows[0][0] else {
        panic!()
    };
    assert!(valid.is_some());
}

#[test]
fn fig1b_nhop_lookup() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n)-[*3]->(m) WHERE id(n) = 0 RETURN m"
    );
    let r = exec(&db, &q);
    assert_eq!(r.rows.len(), 3, "nodes 1, 2, 3 within 3 hops");
}

#[test]
fn fig1c_bitemporal_lookup() {
    let (_d, db) = db();
    exec(
        &db,
        "CREATE (n:Event {_id: 50, _app_start: 100, _app_end: 200})",
    );
    exec(&db, "CREATE (n:Event {_id: 51, _app_start: 300})");
    let last = db.latest_ts();
    db.lineage_barrier(last);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n:Event) WHERE id(n) = 50 AND APPLICATION_TIME CONTAINED IN (120, 150) RETURN n"
    );
    assert_eq!(exec(&db, &q).rows.len(), 1);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n:Event) WHERE id(n) = 50 AND APPLICATION_TIME CONTAINED IN (250, 260) RETURN n"
    );
    assert_eq!(exec(&db, &q).rows.len(), 0);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n:Event) WHERE id(n) = 51 AND APPLICATION_TIME CONTAINED IN (350, 360) RETURN n"
    );
    assert_eq!(exec(&db, &q).rows.len(), 1, "open-ended app time");
}

#[test]
fn single_hop_with_rel_binding() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n)-[r:KNOWS]->(m) WHERE id(n) = 1 RETURN r, m"
    );
    let r = exec(&db, &q);
    assert_eq!(r.columns, vec!["r".to_string(), "m".to_string()]);
    assert_eq!(r.rows.len(), 1);
    let Value::Rel {
        src, tgt, rel_type, ..
    } = &r.rows[0][0]
    else {
        panic!()
    };
    assert_eq!((*src, *tgt), (1, 2));
    assert_eq!(rel_type.as_deref(), Some("KNOWS"));
    // Incoming direction.
    let q = format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n)<-[r]-(m) WHERE id(n) = 1 RETURN id(m)"
    );
    let r = exec(&db, &q);
    assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
}

#[test]
fn label_scan_and_count() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let r = exec(&db, "MATCH (n:Person) RETURN count(n)");
    assert_eq!(r.rows, vec![vec![Value::Int(5)]]);
    let r = exec(&db, "MATCH (n:Robot) RETURN count(n)");
    assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    // Property filter.
    let r = exec(&db, "MATCH (n:Person) WHERE n.age >= 22 RETURN count(n)");
    assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
}

/// A node scan over a window binds a row per version of each node the
/// window holds, with its validity, in ascending id order: the rows id
/// lookups over the same window give. Pages resume by row offset.
#[test]
fn window_node_scans_bind_every_version_in_the_window() {
    let (_d, db) = db();
    for i in 0..5 {
        exec(&db, &format!("CREATE (n:Person {{_id: {i}, age: {i}}})"));
    }
    assert_eq!(db.latest_ts(), 5, "node i was created at ts i + 1");
    let ids = |r: &query::QueryResult| -> Vec<u64> {
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Node { id, valid, .. } => {
                    assert!(valid.is_some(), "a version carries its validity");
                    *id
                }
                other => panic!("expected a node, got {other:?}"),
            })
            .collect()
    };
    for (window, want) in [
        ("FROM 0 TO 6", vec![0, 1, 2, 3, 4]),
        ("BETWEEN 0 AND 6", vec![0, 1, 2, 3, 4]),
        ("FROM 1 TO 6", vec![0, 1, 2, 3, 4]),
        ("FROM 0 TO 3", vec![0, 1]),
    ] {
        let q = format!("USE GDB FOR SYSTEM_TIME {window} MATCH (n:Person) RETURN n");
        assert_eq!(ids(&exec(&db, &q)), want, "{q}");
    }
    // Node 1 changes: the window holds two of its versions.
    exec(&db, "MATCH (n) WHERE id(n) = 1 SET n.age = 99");
    db.lineage_barrier(db.latest_ts());
    let q = "USE GDB FOR SYSTEM_TIME FROM 0 TO 7 MATCH (n:Person) RETURN n";
    let scan = exec(&db, q);
    assert_eq!(ids(&scan), vec![0, 1, 1, 2, 3, 4]);
    let mut lookups = Vec::new();
    for i in 0..5 {
        let q = format!("USE GDB FOR SYSTEM_TIME FROM 0 TO 7 MATCH (n) WHERE id(n) = {i} RETURN n");
        lookups.extend(exec(&db, &q).rows);
    }
    assert_eq!(scan.rows, lookups);
    let mut paged = Vec::new();
    let mut cursor: Option<Vec<u8>> = None;
    loop {
        let page = execute_paged(
            &db,
            q,
            &Params::new(),
            ExecBudget::unlimited(),
            2,
            cursor.as_deref(),
        )
        .unwrap();
        paged.extend(page.result.rows);
        match page.cursor {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    assert_eq!(paged, scan.rows);
}

#[test]
fn time_travel_scan() {
    let (_d, db) = db();
    seed(&db);
    let before_delete = db.latest_ts();
    exec(&db, "MATCH ()-[r]->() WHERE id(r) = 0 DELETE r");
    exec(&db, "MATCH (n) WHERE id(n) = 0 DELETE n");
    let after = db.latest_ts();
    db.lineage_barrier(after);
    // Now: 4 persons. Back then: 5.
    let now = exec(&db, "MATCH (n:Person) RETURN count(n)");
    assert_eq!(now.rows, vec![vec![Value::Int(4)]]);
    let then = exec(
        &db,
        &format!("USE GDB FOR SYSTEM_TIME AS OF {before_delete} MATCH (n:Person) RETURN count(n)"),
    );
    assert_eq!(then.rows, vec![vec![Value::Int(5)]]);
}

#[test]
fn set_and_delete_report_affected() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let r = exec(&db, "MATCH (n) WHERE id(n) = 4 SET n.age = 50");
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    let check = exec(&db, "MATCH (n) WHERE id(n) = 4 RETURN n.age");
    assert_eq!(check.rows, vec![vec![Value::Int(50)]]);
    // Deleting a node with rels fails transactionally.
    let err = execute(&db, "MATCH (n) WHERE id(n) = 1 DELETE n", &Params::new());
    assert!(err.is_err());
}

/// An id-constrained node pattern still honours its label.
#[test]
fn id_lookup_applies_pattern_label() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    assert_eq!(
        exec(&db, "MATCH (n:Person) WHERE id(n) = 0 RETURN n")
            .rows
            .len(),
        1
    );
    let r = exec(&db, "MATCH (n:Org) WHERE id(n) = 0 RETURN n");
    assert!(r.rows.is_empty(), "node 0 is a Person, got {:?}", r.rows);
}

/// A multigraph reaches the same neighbour through several relationships;
/// `DELETE r, m` must delete it once and report distinct entities.
#[test]
fn delete_dedups_multigraph_neighbours() {
    let (_d, db) = db();
    for i in 0..3 {
        exec(&db, &format!("CREATE (n:Person {{_id: {i}}})"));
    }
    // 0→1 (r1), 0→2 (r2), 0→1 (r3): neighbours bind as [1, 2, 1].
    for (rid, tgt) in [(1, 1), (2, 2), (3, 1)] {
        exec(
            &db,
            &format!(
                "MATCH (a), (b) WHERE id(a) = 0 AND id(b) = {tgt} CREATE (a)-[:KNOWS {{_id: {rid}}}]->(b)"
            ),
        );
    }
    let r = exec(&db, "MATCH (n)-[r]->(m) WHERE id(n) = 0 DELETE r, m");
    assert_eq!(r.rows, vec![vec![Value::Int(5)]], "3 rels + 2 nodes");
    let left = exec(&db, "MATCH (n) RETURN id(n)");
    assert_eq!(left.rows, vec![vec![Value::Int(0)]]);
}

#[test]
fn rel_with_where_on_rel_pattern() {
    let (_d, db) = db();
    // A standalone relationship delete via id(r).
    seed(&db);
    let r = exec(&db, "MATCH (a)-[r]->(b) WHERE id(a) = 2 DELETE r");
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    let last = db.latest_ts();
    db.lineage_barrier(last);
    let r = exec(
        &db,
        &format!(
            "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n)-[*4]->(m) WHERE id(n) = 0 RETURN m"
        ),
    );
    assert_eq!(r.rows.len(), 2, "chain is cut after node 2");
}

#[test]
fn order_by_and_limit() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    // Ascending by property.
    let r = exec(&db, "MATCH (n:Person) RETURN n.age ORDER BY n.age");
    let ages: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ages, vec![20, 21, 22, 23, 24]);
    // Descending with limit.
    let r = exec(
        &db,
        "MATCH (n:Person) RETURN n.age ORDER BY n.age DESC LIMIT 2",
    );
    let ages: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ages, vec![24, 23]);
    // Order by a property through a returned node column.
    let r = exec(&db, "MATCH (n:Person) RETURN n ORDER BY n.age DESC LIMIT 1");
    assert_eq!(r.rows.len(), 1);
    let query::Value::Node { id, .. } = &r.rows[0][0] else {
        panic!()
    };
    assert_eq!(*id, 4);
    // Order by id().
    let r = exec(
        &db,
        "MATCH (n:Person) RETURN id(n) ORDER BY id(n) DESC LIMIT 3",
    );
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![4, 3, 2]);
    // Unknown order key errors.
    assert!(execute(
        &db,
        "MATCH (n:Person) RETURN n.age ORDER BY m.x",
        &Params::new()
    )
    .is_err());
    // LIMIT without ORDER BY.
    let r = exec(&db, "MATCH (n:Person) RETURN n LIMIT 2");
    assert_eq!(r.rows.len(), 2);
}

/// The seed chain plus `LIKES` relationships 0 → 2 → 4: a second type.
fn seed_two_types(db: &Aion) -> u64 {
    seed(db);
    for (i, (a, b)) in [(0, 2), (2, 4)].into_iter().enumerate() {
        exec(
            db,
            &format!(
                "MATCH (a), (b) WHERE id(a) = {a} AND id(b) = {b} CREATE (a)-[:LIKES {{_id: {}}}]->(b)",
                10 + i
            ),
        );
    }
    db.latest_ts()
}

#[test]
fn variable_length_patterns_refuse_the_filters_they_cannot_apply() {
    let (_d, db) = db();
    let last = seed_two_types(&db);
    db.lineage_barrier(last);
    // Untyped, the expansion follows both types: 0 reaches 1 and 2 in one
    // hop, 2, 3 and 4 in two.
    let r = exec(
        &db,
        "MATCH (a)-[*2]->(m) WHERE id(a) = 0 RETURN id(m) ORDER BY id(m)",
    );
    let ids: Vec<Value> = r.rows.into_iter().flatten().collect();
    assert_eq!(ids, (1..=4).map(Value::Int).collect::<Vec<_>>());
    // A type, a variable or a property map would be dropped, widening the
    // answer past `KNOWS`: each is refused, naming the part.
    for (pattern, part) in [
        ("[:KNOWS*2]", "relationship type"),
        ("[r*2]", "relationship variable"),
        ("[*2 {_id: 1}]", "relationship properties"),
    ] {
        let q = format!("MATCH (a)-{pattern}->(m) WHERE id(a) = 0 RETURN m");
        match execute(&db, &q, &Params::new()) {
            Err(lpg::GraphError::Unsupported(msg)) => assert!(msg.contains(part), "{q}: {msg}"),
            other => panic!("{q}: expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn reads_never_intern() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let before = db.interner().len();
    let count = |q: &str| exec(&db, q).rows;
    // No label filters nothing; a label nobody wrote matches nothing.
    assert_eq!(
        count("MATCH (n) RETURN count(n)"),
        vec![vec![Value::Int(5)]]
    );
    assert_eq!(
        count("MATCH (n:Ghost) RETURN count(n)"),
        vec![vec![Value::Int(0)]]
    );
    // Likewise for a relationship type.
    assert_eq!(
        count("MATCH (a)-[r]->(b) WHERE id(a) = 0 RETURN r").len(),
        1
    );
    assert!(count("MATCH (a)-[r:HAUNTS]->(b) WHERE id(a) = 0 RETURN r").is_empty());
    // App-time keys and `aion.avg`'s key.
    count(&format!(
        "USE GDB FOR SYSTEM_TIME AS OF {last} MATCH (n:Wraith) WHERE id(n) = 1 \
         AND APPLICATION_TIME CONTAINED IN (1, 2) RETURN n"
    ));
    let avg = count(&format!("CALL aion.avg('ectoplasm', 1, {}, 2)", last + 1));
    assert!(!avg.is_empty());
    assert!(avg.iter().all(|row| row[1] == Value::Null));
    assert_eq!(db.interner().len(), before, "a read interned a string");
}

/// Every query shape aborts on an expired deadline, and every one that
/// returns two or more rows aborts under a one-row cap: the rows it pulls
/// carry the budget checks, whichever loop pulls them. (`CREATE` never
/// checks mid-commit, by design.)
#[test]
fn every_query_shape_honours_its_budget() {
    let (_d, db) = db();
    let last = seed(&db);
    db.lineage_barrier(last);
    let to = last + 1;
    // Shape, and the rows it returns unbudgeted. Writes go last: the
    // capped run of each commits.
    let shapes = [
        ("MATCH (n:Person) RETURN n".to_string(), 5),
        ("MATCH (n:Person) RETURN count(n)".into(), 1),
        (
            "MATCH (n:Person) RETURN n.age ORDER BY n.age DESC".into(),
            5,
        ),
        ("MATCH (n:Person) RETURN n LIMIT 3".into(), 3),
        ("MATCH (a:Person), (b:Person) RETURN a, b".into(), 25),
        ("MATCH (n)-[*2]->(m) WHERE id(n) = 0 RETURN m".into(), 2),
        (
            format!("USE GDB FOR SYSTEM_TIME FROM 0 TO {to} MATCH (n:Person) RETURN n"),
            5,
        ),
        ("CALL aion.sleep(1)".into(), 1),
        (format!("CALL aion.avg('age', 1, {to}, 4)"), 4),
        ("MATCH (n:Person) SET n.age = 1".into(), 1),
        ("MATCH (a)-[r]->(b) WHERE id(a) = 3 DELETE r".into(), 1),
    ];
    for (q, _) in &shapes {
        let expired = ExecBudget::with_deadline(Some(Instant::now()), None);
        match execute_with_budget(&db, q, &Params::new(), expired) {
            Err(GraphError::DeadlineExceeded) => {}
            other => panic!("{q}: expected DeadlineExceeded, got {other:?}"),
        }
    }
    for (q, rows) in &shapes {
        let capped = ExecBudget::unlimited().with_row_cap(1);
        match execute_with_budget(&db, q, &Params::new(), capped) {
            Err(GraphError::BudgetExceeded) if *rows >= 2 => {}
            Ok(r) if *rows < 2 => assert_eq!(r.rows.len(), *rows, "{q}"),
            other => panic!("{q} ({rows} rows) under a 1-row cap: got {other:?}"),
        }
    }
}
