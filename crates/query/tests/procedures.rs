//! CALL procedure tests: the temporal procedures of Sec. 5.1 invoked from
//! Cypher, incremental and classic modes agreeing.

use aion::{Aion, AionConfig};
use query::{execute, Params, Value};
use tempfile::tempdir;

fn seeded_db() -> (tempfile::TempDir, Aion, u64) {
    let dir = tempdir().unwrap();
    let db = Aion::open(AionConfig::new(dir.path())).unwrap();
    let weight = db.intern("weight");
    for i in 0..30u64 {
        db.write(|txn| txn.add_node(lpg::NodeId::new(i), vec![], vec![]))
            .unwrap();
    }
    for i in 0..30u64 {
        db.write(|txn| {
            txn.add_rel(
                lpg::RelId::new(i),
                lpg::NodeId::new(i),
                lpg::NodeId::new((i + 1) % 30),
                None,
                vec![(weight, lpg::PropertyValue::Float(i as f64))],
            )
        })
        .unwrap();
    }
    let last = db.latest_ts();
    db.lineage_barrier(last);
    (dir, db, last)
}

#[test]
fn call_avg_series() {
    let (_d, db, last) = seeded_db();
    let q = format!("CALL aion.avg('weight', {}, {}, 10)", last / 2, last + 1);
    let r = execute(&db, &q, &Params::new()).unwrap();
    assert_eq!(r.columns, vec!["ts".to_string(), "avg".to_string()]);
    assert!(r.rows.len() >= 2);
    // Rows are (Int ts, Float avg) with increasing ts.
    let ts: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert!(ts.windows(2).all(|w| w[0] < w[1]));
    // Classic mode returns the same values.
    let qc = format!(
        "CALL aion.avg('weight', {}, {}, 10, 'classic')",
        last / 2,
        last + 1
    );
    let rc = execute(&db, &qc, &Params::new()).unwrap();
    assert_eq!(r.rows.len(), rc.rows.len());
    for (a, b) in r.rows.iter().zip(rc.rows.iter()) {
        match (&a[1], &b[1]) {
            (Value::Float(x), Value::Float(y)) => assert!((x - y).abs() < 1e-9),
            (Value::Null, Value::Null) => {}
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn call_bfs_and_pagerank() {
    let (_d, db, last) = seeded_db();
    let r = execute(
        &db,
        &format!("CALL aion.bfs(0, {}, {}, 15)", last / 2, last + 1),
        &Params::new(),
    )
    .unwrap();
    assert_eq!(r.columns[1], "reached");
    // Reachability grows (ring is being completed).
    let reached: Vec<i64> = r.rows.iter().map(|row| row[1].as_int().unwrap()).collect();
    assert!(reached.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        *reached.last().unwrap(),
        30,
        "full ring reachable at the end"
    );

    let r = execute(
        &db,
        &format!("CALL aion.pagerank({}, {}, 20)", last / 2, last + 1),
        &Params::new(),
    )
    .unwrap();
    assert_eq!(
        r.columns,
        vec!["ts".to_string(), "topNode".to_string(), "rank".to_string()]
    );
    assert!(!r.rows.is_empty());
}

#[test]
fn call_errors() {
    let (_d, db, _) = seeded_db();
    assert!(execute(&db, "CALL aion.nope(1, 2)", &Params::new()).is_err());
    assert!(execute(&db, "CALL aion.avg(1, 2, 3, 4)", &Params::new()).is_err());
    assert!(execute(&db, "CALL aion.bfs('x', 1, 2, 3)", &Params::new()).is_err());
}

/// A series with step 0 never advances, and one with `start >= end` has no
/// point: both are refused, in both modes, before the first snapshot is
/// fetched, also for a key no relationship carries.
#[test]
fn zero_step_series_are_rejected() {
    let (_d, db, last) = seeded_db();
    for call in [
        "aion.avg('weight', {range}{mode})",
        "aion.avg('ectoplasm', {range}{mode})",
        "aion.bfs(0, {range}{mode})",
        "aion.pagerank({range}{mode})",
    ] {
        let zero_step = format!("0, {}, 0", last + 1);
        for range in [zero_step.as_str(), "20, 20, 1", "20, 10, 1"] {
            for mode in ["", ", 'classic'"] {
                let q = call.replace("{range}", range).replace("{mode}", mode);
                assert_eq!(
                    execute(&db, &format!("CALL {q}"), &Params::new()).unwrap_err(),
                    lpg::GraphError::InvalidTimeRange,
                    "{q}"
                );
            }
        }
    }
}

#[test]
fn call_diff_and_window() {
    let (_d, db, last) = seeded_db();
    // Diff over the relationship-insert half of the history.
    let r = execute(
        &db,
        &format!("CALL aion.diff({}, {})", 31, last + 1),
        &Params::new(),
    )
    .unwrap();
    assert_eq!(
        r.columns,
        vec!["ts".to_string(), "op".to_string(), "entity".to_string()]
    );
    assert_eq!(r.rows.len(), 30, "thirty rel inserts");
    assert!(r
        .rows
        .iter()
        .all(|row| row[1] == Value::Str("addRel".into())));
    // Window over the full history contains every node.
    let r = execute(
        &db,
        &format!("CALL aion.window(1, {})", last + 1),
        &Params::new(),
    )
    .unwrap();
    assert_eq!(r.rows.len(), 30);
    // Window before the rels were added still contains the early nodes.
    let r = execute(&db, "CALL aion.window(1, 10)", &Params::new()).unwrap();
    assert_eq!(r.rows.len(), 9);
}
