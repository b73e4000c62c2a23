//! The executor: budgets, entry points, and the sinks that pull from the
//! one binding stream (`crate::bind`) — collect-with-`LIMIT`, `count`,
//! sort-then-`LIMIT`, and the write actions. All reads go through Aion's
//! temporal API, so the planner's store choice applies.

use crate::ast::*;
use crate::bind::{lookup, prop, Binding, Bindings};
use crate::cursor::{Anchor, CursorToken};
use crate::value::Value;
use aion::{Aion, LatestPin};
use lpg::{GraphError, NodeId, PropertyValue, RelId, Result, StrId, TimeRange, Timestamp};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Query parameters (`$name` bindings).
pub type Params = HashMap<String, Value>;

/// Cooperative execution budget for one query: an optional wall-clock
/// deadline plus an optional external cancellation flag (set by the
/// server when it drains), plus an optional row cap on the result.
/// The executor checks the deadline at loop boundaries — bind scans,
/// filters, row building, procedure slices — and aborts with
/// [`GraphError::DeadlineExceeded`]; every result row built charges the
/// row cap and aborts with the distinct
/// [`GraphError::BudgetExceeded`] (the query was not slow — it was too
/// big, so the client should page or narrow it rather than retry). It
/// never checks mid-commit, so a write either fully commits or never
/// starts.
#[derive(Clone, Default)]
pub struct ExecBudget {
    /// Absolute abort time.
    pub deadline: Option<Instant>,
    /// External cancellation (e.g. server drain); checked alongside the
    /// deadline at every budget point.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Maximum result rows (`None` = unlimited).
    pub max_rows: Option<u64>,
    /// Rows charged so far, shared by every clone: a `RunBatch` installs
    /// per-statement clones of one budget, so the row cap applies to the
    /// batch as a whole.
    spent_rows: Arc<AtomicU64>,
}

impl ExecBudget {
    /// No limits (the default for embedded callers).
    pub fn unlimited() -> ExecBudget {
        ExecBudget::default()
    }

    /// A deadline/cancel budget (the server's per-request shape).
    pub fn with_deadline(deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) -> ExecBudget {
        ExecBudget {
            deadline,
            cancel,
            ..ExecBudget::default()
        }
    }

    /// Caps the result rows; `0` means unlimited.
    pub fn with_row_cap(mut self, max_rows: u64) -> ExecBudget {
        self.max_rows = (max_rows > 0).then_some(max_rows);
        self
    }

    fn expired(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Charges one row against the row cap. Spending is shared across
    /// clones (batch statements), and deliberately not rolled back on
    /// failure: once over budget, every later charge fails too.
    fn charge_row(&self) -> Result<()> {
        let spent_rows = self.spent_rows.fetch_add(1, Ordering::Relaxed) + 1;
        if self.max_rows.is_some_and(|m| spent_rows > m) {
            stage_metrics().budget_aborts.inc();
            return Err(GraphError::BudgetExceeded);
        }
        Ok(())
    }
}

thread_local! {
    static BUDGET: RefCell<ExecBudget> = RefCell::new(ExecBudget::default());
}

/// Restores the previous budget when an `execute_with_budget` scope ends,
/// so nested or sequential executions on one thread cannot leak limits.
struct BudgetGuard {
    prev: Option<ExecBudget>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            BUDGET.with(|b| *b.borrow_mut() = prev);
        }
    }
}

fn install_budget(budget: ExecBudget) -> BudgetGuard {
    BudgetGuard {
        prev: Some(BUDGET.with(|b| std::mem::replace(&mut *b.borrow_mut(), budget))),
    }
}

/// Aborts with [`GraphError::DeadlineExceeded`] when the installed
/// budget has expired. Called at executor loop boundaries.
pub(crate) fn check_budget() -> Result<()> {
    if BUDGET.with(|b| b.borrow().expired()) {
        Err(GraphError::DeadlineExceeded)
    } else {
        Ok(())
    }
}

/// Charges one result row against the installed budget's row cap.
/// Called wherever the executor emits or materializes a row.
fn charge_row() -> Result<()> {
    BUDGET.with(|b| b.borrow().charge_row())
}

/// True when executing `query` cannot mutate the database, which makes
/// it safe for a client to retry after a transport failure (the server
/// may or may not have executed the lost attempt).
pub fn is_read_only(query: &Query) -> bool {
    match query {
        Query::Create { .. } => false,
        Query::Match { action, .. } => matches!(action, Action::Return(_)),
        // Procedures are analytic reads (series, diff, window, sleep).
        Query::Call { .. } => true,
    }
}

/// Executor metrics, resolved once per process.
struct StageMetrics {
    executed: Arc<obs::Counter>,
    parse_latency: Arc<obs::Histogram>,
    exec_latency: Arc<obs::Histogram>,
    /// Result rows built by `MATCH … RETURN` pipelines.
    rows_streamed: Arc<obs::Counter>,
    /// Pages served through `execute_paged`.
    pages_served: Arc<obs::Counter>,
    /// Queries aborted by the result row cap.
    budget_aborts: Arc<obs::Counter>,
    /// Cursor tokens rejected as invalid (corrupt, mismatched, stale
    /// anchor).
    cursor_rejects: Arc<obs::Counter>,
}

fn stage_metrics() -> &'static StageMetrics {
    static METRICS: OnceLock<StageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StageMetrics {
        executed: obs::counter("query.executed"),
        parse_latency: obs::histogram("query.parse.latency_ns"),
        exec_latency: obs::histogram("query.exec.latency_ns"),
        rows_streamed: obs::counter("query.rows_streamed"),
        pages_served: obs::counter("query.pages_served"),
        budget_aborts: obs::counter("query.budget_aborts"),
        cursor_rejects: obs::counter("query.cursor_rejects"),
    })
}

/// A tabular query result.
#[derive(Clone, PartialEq, Debug)]
pub struct QueryResult {
    /// Column names (from the RETURN items, or `affected` for writes).
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    fn affected(n: usize) -> QueryResult {
        QueryResult {
            columns: vec!["affected".into()],
            rows: vec![vec![Value::Int(n as i64)]],
        }
    }
}

/// Parses and executes `text` against `db` with no execution budget.
pub fn execute(db: &Aion, text: &str, params: &Params) -> Result<QueryResult> {
    execute_with_budget(db, text, params, ExecBudget::unlimited())
}

/// Parses and executes `text` against `db` under `budget`: when the
/// deadline passes or the cancel flag is raised, execution aborts at the
/// next budget check with [`GraphError::DeadlineExceeded`]; when the
/// result outgrows the row cap it aborts with
/// [`GraphError::BudgetExceeded`].
pub fn execute_with_budget(
    db: &Aion,
    text: &str,
    params: &Params,
    budget: ExecBudget,
) -> Result<QueryResult> {
    let m = stage_metrics();
    m.executed.inc();
    let _total = m.exec_latency.start_timer();
    let _budget = install_budget(budget);
    let query = {
        let _parse = m.parse_latency.start_timer();
        crate::parser::parse(text).map_err(|e| GraphError::Unknown(e.to_string()))?
    };
    run(db, &query, params)
}

/// Executes an already-parsed query at the latest snapshot: the one
/// pipeline (*bind source → filter → sink*, see `crate::bind`) from the
/// first row to the last, with `LIMIT` bounding the pull.
pub fn run(db: &Aion, query: &Query, params: &Params) -> Result<QueryResult> {
    let whole = Resume {
        anchor: None,
        prior_rows: 0,
        page_size: usize::MAX,
    };
    let (ts, _pin) = resolve_latest(db, query);
    run_page(db, query, params, ts, whole).map(|(result, _)| result)
}

/// The timestamp `query`'s implicit latest time resolves to, with the guard
/// to hold until the query ends. A read at the implicit latest time pins
/// the version it reads, so a commit landing before the read reaches the
/// TimeStore leaves that version addressable instead of making the read
/// rebuild it. Writes pin nothing: their own commit would copy what it
/// touches.
fn resolve_latest(db: &Aion, query: &Query) -> (Timestamp, Option<LatestPin>) {
    let reads_latest = matches!(
        query,
        Query::Match {
            time: None,
            action: Action::Return(_),
            ..
        }
    );
    if reads_latest {
        let pin = db.pin_latest();
        (pin.ts(), Some(pin))
    } else {
        (db.latest_ts(), None)
    }
}

/// One page of a paged execution.
#[derive(Clone, Debug)]
pub struct Page {
    /// The page's rows (same columns as the unpaged result).
    pub result: QueryResult,
    /// Opaque resumable token; `None` when the result is complete.
    pub cursor: Option<Vec<u8>>,
    /// The snapshot timestamp the scan is pinned to.
    pub snapshot_ts: Timestamp,
}

/// Parses and executes one page of `text`: up to `page_size` rows, plus
/// an opaque cursor to resume with. The first page pins the snapshot
/// (implicit "latest" resolves once); resumed pages execute at the
/// pinned timestamp, so a paged scan is snapshot-consistent under
/// concurrent writers. A corrupt or mismatched `cursor`, or an anchor
/// that no longer resolves at the pinned snapshot, fails with
/// [`GraphError::CursorInvalid`] — never silently skipped or duplicated
/// rows.
pub fn execute_paged(
    db: &Aion,
    text: &str,
    params: &Params,
    budget: ExecBudget,
    page_size: usize,
    cursor: Option<&[u8]>,
) -> Result<Page> {
    let m = stage_metrics();
    m.executed.inc();
    let _total = m.exec_latency.start_timer();
    let _budget = install_budget(budget);
    let query = {
        let _parse = m.parse_latency.start_timer();
        crate::parser::parse(text).map_err(|e| GraphError::Unknown(e.to_string()))?
    };
    if !is_read_only(&query) {
        return Err(GraphError::ExecError(
            "write queries cannot be paged".into(),
        ));
    }
    let fingerprint = crate::cursor::fingerprint(text, params);
    let token = match cursor {
        None => None,
        Some(bytes) => {
            let t = CursorToken::decode(bytes).inspect_err(|_| m.cursor_rejects.inc())?;
            if t.fingerprint != fingerprint {
                m.cursor_rejects.inc();
                return Err(GraphError::CursorInvalid(
                    "cursor was minted for a different query".into(),
                ));
            }
            Some(t)
        }
    };
    // The first page pins the latest version; a resumed page reads at its
    // token's timestamp, whose version nobody need still hold.
    let (snapshot_ts, _pin) = match token {
        Some(t) => (t.snapshot_ts, None),
        None => resolve_latest(db, &query),
    };
    let resume = Resume {
        anchor: token.map(|t| t.anchor),
        prior_rows: token.map_or(0, |t| t.rows_emitted),
        page_size: page_size.max(1),
    };
    let out = run_page(db, &query, params, snapshot_ts, resume).map(|(result, next)| Page {
        cursor: next.map(|anchor| {
            CursorToken {
                snapshot_ts,
                fingerprint,
                rows_emitted: resume.prior_rows + result.rows.len() as u64,
                anchor,
            }
            .encode()
        }),
        result,
        snapshot_ts,
    });
    match &out {
        Ok(_) => m.pages_served.inc(),
        Err(GraphError::CursorInvalid(_)) => m.cursor_rejects.inc(),
        Err(_) => {}
    }
    out
}

/// Where an execution picks up and how many rows it may emit. An unpaged
/// run is the degenerate page: from the start, unbounded.
#[derive(Clone, Copy)]
struct Resume {
    /// The previous page's anchor.
    anchor: Option<Anchor>,
    /// Rows all previous pages emitted (`LIMIT` spans pages).
    prior_rows: u64,
    page_size: usize,
}

/// Executes `query` with the implicit "latest" snapshot pinned to
/// `default_ts`, emitting the page `resume` describes. Returns the rows
/// and, when more may follow, the anchor the next page resumes from.
fn run_page(
    db: &Aion,
    query: &Query,
    params: &Params,
    default_ts: Timestamp,
    resume: Resume,
) -> Result<(QueryResult, Option<Anchor>)> {
    let (time, patterns, predicates, action, order_by, limit) = match query {
        Query::Create { patterns } => return Ok((run_create(db, &[], patterns, params)?, None)),
        Query::Call { name, args } => {
            let result = run_call(db, name, args, params)?;
            for _ in &result.rows {
                check_budget()?;
                charge_row()?;
            }
            return emit(
                result.columns,
                Rows::Built(result.rows.into_iter()),
                None,
                resume,
            );
        }
        Query::Match {
            time,
            patterns,
            predicates,
            action,
            order_by,
            limit,
        } => (time, patterns, predicates, action, order_by, *limit),
    };
    let range = time.map_or(TimeRange::AsOf(default_ts), TimeSpec::to_range);
    // A sink that folds over every row (aggregate, sort, write) reads the
    // whole graph; a plain RETURN may stop at LIMIT or the page boundary.
    let counts = |items: &[ReturnItem]| items.iter().any(|i| matches!(i, ReturnItem::Count(_)));
    let whole_graph = match action {
        Action::Return(items) => counts(items) || order_by.is_some(),
        _ => true,
    };
    // A keyed scan resumes strictly after the revalidated anchor node.
    let after = match resume.anchor {
        Some(Anchor::Key(k)) => {
            let id = NodeId::new(k);
            if !db.node_alive_at(id, range.to_half_open().start)? {
                return Err(GraphError::CursorInvalid(
                    "anchor node no longer resolves at the pinned snapshot".into(),
                ));
            }
            Some(id)
        }
        _ => None,
    };
    let mut bindings = Bindings::open(db, range, patterns, predicates, params, whole_graph, after)?;
    match action {
        Action::Return(items) => {
            let columns: Vec<String> = items.iter().map(column_name).collect();
            let rows = if whole_graph {
                let mut all = Vec::new();
                if counts(items) {
                    // Aggregation: any count() collapses to a single row.
                    all.push(count_row(&mut bindings, items)?);
                } else {
                    let mut lazy = Rows::Lazy(bindings, items);
                    while let Some(row) = lazy.next()? {
                        all.push(row);
                    }
                }
                if let Some(order) = order_by {
                    sort_rows(&columns, &mut all, order)?;
                }
                all.truncate(limit.unwrap_or(usize::MAX));
                Rows::Built(all.into_iter())
            } else {
                Rows::Lazy(bindings, items)
            };
            emit(columns, rows, limit, resume)
        }
        Action::Set(var, key, lit) => {
            let value = literal_to_prop(lit, db, params)?;
            let key = db.intern(key);
            let mut targets = Vec::new();
            while let Some(b) = bindings.next()? {
                targets.extend(lookup(&b, var).cloned());
            }
            let mut affected = 0;
            db.write(|txn| {
                for t in &targets {
                    match t {
                        Value::Node { id, .. } => {
                            txn.set_node_prop(NodeId::new(*id), key, value.clone())?
                        }
                        Value::Rel { id, .. } => {
                            txn.set_rel_prop(RelId::new(*id), key, value.clone())?
                        }
                        _ => continue,
                    }
                    affected += 1;
                }
                Ok(())
            })?;
            Ok((QueryResult::affected(affected), None))
        }
        Action::Delete(vars) => {
            // Sets: a multigraph reaches the same neighbour through
            // several relationships, and deleting it twice would fail.
            let mut nodes = BTreeSet::new();
            let mut rels = BTreeSet::new();
            while let Some(b) = bindings.next()? {
                for var in vars {
                    match lookup(&b, var) {
                        Some(Value::Node { id, .. }) => nodes.insert(NodeId::new(*id)),
                        Some(Value::Rel { id, .. }) => rels.insert(RelId::new(*id)),
                        _ => false,
                    };
                }
            }
            db.write(|txn| {
                for r in &rels {
                    txn.delete_rel(*r)?;
                }
                for n in &nodes {
                    txn.delete_node(*n)?;
                }
                Ok(())
            })?;
            Ok((QueryResult::affected(nodes.len() + rels.len()), None))
        }
        Action::Create(create_patterns) => {
            // The first matched row feeds endpoint resolution.
            let bound: Vec<(String, u64)> = bindings
                .next()?
                .into_iter()
                .flatten()
                .filter_map(|(var, v)| v.entity_id().map(|id| (var.to_string(), id)))
                .collect();
            Ok((run_create(db, &bound, create_patterns, params)?, None))
        }
    }
}

/// Result rows on their way to a page: still lazy (a plain `RETURN`
/// projects one binding per pull), or already built because the sink had
/// to drain its input first (`count`, `ORDER BY`, procedures).
enum Rows<'a> {
    Lazy(Bindings<'a>, &'a [ReturnItem]),
    Built(std::vec::IntoIter<Vec<Value>>),
}

impl Rows<'_> {
    /// The next result row, after one budget check (a lazy row's is
    /// [`Bindings::next`]'s). A lazy row is projected, charged against the
    /// result budget and counted only now — rows never pulled cost nothing.
    fn next(&mut self) -> Result<Option<Vec<Value>>> {
        match self {
            Rows::Built(rows) => {
                check_budget()?;
                Ok(rows.next())
            }
            Rows::Lazy(bindings, items) => {
                let Some(b) = bindings.next()? else {
                    return Ok(None);
                };
                let row = project(items, &b)?;
                charge_row()?;
                stage_metrics().rows_streamed.inc();
                Ok(Some(row))
            }
        }
    }

    /// Drops the first `n` rows without building them. A result shorter
    /// than the offset it once reached means the anchor no longer
    /// resolves — a genuine revalidation failure.
    fn skip(&mut self, n: u64) -> Result<()> {
        for _ in 0..n {
            let more = match self {
                Rows::Built(rows) => rows.next().is_some(),
                Rows::Lazy(bindings, _) => bindings.next()?.is_some(),
            };
            if !more {
                return Err(GraphError::CursorInvalid(
                    "offset beyond the result: anchor no longer resolves".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The one place a page is cut: position `rows` at the resume anchor,
/// pull at most `min(page_size, remaining LIMIT)` of them, and name the
/// anchor the next page resumes from — the last node id for a keyed scan,
/// the row offset for everything else.
fn emit(
    columns: Vec<String>,
    mut rows: Rows<'_>,
    limit: Option<usize>,
    resume: Resume,
) -> Result<(QueryResult, Option<Anchor>)> {
    let keyed = matches!(&rows, Rows::Lazy(bindings, _) if bindings.keyed);
    let skipped = match (resume.anchor, keyed) {
        // A keyed scan was opened strictly after its anchor.
        (None, _) | (Some(Anchor::Key(_)), true) => 0,
        (Some(Anchor::Offset(n)), false) => {
            rows.skip(n)?;
            n
        }
        _ => {
            return Err(GraphError::CursorInvalid(
                "anchor kind does not match the query plan".into(),
            ))
        }
    };
    let remaining = limit.map_or(u64::MAX, |l| (l as u64).saturating_sub(resume.prior_rows));
    let take = resume
        .page_size
        .min(usize::try_from(remaining).unwrap_or(usize::MAX));
    let mut page = Vec::new();
    while page.len() < take {
        match rows.next()? {
            Some(row) => page.push(row),
            None => break,
        }
    }
    // A full page short of LIMIT may have more behind it. Built rows know;
    // lazy rows would have to pull to find out, so the next page does.
    let full = page.len() == take && (take as u64) < remaining;
    let offset = Anchor::Offset(skipped + page.len() as u64);
    let next = match &rows {
        Rows::Built(rest) => (rest.len() > 0).then_some(offset),
        Rows::Lazy(bindings, _) if keyed => bindings.last_key.map(Anchor::Key),
        Rows::Lazy(..) => Some(offset),
    }
    .filter(|_| full);
    let result = QueryResult {
        columns,
        rows: page,
    };
    Ok((result, next))
}

fn column_name(item: &ReturnItem) -> String {
    match item {
        ReturnItem::Var(v) => v.clone(),
        ReturnItem::Prop(v, k) => format!("{v}.{k}"),
        ReturnItem::Count(v) => format!("count({v})"),
        ReturnItem::Id(v) => format!("id({v})"),
    }
}

/// Projects one binding onto the RETURN items.
fn project(items: &[ReturnItem], b: &Binding<'_>) -> Result<Vec<Value>> {
    items
        .iter()
        .map(|item| {
            Ok(match item {
                ReturnItem::Var(v) => lookup(b, v).cloned(),
                ReturnItem::Prop(v, k) => lookup(b, v).and_then(|v| prop(v, k)).cloned(),
                ReturnItem::Id(v) => lookup(b, v)
                    .and_then(Value::entity_id)
                    .map(|id| Value::Int(id as i64)),
                // `run_page` routes any RETURN holding a COUNT to
                // `count_row`, so reaching one here is a bug in it.
                ReturnItem::Count(_) => {
                    return Err(GraphError::ExecError(
                        "COUNT item reached the non-aggregate row builder".into(),
                    ))
                }
            }
            .unwrap_or(Value::Null))
        })
        .collect()
}

/// The aggregate sink: drains `bindings` and counts, per `count(v)` item,
/// the rows that bind `v`; other items are null.
fn count_row(bindings: &mut Bindings<'_>, items: &[ReturnItem]) -> Result<Vec<Value>> {
    let mut counts = vec![0i64; items.len()];
    while let Some(b) = bindings.next()? {
        for (n, item) in counts.iter_mut().zip(items) {
            if matches!(item, ReturnItem::Count(v) if lookup(&b, v).is_some()) {
                *n += 1;
            }
        }
    }
    let row: Vec<Value> = counts
        .into_iter()
        .zip(items)
        .map(|(n, item)| match item {
            ReturnItem::Count(_) => Value::Int(n),
            _ => Value::Null,
        })
        .collect();
    charge_row()?;
    Ok(row)
}

/// Sorts result rows by an `ORDER BY` key (nulls last).
fn sort_rows(columns: &[String], rows: &mut [Vec<Value>], order: &OrderBy) -> Result<()> {
    let column = |name: &str| columns.iter().position(|c| c == name);
    // A returned column, or — for `var.key` with only `var` returned — a
    // property of that node/relationship column.
    let (col, key) = match (column(&column_name(&order.item)), &order.item) {
        (Some(i), ReturnItem::Var(_) | ReturnItem::Prop(..) | ReturnItem::Id(_)) => (i, None),
        (None, ReturnItem::Prop(v, k)) => {
            let i = column(v)
                .ok_or_else(|| GraphError::Unknown(format!("ORDER BY: unknown variable {v}")))?;
            (i, Some(k.as_str()))
        }
        (_, other) => {
            return Err(GraphError::Unknown(format!(
                "ORDER BY key {other:?} is not in RETURN"
            )))
        }
    };
    fn sort_value<'r>(row: &'r [Value], col: usize, key: Option<&str>) -> Option<&'r Value> {
        let cell = row.get(col)?;
        key.map_or(Some(cell), |k| prop(cell, k))
    }
    rows.sort_by(|a, b| {
        let ord = match (sort_value(a, col, key), sort_value(b, col, key)) {
            (Some(x), Some(y)) => value_order(x, y),
            (Some(_), None) => std::cmp::Ordering::Less, // nulls last
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        };
        if order.descending {
            ord.reverse()
        } else {
            ord
        }
    });
    Ok(())
}

fn value_order(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (x, y) => x.entity_id().cmp(&y.entity_id()),
    }
}

/// The temporal-procedure registry (Sec. 5.1): incremental analytics over
/// snapshot series, invoked from Cypher like the paper's GDS-style procs.
///
/// * `aion.avg(prop, start, end, step [, 'classic'])` → `(ts, avg)` rows
/// * `aion.bfs(sourceId, start, end, step [, 'classic'])` → `(ts, reached)`
/// * `aion.pagerank(start, end, step [, 'classic'])` → `(ts, topNode, rank)`
/// * `aion.sleep(ms)` → `(slept_ms)` after a budget-aware pause (ops/testing)
/// * `aion.diff(start, end)` → `(ts, op, entity)` rows (getDiff)
/// * `aion.window(start, end)` → member nodes of the union graph (getWindow)
fn run_call(db: &Aion, name: &str, args: &[Literal], params: &Params) -> Result<QueryResult> {
    use aion::procedures::ExecMode;
    let vals: Vec<Value> = args
        .iter()
        .map(|a| resolve_literal(a, params))
        .collect::<Result<_>>()?;
    let int_at = |i: usize| -> Result<u64> {
        vals.get(i)
            .and_then(Value::as_int)
            .map(|v| v as u64)
            .ok_or_else(|| GraphError::Unknown(format!("{name}: argument {i} must be an integer")))
    };
    let mode_at = |i: usize| -> ExecMode {
        match vals.get(i) {
            Some(Value::Str(s)) if s.eq_ignore_ascii_case("classic") => ExecMode::Classic,
            _ => ExecMode::Incremental,
        }
    };
    match name.to_ascii_lowercase().as_str() {
        // Holds the worker for `ms` milliseconds (capped at 10 s),
        // checking the execution budget between 5 ms slices. Exists for
        // operational testing: it makes "a slow request" deterministic,
        // so deadline aborts, drain, and force-close have exact tests.
        "aion.sleep" => {
            let ms = int_at(0)?.min(10_000);
            let until = Instant::now() + Duration::from_millis(ms);
            loop {
                check_budget()?;
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
            }
            Ok(QueryResult {
                columns: vec!["slept_ms".into()],
                rows: vec![vec![Value::Int(ms as i64)]],
            })
        }
        "aion.avg" => {
            let Some(Value::Str(prop)) = vals.first() else {
                return Err(GraphError::Unknown(
                    "aion.avg: first argument must be the property name".into(),
                ));
            };
            let (start, end, step) = (int_at(1)?, int_at(2)?, int_at(3)?);
            let points = match db.interner().get(prop) {
                Some(key) => {
                    db.proc_avg_series(key, start, end, step, mode_at(4))?
                        .points
                }
                // A key the table does not hold is on no relationship.
                None => db
                    .versions(start, end, step)?
                    .map(|v| v.map(|(ts, ..)| (ts, None)))
                    .collect::<Result<_>>()?,
            };
            Ok(QueryResult {
                columns: vec!["ts".into(), "avg".into()],
                rows: points
                    .into_iter()
                    .map(|(ts, v)| {
                        vec![
                            Value::Int(ts as i64),
                            v.map(Value::Float).unwrap_or(Value::Null),
                        ]
                    })
                    .collect(),
            })
        }
        "aion.bfs" => {
            let source = NodeId::new(int_at(0)?);
            let series =
                db.proc_bfs_series(source, int_at(1)?, int_at(2)?, int_at(3)?, mode_at(4))?;
            Ok(QueryResult {
                columns: vec!["ts".into(), "reached".into()],
                rows: series
                    .points
                    .into_iter()
                    .map(|(ts, n)| vec![Value::Int(ts as i64), Value::Int(n as i64)])
                    .collect(),
            })
        }
        "aion.pagerank" => {
            let cfg = algo::pagerank::PageRankConfig::default();
            let series =
                db.proc_pagerank_series(cfg, int_at(0)?, int_at(1)?, int_at(2)?, mode_at(3))?;
            Ok(QueryResult {
                columns: vec!["ts".into(), "topNode".into(), "rank".into()],
                rows: series
                    .points
                    .into_iter()
                    .map(|(ts, ranks)| {
                        // NaN ranks (degenerate damping inputs) must not
                        // panic mid-query; total_cmp orders them below +inf.
                        let top = ranks
                            .iter()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(n, r)| (*n, *r));
                        match top {
                            Some((n, r)) => vec![
                                Value::Int(ts as i64),
                                Value::Int(n.raw() as i64),
                                Value::Float(r),
                            ],
                            None => vec![Value::Int(ts as i64), Value::Null, Value::Null],
                        }
                    })
                    .collect(),
            })
        }
        "aion.diff" => {
            // getDiff(start, end): one row per update in the window.
            let updates = db.get_diff(int_at(0)?, int_at(1)?)?;
            Ok(QueryResult {
                columns: vec!["ts".into(), "op".into(), "entity".into()],
                rows: updates
                    .into_iter()
                    .map(|u| {
                        let kind = match &u.op {
                            lpg::Update::AddNode { .. } => "addNode",
                            lpg::Update::DeleteNode { .. } => "deleteNode",
                            lpg::Update::AddRel { .. } => "addRel",
                            lpg::Update::DeleteRel { .. } => "deleteRel",
                            lpg::Update::SetNodeProp { .. } => "setNodeProp",
                            lpg::Update::RemoveNodeProp { .. } => "removeNodeProp",
                            lpg::Update::AddLabel { .. } => "addLabel",
                            lpg::Update::RemoveLabel { .. } => "removeLabel",
                            lpg::Update::SetRelProp { .. } => "setRelProp",
                            lpg::Update::RemoveRelProp { .. } => "removeRelProp",
                        };
                        vec![
                            Value::Int(u.ts as i64),
                            Value::Str(kind.into()),
                            Value::Int(u.op.entity().raw() as i64),
                        ]
                    })
                    .collect(),
            })
        }
        "aion.window" => {
            // getWindow(start, end): the union graph's size plus members.
            let g = db.get_window(int_at(0)?, int_at(1)?)?;
            let interner = db.interner();
            // `Graph::nodes` ascends by id.
            let rows = g
                .nodes()
                .map(|n| vec![Value::from_node(n, interner, None)])
                .collect();
            Ok(QueryResult {
                columns: vec!["node".into()],
                rows,
            })
        }
        other => Err(GraphError::Unknown(format!("unknown procedure {other}"))),
    }
}

pub(crate) fn resolve_literal(lit: &Literal, params: &Params) -> Result<Value> {
    Ok(match lit {
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Param(name) => params
            .get(name)
            .cloned()
            .ok_or_else(|| GraphError::Unknown(format!("missing parameter ${name}")))?,
    })
}

fn literal_to_prop(lit: &Literal, db: &Aion, params: &Params) -> Result<PropertyValue> {
    Ok(match resolve_literal(lit, params)? {
        Value::Int(v) => PropertyValue::Int(v),
        Value::Float(v) => PropertyValue::Float(v),
        Value::Bool(v) => PropertyValue::Bool(v),
        Value::Str(s) => PropertyValue::Str(db.intern(&s)),
        other => {
            return Err(GraphError::Unknown(format!(
                "unsupported property literal {other:?}"
            )))
        }
    })
}

/// Extracts the `_id` property from a CREATE pattern's property map.
fn take_id(props: &[(String, Literal)], params: &Params) -> Result<Option<u64>> {
    for (k, v) in props {
        if k == "_id" {
            let val = resolve_literal(v, params)?;
            let id = val
                .as_int()
                .ok_or_else(|| GraphError::Unknown("_id must be an integer".into()))?;
            return Ok(Some(id as u64));
        }
    }
    Ok(None)
}

fn run_create(
    db: &Aion,
    bound: &[(String, u64)],
    patterns: &[Pattern],
    params: &Params,
) -> Result<QueryResult> {
    let mut affected = 0;
    // Pre-intern outside the closure.
    struct NodePlan {
        id: u64,
        labels: Vec<StrId>,
        props: Vec<(StrId, PropertyValue)>,
    }
    struct RelPlan {
        id: u64,
        src: u64,
        tgt: u64,
        label: Option<StrId>,
        props: Vec<(StrId, PropertyValue)>,
    }
    let mut node_plans: Vec<NodePlan> = Vec::new();
    let mut rel_plans: Vec<RelPlan> = Vec::new();
    let lookup = |var: &Option<String>, own: Option<u64>| -> Result<u64> {
        if let Some(id) = own {
            return Ok(id);
        }
        if let Some(v) = var {
            if let Some((_, id)) = bound.iter().find(|(name, _)| name == v) {
                return Ok(*id);
            }
        }
        Err(GraphError::Unknown(
            "CREATE endpoint needs a bound variable or an _id property".into(),
        ))
    };
    for p in patterns {
        let start_id = take_id(&p.start.props, params)?;
        // A bare bound variable creates nothing.
        let creates_start = start_id.is_some();
        let start = lookup(&p.start.var, start_id)?;
        if creates_start {
            node_plans.push(NodePlan {
                id: start,
                labels: p
                    .start
                    .label
                    .as_deref()
                    .map(|l| vec![db.intern(l)])
                    .unwrap_or_default(),
                props: convert_props(db, &p.start.props, params)?,
            });
        }
        if let Some((rel, end)) = &p.rel {
            let end_id = take_id(&end.props, params)?;
            let creates_end = end_id.is_some();
            let end_bound = lookup(&end.var, end_id)?;
            if creates_end {
                node_plans.push(NodePlan {
                    id: end_bound,
                    labels: end
                        .label
                        .as_deref()
                        .map(|l| vec![db.intern(l)])
                        .unwrap_or_default(),
                    props: convert_props(db, &end.props, params)?,
                });
            }
            let rel_id = take_id(&rel.props, params)?.ok_or_else(|| {
                GraphError::Unknown("CREATE relationship needs an _id property".into())
            })?;
            let (src, tgt) = match rel.direction {
                RelDirection::Left => (end_bound, start),
                _ => (start, end_bound),
            };
            rel_plans.push(RelPlan {
                id: rel_id,
                src,
                tgt,
                label: rel.rel_type.as_deref().map(|t| db.intern(t)),
                props: convert_props(db, &rel.props, params)?,
            });
        }
    }
    db.write(|txn| {
        for n in &node_plans {
            txn.add_node(NodeId::new(n.id), n.labels.clone(), n.props.clone())?;
            affected += 1;
        }
        for r in &rel_plans {
            txn.add_rel(
                RelId::new(r.id),
                NodeId::new(r.src),
                NodeId::new(r.tgt),
                r.label,
                r.props.clone(),
            )?;
            affected += 1;
        }
        Ok(())
    })?;
    Ok(QueryResult::affected(affected))
}

fn convert_props(
    db: &Aion,
    props: &[(String, Literal)],
    params: &Params,
) -> Result<Vec<(StrId, PropertyValue)>> {
    let mut out = Vec::new();
    for (k, v) in props {
        if k == "_id" {
            continue;
        }
        out.push((db.intern(k), literal_to_prop(v, db, params)?));
    }
    out.sort_by_key(|(k, _)| *k);
    Ok(out)
}
