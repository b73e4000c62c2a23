//! The TCP server: accept loop + one worker thread per connection, all
//! executing against a shared [`aion::Aion`] — hardened for degraded
//! networks.
//!
//! Resilience model (DESIGN.md §11):
//!
//! * **Admission control.** At most [`ServerConfig::max_connections`]
//!   workers exist at once; connections past the cap receive one typed
//!   `Overloaded` error frame and are closed (`server.shed`), so load
//!   spikes degrade into fast rejections instead of unbounded threads.
//! * **Timeouts.** Sockets poll on a short read timeout: a peer that
//!   stalls mid-frame for longer than [`ServerConfig::io_timeout`] is
//!   dropped, and each `Run` executes under a cooperative
//!   [`query::ExecBudget`] capped at [`ServerConfig::request_deadline`]
//!   (aborts surface as typed `Timeout` errors, not hung workers).
//! * **Graceful drain.** Workers are tracked in a [`WorkerSet`];
//!   [`Server::shutdown`] stops admissions, lets in-flight requests
//!   finish up to [`ServerConfig::drain_deadline`], then force-closes
//!   stragglers (`server.drain_forced`) and joins every worker thread,
//!   so a stopped server owns zero threads.

use crate::protocol::{
    decode_request, encode_response, write_frame, ErrorCode, FrameReader, Request, Response,
    WireError, POLL_TICK,
};
use crate::workers::WorkerSet;
use aion::Aion;
use lock::{Mutex, Rank};
use query::{ExecBudget, Params};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `Run` request slower than this is counted and logged (slow-query log).
const SLOW_QUERY_NS: u64 = 100_000_000;

/// Tunable limits for one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; excess connections are
    /// shed with a typed `Overloaded` error.
    pub max_connections: usize,
    /// How long a peer may stall mid-frame (read) or block a response
    /// (write) before the connection is dropped. Idle waiting *between*
    /// frames is unbounded — this bounds progress, not lifetime.
    pub io_timeout: Duration,
    /// Per-request execution budget: a `Run` past this deadline aborts
    /// with a typed `Timeout` error at the next cooperative check.
    pub request_deadline: Duration,
    /// How long [`Server::shutdown`] waits for in-flight requests before
    /// force-closing their connections.
    pub drain_deadline: Duration,
    /// Slow-query log lines allowed per second (0 disables the log);
    /// excess lines are counted in `server.slow_log_dropped`.
    pub slow_log_per_sec: u32,
    /// Serve reads only: mutating `Run`s are refused with a typed
    /// `ReadOnlyReplica` error. Set on replication replicas, whose
    /// database state is owned by the replayer, not by clients.
    pub read_only: bool,
    /// Per-request result-row budget (`0` = unlimited): a request whose
    /// result outgrows it aborts mid-stream with a typed
    /// `BudgetExceeded` error. One budget spans a whole `RunBatch`.
    pub max_result_rows: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 256,
            io_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            slow_log_per_sec: 5,
            read_only: false,
            max_result_rows: 0,
        }
    }
}

/// Point-in-time resilience counters for one server instance (the same
/// events also feed the process-wide `server.*` obs metrics, which are
/// cumulative across every server in the process).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections refused by admission control.
    pub shed: u64,
    /// `accept()` failures (e.g. EMFILE), each followed by backoff.
    pub accept_errors: u64,
    /// Connections dropped for I/O or protocol failures (clean EOFs are
    /// not counted).
    pub conn_errors: u64,
    /// Connections force-closed because they outlived the drain deadline.
    pub drain_forced: u64,
    /// Requests aborted by the per-request deadline or drain cancel.
    pub deadline_aborts: u64,
    /// Slow-query log lines suppressed by the rate limiter.
    pub slow_log_dropped: u64,
}

#[derive(Default)]
struct StatsCells {
    shed: AtomicU64,
    accept_errors: AtomicU64,
    conn_errors: AtomicU64,
    drain_forced: AtomicU64,
    deadline_aborts: AtomicU64,
    slow_log_dropped: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            shed: self.shed.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            conn_errors: self.conn_errors.load(Ordering::Relaxed),
            drain_forced: self.drain_forced.load(Ordering::Relaxed),
            deadline_aborts: self.deadline_aborts.load(Ordering::Relaxed),
            slow_log_dropped: self.slow_log_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Per-instance counters mirrored into the process-wide obs registry.
struct Telemetry {
    cells: StatsCells,
    requests: Arc<obs::Counter>,
    run_latency: Arc<obs::Histogram>,
    ping_latency: Arc<obs::Histogram>,
    metrics_latency: Arc<obs::Histogram>,
    slow_queries: Arc<obs::Counter>,
    shed: Arc<obs::Counter>,
    accept_errors: Arc<obs::Counter>,
    conn_errors: Arc<obs::Counter>,
    drain_forced: Arc<obs::Counter>,
    deadline_aborts: Arc<obs::Counter>,
    slow_log_dropped: Arc<obs::Counter>,
    active_connections: Arc<obs::Gauge>,
    stale_rejects: Arc<obs::Counter>,
    read_only_rejects: Arc<obs::Counter>,
    writes_fenced: Arc<obs::Counter>,
}

impl Telemetry {
    fn new() -> Telemetry {
        Telemetry {
            cells: StatsCells::default(),
            requests: obs::counter("server.requests"),
            run_latency: obs::histogram("server.request.run.latency_ns"),
            ping_latency: obs::histogram("server.request.ping.latency_ns"),
            metrics_latency: obs::histogram("server.request.metrics.latency_ns"),
            slow_queries: obs::counter("server.slow_queries"),
            shed: obs::counter("server.shed"),
            accept_errors: obs::counter("server.accept_errors"),
            conn_errors: obs::counter("server.conn_errors"),
            drain_forced: obs::counter("server.drain_forced"),
            deadline_aborts: obs::counter("server.deadline_aborts"),
            slow_log_dropped: obs::counter("server.slow_log_dropped"),
            active_connections: obs::gauge("server.active_connections"),
            stale_rejects: obs::counter("server.repl.stale_rejects"),
            read_only_rejects: obs::counter("server.repl.read_only_rejects"),
            writes_fenced: obs::counter("server.writes_fenced"),
        }
    }

    fn stale_reject(&self) {
        self.stale_rejects.inc();
    }

    fn read_only_reject(&self) {
        self.read_only_rejects.inc();
    }

    fn shed(&self) {
        self.cells.shed.fetch_add(1, Ordering::Relaxed);
        self.shed.inc();
    }

    fn accept_error(&self) {
        self.cells.accept_errors.fetch_add(1, Ordering::Relaxed);
        self.accept_errors.inc();
    }

    fn conn_error(&self) {
        self.cells.conn_errors.fetch_add(1, Ordering::Relaxed);
        self.conn_errors.inc();
    }

    fn drain_forced(&self, n: u64) {
        self.cells.drain_forced.fetch_add(n, Ordering::Relaxed);
        self.drain_forced.add(n);
    }

    fn deadline_abort(&self) {
        self.cells.deadline_aborts.fetch_add(1, Ordering::Relaxed);
        self.deadline_aborts.inc();
    }

    fn slow_log_dropped(&self) {
        self.cells.slow_log_dropped.fetch_add(1, Ordering::Relaxed);
        self.slow_log_dropped.inc();
    }
}

/// Token-bucket limiter for the slow-query log: refills `per_sec` tokens
/// per second with a one-second burst, so a pathological workload cannot
/// flood stderr.
struct SlowLogLimiter {
    per_sec: u32,
    state: Mutex<(f64, Instant)>,
}

impl SlowLogLimiter {
    fn new(per_sec: u32) -> SlowLogLimiter {
        SlowLogLimiter {
            per_sec,
            state: Mutex::new(Rank::RateLimit, (f64::from(per_sec), Instant::now())),
        }
    }

    fn allow(&self) -> bool {
        if self.per_sec == 0 {
            return false;
        }
        let mut state = self.state.lock();
        let now = Instant::now();
        let refill = now.duration_since(state.1).as_secs_f64() * f64::from(self.per_sec);
        state.0 = (state.0 + refill).min(f64::from(self.per_sec));
        state.1 = now;
        if state.0 >= 1.0 {
            state.0 -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Control-plane hook invoked for [`Request::Promote`]: returns the new
/// epoch on success. Wired by the node role manager (which owns the
/// replayer/shipper the server must not know about).
type PromoteHandler = Box<dyn FnMut() -> io::Result<u64> + Send>;

/// Everything a connection worker needs, shared across workers.
struct ServerShared {
    db: Arc<Aion>,
    stop: AtomicBool,
    queries: AtomicU64,
    tel: Telemetry,
    slow_log: SlowLogLimiter,
    workers: WorkerSet<TcpStream>,
    cfg: ServerConfig,
    addr: SocketAddr,
    /// Live read-only state. Seeded from [`ServerConfig::read_only`] but
    /// consulted per request, so promotion can flip a running replica
    /// into a writable primary without a restart (share the same `Arc`
    /// with the role manager).
    read_only: Arc<AtomicBool>,
    promote: Mutex<Option<PromoteHandler>>,
}

impl ServerShared {
    fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// A control-plane reply: a final (cursor-less) result stamped with
    /// this node's watermark.
    fn ok(&self, columns: Vec<String>, rows: Vec<Vec<query::Value>>) -> Response {
        Response::Ok {
            result: query::QueryResult { columns, rows },
            watermark: self.db.latest_ts(),
            cursor: None,
        }
    }
}

/// A running Aion server.
pub struct Server {
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    drained: bool,
}

impl Server {
    /// Starts serving `db` on an ephemeral localhost port with default
    /// limits.
    pub fn start(db: Arc<Aion>) -> io::Result<Server> {
        Server::start_with(db, ServerConfig::default())
    }

    /// Starts serving `db` with explicit limits.
    pub fn start_with(db: Arc<Aion>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tel = Telemetry::new();
        let workers = WorkerSet::new(tel.active_connections.clone());
        let read_only = Arc::new(AtomicBool::new(cfg.read_only));
        let shared = Arc::new(ServerShared {
            db,
            stop: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            slow_log: SlowLogLimiter::new(cfg.slow_log_per_sec),
            tel,
            workers,
            cfg,
            addr,
            read_only,
            promote: Mutex::new(Rank::Promote, None),
        });
        let shared2 = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("aion-server-accept".into())
            .spawn(move || accept_loop(&listener, &shared2))?;
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            drained: false,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Total queries served.
    pub fn query_count(&self) -> u64 {
        self.shared.queries.load(Ordering::Relaxed)
    }

    /// Connections currently being served (tracked workers).
    pub fn active_connections(&self) -> usize {
        self.shared.workers.active()
    }

    /// This instance's resilience counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.tel.cells.snapshot()
    }

    /// The live read-only flag. Share this `Arc` with a node role
    /// manager so promotion flips the running server writable (and a
    /// demotion flips it back) without a restart.
    pub fn read_only_flag(&self) -> Arc<AtomicBool> {
        self.shared.read_only.clone()
    }

    /// Wires the [`Request::Promote`] control operation to `handler`
    /// (typically `ReplNode::promote` in `aion-repl`). Without a handler
    /// the request is refused with a typed error.
    pub fn set_promote_handler(&self, handler: impl FnMut() -> io::Result<u64> + Send + 'static) {
        let mut slot = self.shared.promote.lock();
        *slot = Some(Box::new(handler));
    }

    /// Stops admissions, drains in-flight requests up to the drain
    /// deadline, force-closes stragglers, and joins every thread. After
    /// return the server owns no threads and no sockets.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if self.drained {
            return;
        }
        self.drained = true;
        // Drain: idle workers notice the stop flag within one poll tick;
        // busy workers get until the drain deadline to finish their
        // in-flight request.
        let deadline = Instant::now() + self.shared.cfg.drain_deadline;
        while self.shared.workers.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (handles, forced) = self.shared.workers.force_close_all();
        if forced > 0 {
            self.shared.tel.drain_forced(forced);
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    // Persistent accept failures (EMFILE, ENFILE) must not busy-spin:
    // back off exponentially and recover when accepts succeed again.
    let mut backoff = Duration::from_millis(1);
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => {
                backoff = Duration::from_millis(1);
                s
            }
            Err(_) => {
                shared.tel.accept_error();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
                continue;
            }
        };
        if shared.workers.active() >= shared.cfg.max_connections {
            shed(stream, shared);
            continue;
        }
        // The registry keeps its own handle on the socket so shutdown
        // can force-close it; the worker owns the original.
        let Ok(registered) = stream.try_clone() else {
            shared.tel.conn_error();
            continue;
        };
        let (id, cancel) = shared.workers.register(registered);
        let shared2 = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("aion-server-worker".into())
            .spawn(move || {
                if handle_connection(stream, &shared2, &cancel).is_err() {
                    shared2.tel.conn_error();
                }
                shared2.workers.finish(id);
            });
        match spawned {
            Ok(handle) => shared.workers.set_handle(id, handle),
            Err(_) => {
                shared.workers.finish(id);
                shared.tel.conn_error();
            }
        }
    }
}

/// Admission-control rejection: one typed error frame, then close.
fn shed(mut stream: TcpStream, shared: &ServerShared) {
    shared.tel.shed();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(
        &mut stream,
        &encode_response(&Response::Err(WireError::new(
            ErrorCode::Overloaded,
            "server overloaded: connection limit reached",
        ))),
    );
    // Drain whatever request the client already sent before closing.
    // Closing with unread inbound data makes the kernel send RST, which
    // can destroy the rejection frame before the client reads it — the
    // client would then see a raw broken pipe instead of the typed
    // `Overloaded` error it should retry on.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.read(&mut [0u8; 1024]);
    let _ = stream.shutdown(Shutdown::Write);
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Maps an execution failure to its typed wire error, counting deadline
/// aborts. Shared by `Run`, paged `Run`, and `RunBatch` statements.
fn exec_error_to_wire(shared: &ServerShared, e: lpg::GraphError) -> WireError {
    match e {
        lpg::GraphError::DeadlineExceeded => {
            shared.tel.deadline_abort();
            if shared.stop.load(Ordering::Acquire) {
                WireError::new(ErrorCode::ShuttingDown, "request aborted by server drain")
            } else {
                WireError::new(
                    ErrorCode::Timeout,
                    format!(
                        "request deadline exceeded ({} ms)",
                        shared.cfg.request_deadline.as_millis()
                    ),
                )
            }
        }
        lpg::GraphError::BudgetExceeded => WireError::new(
            ErrorCode::BudgetExceeded,
            "result exceeded the row budget; page or narrow the query",
        ),
        lpg::GraphError::CursorInvalid(msg) => {
            WireError::new(ErrorCode::CursorInvalid, format!("invalid cursor: {msg}"))
        }
        e @ lpg::GraphError::Fenced { .. } => {
            shared.tel.writes_fenced.inc();
            WireError::new(ErrorCode::Fenced, e.to_string())
        }
        e => WireError::generic(e.to_string()),
    }
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &ServerShared,
    cancel: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(shared.cfg.io_timeout))?;
    let mut reader = FrameReader::new();
    let draining = || shared.stop.load(Ordering::Acquire);
    loop {
        // `None`: the peer hung up between frames, or the server began
        // draining while this connection was idle.
        let Some(frame) = reader.next_frame(&mut stream, shared.cfg.io_timeout, draining)? else {
            return Ok(());
        };
        // A stop request (from any connection) drains live workers: refuse
        // further work instead of silently serving a half-down server.
        if shared.stop.load(Ordering::Acquire) {
            let _ = write_frame(
                &mut stream,
                &encode_response(&Response::Err(WireError::new(
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                ))),
            );
            return Ok(());
        }
        shared.tel.requests.inc();
        let started = Instant::now();
        let response = match decode_request(&frame) {
            Ok(Request::Ping) => {
                let r = shared.ok(vec!["pong".into()], vec![]);
                shared.tel.ping_latency.record(elapsed_ns(started));
                r
            }
            Ok(Request::Metrics) => {
                let r = Response::Metrics(obs::snapshot());
                shared.tel.metrics_latency.record(elapsed_ns(started));
                r
            }
            Ok(Request::Status) => Response::Status {
                // `max_seen` is the node's effective epoch: for the
                // acting primary it equals the held epoch; for a deposed
                // one it is the newer epoch that fenced it — either way
                // the highest-epoch writable node is the true primary.
                epoch: shared.db.max_seen_epoch(),
                read_only: shared.is_read_only(),
                fenced: shared.db.is_fenced(),
                latest_ts: shared.db.latest_ts(),
            },
            Ok(Request::Promote) => {
                let mut slot = shared.promote.lock();
                match slot.as_mut() {
                    None => Response::Err(WireError::generic(
                        "this node has no promote handler (not running under a role manager)",
                    )),
                    Some(handler) => match handler() {
                        Ok(epoch) => shared.ok(
                            vec!["epoch".into()],
                            vec![vec![query::Value::Int(
                                i64::try_from(epoch).unwrap_or(i64::MAX),
                            )]],
                        ),
                        Err(e) => {
                            Response::Err(WireError::generic(format!("promotion failed: {e}")))
                        }
                    },
                }
            }
            Ok(Request::Shutdown) => {
                shared.stop.store(true, Ordering::Release);
                write_frame(&mut stream, &encode_response(&shared.ok(vec![], vec![])))?;
                // The accept thread blocks in `incoming()` and only checks
                // the stop flag after a connection arrives; without a wake
                // the listener would linger until the next organic connect.
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
            Ok(Request::Run {
                query,
                params,
                min_watermark,
                page_size,
                cursor,
            }) => {
                shared.queries.fetch_add(1, Ordering::Relaxed);
                let params: Params = params.into_iter().collect();
                let budget = ExecBudget::with_deadline(
                    Some(started + shared.cfg.request_deadline),
                    Some(cancel.clone()),
                )
                .with_row_cap(shared.cfg.max_result_rows);
                // Staleness gate: refuse before executing so a client with
                // a read-your-writes floor never sees pre-floor state. The
                // check is conservative — replay may advance concurrently —
                // but a watermark can only grow, never shrink.
                let watermark = shared.db.latest_ts();
                if min_watermark > watermark {
                    shared.tel.stale_reject();
                    let r = Response::Err(WireError::new(
                        ErrorCode::StaleReplica,
                        format!("replica watermark {watermark} behind requested {min_watermark}"),
                    ));
                    write_frame(&mut stream, &encode_response(&r))?;
                    continue;
                }
                // A resumed cursor pins a snapshot timestamp; a node whose
                // replay watermark is behind it cannot serve that page yet.
                // Same bounded-staleness contract as `min_watermark`, so
                // cursors roam across replicas safely. (A token that fails
                // to decode falls through to execution for its typed
                // CursorInvalid rejection.)
                if let Some(pinned) = cursor
                    .as_deref()
                    .and_then(|c| query::peek_snapshot_ts(c).ok())
                {
                    if pinned > watermark {
                        shared.tel.stale_reject();
                        let r = Response::Err(WireError::new(
                            ErrorCode::StaleReplica,
                            format!(
                                "replica watermark {watermark} behind cursor snapshot {pinned}"
                            ),
                        ));
                        write_frame(&mut stream, &encode_response(&r))?;
                        continue;
                    }
                }
                if shared.is_read_only() && !crate::client::query_is_read_only(&query) {
                    shared.tel.read_only_reject();
                    let r = Response::Err(WireError::new(
                        ErrorCode::ReadOnlyReplica,
                        "replica is read-only; route writes to the primary",
                    ));
                    write_frame(&mut stream, &encode_response(&r))?;
                    continue;
                }
                let paged = page_size > 0 || cursor.is_some();
                let r = if paged {
                    // page_size 0 with a cursor means "the rest, unpaged".
                    let take = if page_size == 0 {
                        usize::MAX
                    } else {
                        page_size as usize
                    };
                    match query::execute_paged(
                        &shared.db,
                        &query,
                        &params,
                        budget,
                        take,
                        cursor.as_deref(),
                    ) {
                        Ok(page) => Response::Ok {
                            result: page.result,
                            watermark: shared.db.latest_ts(),
                            cursor: page.cursor,
                        },
                        Err(e) => Response::Err(exec_error_to_wire(shared, e)),
                    }
                } else {
                    match query::execute_with_budget(&shared.db, &query, &params, budget) {
                        Ok(result) => Response::Ok {
                            result,
                            watermark: shared.db.latest_ts(),
                            cursor: None,
                        },
                        Err(e) => Response::Err(exec_error_to_wire(shared, e)),
                    }
                };
                let elapsed = elapsed_ns(started);
                shared.tel.run_latency.record(elapsed);
                if elapsed > SLOW_QUERY_NS {
                    shared.tel.slow_queries.inc();
                    if shared.slow_log.allow() {
                        let preview: String = query.chars().take(200).collect();
                        eprintln!(
                            "[aion-server] slow query ({} ms): {preview}",
                            elapsed / 1_000_000
                        );
                    } else {
                        shared.tel.slow_log_dropped();
                    }
                }
                r
            }
            Ok(Request::RunBatch {
                statements,
                min_watermark,
            }) => {
                shared
                    .queries
                    .fetch_add(statements.len() as u64, Ordering::Relaxed);
                // One budget spans the whole batch: a pipelined frame must
                // not multiply the per-request deadline by its length, and
                // the row cap applies to the batch's combined result
                // (clones share spending).
                let budget = ExecBudget::with_deadline(
                    Some(started + shared.cfg.request_deadline),
                    Some(cancel.clone()),
                )
                .with_row_cap(shared.cfg.max_result_rows);
                // The staleness gate applies to the batch as a whole (one
                // floor, checked once, same conservatism as Run).
                let watermark = shared.db.latest_ts();
                if min_watermark > watermark {
                    shared.tel.stale_reject();
                    let r = Response::Err(WireError::new(
                        ErrorCode::StaleReplica,
                        format!("replica watermark {watermark} behind requested {min_watermark}"),
                    ));
                    write_frame(&mut stream, &encode_response(&r))?;
                    continue;
                }
                let mut results = Vec::with_capacity(statements.len());
                for (query, params) in statements {
                    // Read-only replicas gate per statement: reads in a
                    // mixed batch still execute, each write gets its own
                    // typed refusal.
                    if shared.is_read_only() && !crate::client::query_is_read_only(&query) {
                        shared.tel.read_only_reject();
                        results.push(Err(WireError::new(
                            ErrorCode::ReadOnlyReplica,
                            "replica is read-only; route writes to the primary",
                        )));
                        continue;
                    }
                    let params: Params = params.into_iter().collect();
                    match query::execute_with_budget(&shared.db, &query, &params, budget.clone()) {
                        Ok(result) => results.push(Ok(result)),
                        Err(e) => results.push(Err(exec_error_to_wire(shared, e))),
                    }
                }
                shared.tel.run_latency.record(elapsed_ns(started));
                Response::Batch {
                    results,
                    watermark: shared.db.latest_ts(),
                }
            }
            Err(e) => {
                // A framing/decode failure means the byte stream can no
                // longer be trusted (e.g. corruption): answer once, then
                // close instead of resynchronising on garbage.
                shared.tel.conn_error();
                let _ = write_frame(
                    &mut stream,
                    &encode_response(&Response::Err(WireError::generic(format!(
                        "protocol error: {e}"
                    )))),
                );
                return Ok(());
            }
        };
        write_frame(&mut stream, &encode_response(&response))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_log_limiter_caps_rate() {
        let limiter = SlowLogLimiter::new(2);
        // The bucket starts full: two lines pass, the third is dropped.
        assert!(limiter.allow());
        assert!(limiter.allow());
        assert!(!limiter.allow());
        // Zero disables the log entirely.
        let off = SlowLogLimiter::new(0);
        assert!(!off.allow());
    }

    #[test]
    fn worker_set_tracks_registration_and_finish() {
        let ws = WorkerSet::new(obs::gauge("server.test.active"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sock = TcpStream::connect(addr).unwrap();
        let (id, cancel) = ws.register(sock.try_clone().unwrap());
        assert_eq!(ws.active(), 1);
        assert!(!cancel.load(Ordering::Relaxed));
        ws.finish(id);
        assert_eq!(ws.active(), 0);
        // Finishing twice or force-closing an empty set is harmless.
        ws.finish(id);
        let (handles, forced) = ws.force_close_all();
        assert!(handles.is_empty());
        assert_eq!(forced, 0);
    }
}
