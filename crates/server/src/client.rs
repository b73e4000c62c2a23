//! Blocking client: one TCP connection, synchronous request/response —
//! the shape of one paper client thread — hardened for lossy networks.
//!
//! Resilience model (DESIGN.md §11):
//!
//! * **Timeouts everywhere.** Connecting is bounded by
//!   [`ClientConfig::connect_timeout`]; every request (write + read) is
//!   bounded by [`ClientConfig::request_timeout`]. A dead peer produces
//!   a timely error, never a hang.
//! * **Automatic reconnect + bounded retries.** Transport failures drop
//!   the connection and retry up to [`ClientConfig::retries`] times with
//!   exponential backoff and decorrelated jitter.
//! * **Idempotency gating.** Only requests that cannot mutate the
//!   database are retried after a transport failure: `Ping`, `Metrics`,
//!   `Shutdown`, and read-only `Run`s (classified by parsing the query).
//!   A write whose acknowledgement was lost is *never* replayed — the
//!   caller gets the transport error and must decide, so a commit cannot
//!   be double-applied. Typed `Overloaded` rejections are the exception:
//!   the server sheds those before execution, so any request may retry.

use crate::protocol::{
    decode_response, encode_request, write_frame, ErrorCode, FrameReader, Request, Response,
};
use query::{QueryResult, Value};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use vfs::SplitMix64;

/// Tunable resilience knobs for one [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect budget (also used for each reconnect attempt).
    pub connect_timeout: Duration,
    /// Socket read/write timeout covering one request/response exchange.
    pub request_timeout: Duration,
    /// Additional attempts after the first failure (0 = never retry).
    pub retries: u32,
    /// Lower bound of the decorrelated-jitter backoff.
    pub backoff_base: Duration,
    /// Upper bound of any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the jitter RNG, so test schedules are reproducible.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

/// One live connection: the socket and the reader that owns its inbound
/// side.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// A connected Aion client.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    rng: SplitMix64,
    prev_backoff: Duration,
    connected_once: bool,
    reconnects: u64,
}

impl Client {
    /// Connects to a running [`crate::Server`] with default resilience
    /// settings.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit resilience settings. The initial
    /// connection is established eagerly so an unreachable server fails
    /// here, not on the first request.
    pub fn connect_with(addr: SocketAddr, cfg: ClientConfig) -> io::Result<Client> {
        let prev_backoff = cfg.backoff_base;
        let mut client = Client {
            addr,
            rng: SplitMix64::new(cfg.jitter_seed),
            cfg,
            conn: None,
            prev_backoff,
            connected_once: false,
            reconnects: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Times this client reopened its connection (diagnostics/tests).
    pub fn reconnect_count(&self) -> u64 {
        self.reconnects
    }

    fn ensure_connected(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.cfg.request_timeout))?;
            stream.set_write_timeout(Some(self.cfg.request_timeout))?;
            self.conn = Some(Conn {
                stream,
                reader: FrameReader::new(),
            });
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
        }
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            // Unreachable: the branch above just populated it.
            None => Err(io::Error::other("connection unavailable")),
        }
    }

    /// Exponential backoff with decorrelated jitter: each sleep is drawn
    /// uniformly from `[base, 3 × previous]`, capped.
    fn backoff_sleep(&mut self) {
        let base = self.cfg.backoff_base.max(Duration::from_micros(100));
        let span = self.prev_backoff.max(base).saturating_mul(3);
        let spread = span
            .saturating_sub(base)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let sleep = (base + Duration::from_nanos(self.rng.below(spread.saturating_add(1))))
            .min(self.cfg.backoff_cap);
        self.prev_backoff = sleep;
        std::thread::sleep(sleep);
    }

    /// One wire exchange; any failure poisons the connection.
    fn attempt(&mut self, payload: &[u8]) -> io::Result<Response> {
        let result = (|| {
            let conn = self.ensure_connected()?;
            write_frame(&mut conn.stream, payload)?;
            let frame = conn.reader.read_one(&mut conn.stream)?;
            decode_response(&frame)
        })();
        if result.is_err() {
            // The stream may hold half a frame; never reuse it.
            self.conn = None;
        }
        result
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let payload = encode_request(req);
        let idempotent = request_is_idempotent(req);
        let mut attempts_left = self.cfg.retries;
        loop {
            match self.attempt(&payload) {
                // Admission-control rejection: the request was never
                // executed, so retrying is safe even for writes.
                Ok(Response::Err(e)) if e.code == ErrorCode::Overloaded && attempts_left > 0 => {
                    attempts_left -= 1;
                    self.conn = None;
                    self.backoff_sleep();
                }
                Ok(resp) => {
                    self.prev_backoff = self.cfg.backoff_base;
                    return Ok(resp);
                }
                Err(e) => {
                    if !idempotent || attempts_left == 0 {
                        return Err(normalize_transport_error(e));
                    }
                    attempts_left -= 1;
                    self.backoff_sleep();
                }
            }
        }
    }

    /// Executes a query with parameters; errors surface as `io::Error`
    /// whose kind mirrors the wire error code (`TimedOut`,
    /// `ResourceBusy`, `ConnectionAborted`, …).
    pub fn run(&mut self, query: &str, params: Vec<(String, Value)>) -> io::Result<QueryResult> {
        self.run_with_watermark(query, params, 0).map(|(r, _)| r)
    }

    /// Like [`run`], but requires the serving node to have replayed at
    /// least `min_watermark` (bounded staleness / read-your-writes) and
    /// returns the node's watermark alongside the result. A node behind
    /// the floor refuses with [`io::ErrorKind::WouldBlock`]
    /// (`StaleReplica`) instead of answering from old state.
    ///
    /// [`run`]: Client::run
    pub fn run_with_watermark(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
        min_watermark: u64,
    ) -> io::Result<(QueryResult, u64)> {
        match self.call(&Request::Run {
            query: query.to_string(),
            params,
            min_watermark,
            page_size: 0,
            cursor: None,
        })? {
            Response::Ok {
                result, watermark, ..
            } => Ok((result, watermark)),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Executes one page of a read query: at most `page_size` rows plus
    /// an opaque cursor to resume with (`None` when the result is
    /// complete). Pass a previous page's cursor to continue; the whole
    /// paged scan stays pinned to the first page's snapshot, so pages
    /// are mutually consistent even under concurrent writers. A corrupt
    /// or stale cursor fails with [`io::ErrorKind::InvalidInput`]
    /// (`CursorInvalid`) — restart from the first page.
    pub fn run_page(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
        min_watermark: u64,
        page_size: u32,
        cursor: Option<Vec<u8>>,
    ) -> io::Result<PageResult> {
        match self.call(&Request::Run {
            query: query.to_string(),
            params,
            min_watermark,
            page_size,
            cursor,
        })? {
            Response::Ok {
                result,
                watermark,
                cursor,
            } => Ok(PageResult {
                result,
                cursor,
                watermark,
            }),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// A pull-based paging iterator over a read query: each `next()` is
    /// one [`run_page`] round-trip, yielding that page's rows. Stops
    /// after the final page (or the first error).
    ///
    /// [`run_page`]: Client::run_page
    pub fn pages<'c>(
        &'c mut self,
        query: &str,
        params: Vec<(String, Value)>,
        page_size: u32,
    ) -> Pages<'c> {
        Pages {
            client: self,
            query: query.to_string(),
            params,
            page_size,
            cursor: None,
            started: false,
            done: false,
        }
    }

    /// Executes N statements in one wire round-trip (client-side
    /// pipelining over [`Request::RunBatch`]): the statements travel in a
    /// single frame, run in order on the server, and come back as one
    /// typed result per statement — a failed statement does not abort the
    /// ones after it. Returns the per-statement outcomes plus the serving
    /// node's watermark. The batch is retried after a transport failure
    /// only when *every* statement parses read-only; one write in the
    /// batch makes the whole frame non-replayable, exactly like a lone
    /// write `Run`.
    pub fn run_batch(
        &mut self,
        statements: Vec<(String, Vec<(String, Value)>)>,
        min_watermark: u64,
    ) -> io::Result<(Vec<Result<QueryResult, io::Error>>, u64)> {
        match self.call(&Request::RunBatch {
            statements,
            min_watermark,
        })? {
            Response::Batch { results, watermark } => Ok((
                results
                    .into_iter()
                    .map(|r| r.map_err(|e| e.into_io()))
                    .collect(),
                watermark,
            )),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Ok { .. } => Ok(()),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Fetches the server's process-wide metrics snapshot.
    pub fn metrics(&mut self) -> io::Result<obs::MetricsSnapshot> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Requests server shutdown.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        let _ = self.call(&Request::Shutdown)?;
        Ok(())
    }

    /// Fetches the node's replication role snapshot (failover probing).
    pub fn status(&mut self) -> io::Result<NodeStatus> {
        match self.call(&Request::Status)? {
            Response::Status {
                epoch,
                read_only,
                fenced,
                latest_ts,
            } => Ok(NodeStatus {
                epoch,
                read_only,
                fenced,
                latest_ts,
            }),
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Asks this node to promote itself to primary; returns the new
    /// epoch. **Never retried** (a lost ack could bump the epoch twice);
    /// a transport failure surfaces to the caller, who should re-check
    /// [`Client::status`] before trying again.
    pub fn promote(&mut self) -> io::Result<u64> {
        match self.call(&Request::Promote)? {
            Response::Ok { result, .. } => match result.rows.first().and_then(|r| r.first()) {
                Some(Value::Int(epoch)) => Ok(u64::try_from(*epoch).unwrap_or(0)),
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "promotion reply missing the epoch column",
                )),
            },
            Response::Err(e) => Err(e.into_io()),
            other => Err(unexpected_response(&other)),
        }
    }
}

/// A node's replication role snapshot ([`Client::status`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeStatus {
    /// The node's current replication epoch (highest seen).
    pub epoch: u64,
    /// Whether the node refuses writes by role.
    pub read_only: bool,
    /// Whether the node's write path is fenced by a newer epoch.
    pub fenced: bool,
    /// Latest commit timestamp applied on the node.
    pub latest_ts: u64,
}

impl NodeStatus {
    /// Whether this node is currently accepting direct writes — what
    /// failover routing looks for (paired with the highest epoch).
    pub fn writable(&self) -> bool {
        !self.read_only && !self.fenced
    }
}

/// One page returned by [`Client::run_page`].
#[derive(Clone, PartialEq, Debug)]
pub struct PageResult {
    /// The page's rows.
    pub result: QueryResult,
    /// Resume token for the next page; `None` when complete.
    pub cursor: Option<Vec<u8>>,
    /// The serving node's replay watermark.
    pub watermark: u64,
}

/// Iterator state for [`Client::pages`].
pub struct Pages<'c> {
    client: &'c mut Client,
    query: String,
    params: Vec<(String, Value)>,
    page_size: u32,
    cursor: Option<Vec<u8>>,
    started: bool,
    done: bool,
}

impl Iterator for Pages<'_> {
    type Item = io::Result<QueryResult>;

    fn next(&mut self) -> Option<io::Result<QueryResult>> {
        if self.done || (self.started && self.cursor.is_none()) {
            return None;
        }
        self.started = true;
        match self.client.run_page(
            &self.query,
            self.params.clone(),
            0,
            self.page_size,
            self.cursor.clone(),
        ) {
            Ok(page) => {
                self.cursor = page.cursor;
                Some(Ok(page.result))
            }
            Err(e) => {
                // Keep the cursor across transport faults: paged reads
                // are idempotent, so the caller can simply call `next`
                // again and resume from the same token once the client
                // has re-routed or reconnected. Only a *semantic*
                // rejection (bad query, expired cursor) ends the
                // iterator for good.
                if e.kind() == io::ErrorKind::InvalidInput {
                    self.done = true;
                }
                Some(Err(e))
            }
        }
    }
}

/// True when replaying `req` after a lost acknowledgement cannot change
/// database state a second time.
pub(crate) fn request_is_idempotent(req: &Request) -> bool {
    match req {
        Request::Ping | Request::Metrics | Request::Shutdown => true,
        // Status is the read-only probe failover routing leans on; it
        // must always be safe to replay. Promote is the opposite: a
        // retry after a lost ack could bump the epoch twice, so clients
        // never auto-retry it.
        Request::Status => true,
        Request::Promote => false,
        Request::Run { query, .. } => query_is_read_only(query),
        Request::RunBatch { statements, .. } => statements
            .iter()
            .all(|(query, _)| query_is_read_only(query)),
    }
}

/// Whether `query` parses as a read-only statement. Unparseable text is
/// conservatively treated as a write (never retried, never routed to a
/// replica). Routing classifies each query exactly once with this and
/// threads the answer through retries/failover, so obs counters are not
/// double-counted when a replica-served read falls back to the primary.
pub(crate) fn query_is_read_only(query: &str) -> bool {
    query::parse(query)
        .map(|q| query::is_read_only(&q))
        .unwrap_or(false)
}

/// Socket timeouts surface as `WouldBlock` on most platforms; present
/// them as the `TimedOut` they mean.
fn normalize_transport_error(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e.to_string())
    } else {
        e
    }
}

fn unexpected_response(resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response variant: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_classification() {
        assert!(request_is_idempotent(&Request::Ping));
        assert!(request_is_idempotent(&Request::Metrics));
        assert!(request_is_idempotent(&Request::Shutdown));
        assert!(request_is_idempotent(&Request::Status));
        assert!(!request_is_idempotent(&Request::Promote));
        let read = Request::Run {
            query: "MATCH (n) WHERE id(n) = 1 RETURN n".into(),
            params: vec![],
            min_watermark: 0,
            page_size: 0,
            cursor: None,
        };
        assert!(request_is_idempotent(&read));
        for write in [
            "CREATE (n {_id: 1})",
            "MATCH (n) WHERE id(n) = 1 SET n.x = 2",
            "MATCH (n) WHERE id(n) = 1 DELETE n",
        ] {
            assert!(
                !request_is_idempotent(&Request::Run {
                    query: write.into(),
                    params: vec![],
                    min_watermark: 0,
                    page_size: 0,
                    cursor: None,
                }),
                "{write} must not be retried"
            );
        }
        // Unparseable text is conservatively non-idempotent.
        assert!(!request_is_idempotent(&Request::Run {
            query: "NOT CYPHER".into(),
            params: vec![],
            min_watermark: 0,
            page_size: 0,
            cursor: None,
        }));
    }

    #[test]
    fn batch_idempotency_requires_every_statement_read_only() {
        let read = "MATCH (n) WHERE id(n) = 1 RETURN n".to_string();
        let write = "CREATE (n {_id: 7})".to_string();
        // All-reads batch: safe to replay after a lost ack.
        assert!(request_is_idempotent(&Request::RunBatch {
            statements: vec![(read.clone(), vec![]), (read.clone(), vec![])],
            min_watermark: 0,
        }));
        // One write poisons the whole frame.
        assert!(!request_is_idempotent(&Request::RunBatch {
            statements: vec![(read.clone(), vec![]), (write, vec![])],
            min_watermark: 0,
        }));
        // The empty batch mutates nothing.
        assert!(request_is_idempotent(&Request::RunBatch {
            statements: vec![],
            min_watermark: 0,
        }));
    }
}
