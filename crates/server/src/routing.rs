//! Replica-aware request routing: reads fan out to read replicas,
//! writes (and reads no replica can satisfy) go to the primary.
//!
//! Routing model (DESIGN.md §13):
//!
//! * **Classification once.** Each query is parsed exactly once per
//!   logical call (`client::query_is_read_only`); the answer
//!   drives both the routing decision and the retry gate, and obs
//!   counters are bumped once per logical call — a replica-served read
//!   that fails over to the primary is **one** read, not two.
//! * **Read-your-writes.** The router remembers the highest watermark
//!   any response carried (every write ack includes the primary's
//!   watermark). Replica reads demand `min_watermark =` that session
//!   watermark; a replica still catching up refuses with a typed
//!   `StaleReplica` error and the router falls over — first to the next
//!   replica, finally to the primary, which is never stale.
//! * **Graceful degradation.** Transport errors mark a replica down for
//!   a cooldown window instead of removing it; with every replica down
//!   or stale, reads degrade to primary-only service.
//! * **Primary failover (DESIGN.md §17).** When the primary refuses a
//!   write with a typed rejection (`Fenced` — it was deposed — or
//!   `ReadOnlyReplica` — it rejoined as a replica) or cannot be reached
//!   at all, the router probes every node it knows with `Status`,
//!   re-points the write route at the **highest-epoch writable** node,
//!   and retries exactly when the failed attempt provably did not
//!   execute (typed rejections and connect failures). An ambiguous
//!   mid-request transport error still re-points the route for
//!   subsequent calls but surfaces the error — a write whose ack was
//!   lost is never replayed. The session watermark carries across
//!   failover, so read-your-writes holds on the new primary.

use crate::client::{query_is_read_only, Client, ClientConfig};
use query::{QueryResult, Value};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a replica sits out after a transport failure before the
/// router offers it reads again.
const REPLICA_COOLDOWN: Duration = Duration::from_secs(1);

/// Where a logical call was ultimately served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// The primary answered.
    Primary,
    /// Read replica `index` (into the configured replica list) answered.
    Replica(usize),
}

/// A client that routes between one primary and N read replicas.
pub struct RoutedClient {
    primary_addr: SocketAddr,
    primary: Option<Client>,
    replicas: Vec<ReplicaSlot>,
    cfg: ClientConfig,
    /// Round-robin cursor over replicas.
    next_replica: usize,
    /// Highest watermark observed in any response: the read-your-writes
    /// floor for subsequent replica reads.
    session_watermark: u64,
    tel: RouteTelemetry,
}

struct ReplicaSlot {
    addr: SocketAddr,
    client: Option<Client>,
    down_until: Option<Instant>,
}

/// Obs counters for routing decisions, bumped once per logical call.
struct RouteTelemetry {
    replica_reads: Arc<obs::Counter>,
    primary_reads: Arc<obs::Counter>,
    primary_writes: Arc<obs::Counter>,
    failovers: Arc<obs::Counter>,
    stale_rejects: Arc<obs::Counter>,
}

impl RouteTelemetry {
    fn new() -> RouteTelemetry {
        RouteTelemetry {
            replica_reads: obs::counter("client.route.replica_reads"),
            primary_reads: obs::counter("client.route.primary_reads"),
            primary_writes: obs::counter("client.route.primary_writes"),
            failovers: obs::counter("client.route.failovers"),
            stale_rejects: obs::counter("client.route.stale_rejects"),
        }
    }
}

impl RoutedClient {
    /// Creates a router over `primary` and `replicas`. Connections are
    /// established lazily, so unreachable replicas cost nothing until a
    /// read tries them.
    pub fn new(primary: SocketAddr, replicas: Vec<SocketAddr>, cfg: ClientConfig) -> RoutedClient {
        RoutedClient {
            primary_addr: primary,
            primary: None,
            replicas: replicas
                .into_iter()
                .map(|addr| ReplicaSlot {
                    addr,
                    client: None,
                    down_until: None,
                })
                .collect(),
            cfg,
            next_replica: 0,
            session_watermark: 0,
            tel: RouteTelemetry::new(),
        }
    }

    /// The current read-your-writes floor: the highest watermark any
    /// response has carried in this session.
    pub fn session_watermark(&self) -> u64 {
        self.session_watermark
    }

    /// Executes `query`, routing by read/write classification, and
    /// reports which node served it (tests, diagnostics).
    pub fn run_traced(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
    ) -> io::Result<(QueryResult, ServedBy)> {
        // Classified once; threaded through retries and failover so the
        // routing counters below fire once per *logical* call.
        let read_only = query_is_read_only(query);
        if !read_only {
            let result = self.run_on_primary(query, params);
            if result.is_ok() {
                self.tel.primary_writes.inc();
            }
            return result.map(|r| (r, ServedBy::Primary));
        }
        let mut failed_over = false;
        for _ in 0..self.replicas.len() {
            let idx = self.next_replica % self.replicas.len();
            self.next_replica = self.next_replica.wrapping_add(1);
            match self.try_replica(idx, query, &params) {
                ReplicaOutcome::Served(result, watermark) => {
                    self.observe_watermark(watermark);
                    self.tel.replica_reads.inc();
                    if failed_over {
                        self.tel.failovers.inc();
                    }
                    return Ok((result, ServedBy::Replica(idx)));
                }
                ReplicaOutcome::Stale => {
                    self.tel.stale_rejects.inc();
                    failed_over = true;
                }
                ReplicaOutcome::Unavailable => {
                    failed_over = true;
                }
                ReplicaOutcome::Fatal(e) => return Err(e),
            }
        }
        // Every replica was down or stale: the primary is authoritative
        // and by definition satisfies any watermark it ever issued.
        let result = self.run_on_primary(query, params)?;
        self.tel.primary_reads.inc();
        if failed_over {
            self.tel.failovers.inc();
        }
        Ok((result, ServedBy::Primary))
    }

    /// Executes `query`: reads fan to replicas (with read-your-writes),
    /// writes and unserveable reads go to the primary.
    pub fn run(&mut self, query: &str, params: Vec<(String, Value)>) -> io::Result<QueryResult> {
        self.run_traced(query, params).map(|(r, _)| r)
    }

    fn observe_watermark(&mut self, watermark: u64) {
        self.session_watermark = self.session_watermark.max(watermark);
    }

    fn run_on_primary(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
    ) -> io::Result<QueryResult> {
        match self.primary_attempt(query, params.clone()) {
            Ok(result) => Ok(result),
            // The attempt provably did not execute (typed rejection or
            // the connection was never established): find the real
            // primary and replay the call there once.
            Err(PrimaryError::Retryable(e)) => {
                if self.failover_primary() {
                    self.primary_attempt(query, params)
                        .map_err(PrimaryError::into_io)
                } else {
                    Err(e)
                }
            }
            // Ambiguous (request sent, ack lost): heal the route for the
            // next call, but surface the error — replaying could apply
            // the write twice.
            Err(PrimaryError::Ambiguous(e)) => {
                let _ = self.failover_primary();
                Err(e)
            }
        }
    }

    /// One write/read attempt against the current primary route,
    /// classifying failures by whether the request could have executed.
    fn primary_attempt(
        &mut self,
        query: &str,
        params: Vec<(String, Value)>,
    ) -> Result<QueryResult, PrimaryError> {
        if self.primary.is_none() {
            // Nothing was sent yet: a connect failure is always safe to
            // retry elsewhere.
            self.primary = Some(
                Client::connect_with(self.primary_addr, self.cfg.clone())
                    .map_err(PrimaryError::Retryable)?,
            );
        }
        let client = match self.primary.as_mut() {
            Some(c) => c,
            // Unreachable: populated just above.
            None => {
                return Err(PrimaryError::Retryable(io::Error::other(
                    "primary connection unavailable",
                )))
            }
        };
        // min_watermark 0: the primary owns the log head and cannot be
        // stale relative to anything it acknowledged.
        match client.run_with_watermark(query, params, 0) {
            Ok((result, watermark)) => {
                self.observe_watermark(watermark);
                Ok(result)
            }
            // Typed rejections shed *before* execution: `Fenced` (the
            // node was deposed) and `ReadOnlyReplica` (it rejoined as a
            // replica). Neither applied the write.
            Err(e)
                if e.kind() == io::ErrorKind::NotConnected
                    || e.kind() == io::ErrorKind::PermissionDenied =>
            {
                self.primary = None;
                Err(PrimaryError::Retryable(e))
            }
            Err(e) => {
                self.primary = None;
                Err(PrimaryError::Ambiguous(e))
            }
        }
    }

    /// Probes every node this router knows (current primary + replicas)
    /// with `Status` and re-points the write route at the
    /// highest-epoch writable node. Returns whether a writable node was
    /// found. When the route actually moves, the deposed primary's
    /// address takes the promoted node's replica slot — after it rejoins
    /// (as a replica) it serves reads again.
    fn failover_primary(&mut self) -> bool {
        // Probes are advisory: keep them snappy, no retry loops.
        let mut probe_cfg = self.cfg.clone();
        probe_cfg.retries = 0;
        let mut best: Option<(u64, SocketAddr)> = None;
        let candidates: Vec<SocketAddr> = std::iter::once(self.primary_addr)
            .chain(self.replicas.iter().map(|s| s.addr))
            .collect();
        for addr in candidates {
            let Ok(mut client) = Client::connect_with(addr, probe_cfg.clone()) else {
                continue;
            };
            let Ok(status) = client.status() else {
                continue;
            };
            if status.writable() && best.is_none_or(|(epoch, _)| status.epoch > epoch) {
                best = Some((status.epoch, addr));
            }
        }
        match best {
            Some((_, addr)) if addr != self.primary_addr => {
                if let Some(slot) = self.replicas.iter_mut().find(|s| s.addr == addr) {
                    slot.addr = self.primary_addr;
                    slot.client = None;
                    slot.down_until = Some(Instant::now() + REPLICA_COOLDOWN);
                }
                self.primary_addr = addr;
                self.primary = None;
                self.tel.failovers.inc();
                true
            }
            // The configured primary itself is (again) writable — e.g. a
            // transient fence that resolved. Just reconnect.
            Some(_) => {
                self.primary = None;
                true
            }
            None => false,
        }
    }

    fn try_replica(
        &mut self,
        idx: usize,
        query: &str,
        params: &[(String, Value)],
    ) -> ReplicaOutcome {
        let min_watermark = self.session_watermark;
        let cfg = self.cfg.clone();
        let slot = &mut self.replicas[idx];
        if let Some(until) = slot.down_until {
            if Instant::now() < until {
                return ReplicaOutcome::Unavailable;
            }
            slot.down_until = None;
        }
        if slot.client.is_none() {
            match Client::connect_with(slot.addr, cfg) {
                Ok(c) => slot.client = Some(c),
                Err(_) => {
                    slot.down_until = Some(Instant::now() + REPLICA_COOLDOWN);
                    return ReplicaOutcome::Unavailable;
                }
            }
        }
        let client = match slot.client.as_mut() {
            Some(c) => c,
            // Unreachable: populated just above.
            None => return ReplicaOutcome::Unavailable,
        };
        match client.run_with_watermark(query, params.to_vec(), min_watermark) {
            Ok((result, watermark)) => ReplicaOutcome::Served(result, watermark),
            // StaleReplica surfaces as WouldBlock: the replica is healthy
            // but behind; don't cool it down, just go elsewhere this call.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReplicaOutcome::Stale,
            // A replica refusing reads as "read only" means the query
            // classifier and the server disagree; treat as fatal so the
            // mismatch is visible instead of silently retried forever.
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => ReplicaOutcome::Fatal(e),
            Err(_) => {
                slot.client = None;
                slot.down_until = Some(Instant::now() + REPLICA_COOLDOWN);
                ReplicaOutcome::Unavailable
            }
        }
    }
}

enum ReplicaOutcome {
    Served(QueryResult, u64),
    Stale,
    Unavailable,
    Fatal(io::Error),
}

/// A failed primary attempt, split by whether the request could have
/// executed on the server before the failure.
enum PrimaryError {
    /// Provably not executed (typed rejection, connect failure): safe to
    /// replay on another node.
    Retryable(io::Error),
    /// Sent but unacknowledged: may have executed; never replayed.
    Ambiguous(io::Error),
}

impl PrimaryError {
    fn into_io(self) -> io::Error {
        match self {
            PrimaryError::Retryable(e) | PrimaryError::Ambiguous(e) => e,
        }
    }
}
