//! The wire format — everything that crosses a socket: length-prefixed
//! checksummed frames ([`FrameReader`], [`write_frame`]), little-endian
//! fields ([`Reader`], `put_*`), type-tagged values. The replication
//! stream (`aion-repl`) rides the same envelope and the same field codec.
//!
//! ```text
//! frame    := u32 payload_len (≤ 256 MiB), u64 fnv64(payload), payload
//! str      := u32 len, len × utf-8 byte
//! blob     := u8 present, [u32 len (≤ 64 KiB), len × byte]
//! request  := 0x01 "RUN"      stmt, u64 min_watermark, u32 page_size,
//!                             blob cursor
//!           | 0x02 "PING"
//!           | 0x03 "SHUTDOWN"
//!           | 0x04 "METRICS"
//!           | 0x05 "RUNBATCH" u32 nstmts, nstmts × stmt, u64 min_watermark
//!           | 0x06 "PROMOTE"
//!           | 0x07 "STATUS"
//! stmt     := str query, u16 nparams, nparams × (str key, value)
//! response := 0x00 "OK"      result, u64 watermark, blob cursor
//!           | 0x01 "ERR"     error
//!           | 0x02 "METRICS" u32 nctr, nctr × (str, u64),
//!                            u32 ngauge, ngauge × (str, i64),
//!                            u32 nhist, nhist × (str, 5 × u64)
//!           | 0x03 "BATCH"   u32 nitems, nitems × item, u64 watermark
//!           | 0x04 "STATUS"  u64 epoch, u8 read_only, u8 fenced,
//!                            u64 latest_ts
//! item     := 0x00 result | 0x01 error
//! error    := u8 code, str message
//! result   := u16 ncols, ncols × str, u32 nrows, nrows × ncols × value
//! value    := 0x00 NULL | 0x01 BOOL u8 | 0x02 INT i64 | 0x03 FLOAT f64
//!           | 0x04 STR str
//!           | 0x05 NODE u64 id, u16 nlabels, nlabels × str, props, valid
//!           | 0x06 REL  u64 id, u64 src, u64 tgt, u8 has_type, [str type],
//!                       props, valid
//!           | 0x07 LIST u32 n, n × value
//! props    := u16 n, n × (str key, value)
//! valid    := u8 present, [u64 start, u64 end]
//! ```
//!
//! Two rules the grammar does not show. **Nesting:** a NODE, REL or LIST
//! may sit at most [`MAX_VALUE_NESTING`] containers deep; a deeper value
//! is `InvalidData` (the decoder recurses once per level, and the bytes
//! come from a peer). **Trailing bytes:** a payload must be consumed to
//! its last byte — leftovers mean sender and receiver disagree on the
//! layout and are `InvalidData`, for requests, responses and replication
//! messages alike.

use obs::{HistogramSnapshot, MetricsSnapshot};
use query::{QueryResult, Value};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};
use vfs::fnv64;

/// Request messages.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Execute a query with parameters.
    Run {
        /// Temporal Cypher text.
        query: String,
        /// `$name` parameter bindings.
        params: Vec<(String, Value)>,
        /// Bounded-staleness floor: the serving node must have replayed
        /// at least this commit timestamp or refuse with
        /// [`ErrorCode::StaleReplica`]. `0` means "any state is fine"
        /// and is always satisfiable (the primary is never stale).
        min_watermark: u64,
        /// Maximum rows per response; `0` means unpaged (the full
        /// result in one frame, no cursor issued).
        page_size: u32,
        /// Opaque resume token from a previous [`Response::Ok`]. `None`
        /// starts a fresh (first) page.
        cursor: Option<Vec<u8>>,
    },
    /// Liveness check.
    Ping,
    /// Ask the server to stop accepting connections.
    Shutdown,
    /// Fetch a snapshot of the server's process-wide metrics.
    Metrics,
    /// Execute N statements in one frame: one round-trip and (on the
    /// server) one submission window, so network latency amortizes the
    /// same way group commit amortizes fsyncs. Statements run in order;
    /// each gets its own typed result in the [`Response::Batch`] reply,
    /// and a failed statement does not abort the ones after it.
    RunBatch {
        /// `(query, params)` per statement, executed in order.
        statements: Vec<(String, Vec<(String, Value)>)>,
        /// Bounded-staleness floor applied to the whole batch (see
        /// [`Request::Run::min_watermark`]).
        min_watermark: u64,
    },
    /// Ask this node to promote itself to primary (failover control
    /// plane; DESIGN.md §17). Only honoured when the server was wired
    /// with a promote handler; refused with [`ErrorCode::Generic`]
    /// otherwise. **Not idempotent** — a retry could bump the epoch
    /// twice — so clients never auto-retry it.
    Promote,
    /// Fetch the node's replication role snapshot ([`Response::Status`]).
    /// Read-only and always safe to retry; this is what failover routing
    /// probes to find the current primary.
    Status,
}

/// Machine-readable failure class carried on every `ERR` frame, so
/// clients can make retry decisions without parsing message text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ErrorCode {
    /// Query/protocol failure: the request was executed (or rejected)
    /// authoritatively; retrying would repeat the same answer.
    Generic = 0,
    /// The per-request deadline expired; execution was aborted at a
    /// cooperative check point. A write may or may not have committed.
    Timeout = 1,
    /// Admission control shed the connection before any request was
    /// executed; always safe to retry after backoff.
    Overloaded = 2,
    /// The server is draining; the request was refused (or aborted)
    /// because of shutdown, not because of its content.
    ShuttingDown = 3,
    /// A replica's replay watermark is behind the request's
    /// `min_watermark`; the read was refused without executing. Safe to
    /// retry elsewhere (another replica, or the primary).
    StaleReplica = 4,
    /// A write (or other non-read request) reached a read-only replica;
    /// it was refused without executing. Route it to the primary.
    ReadOnlyReplica = 5,
    /// The result outgrew the per-request row budget; the query was
    /// aborted mid-stream. Not retryable as-is: page it or narrow it.
    BudgetExceeded = 6,
    /// The pagination cursor was corrupt, minted for a different query,
    /// or its anchor no longer resolves at the pinned snapshot. Restart
    /// the scan from the first page.
    CursorInvalid = 7,
    /// This node was deposed: a newer replication epoch exists and the
    /// write was refused without executing (DESIGN.md §17). Probe the
    /// cluster for the highest-epoch writable node and route there.
    Fenced = 8,
}

impl ErrorCode {
    fn from_u8(b: u8) -> ErrorCode {
        match b {
            1 => ErrorCode::Timeout,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::StaleReplica,
            5 => ErrorCode::ReadOnlyReplica,
            6 => ErrorCode::BudgetExceeded,
            7 => ErrorCode::CursorInvalid,
            8 => ErrorCode::Fenced,
            _ => ErrorCode::Generic,
        }
    }
}

/// A typed wire-level error: class + human-readable message.
#[derive(Clone, PartialEq, Debug)]
pub struct WireError {
    /// Failure class (drives client retry policy).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// A [`ErrorCode::Generic`] error.
    pub fn generic(message: impl Into<String>) -> WireError {
        WireError {
            code: ErrorCode::Generic,
            message: message.into(),
        }
    }

    /// A typed error with an explicit code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Converts to an `io::Error` whose kind mirrors the wire code.
    pub fn into_io(self) -> io::Error {
        let kind = match self.code {
            ErrorCode::Generic => io::ErrorKind::Other,
            ErrorCode::Timeout => io::ErrorKind::TimedOut,
            ErrorCode::Overloaded => io::ErrorKind::ResourceBusy,
            ErrorCode::ShuttingDown => io::ErrorKind::ConnectionAborted,
            ErrorCode::StaleReplica => io::ErrorKind::WouldBlock,
            ErrorCode::ReadOnlyReplica => io::ErrorKind::PermissionDenied,
            ErrorCode::BudgetExceeded => io::ErrorKind::OutOfMemory,
            ErrorCode::CursorInvalid => io::ErrorKind::InvalidInput,
            // Not `PermissionDenied` (taken by ReadOnlyReplica, which
            // routing treats as a fatal misconfiguration): a fence means
            // "the primary moved", which is precisely a lost connection
            // to the real primary.
            ErrorCode::Fenced => io::ErrorKind::NotConnected,
        };
        io::Error::new(kind, self.message)
    }
}

/// Response messages.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Successful query result, tagged with the serving node's replay
    /// watermark (latest committed timestamp visible to the query). On
    /// the primary this is simply the latest commit; on a replica it is
    /// how far replay has progressed, letting clients chain
    /// read-your-writes via `min_watermark`.
    Ok {
        /// The query result rows.
        result: QueryResult,
        /// Latest commit timestamp applied on the serving node.
        watermark: u64,
        /// Opaque resume token when this is a non-final page of a paged
        /// request; `None` when the result is complete.
        cursor: Option<Vec<u8>>,
    },
    /// Typed failure.
    Err(WireError),
    /// Metrics snapshot (reply to [`Request::Metrics`]).
    Metrics(MetricsSnapshot),
    /// Per-statement results for a [`Request::RunBatch`], in statement
    /// order, tagged with the serving node's watermark once.
    Batch {
        /// One typed outcome per statement.
        results: Vec<std::result::Result<QueryResult, WireError>>,
        /// Latest commit timestamp applied on the serving node.
        watermark: u64,
    },
    /// Replication role snapshot (reply to [`Request::Status`]).
    /// Failover routing picks the highest-epoch node with
    /// `read_only == false && fenced == false` as the primary.
    Status {
        /// The node's current replication epoch.
        epoch: u64,
        /// Whether the query server refuses writes by role.
        read_only: bool,
        /// Whether the write path is fenced (a newer epoch was seen).
        fenced: bool,
        /// Latest commit timestamp applied on this node.
        latest_ts: u64,
    },
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

// ---- fields -----------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `u32 len, bytes` ([`Reader::var_bytes`] reads it back).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `blob`: an optional opaque byte string (cursor tokens).
fn put_opt_bytes(out: &mut Vec<u8>, bytes: Option<&[u8]>) {
    match bytes {
        Some(b) => {
            out.push(1);
            put_bytes(out, b);
        }
        None => out.push(0),
    }
}

/// A cursor over one received payload (or one fixed-size on-disk record):
/// every read checks its bounds, so a short or lying input is
/// [`io::ErrorKind::InvalidData`], never a panic or an over-read.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// The next `len` bytes, borrowed from the input.
    pub fn bytes(&mut self, len: usize) -> io::Result<&'a [u8]> {
        if len > self.buf.len() {
            return Err(invalid("truncated message"));
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// `u32 len, bytes`, borrowed from the input.
    pub fn var_bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// A `str`: `u32 len, utf-8 bytes`.
    pub fn str(&mut self) -> io::Result<String> {
        String::from_utf8(self.var_bytes()?.to_vec()).map_err(|_| invalid("invalid utf-8"))
    }

    /// A `blob`: an optional opaque byte string, capped at 64 KiB (real
    /// cursor tokens are 44 bytes).
    pub fn opt_bytes(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        let bytes = self.var_bytes()?;
        if bytes.len() > 65_536 {
            return Err(invalid("cursor blob too big"));
        }
        Ok(Some(bytes.to_vec()))
    }

    /// Ends the message: leftover bytes mean the sender and the receiver
    /// disagree on the layout.
    pub fn finish(self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after message"))
        }
    }
}

// ---- values -----------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_NODE: u8 = 5;
const TAG_REL: u8 = 6;
const TAG_LIST: u8 = 7;

/// How many containers (NODE, REL, LIST) deep a value may nest on the
/// wire. Query results nest two or three deep; the bound exists because
/// the value decoder recurses per level on bytes a peer chose.
pub const MAX_VALUE_NESTING: usize = 32;

/// `valid`: the validity interval closing a NODE and a REL.
fn write_valid(out: &mut Vec<u8>, valid: Option<(u64, u64)>) {
    match valid {
        Some((s, e)) => {
            out.push(1);
            put_u64(out, s);
            put_u64(out, e);
        }
        None => out.push(0),
    }
}

fn read_valid(r: &mut Reader<'_>) -> io::Result<Option<(u64, u64)>> {
    Ok(if r.u8()? == 1 {
        Some((r.u64()?, r.u64()?))
    } else {
        None
    })
}

/// `u16 n, n × (str key, value)`: entity properties and statement
/// parameters.
fn write_pairs(out: &mut Vec<u8>, pairs: &[(String, Value)]) {
    put_u16(out, pairs.len() as u16);
    for (k, v) in pairs {
        put_str(out, k);
        write_value(out, v);
    }
}

fn read_pairs(r: &mut Reader<'_>, depth: usize) -> io::Result<Vec<(String, Value)>> {
    let n = r.u16()? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.str()?;
        pairs.push((k, read_value(r, depth)?));
    }
    Ok(pairs)
}

/// Serializes one value.
fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Node {
            id,
            labels,
            props,
            valid,
        } => {
            out.push(TAG_NODE);
            put_u64(out, *id);
            put_u16(out, labels.len() as u16);
            for l in labels {
                put_str(out, l);
            }
            write_pairs(out, props);
            write_valid(out, *valid);
        }
        Value::Rel {
            id,
            src,
            tgt,
            rel_type,
            props,
            valid,
        } => {
            out.push(TAG_REL);
            put_u64(out, *id);
            put_u64(out, *src);
            put_u64(out, *tgt);
            match rel_type {
                Some(t) => {
                    out.push(1);
                    put_str(out, t);
                }
                None => out.push(0),
            }
            write_pairs(out, props);
            write_valid(out, *valid);
        }
        Value::List(vs) => {
            out.push(TAG_LIST);
            put_u32(out, vs.len() as u32);
            for v in vs {
                write_value(out, v);
            }
        }
    }
}

/// Deserializes one value sitting `depth` containers deep.
fn read_value(r: &mut Reader<'_>, depth: usize) -> io::Result<Value> {
    let tag = r.u8()?;
    if matches!(tag, TAG_NODE | TAG_REL | TAG_LIST) && depth >= MAX_VALUE_NESTING {
        return Err(invalid(format!(
            "value nested deeper than {MAX_VALUE_NESTING} levels"
        )));
    }
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(r.u8()? != 0),
        TAG_INT => Value::Int(r.u64()? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        TAG_STR => Value::Str(r.str()?),
        TAG_NODE => {
            let id = r.u64()?;
            let nlabels = r.u16()? as usize;
            let mut labels = Vec::with_capacity(nlabels);
            for _ in 0..nlabels {
                labels.push(r.str()?);
            }
            Value::Node {
                id,
                labels,
                props: read_pairs(r, depth + 1)?,
                valid: read_valid(r)?,
            }
        }
        TAG_REL => {
            let id = r.u64()?;
            let src = r.u64()?;
            let tgt = r.u64()?;
            let rel_type = if r.u8()? == 1 { Some(r.str()?) } else { None };
            Value::Rel {
                id,
                src,
                tgt,
                rel_type,
                props: read_pairs(r, depth + 1)?,
                valid: read_valid(r)?,
            }
        }
        TAG_LIST => {
            let n = r.u32()? as usize;
            let mut vs = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                vs.push(read_value(r, depth + 1)?);
            }
            Value::List(vs)
        }
        other => return Err(invalid(format!("unknown value tag {other}"))),
    })
}

// ---- requests ---------------------------------------------------------

fn write_stmt(out: &mut Vec<u8>, query: &str, params: &[(String, Value)]) {
    put_str(out, query);
    write_pairs(out, params);
}

fn read_stmt(r: &mut Reader<'_>) -> io::Result<(String, Vec<(String, Value)>)> {
    Ok((r.str()?, read_pairs(r, 0)?))
}

/// Serializes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Run {
            query,
            params,
            min_watermark,
            page_size,
            cursor,
        } => {
            out.push(0x01);
            write_stmt(&mut out, query, params);
            put_u64(&mut out, *min_watermark);
            put_u32(&mut out, *page_size);
            put_opt_bytes(&mut out, cursor.as_deref());
        }
        Request::Ping => out.push(0x02),
        Request::Shutdown => out.push(0x03),
        Request::Metrics => out.push(0x04),
        Request::RunBatch {
            statements,
            min_watermark,
        } => {
            out.push(0x05);
            put_u32(&mut out, statements.len() as u32);
            for (query, params) in statements {
                write_stmt(&mut out, query, params);
            }
            put_u64(&mut out, *min_watermark);
        }
        Request::Promote => out.push(0x06),
        Request::Status => out.push(0x07),
    }
    out
}

/// Deserializes a request payload.
pub fn decode_request(buf: &[u8]) -> io::Result<Request> {
    let mut r = Reader::new(buf);
    let req = match r.u8()? {
        0x01 => {
            let (query, params) = read_stmt(&mut r)?;
            Request::Run {
                query,
                params,
                min_watermark: r.u64()?,
                page_size: r.u32()?,
                cursor: r.opt_bytes()?,
            }
        }
        0x02 => Request::Ping,
        0x03 => Request::Shutdown,
        0x04 => Request::Metrics,
        0x05 => {
            let n = r.u32()? as usize;
            let mut statements = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                statements.push(read_stmt(&mut r)?);
            }
            Request::RunBatch {
                statements,
                min_watermark: r.u64()?,
            }
        }
        0x06 => Request::Promote,
        0x07 => Request::Status,
        other => return Err(invalid(format!("unknown request kind {other}"))),
    };
    r.finish()?;
    Ok(req)
}

// ---- responses --------------------------------------------------------

/// Serializes one query result (shared by `OK` and `BATCH` items).
fn write_result(out: &mut Vec<u8>, result: &QueryResult) {
    put_u16(out, result.columns.len() as u16);
    for c in &result.columns {
        put_str(out, c);
    }
    put_u32(out, result.rows.len() as u32);
    for row in &result.rows {
        for v in row {
            write_value(out, v);
        }
    }
}

/// Deserializes one query result (shared by `OK` and `BATCH` items).
fn read_result(r: &mut Reader<'_>) -> io::Result<QueryResult> {
    let ncols = r.u16()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str()?);
    }
    let nrows = r.u32()? as usize;
    // Zero-column rows consume no payload bytes, so a malformed
    // header could otherwise demand billions of loop iterations.
    if ncols == 0 && nrows > 0 {
        return Err(invalid("rows without columns"));
    }
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(r, 0)?);
        }
        rows.push(row);
    }
    Ok(QueryResult { columns, rows })
}

/// `u8 code, str message` (shared by `ERR` and `BATCH` items).
fn write_error(out: &mut Vec<u8>, err: &WireError) {
    out.push(err.code as u8);
    put_str(out, &err.message);
}

fn read_error(r: &mut Reader<'_>) -> io::Result<WireError> {
    Ok(WireError {
        code: ErrorCode::from_u8(r.u8()?),
        message: r.str()?,
    })
}

/// Serializes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ok {
            result,
            watermark,
            cursor,
        } => {
            out.push(0x00);
            write_result(&mut out, result);
            put_u64(&mut out, *watermark);
            put_opt_bytes(&mut out, cursor.as_deref());
        }
        Response::Err(err) => {
            out.push(0x01);
            write_error(&mut out, err);
        }
        Response::Batch { results, watermark } => {
            out.push(0x03);
            put_u32(&mut out, results.len() as u32);
            for item in results {
                match item {
                    Ok(result) => {
                        out.push(0x00);
                        write_result(&mut out, result);
                    }
                    Err(err) => {
                        out.push(0x01);
                        write_error(&mut out, err);
                    }
                }
            }
            put_u64(&mut out, *watermark);
        }
        Response::Status {
            epoch,
            read_only,
            fenced,
            latest_ts,
        } => {
            out.push(0x04);
            put_u64(&mut out, *epoch);
            out.push(u8::from(*read_only));
            out.push(u8::from(*fenced));
            put_u64(&mut out, *latest_ts);
        }
        Response::Metrics(snap) => {
            out.push(0x02);
            put_u32(&mut out, snap.counters.len() as u32);
            for (name, v) in &snap.counters {
                put_str(&mut out, name);
                put_u64(&mut out, *v);
            }
            put_u32(&mut out, snap.gauges.len() as u32);
            for (name, v) in &snap.gauges {
                put_str(&mut out, name);
                put_u64(&mut out, *v as u64);
            }
            put_u32(&mut out, snap.histograms.len() as u32);
            for h in &snap.histograms {
                put_str(&mut out, &h.name);
                for v in [h.count, h.sum, h.p50, h.p95, h.p99] {
                    put_u64(&mut out, v);
                }
            }
        }
    }
    out
}

/// Deserializes a response payload.
pub fn decode_response(buf: &[u8]) -> io::Result<Response> {
    let mut r = Reader::new(buf);
    let resp = match r.u8()? {
        0x00 => Response::Ok {
            result: read_result(&mut r)?,
            watermark: r.u64()?,
            cursor: r.opt_bytes()?,
        },
        0x01 => Response::Err(read_error(&mut r)?),
        0x02 => {
            let nctr = r.u32()? as usize;
            let mut counters = Vec::with_capacity(nctr.min(65_536));
            for _ in 0..nctr {
                counters.push((r.str()?, r.u64()?));
            }
            let ngauge = r.u32()? as usize;
            let mut gauges = Vec::with_capacity(ngauge.min(65_536));
            for _ in 0..ngauge {
                gauges.push((r.str()?, r.u64()? as i64));
            }
            let nhist = r.u32()? as usize;
            let mut histograms = Vec::with_capacity(nhist.min(65_536));
            for _ in 0..nhist {
                histograms.push(HistogramSnapshot {
                    name: r.str()?,
                    count: r.u64()?,
                    sum: r.u64()?,
                    p50: r.u64()?,
                    p95: r.u64()?,
                    p99: r.u64()?,
                });
            }
            Response::Metrics(MetricsSnapshot {
                counters,
                gauges,
                histograms,
            })
        }
        0x03 => {
            let n = r.u32()? as usize;
            let mut results = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                results.push(match r.u8()? {
                    0x00 => Ok(read_result(&mut r)?),
                    0x01 => Err(read_error(&mut r)?),
                    other => return Err(invalid(format!("unknown batch item tag {other}"))),
                });
            }
            Response::Batch {
                results,
                watermark: r.u64()?,
            }
        }
        0x04 => Response::Status {
            epoch: r.u64()?,
            read_only: r.u8()? != 0,
            fenced: r.u8()? != 0,
            latest_ts: r.u64()?,
        },
        other => return Err(invalid(format!("unknown response kind {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

// ---- frames -----------------------------------------------------------

/// `u32 payload_len, u64 fnv64(payload)`, FNV-1a being [`vfs::fnv64`].
/// TCP's 16-bit checksum is weak and proxies/middleboxes can corrupt bytes
/// above it; a flipped byte in a `Run` frame could otherwise decode as a
/// *different valid query* and commit the wrong write. With the digest,
/// corruption is detected at the framing layer and surfaces as a
/// connection error the client may retry (idempotency permitting).
const FRAME_HEADER: usize = 12;

/// Largest payload a frame may announce; a longer length is refused
/// before any byte of it is buffered.
const MAX_FRAME: usize = 256 << 20;

/// What a [`FrameReader`] reads ahead, starts with and shrinks back to.
const READ_CHUNK: usize = 64 * 1024;

/// The socket read timeout of every polled connection: how often a
/// blocked read returns so its owner can look at a stop flag, a deadline
/// or a stall clock ([`FrameReader::next_frame`]).
pub const POLL_TICK: Duration = Duration::from_millis(20);

/// Validates a frame payload length against the u32 length prefix. A
/// payload over `u32::MAX` bytes must be rejected, not silently truncated
/// by an `as u32` cast (which would desynchronise the stream).
fn frame_len(payload_len: usize) -> io::Result<u32> {
    u32::try_from(payload_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX bytes",
        )
    })
}

/// Writes one length-prefixed, checksummed frame. Fails with
/// [`io::ErrorKind::InvalidInput`] if the payload cannot be represented
/// in the u32 length prefix.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_len(payload.len())?.to_le_bytes())?;
    w.write_all(&fnv64(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame and not a byte more, blocking as long as `r` does: a
/// read timeout set on `r` surfaces as [`io::ErrorKind::TimedOut`], a
/// close — even between frames — as [`io::ErrorKind::UnexpectedEof`].
/// For callers that own the stream for a single exchange; a connection's
/// long-lived side keeps a [`FrameReader`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    FrameReader {
        exact: true,
        ..FrameReader::new()
    }
    .read_one(r)
}

/// One step of [`FrameReader::poll`].
#[derive(Debug, PartialEq, Eq)]
pub enum Polled {
    /// A complete, checksum-verified frame payload.
    Frame(Vec<u8>),
    /// No complete frame yet and the stream has nothing more for now (its
    /// read timed out or would block); poll again.
    Pending,
    /// The peer closed the connection at a frame boundary.
    Eof,
}

/// The one inbound frame path: accumulates whatever a `read` returns and
/// yields complete frames only, so a socket-timeout tick in the middle of
/// a frame loses nothing and bytes a peer pipelined behind a frame stay
/// buffered for the next poll.
///
/// The reader knows the format and nothing about patience. It reports
/// [`Polled::Pending`] whenever the stream has no more bytes for now, and
/// whether any [arrived](FrameReader::progressed) during that poll; how
/// long to keep polling — a stop flag, a deadline, a liveness timeout —
/// is the caller's loop. [`FrameReader::next_frame`] is that loop as the
/// query server and the log shipper want it.
#[derive(Default)]
pub struct FrameReader {
    /// Initialised storage; `buf[..filled]` holds the received bytes,
    /// starting at a frame header. Zeroed when it grows, not per poll.
    buf: Vec<u8>,
    filled: usize,
    /// Never `read` past the end of the frame at the front ([`read_frame`]).
    exact: bool,
    progressed: bool,
}

impl FrameReader {
    /// A reader for a stream it will be the only reader of: a `read` may
    /// take whatever the peer has sent, frame boundaries or not.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether the last [`poll`](FrameReader::poll) received any bytes —
    /// a peer that is slow but alive.
    pub fn progressed(&self) -> bool {
        self.progressed
    }

    /// Returns the next complete frame, reading from `r` as needed.
    ///
    /// Errors: a length over the 256 MiB cap and a checksum mismatch are
    /// [`io::ErrorKind::InvalidData`]; a close in the middle of a frame is
    /// [`io::ErrorKind::UnexpectedEof`]; anything else `r` reports, except
    /// `WouldBlock`/`TimedOut` ([`Polled::Pending`]) and `Interrupted`
    /// (retried).
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Polled> {
        self.progressed = false;
        loop {
            let missing = if self.filled < FRAME_HEADER {
                FRAME_HEADER - self.filled
            } else {
                let mut header = Reader::new(&self.buf[..FRAME_HEADER]);
                let (len, sum) = (header.u32()? as usize, header.u64()?);
                if len > MAX_FRAME {
                    return Err(invalid("frame too big"));
                }
                let end = FRAME_HEADER + len;
                if self.filled >= end {
                    return self.take_frame(end, sum).map(Polled::Frame);
                }
                end - self.filled
            };
            if self.filled == self.buf.len() {
                // Grow with the bytes actually received (doubling), never
                // to an announced length — a peer pays for memory with
                // traffic — and no further than the frame needs.
                let chunk = if self.exact {
                    missing.min(READ_CHUNK)
                } else {
                    READ_CHUNK
                };
                let grow = self.filled.max(chunk).min(missing.max(chunk));
                self.buf.resize(self.filled + grow, 0);
            }
            let end = if self.exact {
                self.buf.len().min(self.filled + missing)
            } else {
                self.buf.len()
            };
            match r.read(&mut self.buf[self.filled..end]) {
                Ok(0) if self.filled == 0 => return Ok(Polled::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => {
                    self.filled += n;
                    self.progressed = true;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Polled::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Verifies and hands out the frame occupying `buf[..end]`, keeping
    /// whatever was received behind it.
    fn take_frame(&mut self, end: usize, sum: u64) -> io::Result<Vec<u8>> {
        let payload = &self.buf[FRAME_HEADER..end];
        if fnv64(payload) != sum {
            return Err(invalid("frame checksum mismatch"));
        }
        let payload = payload.to_vec();
        self.buf.copy_within(end..self.filled, 0);
        self.filled -= end;
        if self.buf.len() > READ_CHUNK && self.filled <= READ_CHUNK {
            // One large frame must not pin its size for the connection's
            // lifetime.
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
        Ok(payload)
    }

    /// Blocks for one frame; see [`read_frame`] for the error mapping.
    pub(crate) fn read_one(&mut self, r: &mut impl Read) -> io::Result<Vec<u8>> {
        match self.poll(r)? {
            Polled::Frame(payload) => Ok(payload),
            Polled::Pending => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a frame",
            )),
            Polled::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            )),
        }
    }

    /// Waits for the next frame the way a serving side does, on a stream
    /// whose read timeout is a short poll tick. Between frames the wait is
    /// unbounded, but `stopped` is consulted every tick and ends it with
    /// `Ok(None)`, as does a close at a frame boundary. Once a frame has
    /// begun the peer must keep delivering: `stall` without a byte fails
    /// with [`io::ErrorKind::TimedOut`] (and `stopped` is not consulted —
    /// a request already on the wire is read to its end).
    pub fn next_frame(
        &mut self,
        r: &mut impl Read,
        stall: Duration,
        stopped: impl Fn() -> bool,
    ) -> io::Result<Option<Vec<u8>>> {
        let mut last_progress = Instant::now();
        loop {
            match self.poll(r)? {
                Polled::Frame(payload) => return Ok(Some(payload)),
                Polled::Eof => return Ok(None),
                Polled::Pending => {
                    if self.progressed {
                        last_progress = Instant::now();
                    }
                    if self.filled == 0 {
                        if stopped() {
                            return Ok(None);
                        }
                    } else if last_progress.elapsed() >= stall {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Run {
            query: "MATCH (n) WHERE id(n) = $id RETURN n".into(),
            params: vec![("id".into(), Value::Int(42))],
            min_watermark: 9_001,
            page_size: 0,
            cursor: None,
        };
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);
        let paged = Request::Run {
            query: "MATCH (n) RETURN n".into(),
            params: vec![],
            min_watermark: 0,
            page_size: 64,
            cursor: Some(vec![0xA1, 0x0C, 0x01, 0x02]),
        };
        assert_eq!(decode_request(&encode_request(&paged)).unwrap(), paged);
        assert_eq!(
            decode_request(&encode_request(&Request::Ping)).unwrap(),
            Request::Ping
        );
        assert_eq!(
            decode_request(&encode_request(&Request::Shutdown)).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            decode_request(&encode_request(&Request::Promote)).unwrap(),
            Request::Promote
        );
        assert_eq!(
            decode_request(&encode_request(&Request::Status)).unwrap(),
            Request::Status
        );
    }

    #[test]
    fn status_response_roundtrip() {
        for (read_only, fenced) in [(false, false), (true, false), (false, true), (true, true)] {
            let resp = Response::Status {
                epoch: 7,
                read_only,
                fenced,
                latest_ts: 1234,
            };
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn response_roundtrip_with_entities() {
        let result = QueryResult {
            columns: vec!["n".into(), "r".into()],
            rows: vec![vec![
                Value::Node {
                    id: 3,
                    labels: vec!["Person".into()],
                    props: vec![
                        ("age".into(), Value::Int(30)),
                        ("ok".into(), Value::Bool(true)),
                    ],
                    valid: Some((1, 9)),
                },
                Value::Rel {
                    id: 7,
                    src: 3,
                    tgt: 4,
                    rel_type: Some("KNOWS".into()),
                    props: vec![("w".into(), Value::Float(0.5))],
                    valid: None,
                },
            ]],
        };
        let resp = Response::Ok {
            result,
            watermark: 17,
            cursor: Some(vec![1, 2, 3]),
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_and_nested_list_roundtrip() {
        let resp = Response::Err(WireError::generic("boom"));
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let mut out = Vec::new();
        let v = Value::List(vec![Value::Null, Value::List(vec![Value::Int(-1)])]);
        write_value(&mut out, &v);
        let mut r = Reader::new(&out);
        assert_eq!(read_value(&mut r, 0).unwrap(), v);
        r.finish().unwrap();
    }

    /// `levels` lists around one integer, as the single parameter of a
    /// `Run`.
    fn nested_run(levels: usize) -> Request {
        let mut v = Value::Int(1);
        for _ in 0..levels {
            v = Value::List(vec![v]);
        }
        Request::Run {
            query: "RETURN $p".into(),
            params: vec![("p".into(), v)],
            min_watermark: 0,
            page_size: 0,
            cursor: None,
        }
    }

    #[test]
    fn value_nesting_is_capped() {
        let deepest = nested_run(MAX_VALUE_NESTING);
        assert_eq!(decode_request(&encode_request(&deepest)).unwrap(), deepest);
        let err = decode_request(&encode_request(&nested_run(MAX_VALUE_NESTING + 1))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nested"), "{err}");
        // Property maps nest too: a node whose property is a node whose
        // property is … recurses exactly like a list.
        let mut v = Value::Null;
        for _ in 0..=MAX_VALUE_NESTING {
            v = Value::Node {
                id: 0,
                labels: vec![],
                props: vec![("p".into(), v)],
                valid: None,
            };
        }
        let resp = Response::Ok {
            result: QueryResult {
                columns: vec!["n".into()],
                rows: vec![vec![v]],
            },
            watermark: 0,
            cursor: None,
        };
        assert!(decode_response(&encode_response(&resp)).is_err());
        // What used to abort the process: thousands of levels in a few KB.
        // Built as bytes — encoding such a `Value` would recurse as deep.
        let mut bytes = vec![0x01];
        put_str(&mut bytes, "RETURN $p");
        put_u16(&mut bytes, 1);
        put_str(&mut bytes, "p");
        for _ in 0..5_000 {
            bytes.push(TAG_LIST);
            put_u32(&mut bytes, 1);
        }
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut req = encode_request(&Request::Ping);
        req.push(0);
        assert!(decode_request(&req).is_err());
        let mut resp = encode_response(&Response::Err(WireError::generic("x")));
        resp.push(0);
        assert!(decode_response(&resp).is_err());
    }

    #[test]
    fn reader_checks_every_bound() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(r.u16().is_err(), "one byte left");
        assert!(
            r.bytes(usize::MAX).is_err(),
            "no overflow on a lying length"
        );
        assert_eq!(r.u8().unwrap(), 3);
        r.finish().unwrap();
        // A `str` whose length prefix outruns the input.
        assert!(Reader::new(&[9, 0, 0, 0, b'a']).str().is_err());
        // A present blob over the 64 KiB cap is refused even when whole.
        let mut blob = vec![1];
        put_bytes(&mut blob, &[0; 65_537]);
        assert!(Reader::new(&blob).opt_bytes().is_err());
        assert!(Reader::new(&[7]).finish().is_err());
    }

    #[test]
    fn frames_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(read_frame(&mut cursor).is_err(), "eof");
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_response(&[0x55]).is_err());
        assert!(read_value(&mut Reader::new(&[200]), 0).is_err());
    }

    #[test]
    fn error_codes_roundtrip_and_map_to_io_kinds() {
        for (code, kind) in [
            (ErrorCode::Generic, io::ErrorKind::Other),
            (ErrorCode::Timeout, io::ErrorKind::TimedOut),
            (ErrorCode::Overloaded, io::ErrorKind::ResourceBusy),
            (ErrorCode::ShuttingDown, io::ErrorKind::ConnectionAborted),
            (ErrorCode::StaleReplica, io::ErrorKind::WouldBlock),
            (ErrorCode::ReadOnlyReplica, io::ErrorKind::PermissionDenied),
            (ErrorCode::BudgetExceeded, io::ErrorKind::OutOfMemory),
            (ErrorCode::CursorInvalid, io::ErrorKind::InvalidInput),
            (ErrorCode::Fenced, io::ErrorKind::NotConnected),
        ] {
            let resp = Response::Err(WireError::new(code, "m"));
            let back = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(back, resp);
            let Response::Err(e) = back else {
                panic!("expected error response")
            };
            assert_eq!(e.into_io().kind(), kind);
        }
        // Unknown future codes degrade to Generic instead of failing.
        assert_eq!(ErrorCode::from_u8(200), ErrorCode::Generic);
    }

    #[test]
    fn run_batch_roundtrip() {
        let req = Request::RunBatch {
            statements: vec![
                (
                    "CREATE (n:Person {id: $id})".into(),
                    vec![("id".into(), Value::Int(1))],
                ),
                ("MATCH (n) RETURN n".into(), vec![]),
            ],
            min_watermark: 42,
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        // An empty batch is wire-legal.
        let empty = Request::RunBatch {
            statements: vec![],
            min_watermark: 0,
        };
        assert_eq!(decode_request(&encode_request(&empty)).unwrap(), empty);
    }

    #[test]
    fn batch_response_roundtrip_mixes_ok_and_err() {
        let resp = Response::Batch {
            results: vec![
                Ok(QueryResult {
                    columns: vec!["n".into()],
                    rows: vec![vec![Value::Int(7)]],
                }),
                Err(WireError::new(ErrorCode::Timeout, "deadline")),
                Ok(QueryResult {
                    columns: vec![],
                    rows: vec![],
                }),
            ],
            watermark: 99,
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // Unknown item tags are a protocol error, not a panic.
        let mut bytes = encode_response(&Response::Batch {
            results: vec![Err(WireError::generic("x"))],
            watermark: 0,
        });
        bytes[5] = 0x7F; // item tag of the first (only) entry
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn metrics_request_roundtrip() {
        assert_eq!(
            decode_request(&encode_request(&Request::Metrics)).unwrap(),
            Request::Metrics
        );
    }

    #[test]
    fn metrics_response_roundtrip() {
        let resp = Response::Metrics(MetricsSnapshot {
            counters: vec![("pagestore.cache.hits".into(), 17), ("x".into(), 0)],
            gauges: vec![("queue.depth".into(), -3)],
            histograms: vec![HistogramSnapshot {
                name: "core.commit.latency_ns".into(),
                count: 5,
                sum: 1000,
                p50: 128,
                p95: 512,
                p99: 512,
            }],
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // An empty snapshot round-trips too.
        let empty = Response::Metrics(MetricsSnapshot::default());
        assert_eq!(decode_response(&encode_response(&empty)).unwrap(), empty);
    }

    #[test]
    fn oversized_write_frame_rejected() {
        // The length check is separable from write_frame so this test does
        // not have to allocate a >4 GiB payload.
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        if let Some(too_big) = (u32::MAX as usize).checked_add(1) {
            let err = frame_len(too_big).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn oversized_read_frame_rejected() {
        // A header advertising more than the 256 MiB cap must be refused
        // before any payload allocation happens.
        let mut header = ((257u32 << 20).to_le_bytes()).to_vec();
        header.extend_from_slice(&0u64.to_le_bytes());
        let mut cursor = std::io::Cursor::new(header);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_frame_rejected_by_checksum() {
        // A single flipped payload byte (what the chaos proxy injects)
        // must fail checksum verification rather than decode as some
        // other valid message.
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(&Request::Ping)).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(frame);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    /// A `Read` that plays back a script: data chunks (split further when
    /// the caller's buffer is smaller) interleaved with errors, then
    /// `tail` forever (`None` = end of stream).
    struct Script {
        steps: std::collections::VecDeque<io::Result<Vec<u8>>>,
        tail: Option<io::ErrorKind>,
    }

    impl Script {
        fn new(steps: Vec<io::Result<Vec<u8>>>) -> Script {
            Script {
                steps: steps.into(),
                tail: None,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => self.tail.map_or(Ok(0), |kind| Err(kind.into())),
                Some(Err(e)) => Err(e),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn tick(kind: io::ErrorKind) -> io::Result<Vec<u8>> {
        Err(kind.into())
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    #[test]
    fn reader_byte_at_a_time_yields_exactly_once() {
        let wire = framed(b"hello repl");
        let mut script = Script::new(wire.iter().map(|b| Ok(vec![*b])).collect());
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut script).unwrap(),
            Polled::Frame(b"hello repl".to_vec())
        );
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Eof);
    }

    #[test]
    fn reader_keeps_what_was_pipelined_behind_a_frame() {
        // Two whole frames and the head of a third in one read.
        let third = framed(b"three");
        let mut script = Script::new(vec![
            Ok([framed(b"one"), framed(b""), third[..5].to_vec()].concat()),
            tick(io::ErrorKind::WouldBlock),
            Ok(third[5..].to_vec()),
        ]);
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut script).unwrap(),
            Polled::Frame(b"one".to_vec())
        );
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Frame(vec![]));
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Pending);
        assert!(!reader.progressed(), "the tick delivered nothing");
        assert_eq!(
            reader.poll(&mut script).unwrap(),
            Polled::Frame(b"three".to_vec())
        );
        assert!(reader.progressed());
    }

    #[test]
    fn reader_survives_timeouts_and_interrupts_mid_frame() {
        let wire = [framed(&[7u8; 300]), framed(b"next")].concat();
        let mut script = Script::new(vec![
            Ok(wire[..3].to_vec()), // inside the length prefix
            tick(io::ErrorKind::TimedOut),
            Ok(wire[3..20].to_vec()), // header done, payload begun
            tick(io::ErrorKind::Interrupted),
            Ok(wire[20..100].to_vec()),
            tick(io::ErrorKind::WouldBlock),
            tick(io::ErrorKind::WouldBlock),
            Ok(wire[100..].to_vec()),
        ]);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut pendings = 0;
        loop {
            match reader.poll(&mut script).unwrap() {
                Polled::Frame(f) => frames.push(f),
                Polled::Pending => pendings += 1,
                Polled::Eof => break,
            }
        }
        assert_eq!(frames, vec![vec![7u8; 300], b"next".to_vec()]);
        assert_eq!(pendings, 3, "Interrupted is retried, not reported");
    }

    #[test]
    fn reader_refuses_an_oversize_header_before_buffering_for_it() {
        let mut header = Vec::new();
        put_u32(&mut header, (MAX_FRAME + 1) as u32);
        put_u64(&mut header, 0);
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut Script::new(vec![Ok(header)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame too big"));
        assert!(reader.buf.len() <= READ_CHUNK);
        // At the cap the length is accepted, and memory still follows the
        // bytes received, not the 256 MiB announced.
        let mut header = Vec::new();
        put_u32(&mut header, MAX_FRAME as u32);
        put_u64(&mut header, 0);
        let mut script = Script::new(vec![Ok(header)]);
        script.tail = Some(io::ErrorKind::WouldBlock);
        let mut reader = FrameReader::new();
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Pending);
        assert!(reader.buf.len() <= READ_CHUNK);
    }

    #[test]
    fn reader_tells_eof_at_a_boundary_from_eof_mid_frame() {
        let wire = framed(b"whole");
        let mut reader = FrameReader::new();
        let mut script = Script::new(vec![Ok(wire.clone())]);
        assert!(matches!(
            reader.poll(&mut script).unwrap(),
            Polled::Frame(_)
        ));
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Eof);
        for cut in [1, FRAME_HEADER, wire.len() - 1] {
            let err = FrameReader::new()
                .poll(&mut Script::new(vec![Ok(wire[..cut].to_vec())]))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn reader_does_not_pin_a_large_frame() {
        let big = vec![0xA5u8; 4 * READ_CHUNK];
        let mut script = Script::new(vec![Ok([framed(&big), framed(b"small")].concat())]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.poll(&mut script).unwrap(), Polled::Frame(big));
        assert!(reader.buf.capacity() <= READ_CHUNK);
        assert_eq!(
            reader.poll(&mut script).unwrap(),
            Polled::Frame(b"small".to_vec())
        );
    }

    #[test]
    fn read_frame_takes_one_frame_and_not_a_byte_more() {
        let mut script = Script::new(vec![Ok([framed(b"one"), framed(b"two")].concat())]);
        assert_eq!(read_frame(&mut script).unwrap(), b"one");
        assert_eq!(read_frame(&mut script).unwrap(), b"two");
        assert_eq!(
            read_frame(&mut script).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A socket read timeout is reported as such.
        let mut script = Script::new(vec![Ok(framed(b"late")[..6].to_vec())]);
        script.tail = Some(io::ErrorKind::WouldBlock);
        assert_eq!(
            read_frame(&mut script).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn next_frame_is_patient_when_idle_and_strict_mid_frame() {
        let hour = Duration::from_secs(3600);
        let wire = framed(b"req");
        // Idle: ticks pass, nobody asked to stop, the frame arrives.
        let mut script = Script::new(vec![
            tick(io::ErrorKind::WouldBlock),
            tick(io::ErrorKind::TimedOut),
            Ok(wire.clone()),
        ]);
        let mut reader = FrameReader::new();
        let got = reader.next_frame(&mut script, Duration::ZERO, || false);
        assert_eq!(got.unwrap(), Some(b"req".to_vec()));
        // Idle and asked to stop: the first tick ends the wait.
        let mut idle = Script::new(vec![]);
        idle.tail = Some(io::ErrorKind::WouldBlock);
        assert_eq!(reader.next_frame(&mut idle, hour, || true).unwrap(), None);
        // A clean hang-up between frames is not an error either.
        let mut closed = Script::new(vec![]);
        assert_eq!(
            reader.next_frame(&mut closed, hour, || false).unwrap(),
            None
        );
        // Mid-frame: a stop request does not abandon the frame …
        let mut script = Script::new(vec![
            Ok(wire[..7].to_vec()),
            tick(io::ErrorKind::WouldBlock),
            Ok(wire[7..].to_vec()),
        ]);
        assert_eq!(
            reader.next_frame(&mut script, hour, || true).unwrap(),
            Some(b"req".to_vec())
        );
        // … but a peer that stops delivering is failed.
        let mut stalled = Script::new(vec![Ok(wire[..7].to_vec())]);
        stalled.tail = Some(io::ErrorKind::WouldBlock);
        let err = FrameReader::new()
            .next_frame(&mut stalled, Duration::ZERO, || false)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
