//! Primary-side log shipping: a listener accepting replica connections,
//! one streaming worker per replica.
//!
//! Each worker tails the primary's [`timestore::ChangeLog`] with the
//! streaming [`ChangeLog::iter_from`] iterator — the log is append-only,
//! so a reader chasing the head always sees a consistent prefix — and
//! ships the payload of every commit frame as it read it inside
//! [`crate::wire::ReplMsg::Frame`] messages. A companion ack-reader
//! thread (sharing the socket via `try_clone`) consumes
//! [`crate::wire::ReplMsg::Ack`]s so a slow or silent replica never
//! blocks shipping.
//!
//! **Shipping never outruns the primary's own durability.** Workers ship
//! only up to [`timestore::TimeStore::durable_log_end`] — the fsynced log
//! prefix — never the in-memory log head. Shipping further would let a
//! replica durably apply (and ack) a commit the primary can still lose
//! in a crash; recovery would then reuse the lost timestamps for
//! *different* commits, and the replica would hold a history the primary
//! no longer has. When unsynced backlog exists (the default
//! `sync_on_commit = false` configuration), the worker forces a group
//! [`Aion::sync`] to make it shippable, so replication doubles as the
//! group-durability trigger.
//!
//! **A replica resumes where its log ends.** A replica's log is a byte
//! copy of a prefix of this log, so the offset of our first frame past
//! the replica's latest timestamp (found through the log's time index,
//! [`ChangeLog::frames_after`]) must be the replica's log end, and our
//! log chain there ([`ChangeLog::chain_at`]) must be the replica's. The
//! handshake refuses a replica whose `Hello` says otherwise: its log is
//! not a prefix of ours.
//!
//! [`ChangeLog::iter_from`]: timestore::ChangeLog::iter_from
//! [`ChangeLog::frames_after`]: timestore::ChangeLog::frames_after
//! [`ChangeLog::chain_at`]: timestore::ChangeLog::chain_at

use crate::epoch::EpochState;
use crate::replayer::Watermark;
use crate::wire::{decode_msg, encode_msg, ReplMsg};
use aion::Aion;
use aion_server::protocol::{write_frame, FrameReader, POLL_TICK};
use aion_server::workers::WorkerSet;
use lock::{Mutex, Rank};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle worker re-checks the log head for new frames.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How often an idle worker sends a heartbeat (lag report + liveness
/// probe: a vanished replica surfaces as the heartbeat write error).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// Socket read/write timeout for replica connections.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The shipper's metric handles, in its own registry.
struct ShipTelemetry {
    registry: obs::Registry,
    frames_shipped: Arc<obs::Counter>,
    frames_acked: Arc<obs::Counter>,
    replicas: Arc<obs::Gauge>,
    lag_bytes: Arc<obs::Gauge>,
    min_watermark_ts: Arc<obs::Gauge>,
    handshake_refusals: Arc<obs::Counter>,
}

impl ShipTelemetry {
    fn new(registry: obs::Registry) -> ShipTelemetry {
        ShipTelemetry {
            frames_shipped: registry.counter("server.repl.frames_shipped"),
            frames_acked: registry.counter("server.repl.frames_acked"),
            replicas: registry.gauge("server.repl.replicas"),
            lag_bytes: registry.gauge("server.repl.lag_bytes"),
            min_watermark_ts: registry.gauge("server.repl.min_watermark_ts"),
            handshake_refusals: registry.counter("server.repl.handshake_refusals"),
            registry,
        }
    }
}

struct ShipperShared {
    db: Arc<Aion>,
    stop: AtomicBool,
    workers: WorkerSet<TcpStream>,
    /// Last acked watermark per live replica connection (worker id →
    /// watermark); pruned when the connection ends. Metric cardinality
    /// stays bounded by exposing only the *minimum* as a gauge and the
    /// full map through [`LogShipper::replica_watermarks`].
    acked: Mutex<HashMap<u64, Watermark>>,
    addr: SocketAddr,
    tel: ShipTelemetry,
    /// The epoch this primary ships under. Shared with the node's
    /// promotion path so a bump is visible to in-flight workers.
    epochs: Arc<EpochState>,
}

impl ShipperShared {
    /// Records a replica's acked watermark, or forgets the replica.
    fn record_ack(&self, worker: u64, wm: Option<Watermark>) {
        let mut map = self.acked.lock();
        match wm {
            Some(wm) => map.insert(worker, wm),
            None => map.remove(&worker),
        };
        let min_ts = map.values().map(|w| w.ts).min().unwrap_or(0);
        self.tel
            .min_watermark_ts
            .set(i64::try_from(min_ts).unwrap_or(i64::MAX));
    }
}

/// The primary-side replication endpoint.
pub struct LogShipper {
    shared: Arc<ShipperShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl LogShipper {
    /// Starts shipping `db`'s commit log on an ephemeral localhost port,
    /// with a volatile epoch chain (epoch 0: a seed primary that was
    /// never promoted). Failover deployments use [`start_with`] so the
    /// shipped epoch is the durable one.
    ///
    /// [`start_with`]: LogShipper::start_with
    pub fn start(db: Arc<Aion>) -> io::Result<LogShipper> {
        LogShipper::start_with(db, EpochState::in_memory())
    }

    /// Starts shipping under an explicit (usually durable) epoch chain.
    pub fn start_with(db: Arc<Aion>, epochs: Arc<EpochState>) -> io::Result<LogShipper> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tel = ShipTelemetry::new(obs::Registry::scoped());
        let workers = WorkerSet::new(tel.replicas.clone());
        let shared = Arc::new(ShipperShared {
            db,
            stop: AtomicBool::new(false),
            workers,
            acked: Mutex::new(Rank::ShipperAcks, HashMap::new()),
            addr,
            tel,
            epochs,
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(LogShipper {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address replicas connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// What this shipper has counted (`server.repl.*`).
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.shared.tel.registry.snapshot()
    }

    /// Last durably-acked watermark of every live replica, keyed by an
    /// opaque per-connection id.
    pub fn replica_watermarks(&self) -> Vec<(u64, Watermark)> {
        let mut v: Vec<(u64, Watermark)> = self
            .shared
            .acked
            .lock()
            .iter()
            .map(|(k, w)| (*k, *w))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Stops accepting, closes replica links, and joins every thread.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocked accept loop (same trick as the query server).
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let (handles, _) = self.shared.workers.force_close_all();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for LogShipper {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ShipperShared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let worker_conn = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let (id, cancel) = shared.workers.register(worker_conn);
        let worker_shared = shared.clone();
        let handle = std::thread::spawn(move || {
            let _ = serve_replica(stream, id, &worker_shared, &cancel);
            worker_shared.record_ack(id, None);
            worker_shared.workers.finish(id);
        });
        shared.workers.set_handle(id, handle);
    }
}

/// Handles one replica connection end to end; any error drops the link
/// (the replica reconnects and resumes from its log end).
fn serve_replica(
    mut stream: TcpStream,
    worker_id: u64,
    shared: &Arc<ShipperShared>,
    cancel: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let stopped = || shared.stop.load(Ordering::Acquire) || cancel.load(Ordering::Acquire);

    // Handshake: the replica says where its log ends, its chain there and
    // its latest timestamp; we answer with our offset and chain for that
    // timestamp and serve it only when the two pairs agree.
    let mut reader = FrameReader::new();
    let Some(hello) = reader.next_frame(&mut stream, IO_TIMEOUT, stopped)? else {
        return Ok(());
    };
    let ReplMsg::Hello {
        start_offset,
        chain: replica_chain,
        latest_ts: replica_ts,
        epoch: replica_epoch,
    } = decode_msg(&hello)?
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected HELLO as first replication message",
        ));
    };
    let log = shared.db.timestore().log();
    let (resume_offset, _) = log.frames_after(replica_ts);
    // A frame boundary: appends only move the end past it.
    let chain = log.chain_at(resume_offset).unwrap_or(0);
    let my_epoch = shared.epochs.current();
    // The fork point of the *replica's* epoch: commits it holds past
    // this timestamp never shipped under any epoch we recognize.
    // `u64::MAX` when the replica's epoch is current (nothing forked).
    let fence_ts = shared.epochs.fork_ts_for(replica_epoch).unwrap_or(u64::MAX);
    // Always answer honestly (resume offset and chain, our epoch) so the
    // peer can detect divergence — or our deposition — on its side too,
    // then gate below.
    write_frame(
        &mut stream,
        &encode_msg(&ReplMsg::HelloAck {
            resume_offset,
            chain,
            epoch: my_epoch.epoch,
            epoch_base_ts: my_epoch.base_ts,
            fence_ts,
        }),
    )?;
    let refuse = |msg: String| {
        shared.tel.handshake_refusals.inc();
        Err(io::Error::new(io::ErrorKind::InvalidData, msg))
    };
    if replica_epoch > my_epoch.epoch {
        // The peer carries a newer epoch than we ever issued: we were
        // deposed while partitioned (this Hello may well be the new
        // primary's fence probe). Fence our own write path *before*
        // refusing, so no direct write can sneak in afterwards, and
        // leave the divergence handling to our own rejoin.
        shared.db.observe_epoch(replica_epoch);
        return refuse(format!(
            "peer epoch {replica_epoch} exceeds this primary's epoch {}: \
             this node was deposed and is now fenced",
            my_epoch.epoch
        ));
    }
    if replica_ts > fence_ts {
        // The replica (on an older epoch) durably applied commits past
        // its epoch's fork point: those are divergent and must be
        // quarantined offline (`prepare_rejoin`) before it may resync.
        return refuse(format!(
            "replica on epoch {replica_epoch} holds commits past its fork point \
             (replica ts {replica_ts} > fence ts {fence_ts}): divergent suffix \
             must be quarantined before resync"
        ));
    }
    if (start_offset, replica_chain) != (resume_offset, chain) {
        // Our first frame past the replica's latest timestamp does not
        // start where its log ends, or the frames before it are not the
        // replica's: its log is not a prefix of ours. We lost state it
        // applied (lost disk, restore from backup), or it holds commits
        // of its own. Streaming would append our frames after a history
        // we do not have.
        return refuse(format!(
            "replica log ends at {start_offset} with chain {replica_chain:#x}, \
             but our frames past its ts {replica_ts} start at {resume_offset} \
             after chain {chain:#x}: histories diverged, refusing to serve"
        ));
    }

    // Ack reader: a separate thread on a socket clone, so acks drain
    // even while this thread is blocked writing a large frame. It takes
    // over the handshake FrameReader — any bytes the replica pipelined
    // behind its Hello are already in that reader's buffer and must not
    // be dropped.
    let ack_stream = stream.try_clone()?;
    let ack_shared = shared.clone();
    let ack_thread =
        std::thread::spawn(move || ack_loop(ack_stream, reader, worker_id, &ack_shared));

    let result = stream_frames(&mut stream, resume_offset, shared, &stopped);
    // Unblock and reap the ack thread: shutting down the socket makes
    // its reads fail fast.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
    result
}

fn stream_frames(
    stream: &mut TcpStream,
    mut cursor: u64,
    shared: &Arc<ShipperShared>,
    stopped: &dyn Fn() -> bool,
) -> io::Result<()> {
    let mut last_heartbeat = Instant::now();
    loop {
        if stopped() {
            return Ok(());
        }
        let timestore = shared.db.timestore();
        let log = timestore.log();
        // Ship only the fsynced prefix (see module docs): a frame past
        // it could still be rolled back by a primary crash, and the
        // replica must never durably apply what the primary can lose.
        let durable = timestore.durable_log_end();
        let mut shipped = false;
        if cursor < durable {
            for entry in log.iter_from(cursor) {
                if stopped() {
                    return Ok(());
                }
                let mut entry = entry.map_err(|e| {
                    // The primary's own log is corrupt past `cursor`:
                    // nothing more can be shipped on this connection.
                    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                })?;
                if entry.next > durable {
                    break;
                }
                entry.bytes.drain(..8); // the header: the replica's log writes its own
                write_frame(
                    stream,
                    &encode_msg(&ReplMsg::Frame {
                        offset: entry.offset,
                        epoch: shared.epochs.current().epoch,
                        payload: entry.bytes,
                    }),
                )?;
                cursor = entry.next;
                shared.tel.frames_shipped.inc();
                shipped = true;
            }
        }
        shared
            .tel
            .lag_bytes
            .set(i64::try_from(log.end_offset().saturating_sub(cursor)).unwrap_or(i64::MAX));
        if shipped {
            last_heartbeat = Instant::now();
            continue;
        }
        if log.end_offset() > durable {
            // Unsynced backlog (or a resume cursor past a stale durable
            // marker): force a group sync so it becomes shippable. This
            // is what makes `sync_on_commit = false` primaries durable
            // at replication speed instead of at fsync-per-commit cost.
            shared
                .db
                .sync()
                .map_err(|e| io::Error::other(e.to_string()))?;
            continue;
        }
        if last_heartbeat.elapsed() >= HEARTBEAT_INTERVAL {
            write_frame(
                stream,
                &encode_msg(&ReplMsg::Heartbeat {
                    epoch: shared.epochs.current().epoch,
                }),
            )?;
            last_heartbeat = Instant::now();
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Drains acks off a socket clone until the connection dies. Takes over
/// the handshake's [`FrameReader`] so bytes the replica pipelined after
/// its Hello (already buffered there) are not lost.
fn ack_loop(
    mut stream: TcpStream,
    mut reader: FrameReader,
    worker_id: u64,
    shared: &Arc<ShipperShared>,
) {
    let stopped = || shared.stop.load(Ordering::Acquire);
    // Ends on stop, hang-up, a corrupt frame or a replica stalled mid-ack.
    while let Ok(Some(payload)) = reader.next_frame(&mut stream, IO_TIMEOUT, stopped) {
        if let Ok(ReplMsg::Ack { offset, ts }) = decode_msg(&payload) {
            shared.tel.frames_acked.inc();
            shared.record_ack(worker_id, Some(Watermark { offset, ts }));
        }
    }
}
