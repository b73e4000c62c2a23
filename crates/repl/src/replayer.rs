//! Replica-side replay: connect to the primary, stream commit frames,
//! apply them into the local database, and ack the durable prefix.
//!
//! The replica's own `timestore.log` is its replay position. Applying a
//! frame through [`aion::Aion::apply_frame`] appends the payload bytes
//! the primary shipped, so the replica's log is a byte copy of a prefix
//! of the primary's by construction, and its end is the offset of the
//! next frame it needs. Nothing else records that position.
//!
//! Correctness invariants (DESIGN.md §13):
//!
//! * **The log is the position.** Each session sends the replica's log
//!   end, its log chain there and its latest timestamp in `Hello`. The
//!   shipper resumes at its first frame past that timestamp and serves
//!   only a replica whose log ends exactly there with the same chain. A
//!   frame must start at the replica's log end, or the session fails. So
//!   no frame is delivered twice, and `apply_frame` refuses one at or
//!   below the local latest timestamp.
//! * **Watermark ≤ durable prefix.** The [`Watermark`] that `Ack`
//!   reports is read from the log after [`aion::Aion::sync`] succeeds,
//!   so it never claims state the local store could lose in a crash.
//! * **Torn-tail rejection.** A frame that does not decode — corruption
//!   anywhere between the primary's disk and this process — drops the
//!   connection before anything is appended; the reconnect resumes from
//!   the replica's log end (crash recovery cuts a torn local tail, so
//!   that end is always a frame boundary).
//! * **Divergence refusal.** A primary whose latest timestamp is below
//!   this replica's, or whose offset and chain for the replica's latest
//!   timestamp are not the replica's log end and chain, holds a
//!   different history (it lost state, was restored from a backup, or
//!   the replica's directory has commits of its own, even ones of the
//!   same length). The replayer marks itself [`Replayer::diverged`] and
//!   stops; the replica needs a rebuild.

use crate::epoch::EpochState;
use crate::wire::{await_hello_ack, decode_msg, encode_msg, send_hello, ReplMsg};
use aion::Aion;
use aion_server::protocol::{write_frame, Polled};
use lock::{Mutex, Rank};
use lpg::GraphError;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vfs::VfsRef;

/// A replica's replay position as of its last durability point: its log
/// end and latest timestamp. The replica's log is a byte copy of a prefix
/// of the primary's, so `offset` is a position in both.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Watermark {
    /// Byte offset of the next frame needed (everything before it is
    /// applied and durable).
    pub offset: u64,
    /// Latest commit timestamp applied and durable locally.
    pub ts: u64,
}

/// Tunables for one [`Replayer`].
#[derive(Clone, Debug)]
pub struct ReplayerConfig {
    /// The primary's replication listener ([`crate::LogShipper::addr`]).
    pub primary: SocketAddr,
    /// The replica's data directory (the epoch chain persists here).
    pub dir: PathBuf,
    /// File system seam for the epoch chain — pass the same handle as
    /// the replica's [`aion::AionConfig::vfs`] so crash simulation
    /// covers both.
    pub vfs: VfsRef,
    /// Frames applied between durability points (sync + ack). `1` makes
    /// every frame durable before it is acked.
    pub sync_every: u64,
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// Base reconnect backoff (doubles up to 32× per consecutive
    /// failure, resetting on a successful handshake).
    pub reconnect_backoff: Duration,
    /// How long a connected session may go without *any* inbound
    /// message (frame or heartbeat) before the link is declared down
    /// and the session reconnects. The shipper heartbeats every
    /// [`crate::shipper::HEARTBEAT_INTERVAL`] (200 ms),
    /// so the default here — 2 s — means ten missed heartbeats. This is
    /// the replica-side liveness trigger for failover: without it a
    /// silently dead link (half-open TCP, black-holing proxy) blocks
    /// replay forever.
    pub heartbeat_timeout: Duration,
}

impl ReplayerConfig {
    /// Defaults for a replica rooted at `dir` replicating from `primary`.
    pub fn new(primary: SocketAddr, dir: impl Into<PathBuf>) -> ReplayerConfig {
        ReplayerConfig {
            primary,
            dir: dir.into(),
            vfs: VfsRef::std(),
            sync_every: 32,
            connect_timeout: Duration::from_secs(2),
            reconnect_backoff: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_secs(2),
        }
    }
}

/// The replayer's metric handles, in its own registry.
struct ReplayTelemetry {
    registry: obs::Registry,
    frames_applied: Arc<obs::Counter>,
    reconnects: Arc<obs::Counter>,
    corrupt_frames: Arc<obs::Counter>,
    watermark_ts: Arc<obs::Gauge>,
    link_down: Arc<obs::Gauge>,
    heartbeat_timeouts: Arc<obs::Counter>,
}

impl ReplayTelemetry {
    fn new(registry: obs::Registry) -> ReplayTelemetry {
        ReplayTelemetry {
            frames_applied: registry.counter("repl.replay.frames_applied"),
            reconnects: registry.counter("repl.replay.reconnects"),
            corrupt_frames: registry.counter("repl.replay.corrupt_frames"),
            watermark_ts: registry.gauge("repl.replay.watermark_ts"),
            link_down: registry.gauge("repl.link_down"),
            heartbeat_timeouts: registry.counter("repl.heartbeat_timeouts"),
            registry,
        }
    }
}

struct ReplayerShared {
    db: Arc<Aion>,
    stop: AtomicBool,
    diverged: AtomicBool,
    /// The durable watermark, under a mutex so `(offset, ts)` is always
    /// read as a consistent pair — two separate atomics would let a
    /// racing reader observe a torn combination (new offset, old ts).
    wm: Mutex<Watermark>,
    last_error: Mutex<Option<String>>,
    cfg: ReplayerConfig,
    tel: ReplayTelemetry,
    epochs: Arc<EpochState>,
}

impl ReplayerShared {
    /// Syncs the database, then takes its durable log end and latest
    /// timestamp as the watermark.
    fn sync_watermark(&self) -> io::Result<Watermark> {
        self.db
            .sync()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let wm = Watermark {
            offset: self.db.timestore().durable_log_end(),
            ts: self.db.latest_ts(),
        };
        *self.wm.lock() = wm;
        self.tel
            .watermark_ts
            .set(i64::try_from(wm.ts).unwrap_or(i64::MAX));
        Ok(wm)
    }

    fn watermark(&self) -> Watermark {
        *self.wm.lock()
    }

    /// The end of the local log: the offset the next frame must start at.
    fn log_end(&self) -> u64 {
        self.db.timestore().log().end_offset()
    }

    fn note_error(&self, e: impl ToString) {
        *self.last_error.lock() = Some(e.to_string());
    }
}

/// The replica-side replay engine: owns a background thread that keeps
/// the local database converging toward the primary's log.
pub struct Replayer {
    shared: Arc<ReplayerShared>,
    thread: Option<JoinHandle<()>>,
}

impl Replayer {
    /// Starts replaying into `db` from the end of its own log (see the
    /// module docs). The epoch chain is loaded from (and persisted under)
    /// `cfg.dir`.
    pub fn start(db: Arc<Aion>, cfg: ReplayerConfig) -> Replayer {
        let epochs = EpochState::load(cfg.vfs.clone(), &cfg.dir);
        Replayer::start_with(db, cfg, epochs)
    }

    /// Starts replaying with an explicit shared epoch chain (the node
    /// role manager shares one chain between replay and promotion).
    pub fn start_with(db: Arc<Aion>, cfg: ReplayerConfig, epochs: Arc<EpochState>) -> Replayer {
        // Knowing about an epoch fences the write path below it: a
        // replica that ever adopted epoch N refuses direct writes until
        // *it* is promoted to an epoch ≥ N.
        db.observe_epoch(epochs.current().epoch);
        let shared = Arc::new(ReplayerShared {
            db,
            stop: AtomicBool::new(false),
            diverged: AtomicBool::new(false),
            wm: Mutex::new(Rank::ReplayWatermark, Watermark::default()),
            last_error: Mutex::new(Rank::ReplayError, None),
            cfg,
            tel: ReplayTelemetry::new(obs::Registry::scoped()),
            epochs,
        });
        if let Err(e) = shared.sync_watermark() {
            shared.note_error(e);
        }
        let run_shared = shared.clone();
        let thread = std::thread::spawn(move || run(&run_shared));
        Replayer {
            shared,
            thread: Some(thread),
        }
    }

    /// The current durable watermark.
    pub fn watermark(&self) -> Watermark {
        self.shared.watermark()
    }

    /// A detached probe of the durable watermark, for monitor threads
    /// that must outlive their borrow of the replayer (soak tests,
    /// metrics exporters).
    pub fn watermark_probe(&self) -> impl Fn() -> Watermark + Send + 'static {
        let shared = self.shared.clone();
        move || shared.watermark()
    }

    /// What this replayer has counted (`repl.*`: frames applied,
    /// reconnects, heartbeat timeouts, …); the process-wide registry adds
    /// up every replayer's.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.shared.tel.registry.snapshot()
    }

    /// The shared epoch chain this replica replays under.
    pub fn epochs(&self) -> Arc<EpochState> {
        self.shared.epochs.clone()
    }

    /// Whether the replayer detected primary/replica history divergence
    /// (the primary's latest timestamp is below this replica's, or the
    /// replica's log is not a prefix of the primary's by offset or by
    /// chain) and permanently stopped. [`Replayer::last_error`] carries
    /// the detail; the replica needs a rebuild to rejoin.
    pub fn diverged(&self) -> bool {
        self.shared.diverged.load(Ordering::Acquire)
    }

    /// The most recent replay error, if any (diagnostics).
    pub fn last_error(&self) -> Option<String> {
        self.shared.last_error.lock().clone()
    }

    /// Stops the replay thread and joins it.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replayer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(shared: &Arc<ReplayerShared>) {
    let mut backoff_factor: u32 = 1;
    while !shared.stop.load(Ordering::Acquire) {
        let mut handshake_ok = false;
        match session(shared, &mut handshake_ok) {
            Ok(()) => return, // clean stop
            Err(e) => {
                shared.note_error(e.to_string());
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if shared.diverged.load(Ordering::Acquire) {
                    // Not a transient fault: reconnecting would only be
                    // refused again. Stop and leave the verdict in
                    // `diverged()` / `last_error()`.
                    return;
                }
                if handshake_ok {
                    // The primary was reachable and answered: this was a
                    // working session, so the next outage starts from the
                    // base backoff again.
                    backoff_factor = 1;
                }
                shared.tel.reconnects.inc();
                let sleep = shared
                    .cfg
                    .reconnect_backoff
                    .saturating_mul(backoff_factor)
                    .min(Duration::from_secs(2));
                backoff_factor = (backoff_factor * 2).min(32);
                std::thread::sleep(sleep);
            }
        }
    }
}

/// One connected session: handshake, then stream-apply until the
/// connection dies or the replayer is stopped. `Ok(())` means "stop was
/// requested"; every other exit is an `Err` that triggers reconnect.
/// `handshake_ok` is set once a valid `HelloAck` arrived, so the caller
/// can reset its reconnect backoff after sessions that actually worked.
fn session(shared: &Arc<ReplayerShared>, handshake_ok: &mut bool) -> io::Result<()> {
    let log_end = shared.log_end();
    let chain = shared.db.timestore().log().chain_at(log_end).unwrap_or(0);
    let my_ts = shared.db.latest_ts();
    let my_epoch = shared.epochs.current().epoch;
    let mut stream = send_hello(
        shared.cfg.primary,
        shared.cfg.connect_timeout,
        log_end,
        chain,
        my_ts,
        my_epoch,
    )?;
    let stopped = || shared.stop.load(Ordering::Acquire);
    let Some((ack, mut reader)) = await_hello_ack(&mut stream, stopped)? else {
        return Ok(());
    };
    let (primary_epoch, fence_ts) = (ack.head.epoch, ack.fence_ts);
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    let diverge = |msg: String| {
        shared.diverged.store(true, Ordering::Release);
        invalid(msg)
    };
    if primary_epoch < my_epoch {
        // A deposed primary: it predates an epoch we already adopted.
        // Following it would replay a dead timeline — reconnect (the
        // routing layer will eventually point us at the new primary).
        return invalid(format!(
            "primary is on stale epoch {primary_epoch} (ours is {my_epoch}): \
             refusing to follow a deposed primary"
        ));
    }
    if primary_epoch > my_epoch {
        // A newer primary exists. Commits we hold beyond its fork point
        // for *our* epoch never shipped anywhere this primary knows —
        // they are divergent and must be quarantined offline
        // (`prepare_rejoin`) before this replica may resync.
        if my_ts > fence_ts {
            return diverge(format!(
                "local history extends past the epoch {primary_epoch} fork point \
                 (latest ts {my_ts} > fence ts {fence_ts}): divergent suffix \
                 must be quarantined before rejoin"
            ));
        }
        shared.epochs.adopt(ack.head)?;
        shared.db.observe_epoch(primary_epoch);
    }
    if (ack.resume_offset, ack.chain) != (log_end, chain) {
        // The primary's first frame past our latest timestamp does not
        // start where our log ends, or the frames before it are not ours:
        // our log is not a prefix of its log. It lost state we applied
        // (a primary with less history ends before our log does), or we
        // hold commits it never shipped. The shipper refuses us too.
        return diverge(format!(
            "our log ends at {log_end} with chain {chain:#x}, but the primary's \
             frames past our ts {my_ts} start at {} after chain {:#x}: \
             histories diverged, this replica needs a rebuild",
            ack.resume_offset, ack.chain
        ));
    }
    *handshake_ok = true;
    shared.tel.link_down.set(0);

    let mut pending: u64 = 0; // frames applied since the last durability point
    let mut last_inbound = Instant::now();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            // Sync and ack what this session applied, so the primary's
            // last view of this replica is where it stopped.
            let _ = make_durable(shared, &mut stream, &mut pending);
            return Ok(());
        }
        let polled = reader.poll(&mut stream)?;
        if reader.progressed() {
            // Any byte counts, not only a complete message: a large frame
            // trickling in over a slow link is a live link.
            last_inbound = Instant::now();
        }
        let msg = match polled {
            Polled::Frame(payload) => decode_msg(&payload)?,
            Polled::Pending => {
                if last_inbound.elapsed() >= shared.cfg.heartbeat_timeout {
                    // The shipper heartbeats even when idle, so silence
                    // this long — between frames or in the middle of one
                    // — means the link is dead (half-open TCP,
                    // black-holing middlebox). Declare it down and
                    // reconnect through the normal backoff path.
                    shared.tel.heartbeat_timeouts.inc();
                    shared.tel.link_down.set(1);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "no frame or heartbeat from primary for {:?}: \
                             declaring the replication link down",
                            shared.cfg.heartbeat_timeout
                        ),
                    ));
                }
                continue;
            }
            Polled::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed the replication stream",
                ))
            }
        };
        match msg {
            ReplMsg::Frame {
                offset,
                epoch,
                payload,
            } => {
                check_stream_epoch(shared, epoch)?;
                let log_end = shared.log_end();
                if offset != log_end {
                    // Out-of-order delivery is impossible on one TCP
                    // stream unless state is corrupt: reconnect.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame offset {offset} is not our log end {log_end}"),
                    ));
                }
                if let Err(e) = shared.db.apply_frame(payload) {
                    // A corrupt frame is refused before anything is
                    // appended: never apply garbage.
                    if matches!(e, GraphError::CorruptRecord(_)) {
                        shared.tel.corrupt_frames.inc();
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("commit frame at offset {offset}: {e}"),
                    ));
                }
                shared.tel.frames_applied.inc();
                pending += 1;
                if pending >= shared.cfg.sync_every {
                    make_durable(shared, &mut stream, &mut pending)?;
                }
            }
            ReplMsg::Heartbeat { epoch, .. } => {
                check_stream_epoch(shared, epoch)?;
                // Quiesce point: flush any partial batch so an idle
                // stream still converges to a durable, acked watermark.
                if pending > 0 {
                    make_durable(shared, &mut stream, &mut pending)?;
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected replication message: {other:?}"),
                ));
            }
        }
    }
}

/// Mid-stream epoch gate: a frame or heartbeat stamped with an epoch
/// *older* than ours comes from a primary deposed after the handshake —
/// drop the session rather than apply a dead timeline. A *newer* stamp
/// (promotion raced this stream) at least fences our write path
/// immediately; the follow-up reconnect handshake adopts it properly.
fn check_stream_epoch(shared: &Arc<ReplayerShared>, epoch: u64) -> io::Result<()> {
    let ours = shared.epochs.current().epoch;
    if epoch < ours {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("stream epoch {epoch} fell behind ours ({ours}): primary was deposed"),
        ));
    }
    if epoch > ours {
        shared.db.observe_epoch(epoch);
    }
    Ok(())
}

/// The durability point: fsync the database, take the watermark from
/// its log, then ack. The ack never leads the fsync.
fn make_durable(
    shared: &Arc<ReplayerShared>,
    stream: &mut TcpStream,
    pending: &mut u64,
) -> io::Result<()> {
    if *pending == 0 {
        return Ok(());
    }
    let wm = shared.sync_watermark()?;
    *pending = 0;
    write_frame(
        stream,
        &encode_msg(&ReplMsg::Ack {
            offset: wm.offset,
            ts: wm.ts,
        }),
    )
}
