//! Node role management: one handle that ties a database to its
//! replication role and implements **promotion** (DESIGN.md §17).
//!
//! A [`ReplNode`] is either a primary (runs a [`LogShipper`]) or a
//! replica (runs a [`Replayer`] and keeps its query server read-only).
//! Both roles share one durable [`EpochState`] chain loaded from the
//! node's data directory, so the epoch survives restarts and every
//! component — shipper stamps, replayer adoption, the write-path fence —
//! observes the same value.
//!
//! [`ReplNode::promote`] turns a replica into the new primary:
//!
//! 1. stop the replayer (its shutdown path syncs and acks the frames it
//!    applied); the replica's log, a byte copy of a prefix of the old
//!    primary's, is the log the new primary ships;
//! 2. fsync the database, then **bump and persist** a new epoch based at
//!    the node's latest commit timestamp — the fork point every other
//!    node will be measured against;
//! 3. hold the new epoch on the write path ([`aion::Aion::set_held_epoch`])
//!    and flip the shared `read_only` flag so the query server starts
//!    accepting writes;
//! 4. start shipping the local log under the new epoch;
//! 5. best-effort **fence probe**: one `Hello` at the new epoch to the
//!    old primary's replication port. If the old primary is still alive
//!    (partition, not crash), receiving the higher epoch fences its
//!    write path immediately — direct writes there fail with
//!    [`lpg::GraphError::Fenced`] instead of splitting the brain. If it
//!    is truly down the probe fails silently; the old primary learns
//!    the epoch from the first handshake after it rejoins instead.

use crate::epoch::{EpochRecord, EpochState};
use crate::replayer::{Replayer, ReplayerConfig};
use crate::shipper::LogShipper;
use crate::wire::send_hello;
use aion::Aion;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which side of replication a [`ReplNode`] currently plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Ships its log; accepts direct writes.
    Primary,
    /// Replays the primary's log; serves reads only.
    Replica,
}

/// Budget for the post-promotion fence probe connection.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// A database plus its replication role and durable epoch chain.
pub struct ReplNode {
    db: Arc<Aion>,
    epochs: Arc<EpochState>,
    role: NodeRole,
    read_only: Arc<AtomicBool>,
    shipper: Option<LogShipper>,
    replayer: Option<Replayer>,
    /// The primary this node replicated from (fence-probe target after
    /// promotion).
    upstream: Option<SocketAddr>,
}

impl ReplNode {
    /// Starts `db` as a primary: loads the epoch chain persisted under
    /// `dir` (the node's data directory, through the same `vfs` as the
    /// database), holds it on the write path, and ships the log.
    pub fn new_primary(
        db: Arc<Aion>,
        vfs: vfs::VfsRef,
        dir: &std::path::Path,
    ) -> io::Result<ReplNode> {
        let epochs = EpochState::load(vfs, dir);
        db.set_held_epoch(epochs.current().epoch);
        let shipper = LogShipper::start_with(db.clone(), epochs.clone())?;
        Ok(ReplNode {
            db,
            epochs,
            role: NodeRole::Primary,
            read_only: Arc::new(AtomicBool::new(false)),
            shipper: Some(shipper),
            replayer: None,
            upstream: None,
        })
    }

    /// Starts `db` as a replica replaying from `replay.primary`.
    /// `read_only` is the flag the node's query server consults per
    /// request — promotion flips it to `false`; share the same `Arc`
    /// with [`aion_server::Server`].
    pub fn new_replica(
        db: Arc<Aion>,
        replay: ReplayerConfig,
        read_only: Arc<AtomicBool>,
    ) -> ReplNode {
        let epochs = EpochState::load(replay.vfs.clone(), &replay.dir);
        let upstream = Some(replay.primary);
        read_only.store(true, Ordering::Release);
        let replayer = Replayer::start_with(db.clone(), replay, epochs.clone());
        ReplNode {
            db,
            epochs,
            role: NodeRole::Replica,
            read_only,
            shipper: None,
            replayer: None,
            upstream,
        }
        .with_replayer(replayer)
    }

    fn with_replayer(mut self, replayer: Replayer) -> ReplNode {
        self.replayer = Some(replayer);
        self
    }

    /// The node's current role.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// The shared epoch chain.
    pub fn epochs(&self) -> Arc<EpochState> {
        self.epochs.clone()
    }

    /// The shared read-only flag (wire it into the query server).
    pub fn read_only_flag(&self) -> Arc<AtomicBool> {
        self.read_only.clone()
    }

    /// The running replayer, while this node is a replica.
    pub fn replayer(&self) -> Option<&Replayer> {
        self.replayer.as_ref()
    }

    /// The running shipper, while this node is a primary.
    pub fn shipper(&self) -> Option<&LogShipper> {
        self.shipper.as_ref()
    }

    /// The replication address replicas connect to (primaries only).
    pub fn shipper_addr(&self) -> Option<SocketAddr> {
        self.shipper.as_ref().map(LogShipper::addr)
    }

    /// Promotes this replica to primary; see the module docs for the
    /// exact sequence. Returns the new epoch record. Errors leave the
    /// node a (stopped-replay) replica: the caller may retry.
    pub fn promote(&mut self) -> io::Result<EpochRecord> {
        if self.role == NodeRole::Primary {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "node is already the primary",
            ));
        }
        // Drain: the replayer's shutdown path makes applied frames
        // durable (sync + ack) before the thread exits.
        if let Some(mut replayer) = self.replayer.take() {
            replayer.shutdown();
        }
        self.db
            .sync()
            .map_err(|e| io::Error::other(e.to_string()))?;
        // Persisted *before* the role flips anywhere: a crash after this
        // point recovers as the epoch-N primary-elect, never as a stale
        // replica that might ack the old timeline.
        let record = self.epochs.bump(self.db.latest_ts())?;
        self.db.set_held_epoch(record.epoch);
        let shipper = LogShipper::start_with(self.db.clone(), self.epochs.clone())?;
        self.shipper = Some(shipper);
        self.role = NodeRole::Primary;
        self.read_only.store(false, Ordering::Release);
        // Best-effort fence probe (see module docs): failure means the
        // old primary is unreachable, which is exactly when it cannot
        // accept writes anyway.
        if let Some(upstream) = self.upstream.take() {
            let _ = fence_probe(upstream, record.epoch, PROBE_TIMEOUT);
        }
        Ok(record)
    }

    /// Stops whichever engine is running (shipper or replayer).
    pub fn shutdown(&mut self) {
        if let Some(mut replayer) = self.replayer.take() {
            replayer.shutdown();
        }
        if let Some(mut shipper) = self.shipper.take() {
            shipper.shutdown();
        }
    }
}

impl Drop for ReplNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One `Hello` at `epoch` to `target`'s replication port. The receiving
/// shipper folds the epoch into its fence state before answering, so
/// delivery alone is enough — the reply is not awaited.
fn fence_probe(target: SocketAddr, epoch: u64, timeout: Duration) -> io::Result<()> {
    let _stream = send_hello(target, timeout, 0, 0, 0, epoch)?;
    // Give the peer a beat to read the frame before the socket drops.
    std::thread::sleep(Duration::from_millis(20));
    Ok(())
}
