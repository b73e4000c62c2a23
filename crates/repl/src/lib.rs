//! # aion-repl — log-shipping replication (DESIGN.md §13)
//!
//! The paper's append-only ChangeLog, ordered by commit timestamp
//! (Sec. 5), *is* a replication stream: this crate ships it.
//!
//! * [`shipper`] — the primary side: a [`LogShipper`] accepts replica
//!   connections and streams checksummed commit frames straight out of
//!   the [`timestore::ChangeLog`], tracking per-replica acked
//!   watermarks and lag.
//! * [`replayer`] — the replica side: a [`Replayer`] connects to the
//!   primary and applies frames into its own database through the
//!   normal commit pipeline ([`aion::Aion::apply_frame`]), whose log
//!   appends the shipped payload as it is, so the replica's own log is a
//!   byte copy of a prefix of the primary's. That log is its replay
//!   position: a session resumes from the replica's log end, its durable
//!   [`Watermark`] is the log end as of the last sync, and the shipper
//!   serves only a replica whose log end and log chain are the primary's
//!   offset and chain for its latest timestamp. Corrupt frames are
//!   rejected, never applied.
//! * [`wire`] — the `Hello`/`HelloAck`/`Frame`/`Ack`/`Heartbeat`
//!   message codec, carried in the server's checksummed frame envelope.
//!
//! Replicas serve reads through the ordinary query server started with
//! [`aion_server::ServerConfig::read_only`]; clients get bounded
//! staleness via `min_watermark` on `Run` and replica-aware routing via
//! [`aion_server::RoutedClient`].
//!
//! Failover (DESIGN.md §17) is built from three more pieces:
//!
//! * [`epoch`] — the durable, monotonically increasing replication
//!   epoch chain; every shipped frame and handshake is stamped with it,
//!   and a node only accepts direct writes while holding the highest
//!   epoch it has seen.
//! * [`node`] — the role manager: a [`ReplNode`] wraps a database plus
//!   its shipper/replayer and implements [`ReplNode::promote`] (drain,
//!   bump epoch, open writes, start shipping, fence the old primary).
//! * [`rejoin`] — offline quarantine for a deposed primary's divergent
//!   log suffix ([`prepare_rejoin`]), archiving it byte-exact into a
//!   checksummed archive file before the node resyncs as a replica.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod epoch;
pub mod node;
pub mod rejoin;
pub mod replayer;
pub mod shipper;
pub mod wire;

pub use epoch::{EpochRecord, EpochState, EPOCH_FILE};
pub use node::{NodeRole, ReplNode, ReplNodeConfig};
pub use rejoin::{prepare_rejoin, read_divergence_archive, DivergenceArchive, RejoinReport};
pub use replayer::{Replayer, ReplayerConfig, Watermark};
pub use shipper::{LogShipper, ShipperConfig};
pub use wire::{decode_msg, encode_msg, ReplMsg};
