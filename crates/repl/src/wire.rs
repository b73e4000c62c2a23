//! Replication wire messages, and the handshake every replication
//! connection opens with (`send_hello`, `await_hello_ack`).
//!
//! All messages travel inside the checksummed frame envelope of
//! [`aion_server::protocol`] and are read by its `FrameReader`,
//! so a flipped byte is a framing error, never a different valid
//! message. On top of that, a [`ReplMsg::Frame`] carries a verbatim
//! commit-log frame *payload*, which the replica checks by decoding it
//! before its log appends the same bytes, giving end-to-end protection
//! from the primary's disk to the replica's log.
//!
//! The handshake checks the replica's log by content: `Hello` and
//! `HelloAck` each carry the sender's log chain
//! ([`timestore::ChangeLog::chain_at`]) at the offset they name, and
//! both sides refuse a pair that differs in offset or chain.
//!
//! Every message (except `Ack`, which only reports durability) carries
//! the sender's replication **epoch** (DESIGN.md §17): receivers fold it
//! into their fence state, so a node that talks to a newer primary —
//! or is probed by one — immediately stops accepting direct writes.
//!
//! ```text
//! msg := 0x10 "HELLO"     u64 start_offset, u64 chain, u64 latest_ts,
//!                         u64 epoch
//!      | 0x11 "HELLO_ACK" u64 resume_offset, u64 chain, u64 epoch,
//!                         u64 epoch_base_ts, u64 fence_ts
//!      | 0x12 "FRAME"     u64 offset, u64 epoch,
//!                         u32 plen, payload (a CommitFrame encoding)
//!      | 0x13 "ACK"       u64 offset, u64 ts
//!      | 0x14 "HEARTBEAT" u64 epoch
//! ```

use crate::epoch::EpochRecord;
use aion_server::protocol::{
    put_bytes, put_u64, write_frame, FrameReader, Polled, Reader, POLL_TICK,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One replication protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplMsg {
    /// Replica → primary, once per connection: where to resume.
    Hello {
        /// The end of the replica's own log, which is a byte copy of a
        /// prefix of the primary's: the offset of the next frame it needs
        /// (`0` for a fresh replica).
        start_offset: u64,
        /// The replica's log chain at `start_offset`. The primary serves
        /// the replica only when `(start_offset, chain)` is its own offset
        /// and chain for `latest_ts` (see [`ReplMsg::HelloAck`]).
        chain: u64,
        /// The replica's latest applied commit timestamp: the primary
        /// resumes at its first frame past it.
        latest_ts: u64,
        /// The sender's current replication epoch. A primary receiving
        /// a Hello with a *higher* epoch knows it was deposed: it fences
        /// its own write path before answering. (Promotion exploits this
        /// by probing the old primary with a Hello at the new epoch.)
        epoch: u64,
    },
    /// Primary → replica, answering [`ReplMsg::Hello`].
    HelloAck {
        /// The offset of the primary's first frame past the replica's
        /// `latest_ts` (its log end when there is none): where streaming
        /// starts.
        resume_offset: u64,
        /// The primary's log chain at `resume_offset`. When `(resume_offset,
        /// chain)` is not the replica's `(start_offset, chain)`, the
        /// replica's log is not a prefix of the primary's: the primary
        /// refuses the connection after this answer, and the replica
        /// marks itself diverged.
        chain: u64,
        /// The primary's current epoch. A replica seeing a *higher*
        /// epoch than its own adopts it (fencing itself); a replica
        /// seeing a *lower* one is talking to a deposed primary and
        /// reconnects elsewhere.
        epoch: u64,
        /// The commit timestamp at which the primary's current epoch
        /// began — what the replica persists alongside the adopted
        /// epoch so it can answer fork-point queries later.
        epoch_base_ts: u64,
        /// The fork point for the *replica's* epoch as stated in its
        /// Hello: the base timestamp of the first epoch newer than it.
        /// Commits the replica holds with `ts > fence_ts` are divergent
        /// and must be quarantined before resync. `u64::MAX` when the
        /// replica's epoch is current (nothing diverged).
        fence_ts: u64,
    },
    /// Primary → replica: one commit-log frame.
    Frame {
        /// Byte offset of this frame in the primary's log.
        offset: u64,
        /// The epoch this frame is shipped under. A replica refuses
        /// frames from an epoch older than its own (a deposed primary
        /// must never feed a fenced replica).
        epoch: u64,
        /// The frame's payload as the primary's log holds it; the replica
        /// appends it as it is.
        payload: Vec<u8>,
    },
    /// Replica → primary: everything up to `offset` is applied *and
    /// durable* on the replica (its database synced).
    Ack {
        /// The replica's durable log end.
        offset: u64,
        /// The replica's durable latest commit timestamp.
        ts: u64,
    },
    /// Primary → replica, when the log is idle: proof of liveness, so
    /// the replica flushes a pending batch.
    Heartbeat {
        /// The primary's current epoch (same fencing rule as frames).
        epoch: u64,
    },
}

const TAG_HELLO: u8 = 0x10;
const TAG_HELLO_ACK: u8 = 0x11;
const TAG_FRAME: u8 = 0x12;
const TAG_ACK: u8 = 0x13;
const TAG_HEARTBEAT: u8 = 0x14;

/// Serializes one message.
pub fn encode_msg(msg: &ReplMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ReplMsg::Hello {
            start_offset,
            chain,
            latest_ts,
            epoch,
        } => {
            out.push(TAG_HELLO);
            put_u64(&mut out, *start_offset);
            put_u64(&mut out, *chain);
            put_u64(&mut out, *latest_ts);
            put_u64(&mut out, *epoch);
        }
        ReplMsg::HelloAck {
            resume_offset,
            chain,
            epoch,
            epoch_base_ts,
            fence_ts,
        } => {
            out.push(TAG_HELLO_ACK);
            put_u64(&mut out, *resume_offset);
            put_u64(&mut out, *chain);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *epoch_base_ts);
            put_u64(&mut out, *fence_ts);
        }
        ReplMsg::Frame {
            offset,
            epoch,
            payload,
        } => {
            out.push(TAG_FRAME);
            put_u64(&mut out, *offset);
            put_u64(&mut out, *epoch);
            put_bytes(&mut out, payload);
        }
        ReplMsg::Ack { offset, ts } => {
            out.push(TAG_ACK);
            put_u64(&mut out, *offset);
            put_u64(&mut out, *ts);
        }
        ReplMsg::Heartbeat { epoch } => {
            out.push(TAG_HEARTBEAT);
            put_u64(&mut out, *epoch);
        }
    }
    out
}

/// Deserializes one message; trailing bytes are a protocol error (they
/// would mean the sender and receiver disagree on the message layout).
pub fn decode_msg(buf: &[u8]) -> io::Result<ReplMsg> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TAG_HELLO => ReplMsg::Hello {
            start_offset: r.u64()?,
            chain: r.u64()?,
            latest_ts: r.u64()?,
            epoch: r.u64()?,
        },
        TAG_HELLO_ACK => ReplMsg::HelloAck {
            resume_offset: r.u64()?,
            chain: r.u64()?,
            epoch: r.u64()?,
            epoch_base_ts: r.u64()?,
            fence_ts: r.u64()?,
        },
        TAG_FRAME => ReplMsg::Frame {
            offset: r.u64()?,
            epoch: r.u64()?,
            payload: r.var_bytes()?.to_vec(),
        },
        TAG_ACK => ReplMsg::Ack {
            offset: r.u64()?,
            ts: r.u64()?,
        },
        TAG_HEARTBEAT => ReplMsg::Heartbeat { epoch: r.u64()? },
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown repl message tag {other:#04x}"),
            ))
        }
    };
    r.finish()?;
    Ok(msg)
}

/// Opens a replication connection to `target` and sends the one `Hello`
/// every such connection starts with: connect within `connect_timeout`,
/// set the socket up for polled reads, write the frame.
pub(crate) fn send_hello(
    target: SocketAddr,
    connect_timeout: Duration,
    start_offset: u64,
    chain: u64,
    latest_ts: u64,
    epoch: u64,
) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&target, connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write_frame(
        &mut stream,
        &encode_msg(&ReplMsg::Hello {
            start_offset,
            chain,
            latest_ts,
            epoch,
        }),
    )?;
    Ok(stream)
}

/// What a `HelloAck` tells the side that said `Hello` (see
/// [`ReplMsg::HelloAck`]).
pub(crate) struct HelloAck {
    pub(crate) resume_offset: u64,
    pub(crate) chain: u64,
    /// The primary's current epoch and the timestamp it began at.
    pub(crate) head: EpochRecord,
    pub(crate) fence_ts: u64,
}

/// Waits for the `HelloAck`, asking `give_up` at every poll tick; `None`
/// means it said yes. The reader comes back with the ack because frames
/// the primary pipelined behind it are already in its buffer.
pub(crate) fn await_hello_ack(
    stream: &mut TcpStream,
    give_up: impl Fn() -> bool,
) -> io::Result<Option<(HelloAck, FrameReader)>> {
    let mut reader = FrameReader::new();
    let payload = loop {
        match reader.poll(stream)? {
            Polled::Frame(payload) => break payload,
            Polled::Pending if give_up() => return Ok(None),
            Polled::Pending => {}
            Polled::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "primary closed during handshake",
                ))
            }
        }
    };
    let ReplMsg::HelloAck {
        resume_offset,
        chain,
        epoch,
        epoch_base_ts,
        fence_ts,
    } = decode_msg(&payload)?
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected HELLO_ACK from primary",
        ));
    };
    let ack = HelloAck {
        resume_offset,
        chain,
        head: EpochRecord {
            epoch,
            base_ts: epoch_base_ts,
        },
        fence_ts,
    };
    Ok(Some((ack, reader)))
}
