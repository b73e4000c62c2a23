//! # aion-encoding — the variable-size temporal record format (Sec. 4.2)
//!
//! Aion decouples Neo4j's fixed-size record format from its own temporal
//! storage format to avoid a >2× storage blow-up. Records here are
//! variable-size and come in two flavours: *fully materialized* entities and
//! *deltas* from the previous update (Fig. 3).
//!
//! Wire conventions (all little-endian except keys):
//!
//! * the first byte of every record is a **header**: two bits of entity
//!   type (node / relationship / neighbourhood), a *deleted* bit and a
//!   *delta* bit;
//! * strings never appear inline — labels, property keys and string values
//!   are 4-byte references into the string store ([`lpg::Interner`]);
//! * a label reference reserves its **most significant bit** to mark the
//!   label as removed (used by delta records);
//! * a property reference reserves its **three most significant bits** for
//!   state + data type (deleted, int, float, bool, string, int array, float
//!   array);
//! * deleted entities "require space only for their ID and timestamp of
//!   deletion" — their record is a single header byte (id and timestamp
//!   live in the key or the log entry envelope);
//! * B+Tree keys ([`keys`]) are big-endian so lexicographic byte order
//!   equals numeric order — exactly the composite layouts of Table 2.
//!
//! [`snapshot`] is the format of TimeStore's snapshot files (logically full,
//! physically sharing unchanged 64-id segments with earlier files), and
//! [`varint`] provides the LEB128 + zigzag primitives everything above uses.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod keys;
pub mod record;
pub mod snapshot;
pub mod varint;

pub use record::{updates_from_record, LogRecord, RecordBody};
