//! # aion-server — a Bolt-style binary protocol over TCP (Sec. 6.7)
//!
//! The paper's end-to-end experiments run temporal Cypher "in a more
//! typical client-server arrangement over Bolt (Neo4j's communication
//! protocol)", because the networking/transaction layers add the systemic
//! overheads (cache misses, scheduling) that embedded mode hides.
//!
//! This crate provides that arrangement for the reproduction:
//!
//! * [`protocol`] — a compact length-prefixed binary wire format for
//!   queries, parameters and tabular results (the Bolt stand-in);
//! * [`server`] — a TCP server executing temporal Cypher against a shared
//!   [`aion::Aion`] with one worker thread per connection;
//! * [`client`] — a blocking client used by the benchmark drivers (each
//!   benchmark client thread owns one connection, like the paper's 32
//!   pinned client threads), with timeouts, reconnects, and
//!   idempotency-gated retries;
//! * [`routing`] — a replica-aware client routing reads to read
//!   replicas with read-your-writes watermark floors, falling back to
//!   the primary for writes and stale/unreachable replicas (DESIGN.md
//!   §13);
//! * [`chaos`] — a seeded fault-injecting TCP proxy for soak-testing the
//!   stack under deliberately degraded networks (DESIGN.md §11).

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod routing;
pub mod server;
pub mod workers;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{Client, ClientConfig, NodeStatus};
pub use routing::{RoutedClient, ServedBy};
pub use server::{Server, ServerConfig, ServerStats};
