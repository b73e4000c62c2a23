//! # aion-pagestore — file-backed pages with an LRU page cache
//!
//! Aion "back\[s\] its storage with Neo4j's B+Tree implementation … offering
//! sortedness, scalable accesses, out-of-core storage, and seamless
//! integration with the page cache" (Sec. 5). This crate is the Rust
//! substrate for that: a paged file ([`PageStore`]) fronted by a fixed-size
//! LRU page cache ([`cache::LruCache`]) with dirty tracking and write-back on
//! eviction.
//!
//! Layout:
//!
//! * page 0 is a meta page holding a magic number, the allocated page count,
//!   the free-list head, eight u64 slots the B+Tree layer uses to persist
//!   its root pointers and, in its last eight bytes, the seal the last
//!   sync wrote over the whole file;
//! * every other page is raw `PAGE_SIZE` bytes interpreted by the layer
//!   above;
//! * freed pages are chained into a free list (first 8 bytes = next free
//!   page) and reused before the file grows.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cache;
pub mod page;
pub mod store;

pub use cache::LruCache;
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use store::PageStore;
