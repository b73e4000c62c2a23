//! # aion-btree — an order-preserving, page-backed B+Tree
//!
//! The Rust counterpart of the Neo4j B+Tree (`GBPTree`) that Aion builds
//! both of its temporal stores on (Sec. 5: "Backing Aion's storage with
//! Neo4j's B+Tree implementation offers sortedness, scalable accesses,
//! out-of-core storage, and seamless integration with the page cache").
//!
//! Properties:
//!
//! * arbitrary byte-string keys compared lexicographically — composite keys
//!   (`{nodeId, ts}`, `{srcId, tgtId, ts}`, Table 2) are encoded order-
//!   preservingly by the `encoding` crate;
//! * variable-size values with transparent overflow pages for values larger
//!   than [`MAX_INLINE_VALUE`];
//! * slotted 8 KiB pages served through the `pagestore` LRU cache, so the
//!   tree works out-of-core; a leaf cell's header is two varints, so a
//!   small cell spends two bytes on it ([`layout`]);
//! * `O(log n)` point lookups and ordered range scans over leaf sibling
//!   chains — the access pattern behind the LineageStore;
//! * leaves split 50/50, except that an insert past the last key of the
//!   rightmost leaf starts a new leaf and leaves the full one full, so
//!   ascending ids and timestamps pack leaves instead of half-filling them;
//! * an insert walks from the root to its leaf once and searches the leaf
//!   once (only a split walks down again, for the path), and
//!   [`BTree::insert_with`] hands the value's builder the entry before the
//!   key, read from the leaf the insert writes;
//! * several trees can share one file: each tree persists its root pointer
//!   in one of the page-store meta slots.
//!
//! Deletion is *lazy*: cells are removed in place and their bytes reclaimed
//! by the next compaction of that page, but no page is ever merged,
//! unlinked or freed — an emptied leaf stays in the sibling chain — and
//! underfull nodes are not rebalanced. Only overflow chains return to the
//! free list. Aion's stores are append-mostly (the change log has "no
//! retention policy"), so rebalancing would add complexity with no
//! measurable win.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod layout;
pub mod overflow;
pub mod scan;
pub mod tree;
pub mod verify;

pub use scan::{KeyScan, Scan};
pub use tree::{BTree, MAX_INLINE_VALUE, MAX_KEY};
pub use verify::{audit_page_file, Audit, Finding, TreeFill, VerifyClass, VerifyReport, Violation};
