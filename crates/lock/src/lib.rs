//! # aion-lock — the workspace's one lock type, ranked
//!
//! [`Mutex`], [`RwLock`] and [`Condvar`] wrap their `std::sync`
//! namesakes. Each lock is built with a [`Rank`], and the order of
//! [`Rank`]'s variants is the workspace's lock order: a thread may take a
//! lock only while every lock it holds has a lower rank.
//!
//! In `debug_assertions` builds a thread-local stack records each held
//! rank with the site that took it, and taking a lock while one of equal
//! or higher rank is held panics, naming both sites. The check follows
//! every path the tests run, through closures, trait objects and calls
//! alike; a nesting no test runs goes unchecked. Release builds carry no
//! rank and no stack.
//!
//! The locks do not poison, as the `parking_lot` locks they replace did
//! not: a panic while one is held hands its data to the next holder as it
//! stands.

#![allow(
    clippy::disallowed_types,
    reason = "the one wrapper over std::sync's locks, which clippy.toml bans elsewhere"
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// Every lock of the workspace, in the order a thread may nest them: a
/// lock may be taken while only locks of lower rank are held. Two locks of
/// one rank are never held together.
///
/// The nestings the test suite runs (outer → inner), which the order
/// must allow, are listed in DESIGN.md §12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `server::Server`'s promote handler slot; the handler runs under it.
    Promote,
    /// `server::workers::WorkerSet`: the live connection workers.
    Workers,
    /// The server's slow-query log limiter.
    RateLimit,
    /// `server::chaos::ChaosProxy`'s accepted sockets.
    ChaosSockets,
    /// `server::chaos::ChaosProxy`'s pump threads.
    ChaosPumps,
    /// `repl::EpochState`: the epoch chain.
    EpochChain,
    /// `repl::shipper`: the watermark each replica acknowledged.
    ShipperAcks,
    /// `repl::replayer`: the replica's applied watermark.
    ReplayWatermark,
    /// `repl::replayer`: the replica's last replay error.
    ReplayError,
    /// `core::group_commit`: one commit's outcome slot.
    CommitSlot,
    /// `core::cascade`: the LineageStore's apply progress.
    CascadeProgress,
    /// `lineagestore::LineageStore`: one rebuild at a time.
    LineageRebuild,
    /// `timestore::GraphStore`: the versions readers hold.
    GraphStore,
    /// `timestore::TimeStore`: the snapshot index and latest timestamp.
    TimeStoreState,
    /// `timestore::TimeStore`: the snapshot chain.
    TimeStoreChain,
    /// `timestore::TimeStore`: the durable-end record file.
    DurableEnd,
    /// `timestore::log::ChangeLog`: the log's tail and frame index.
    LogTail,
    /// `encoding::snapshot::SharedSegments`: relationship chunks in memory.
    SharedSegments,
    /// `pagestore::PageStore`: the page cache and page count.
    PageStore,
    /// `lpg::Interner`: the string table.
    Interner,
    /// `vfs::sim::SimVfs`: the simulated disk.
    SimVfs,
    /// `obs::Registry`: the named metrics.
    Registry,
}

/// A mutual-exclusion lock of one [`Rank`].
pub struct Mutex<T: ?Sized> {
    rank: order::Kept,
    inner: std::sync::Mutex<T>,
}

/// Holds a [`Mutex`] until dropped.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: order::Held,
}

impl<T> Mutex<T> {
    pub const fn new(rank: Rank, value: T) -> Mutex<T> {
        Mutex {
            rank: order::keep(rank),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is free and takes it. Debug builds panic
    /// first if this thread holds a lock of equal or higher rank.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = order::enter(self.rank);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock of one [`Rank`]. A read counts as holding the
/// rank, as a write does: a second read of the same lock nested in the
/// first can deadlock behind a queued writer.
pub struct RwLock<T: ?Sized> {
    rank: order::Kept,
    inner: std::sync::RwLock<T>,
}

/// Holds a [`RwLock`] shared until dropped.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: order::Held,
}

/// Holds a [`RwLock`] exclusively until dropped.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: order::Held,
}

impl<T> RwLock<T> {
    pub const fn new(rank: Rank, value: T) -> RwLock<T> {
        RwLock {
            rank: order::keep(rank),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = order::enter(self.rank);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = order::enter(self.rank);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable over a [`Mutex`]. A wait releases the mutex and
/// takes it back before it returns; the rank stays on the thread's stack
/// throughout, since the waiting thread takes nothing else meanwhile.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _held } = guard;
        MutexGuard {
            inner: self.0.wait(inner).unwrap_or_else(PoisonError::into_inner),
            _held,
        }
    }

    /// As [`Condvar::wait`], returning after `timeout` at the latest: the
    /// caller looks at its condition again either way.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _held } = guard;
        let (inner, _) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held }
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// The held-rank stack of debug builds.
#[cfg(debug_assertions)]
mod order {
    use super::Rank;
    use std::cell::RefCell;
    use std::panic::Location;

    /// What a lock keeps of its rank.
    pub(crate) type Kept = Rank;

    pub(crate) const fn keep(rank: Rank) -> Kept {
        rank
    }

    thread_local! {
        static HELD: RefCell<Vec<(Rank, &'static Location<'static>)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// One entry of this thread's stack, popped when dropped. Guards may
    /// drop in any order, and no two entries share a rank.
    pub(crate) struct Held(Rank);

    /// Pushes `rank`, taken at the caller's caller, after checking that no
    /// held rank is equal or higher.
    #[track_caller]
    pub(crate) fn enter(rank: Rank) -> Held {
        let site = Location::caller();
        let above = HELD.with_borrow_mut(|held| {
            let above = held.iter().find(|(r, _)| *r >= rank).copied();
            if above.is_none() {
                held.push((rank, site));
            }
            above
        });
        if let Some((held, at)) = above {
            #[allow(clippy::panic, reason = "an out-of-order nesting is a bug to stop at")]
            {
                panic!(
                    "lock order: {rank:?} taken at {site} while {held:?} is held, \
                     taken at {at}; see lock::Rank"
                );
            }
        }
        Held(rank)
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // `try_with`: a guard that outlives the stack at thread exit
            // has nothing left to pop.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|(r, _)| *r == self.0) {
                    held.remove(i);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod order {
    use super::Rank;

    pub(crate) type Kept = ();

    pub(crate) const fn keep(_: Rank) -> Kept {}

    pub(crate) struct Held;

    #[inline(always)]
    pub(crate) fn enter(_: Kept) -> Held {
        Held
    }
}
