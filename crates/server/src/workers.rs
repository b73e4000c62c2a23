//! Registry of live connection workers.
//!
//! Extracted from `server.rs` and made generic over the connection
//! handle so the shutdown/registration races can be model-tested (see
//! `tests/loom_workerset.rs`) with fake handles instead of real sockets:
//! the accept loop registers, each worker deregisters itself on exit,
//! and shutdown force-closes and joins whatever remains after the drain
//! deadline.

use lock::{Mutex, Rank};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A connection that can be closed out from under its worker thread to
/// unblock a read.
pub trait ConnHandle {
    /// Forces any blocked I/O on this connection to return; errors are
    /// irrelevant because the connection is being discarded.
    fn force_close(&self);
}

impl ConnHandle for TcpStream {
    fn force_close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

struct WorkerEntry<C> {
    handle: Option<JoinHandle<()>>,
    conn: C,
    cancel: Arc<AtomicBool>,
}

/// Tracks one entry per live worker; see the module docs for the
/// register / finish / force-close lifecycle.
pub struct WorkerSet<C> {
    inner: Mutex<HashMap<u64, WorkerEntry<C>>>,
    next_id: AtomicU64,
    active_gauge: Arc<obs::Gauge>,
}

impl<C: ConnHandle> WorkerSet<C> {
    pub fn new(active_gauge: Arc<obs::Gauge>) -> WorkerSet<C> {
        WorkerSet {
            inner: Mutex::new(Rank::Workers, HashMap::new()),
            next_id: AtomicU64::new(0),
            active_gauge,
        }
    }

    /// Registers a connection before its worker thread exists; returns
    /// the worker id and its cancellation flag.
    pub fn register(&self, conn: C) -> (u64, Arc<AtomicBool>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = Arc::new(AtomicBool::new(false));
        let mut map = self.inner.lock();
        map.insert(
            id,
            WorkerEntry {
                handle: None,
                conn,
                cancel: cancel.clone(),
            },
        );
        self.active_gauge.set(map.len() as i64);
        (id, cancel)
    }

    /// Attaches the spawned thread's handle; if the worker already
    /// finished (fast disconnect), the handle is dropped (detached while
    /// exiting).
    pub fn set_handle(&self, id: u64, handle: JoinHandle<()>) {
        if let Some(entry) = self.inner.lock().get_mut(&id) {
            entry.handle = Some(handle);
        }
    }

    /// Called by a worker as its last action: removes it from the set.
    pub fn finish(&self, id: u64) {
        let mut map = self.inner.lock();
        map.remove(&id);
        self.active_gauge.set(map.len() as i64);
    }

    /// Number of live workers.
    pub fn active(&self) -> usize {
        self.inner.lock().len()
    }

    /// Cancels and closes every remaining connection, returning the
    /// thread handles to join plus how many were force-closed.
    pub fn force_close_all(&self) -> (Vec<JoinHandle<()>>, u64) {
        let entries: Vec<WorkerEntry<C>> = {
            let mut map = self.inner.lock();
            let drained = map.drain().map(|(_, e)| e).collect();
            self.active_gauge.set(0);
            drained
        };
        let forced = entries.len() as u64;
        let mut handles = Vec::with_capacity(entries.len());
        for entry in entries {
            entry.cancel.store(true, Ordering::Release);
            entry.conn.force_close();
            if let Some(h) = entry.handle {
                handles.push(h);
            }
        }
        (handles, forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fake handle recording whether it was force-closed.
    struct FakeConn(Arc<AtomicBool>);

    impl ConnHandle for FakeConn {
        fn force_close(&self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn force_close_cancels_and_closes_survivors() {
        let ws: WorkerSet<FakeConn> = WorkerSet::new(obs::gauge("server.workers.test.active"));
        let closed_a = Arc::new(AtomicBool::new(false));
        let closed_b = Arc::new(AtomicBool::new(false));
        let (ida, cancel_a) = ws.register(FakeConn(closed_a.clone()));
        let (_idb, cancel_b) = ws.register(FakeConn(closed_b.clone()));
        assert_eq!(ws.active(), 2);
        // Worker A exits cleanly before shutdown.
        ws.finish(ida);
        let (handles, forced) = ws.force_close_all();
        assert!(handles.is_empty(), "no threads were attached");
        assert_eq!(forced, 1, "only B remained");
        assert!(!closed_a.load(Ordering::SeqCst));
        assert!(closed_b.load(Ordering::SeqCst));
        assert!(!cancel_a.load(Ordering::SeqCst));
        assert!(cancel_b.load(Ordering::SeqCst));
        assert_eq!(ws.active(), 0);
    }

    #[test]
    fn ids_are_unique_and_finish_is_idempotent() {
        let ws: WorkerSet<FakeConn> = WorkerSet::new(obs::gauge("server.workers.test.ids"));
        let (a, _) = ws.register(FakeConn(Arc::new(AtomicBool::new(false))));
        let (b, _) = ws.register(FakeConn(Arc::new(AtomicBool::new(false))));
        assert_ne!(a, b);
        ws.finish(a);
        ws.finish(a);
        assert_eq!(ws.active(), 1);
    }
}
