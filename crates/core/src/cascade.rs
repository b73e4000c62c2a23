//! The background cascade (Fig. 4, stage 2): "only the TimeStore is
//! updated synchronously; then, background workers asynchronously apply
//! outstanding updates to the LineageStore".
//!
//! The cascade owns a worker thread fed by an unbounded channel of commit
//! events; it is the one thread that applies commits to the LineageStore
//! while the database is open. [`Cascade::barrier`] lets a commit under
//! `sync_lineage`, tests and recovery wait until the LineageStore has
//! caught up with a given timestamp: it parks on a condvar
//! the worker signals after each apply, so the waiting thread leaves the
//! CPU to the worker instead of spinning beside it.

use crate::txn::CommitEvent;
use crossbeam_channel::{unbounded, Sender};
use lineagestore::LineageStore;
use lock::{Condvar, Mutex, Rank};
use lpg::{GraphError, Result, Timestamp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest a barrier parks before it looks at the wedge flag again: the
/// log writer sets it without signalling.
const WEDGE_POLL: Duration = Duration::from_millis(1);

enum Job {
    Apply(CommitEvent),
    Stop,
}

/// How far the worker has applied, and what it signals when that moves or
/// it wedges.
struct Progress {
    applied: AtomicU64,
    lock: Mutex<()>,
    moved: Condvar,
}

impl Progress {
    /// Wakes every parked barrier. Taking the lock first means a barrier
    /// that saw the old state is already parked, so the wake-up is not lost.
    fn signal(&self) {
        drop(self.lock.lock());
        self.moved.notify_all();
    }
}

/// Handle to the background LineageStore applier.
pub struct Cascade {
    tx: Sender<Job>,
    progress: Arc<Progress>,
    wedged: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl Cascade {
    /// Spawns the worker over a shared LineageStore. `wedged` is the one
    /// wedge flag of the database: the worker sets it on an apply error,
    /// and the log writer on a commit of uncertain durability, after which
    /// it submits nothing more. Fails only if the OS refuses the thread.
    pub fn spawn(lineage: Arc<LineageStore>, wedged: Arc<AtomicBool>) -> Result<Cascade> {
        let (tx, rx) = unbounded::<Job>();
        let progress = Arc::new(Progress {
            applied: AtomicU64::new(lineage.applied_ts()),
            lock: Mutex::new(Rank::CascadeProgress, ()),
            moved: Condvar::new(),
        });
        let progress2 = progress.clone();
        let wedged2 = wedged.clone();
        let worker = std::thread::Builder::new()
            .name("aion-cascade".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Apply(event) => {
                            // An application failure means the LineageStore
                            // cannot represent this commit (I/O error, torn
                            // state). Advancing the watermark past it would
                            // let queries read a silently incomplete store,
                            // so wedge instead: stop applying, keep the
                            // watermark where it is, and let the TimeStore
                            // fallback serve queries until the next reopen
                            // rebuilds the LineageStore from the log.
                            if wedged2.load(Ordering::Acquire) {
                                continue;
                            }
                            if lineage.apply_commit(event.ts, &event.updates).is_err() {
                                wedged2.store(true, Ordering::Release);
                            } else {
                                progress2.applied.store(event.ts, Ordering::Release);
                            }
                            progress2.signal();
                        }
                        Job::Stop => break,
                    }
                }
            })
            .map_err(|e| GraphError::Storage(format!("spawn cascade worker: {e}")))?;
        Ok(Cascade {
            tx,
            progress,
            wedged,
            worker: Some(worker),
        })
    }

    /// Enqueues a committed transaction.
    pub fn submit(&self, event: CommitEvent) {
        let _ = self.tx.send(Job::Apply(event));
    }

    /// Highest timestamp the LineageStore has fully applied.
    pub fn applied_ts(&self) -> Timestamp {
        self.progress.applied.load(Ordering::Acquire)
    }

    /// Blocks until everything at or below `ts` has been applied, or the
    /// wedge flag is set (in which case the watermark may never reach `ts`).
    pub fn barrier(&self, ts: Timestamp) {
        let progress = &self.progress;
        let mut guard = progress.lock.lock();
        while self.applied_ts() < ts && !self.wedged.load(Ordering::Acquire) {
            guard = progress.moved.wait_timeout(guard, WEDGE_POLL);
        }
    }
}

impl Drop for Cascade {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Stop);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagestore::LineageStoreConfig;
    use lpg::{NodeId, Update};
    use tempfile::tempdir;

    #[test]
    fn cascade_applies_in_background() {
        let dir = tempdir().unwrap();
        let lineage = Arc::new(
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap(),
        );
        let cascade = Cascade::spawn(lineage.clone(), Arc::default()).unwrap();
        for ts in 1..=50u64 {
            cascade.submit(CommitEvent {
                ts,
                updates: Arc::new(vec![Update::AddNode {
                    id: NodeId::new(ts),
                    labels: vec![],
                    props: vec![],
                }]),
            });
        }
        cascade.barrier(50);
        assert_eq!(lineage.applied_ts(), 50);
        assert!(lineage.node_at(NodeId::new(25), 30).unwrap().is_some());
    }

    #[test]
    fn drop_stops_worker_cleanly() {
        let dir = tempdir().unwrap();
        let lineage = Arc::new(
            LineageStore::open(dir.path().join("l.db"), LineageStoreConfig::default()).unwrap(),
        );
        let cascade = Cascade::spawn(lineage.clone(), Arc::default()).unwrap();
        cascade.submit(CommitEvent {
            ts: 1,
            updates: Arc::new(vec![Update::AddNode {
                id: NodeId::new(1),
                labels: vec![],
                props: vec![],
            }]),
        });
        cascade.barrier(1);
        drop(cascade);
        assert_eq!(lineage.applied_ts(), 1);
    }
}
