//! Group commit (ROADMAP item 1): a dedicated log-writer thread that
//! coalesces concurrent commits into one `TimeStore` append run and one
//! durability fsync.
//!
//! Committers encode their batch's log payload on their own thread (a
//! replicated commit brings the bytes it was shipped), enqueue a
//! [`CommitRequest`] and park on a [`CommitSlot`]. The writer drains the
//! queue (waiting up to [`AionConfig::commit_latency_budget`] for more
//! arrivals when every acknowledgement implies an fsync), then checks,
//! appends and applies every batch in arrival order
//! ([`TimeStore::append_payload`]), performs a single [`TimeStore::sync`]
//! for the whole group, and only then wakes the waiters — so with
//! `sync_on_commit` the durability-before-ack contract is preserved while
//! N concurrent commits share one fsync instead of paying N. The writer is
//! the one place a batch is checked against the latest graph: each is
//! checked against the graph the batches before it left.
//!
//! Failure semantics per request:
//!
//! * A forced timestamp below the clock is rejected with
//!   [`GraphError::NonMonotonicCommit`] before anything is written; the
//!   clock does not move, so a replayer retrying a transiently failed
//!   frame is never refused as if that frame had committed.
//! * An error with `TimeStore::latest_ts() < ts` is a *clean* rejection:
//!   the batch broke a constraint (`NodeExists`, `EndpointMissing`, …) or
//!   the log refused the frame. Nothing reached the log, the timestamp
//!   stays available, and later commits are unaffected.
//! * An error with `latest_ts() >= ts` (or a failed group fsync) is an
//!   I/O failure after the frame reached the log: the commit's durability
//!   is *uncertain*. The timestamp is consumed and the LineageStore is
//!   wedged so its watermark cannot advance past the hole. The wedge flag
//!   is the one the cascade reads (see `cascade`), so
//!   `Aion::lineage_wedged` reports it and `Aion::lineage_barrier` stops
//!   waiting.
//!
//! The writer submits successful commits to the lineage cascade, the one
//! LineageStore applier, in commit order, then wakes their committers.
//!
//! [`AionConfig::commit_latency_budget`]: crate::AionConfig::commit_latency_budget
//! [`TimeStore::append_payload`]: timestore::TimeStore::append_payload
//! [`TimeStore::sync`]: timestore::TimeStore::sync

use crate::cascade::Cascade;
use crate::txn::CommitEvent;
use lock::{Condvar, Mutex, Rank};
use lpg::{GraphError, Result, Timestamp, Update};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use timestore::{Payload, TimeStore};

/// One committer's parking spot. The writer publishes exactly one result:
/// on success the commit timestamp.
struct CommitSlot {
    state: Mutex<Option<Result<Timestamp>>>,
    cond: Condvar,
}

impl CommitSlot {
    fn new() -> CommitSlot {
        CommitSlot {
            state: Mutex::new(Rank::CommitSlot, None),
            cond: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Timestamp>) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.cond.notify_all();
    }

    /// Parks the committer until the writer publishes its result.
    fn wait_done(&self) -> Result<Timestamp> {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.cond.wait(state);
        }
    }
}

/// A batch and its log payload travelling committer → writer.
struct CommitRequest {
    payload: Payload,
    updates: Vec<Update>,
    forced_ts: Option<Timestamp>,
    slot: Arc<CommitSlot>,
}

/// Everything the log-writer thread owns or shares with [`Aion`].
///
/// [`Aion`]: crate::Aion
pub(crate) struct LogWriter {
    pub timestore: Arc<TimeStore>,
    pub cascade: Arc<Cascade>,
    pub lineage_wedged: Arc<AtomicBool>,
    pub sync_on_commit: bool,
    /// How long the writer may hold an fsync open waiting for more
    /// committers to join the group. Zero (the default) means groups form
    /// only from natural queueing while the previous group's I/O runs.
    pub latency_budget: Duration,
    /// The next system timestamp. Only this thread assigns timestamps, so
    /// a plain field replaces the old atomic; it advances only once an
    /// append reaches the log (clean failures leave it untouched).
    pub next_ts: Timestamp,
    pub commits: Arc<obs::Counter>,
    pub commits_failed: Arc<obs::Counter>,
    pub group_size: Arc<obs::Histogram>,
}

impl LogWriter {
    fn run(mut self, rx: Receiver<CommitRequest>) {
        // Queued requests are still delivered after the sender drops, so
        // shutdown drains the queue before the thread exits and no
        // committer is left parked.
        while let Ok(first) = rx.recv() {
            let group = self.collect_group(&rx, first);
            self.process_group(group);
        }
    }

    /// Drains whatever is queued behind `first`; when each ack implies an
    /// fsync and a latency budget is configured, keeps the group open for
    /// late arrivals until the budget expires.
    fn collect_group(
        &self,
        rx: &Receiver<CommitRequest>,
        first: CommitRequest,
    ) -> Vec<CommitRequest> {
        let mut group = vec![first];
        while let Ok(req) = rx.try_recv() {
            group.push(req);
        }
        if self.sync_on_commit && !self.latency_budget.is_zero() {
            let deadline = Instant::now() + self.latency_budget;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(req) => {
                        group.push(req);
                        while let Ok(req) = rx.try_recv() {
                            group.push(req);
                        }
                    }
                    Err(_) => break, // budget expired, or shutting down
                }
            }
        }
        group
    }

    fn process_group(&mut self, group: Vec<CommitRequest>) {
        // Stage 2a: one append run over the whole group, in arrival order.
        let mut appended: Vec<(Arc<CommitSlot>, CommitEvent)> = Vec::with_capacity(group.len());
        for req in group {
            let ts = match req.forced_ts {
                // Keep the internal clock strictly ahead of explicit
                // commits. The clock only reflects appends that reached
                // the log, so this rejection really means "already
                // committed".
                Some(ts) if ts < self.next_ts => {
                    self.commits_failed.inc();
                    req.slot.complete(Err(GraphError::NonMonotonicCommit {
                        attempted: ts,
                        latest: self.next_ts.saturating_sub(1),
                    }));
                    continue;
                }
                Some(ts) => ts,
                None => self.next_ts,
            };
            match self
                .timestore
                .append_payload(ts, &req.payload, &req.updates)
            {
                Ok(()) => {
                    self.next_ts = ts + 1;
                    let event = CommitEvent {
                        ts,
                        updates: Arc::new(req.updates),
                    };
                    appended.push((req.slot, event));
                }
                Err(e) => {
                    if self.timestore.latest_ts() >= ts {
                        // The frame reached the log before the failure:
                        // durability unknown, recovery may replay it.
                        // Consume the timestamp and wedge the
                        // LineageStore so later commits cannot advance
                        // its watermark past the hole.
                        self.next_ts = ts + 1;
                        self.lineage_wedged.store(true, Ordering::Release);
                    }
                    self.commits_failed.inc();
                    req.slot.complete(Err(e));
                }
            }
        }
        if appended.is_empty() {
            return;
        }
        self.group_size.record(appended.len() as u64);
        // Stage 2a': one durability point for the whole group.
        if self.sync_on_commit {
            if let Err(e) = self.timestore.sync() {
                // The shared fsync failed, so *every* commit in the group
                // has unknown durability: wedge and fail them all.
                self.lineage_wedged.store(true, Ordering::Release);
                let msg = format!("group commit sync failed: {e}");
                let mut first_err = Some(e);
                for (slot, _) in appended {
                    self.commits_failed.inc();
                    let err = first_err
                        .take()
                        .unwrap_or_else(|| GraphError::Storage(msg.clone()));
                    slot.complete(Err(err));
                }
                return;
            }
        }
        // Stage 2b: LineageStore, in commit order (the cascade channel
        // preserves it). Wedged, the watermark stalls and queries fall
        // back to the TimeStore.
        for (slot, event) in appended {
            let ts = event.ts;
            if !self.lineage_wedged.load(Ordering::Acquire) {
                self.cascade.submit(event);
            }
            self.commits.inc();
            slot.complete(Ok(ts));
        }
    }
}

/// Handle through which [`Aion`] talks to the log-writer thread. Dropping
/// it closes the queue and joins the writer (which first drains anything
/// still enqueued).
///
/// [`Aion`]: crate::Aion
pub(crate) struct Pipeline {
    tx: Option<Sender<CommitRequest>>,
    worker: Option<JoinHandle<()>>,
}

impl Pipeline {
    pub(crate) fn spawn(writer: LogWriter) -> Result<Pipeline> {
        let (tx, rx) = channel::<CommitRequest>();
        let worker = std::thread::Builder::new()
            .name("aion-log-writer".into())
            .spawn(move || writer.run(rx))
            .map_err(|e| GraphError::Storage(format!("spawn log writer: {e}")))?;
        Ok(Pipeline {
            tx: Some(tx),
            worker: Some(worker),
        })
    }

    /// Enqueues one batch and parks until the writer resolves it.
    pub(crate) fn commit(
        &self,
        payload: Payload,
        updates: Vec<Update>,
        forced_ts: Option<Timestamp>,
    ) -> Result<Timestamp> {
        let slot = Arc::new(CommitSlot::new());
        let req = CommitRequest {
            payload,
            updates,
            forced_ts,
            slot: slot.clone(),
        };
        let sent = match &self.tx {
            Some(tx) => tx.send(req).is_ok(),
            None => false,
        };
        if !sent {
            return Err(GraphError::Storage("commit pipeline is shut down".into()));
        }
        slot.wait_done()
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
