//! The durable replication epoch: a monotonically increasing role
//! counter persisted in the node's data directory (DESIGN.md §17).
//!
//! Every promotion bumps the epoch; every shipped frame, handshake, and
//! heartbeat is stamped with the sender's current epoch, and a node only
//! accepts direct writes while it holds the highest epoch it has ever
//! seen. The on-disk record is an **append-only chain** of
//! `(epoch, base_ts)` entries rather than a single slot: a primary
//! answering a handshake from a node that is several epochs behind must
//! be able to compute the *fork point* of that node's epoch — the commit
//! timestamp at which the first newer epoch began — so the rejoiner can
//! quarantine exactly its divergent suffix and nothing more.
//!
//! File format (`repl.epoch`): N × 24-byte records, each
//! `u64 epoch, u64 base_ts, u64 fnv64(first 16 bytes)`. Records are
//! appended with `sync_data` after each write; a torn tail (crash
//! mid-append) fails its checksum and is ignored, which can only lose
//! the *newest* record — safe, because adopting or bumping an epoch is
//! always re-derivable from the cluster (the next handshake re-delivers
//! it). Epochs in the chain are strictly increasing; a record that
//! violates that is treated as corruption and the chain is cut there.

use aion_server::protocol::Reader;
use lock::{Mutex, Rank};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vfs::{fnv64, VfsRef};

/// File name of the epoch chain inside a node's data directory.
pub const EPOCH_FILE: &str = "repl.epoch";

const RECORD_LEN: usize = 24;

/// One entry of the epoch chain: an epoch and the commit timestamp at
/// which it began (the promoted node's `latest_ts` at promotion).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochRecord {
    /// The epoch number (strictly increasing along the chain; 0 is the
    /// implicit "never promoted" epoch and is not stored).
    pub epoch: u64,
    /// Latest commit timestamp on the promoted node when this epoch
    /// began. Commits with `ts > base_ts` belong to this epoch or later.
    pub base_ts: u64,
}

impl EpochRecord {
    fn encode(&self) -> [u8; RECORD_LEN] {
        let mut rec = [0u8; RECORD_LEN];
        rec[..8].copy_from_slice(&self.epoch.to_le_bytes());
        rec[8..16].copy_from_slice(&self.base_ts.to_le_bytes());
        let sum = fnv64(&rec[..16]);
        rec[16..].copy_from_slice(&sum.to_le_bytes());
        rec
    }

    fn decode(rec: &[u8]) -> Option<EpochRecord> {
        let mut r = Reader::new(rec);
        let (epoch, base_ts, sum) = (r.u64().ok()?, r.u64().ok()?, r.u64().ok()?);
        r.finish().ok()?;
        (fnv64(&rec[..16]) == sum).then_some(EpochRecord { epoch, base_ts })
    }
}

/// Persists the epoch chain at a fixed path through the VFS seam.
pub struct EpochStore {
    vfs: VfsRef,
    path: PathBuf,
}

impl EpochStore {
    /// A store writing `dir/repl.epoch` through `vfs`.
    pub fn new(vfs: VfsRef, dir: &Path) -> EpochStore {
        EpochStore {
            vfs,
            path: dir.join(EPOCH_FILE),
        }
    }

    /// The backing file path (diagnostics, tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads the chain, stopping at the first torn, corrupt, or
    /// non-monotone record (everything after it is untrustworthy). An
    /// absent file is the empty chain — epoch 0, never promoted.
    pub fn load(&self) -> Vec<EpochRecord> {
        let Ok(bytes) = self.vfs.read(&self.path) else {
            return Vec::new();
        };
        let mut chain = Vec::new();
        let mut last_epoch = 0u64;
        for rec in bytes.chunks(RECORD_LEN) {
            let Some(record) = EpochRecord::decode(rec) else {
                break;
            };
            if record.epoch <= last_epoch {
                break;
            }
            last_epoch = record.epoch;
            chain.push(record);
        }
        chain
    }

    /// Appends one record and fsyncs. Called *before* the epoch takes
    /// effect in memory, so an acked promotion is never forgotten by a
    /// crash.
    pub fn append(&self, record: EpochRecord, index: usize) -> io::Result<()> {
        let file = self.vfs.open(&self.path)?;
        let offset = (index as u64) * (RECORD_LEN as u64);
        file.write_all_at(&record.encode(), offset)?;
        file.sync_data()
    }
}

/// Shared, thread-safe view of a node's epoch chain, optionally backed
/// by an [`EpochStore`]. One instance is threaded through the shipper
/// (stamps outgoing messages), the replayer (adopts newer epochs), and
/// the promotion path (bumps).
pub struct EpochState {
    chain: Mutex<Vec<EpochRecord>>,
    store: Option<EpochStore>,
    gauge: Arc<obs::Gauge>,
}

impl EpochState {
    /// Loads (or initializes empty) the chain persisted under `dir`.
    pub fn load(vfs: VfsRef, dir: &Path) -> Arc<EpochState> {
        let store = EpochStore::new(vfs, dir);
        let chain = store.load();
        let state = EpochState {
            chain: Mutex::new(Rank::EpochChain, chain),
            store: Some(store),
            gauge: obs::gauge("repl.epoch"),
        };
        state.publish_gauge();
        Arc::new(state)
    }

    /// A volatile chain with no backing file (tests, seed deployments
    /// that never promote).
    pub fn in_memory() -> Arc<EpochState> {
        Arc::new(EpochState {
            chain: Mutex::new(Rank::EpochChain, Vec::new()),
            store: None,
            gauge: obs::gauge("repl.epoch"),
        })
    }

    fn publish_gauge(&self) {
        let epoch = self.current().epoch;
        self.gauge.set(i64::try_from(epoch).unwrap_or(i64::MAX));
    }

    /// The newest record of the chain; `(0, 0)` when the node was never
    /// promoted and never adopted a promotion.
    pub fn current(&self) -> EpochRecord {
        self.chain.lock().last().copied().unwrap_or(EpochRecord {
            epoch: 0,
            base_ts: 0,
        })
    }

    /// The fork point for a peer still on `old_epoch`: the base
    /// timestamp of the first chain record newer than it. Commits with
    /// `ts > fork_ts` on that peer never shipped under any epoch this
    /// node recognizes and must be quarantined. `None` when no newer
    /// epoch exists (the peer is current).
    pub fn fork_ts_for(&self, old_epoch: u64) -> Option<u64> {
        self.chain
            .lock()
            .iter()
            .find(|r| r.epoch > old_epoch)
            .map(|r| r.base_ts)
    }

    /// Adopts a record learned from the cluster (a handshake from a
    /// newer primary). Appends and persists only if it is actually newer
    /// than the chain head; stale or duplicate records are ignored.
    pub fn adopt(&self, record: EpochRecord) -> io::Result<()> {
        let mut chain = self.chain.lock();
        let head = chain.last().map(|r| r.epoch).unwrap_or(0);
        if record.epoch <= head {
            return Ok(());
        }
        if let Some(store) = &self.store {
            store.append(record, chain.len())?;
        }
        chain.push(record);
        drop(chain);
        self.publish_gauge();
        Ok(())
    }

    /// Bumps to a brand-new epoch based at `base_ts` (promotion).
    /// Persists before returning, so the promotion survives a crash.
    pub fn bump(&self, base_ts: u64) -> io::Result<EpochRecord> {
        let mut chain = self.chain.lock();
        let head = chain.last().map(|r| r.epoch).unwrap_or(0);
        let record = EpochRecord {
            epoch: head + 1,
            base_ts,
        };
        if let Some(store) = &self.store {
            store.append(record, chain.len())?;
        }
        chain.push(record);
        drop(chain);
        self.publish_gauge();
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_roundtrips_through_disk() {
        let dir = tempfile::tempdir().unwrap();
        let state = EpochState::load(VfsRef::std(), dir.path());
        assert_eq!(
            state.current(),
            EpochRecord {
                epoch: 0,
                base_ts: 0
            }
        );
        let e1 = state.bump(10).unwrap();
        assert_eq!(
            e1,
            EpochRecord {
                epoch: 1,
                base_ts: 10
            }
        );
        let e2 = state.bump(25).unwrap();
        assert_eq!(e2.epoch, 2);
        drop(state);
        let reloaded = EpochState::load(VfsRef::std(), dir.path());
        assert_eq!(
            reloaded.current(),
            EpochRecord {
                epoch: 2,
                base_ts: 25
            }
        );
        // Fork points: a peer on epoch 0 forked when epoch 1 began; a
        // peer on epoch 1 forked when epoch 2 began; epoch 2 is current.
        assert_eq!(reloaded.fork_ts_for(0), Some(10));
        assert_eq!(reloaded.fork_ts_for(1), Some(25));
        assert_eq!(reloaded.fork_ts_for(2), None);
    }

    #[test]
    fn adopt_ignores_stale_and_persists_newer() {
        let dir = tempfile::tempdir().unwrap();
        let state = EpochState::load(VfsRef::std(), dir.path());
        state
            .adopt(EpochRecord {
                epoch: 3,
                base_ts: 40,
            })
            .unwrap();
        // Stale and duplicate adoptions are no-ops.
        state
            .adopt(EpochRecord {
                epoch: 2,
                base_ts: 9,
            })
            .unwrap();
        state
            .adopt(EpochRecord {
                epoch: 3,
                base_ts: 999,
            })
            .unwrap();
        assert_eq!(
            state.current(),
            EpochRecord {
                epoch: 3,
                base_ts: 40
            }
        );
        let reloaded = EpochState::load(VfsRef::std(), dir.path());
        assert_eq!(
            reloaded.current(),
            EpochRecord {
                epoch: 3,
                base_ts: 40
            }
        );
    }

    #[test]
    fn torn_tail_is_cut_not_fatal() {
        let dir = tempfile::tempdir().unwrap();
        let state = EpochState::load(VfsRef::std(), dir.path());
        state.bump(5).unwrap();
        state.bump(11).unwrap();
        // Corrupt the second record's checksum byte on disk.
        let vfs = VfsRef::std();
        let path = dir.path().join(EPOCH_FILE);
        let mut bytes = vfs.read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        vfs.write(&path, &bytes).unwrap();
        let reloaded = EpochState::load(VfsRef::std(), dir.path());
        assert_eq!(
            reloaded.current(),
            EpochRecord {
                epoch: 1,
                base_ts: 5
            }
        );
        // A short (torn) tail is likewise cut.
        bytes.truncate(RECORD_LEN + 7);
        vfs.write(&path, &bytes).unwrap();
        let reloaded = EpochState::load(VfsRef::std(), dir.path());
        assert_eq!(reloaded.current().epoch, 1);
    }

    #[test]
    fn in_memory_chain_never_touches_disk() {
        let state = EpochState::in_memory();
        assert_eq!(state.current().epoch, 0);
        state.bump(0).unwrap();
        assert_eq!(state.current().epoch, 1);
    }
}
