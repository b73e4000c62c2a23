//! Snapshot creation policies (Sec. 4.3): "eagerly creates snapshots based
//! on a user-defined policy … time-based or operation-based (the number of
//! updates), with the default being operation-based". Only the
//! operation-based kind is built here.

/// When TimeStore materializes a new full snapshot to disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotPolicy {
    /// Snapshot after every `n` applied updates (the paper's default kind).
    EveryNOps(u64),
    /// Never snapshot automatically (reconstruction always replays the log).
    Never,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy::EveryNOps(10_000)
    }
}

impl SnapshotPolicy {
    /// Decides whether to snapshot, given the updates applied since the
    /// last snapshot.
    pub fn should_snapshot(&self, ops_since: u64) -> bool {
        match *self {
            SnapshotPolicy::EveryNOps(n) => ops_since >= n,
            SnapshotPolicy::Never => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_policy() {
        let p = SnapshotPolicy::EveryNOps(100);
        assert!(!p.should_snapshot(99));
        assert!(p.should_snapshot(100));
        assert!(p.should_snapshot(101));
    }

    #[test]
    fn never_policy() {
        assert!(!SnapshotPolicy::Never.should_snapshot(u64::MAX));
    }

    #[test]
    fn default_is_operation_based() {
        assert!(matches!(
            SnapshotPolicy::default(),
            SnapshotPolicy::EveryNOps(_)
        ));
    }
}
