//! Property test: point-in-time reconstruction must agree with a
//! from-scratch replay of the change log, for histories whose queries
//! cross snapshot boundaries — after an ingest interrupted by a reopen,
//! after a clean reopen, and after a reopen that finds one snapshot file
//! damaged or gone.
//!
//! `snapshot_at` answers from the nearest on-disk snapshot plus a log
//! suffix; `diff` reads raw log frames. The two paths share no state
//! beyond the files, so folding every `diff(t, t+1)` into a graph from
//! scratch is an independent oracle for `snapshot_at(t)`.
//!
//! The script's ids are spread (× 29) over many 64-id segments, so each
//! snapshot rewrites some segments and references the rest in earlier
//! files; the reopen halfway through makes the second half's snapshots
//! depend on the touched-segment set recovery seeds.

use lpg::{Graph, StrId};
use proptest::prelude::*;
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};
use vfs::VfsRef;
use workload::{commit_script, spread_ids, SimOpsConfig};

fn config(policy: SnapshotPolicy) -> TimeStoreConfig {
    TimeStoreConfig {
        policy,
        ..Default::default()
    }
}

/// Replays the log from ts 1 and checks `snapshot_at` at every commit
/// point and in the gap after it.
fn assert_matches_replay(store: &TimeStore, end: u64) {
    let mut replay = Graph::new();
    for t in 1..=end {
        for u in store.diff(t, t + 1).unwrap() {
            replay.apply(&u.op).unwrap();
        }
        let got = store.snapshot_at(t).unwrap();
        assert!(got.same_as(&replay), "mismatch at ts {t}");
    }
    // Past-the-end queries answer from the final state.
    let after = store.snapshot_at(end + 3).unwrap();
    assert!(after.same_as(&replay), "mismatch past the last commit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_at_equals_log_replay(
        seed in any::<u64>(),
        commits in 24usize..40,
        policy in prop_oneof![
            Just(SnapshotPolicy::Never),
            Just(SnapshotPolicy::EveryNOps(2)),
            Just(SnapshotPolicy::EveryNOps(9)),
            Just(SnapshotPolicy::EveryInterval(5)),
        ],
        victim in any::<u64>(),
    ) {
        let script = spread_ids(
            commit_script(
                seed,
                &SimOpsConfig {
                    commits,
                    ops_per_commit: 6,
                    app_start: StrId::new(0),
                    app_end: StrId::new(1),
                    key: StrId::new(2),
                    label: StrId::new(3),
                },
            ),
            29,
        );
        let mut segments: Vec<(bool, u64)> = script
            .iter()
            .flatten()
            .map(|u| (u.entity().is_node(), u.entity().raw() >> 6))
            .collect();
        segments.sort_unstable();
        segments.dedup();
        prop_assert!(segments.len() >= 8, "{} segments", segments.len());

        let dir = tempdir().unwrap();
        let half = script.len() / 2;
        let store = TimeStore::open(dir.path(), config(policy)).unwrap();
        for (i, batch) in script[..half].iter().enumerate() {
            store.append_commit((i + 1) as u64, batch).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let store = TimeStore::open(dir.path(), config(policy)).unwrap();
        for (i, batch) in script.iter().enumerate().skip(half) {
            store.append_commit((i + 1) as u64, batch).unwrap();
        }
        store.sync().unwrap();
        let end = script.len() as u64;
        // The aggressive policy must actually produce snapshots, or this
        // test never crosses a snapshot boundary.
        if matches!(policy, SnapshotPolicy::EveryNOps(2)) {
            prop_assert!(store.stats().snapshot_count >= 2);
        }
        assert_matches_replay(&store, end);

        // Recovery path: reopen from the files and re-check, so the
        // snapshot set rebuilt at open agrees with the log too.
        drop(store);
        let store = TimeStore::open(dir.path(), config(policy)).unwrap();
        prop_assert_eq!(store.latest_ts(), end);
        assert_matches_replay(&store, end);

        // Damage one snapshot file — flip a bit or delete it — and reopen:
        // it and every file referencing it are dropped, and the log
        // re-derives what they held.
        drop(store);
        let snap_dir = dir.path().join("snapshots");
        let vfs = VfsRef::std();
        let files = vfs.read_dir(&snap_dir).unwrap();
        if !files.is_empty() {
            let (name, len) = &files[(victim % files.len() as u64) as usize];
            let path = snap_dir.join(name);
            if victim & (1 << 63) == 0 {
                vfs.remove_file(&path).unwrap();
            } else {
                let mut bytes = vfs.read(&path).unwrap();
                let bit = (victim >> 8) % (len * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                vfs.write(&path, &bytes).unwrap();
            }
        }
        let store = TimeStore::open(dir.path(), config(policy)).unwrap();
        prop_assert_eq!(store.latest_ts(), end);
        prop_assert!(store.audit(true).unwrap().findings.is_empty());
        assert_matches_replay(&store, end);
    }
}
