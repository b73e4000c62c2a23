//! Crash-consistency of the *replica* (DESIGN.md §13): a replica backed
//! by the fault-injecting [`vfs::SimVfs`] crashes at sampled points
//! while replaying the primary's log, then recovers. After every crash:
//!
//! 1. the replica reopens and the full `aion-fsck` audit is clean;
//! 2. the recovered state is a prefix of the primary's history (its
//!    latest timestamp never exceeds the primary's);
//! 3. the replica's log, read through the [`vfs::SimVfs`], is a byte
//!    prefix of the primary's log — it is the replay position, and no
//!    watermark file beside it records that position a second time;
//! 4. a fresh [`Replayer`] resumes from whatever survived and converges
//!    back to the primary, and the audit stays clean.
//!
//! Knobs: `AION_REPL_SIM_SEEDS` (default 2), `AION_REPL_SIM_POINTS`
//! (crash points sampled per seed, default 10).

use aion::{Aion, AionConfig, CheckLevel};
use lpg::{NodeId, PropertyValue};
use repl::{LogShipper, Replayer, ReplayerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;
use timestore::SnapshotPolicy;
use vfs::{FaultConfig, SimVfs, VfsRef};

const COMMITS: u64 = 30;
const REPLICA_ROOT: &str = "/replica";

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn replica_config(sim: &SimVfs) -> AionConfig {
    let mut cfg = AionConfig::new(REPLICA_ROOT);
    cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
    // Synchronous lineage keeps the replica's I/O stream deterministic
    // enough for crash points to land inside replay, not a cascade.
    cfg.sync_lineage = true;
    // Small snapshot cadence so replay crosses snapshot boundaries.
    cfg.timestore.policy = SnapshotPolicy::EveryNOps(10);
    cfg.lineage.cache_pages = 64;
    cfg
}

fn replayer_config(sim: &SimVfs, primary: std::net::SocketAddr) -> ReplayerConfig {
    let mut cfg = ReplayerConfig::new(primary, REPLICA_ROOT);
    cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
    // Small batches: many durability points inside one replay, so crash
    // points land before, between, and after syncs.
    cfg.sync_every = 2;
    cfg.reconnect_backoff = Duration::from_millis(5);
    cfg
}

/// Recovery invariants after a (possible) crash; returns the recovered db.
/// `primary_log` is the primary's `timestore.log`.
fn check_recovery(sim: &SimVfs, primary: &Aion, primary_log: &Path, ctx: &str) -> Arc<Aion> {
    sim.heal();
    let db = Aion::open(replica_config(sim))
        .unwrap_or_else(|e| panic!("{ctx}: replica recovery reopen failed: {e}"));
    let recovered = db.latest_ts();
    assert!(
        recovered <= primary.latest_ts(),
        "{ctx}: replica ts {recovered} ahead of primary {}",
        primary.latest_ts()
    );
    // The replica's log is its replay position: whatever recovery kept
    // of it is a byte prefix of the primary's log, and nothing else in
    // the directory records a position.
    let vfs = VfsRef::new(Arc::new(sim.clone()));
    let root = Path::new(REPLICA_ROOT);
    let replica_log = vfs
        .read(&root.join("timestore").join("timestore.log"))
        .unwrap_or_else(|e| panic!("{ctx}: replica log unreadable: {e}"));
    let primary_log = VfsRef::std().read(primary_log).unwrap();
    assert!(
        primary_log.starts_with(&replica_log),
        "{ctx}: replica log ({} B) is not a byte prefix of the primary's ({} B)",
        replica_log.len(),
        primary_log.len()
    );
    let files = vfs.read_dir(root).unwrap();
    assert!(
        files.iter().all(|(name, _)| !name.contains("watermark")),
        "{ctx}: a watermark file exists beside the replica's log: {files:?}"
    );
    let report = db
        .check_consistency(CheckLevel::Full)
        .unwrap_or_else(|e| panic!("{ctx}: check_consistency failed: {e}"));
    assert!(report.is_clean(), "{ctx}: replica fsck dirty: {report:?}");
    Arc::new(db)
}

fn run_seed(seed: u64, max_points: u64) {
    let torn = [1usize, 16, 64, 512][(seed % 4) as usize];
    // Primary on the real file system: its durability is not under test.
    let pdir = tempdir().unwrap();
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let key = primary.intern("v");
    for i in 1..=COMMITS {
        primary
            .write(|tx| {
                tx.add_node(
                    NodeId::new(seed * 1_000_000 + i),
                    vec![],
                    vec![(key, PropertyValue::Int(i as i64))],
                )
            })
            .unwrap();
    }
    let primary_log = pdir.path().join("timestore").join("timestore.log");
    let mut shipper = LogShipper::start(primary.clone()).unwrap();

    // Fault-free measuring run: its op count enumerates the crash points.
    let sim = SimVfs::new(seed);
    let db = Arc::new(Aion::open(replica_config(&sim)).unwrap());
    let mut replayer = Replayer::start(db.clone(), replayer_config(&sim, shipper.addr()));
    assert!(
        wait_for(20, || db.latest_ts() == primary.latest_ts()),
        "seed {seed}: fault-free replay never converged (last error {:?})",
        replayer.last_error()
    );
    replayer.shutdown();
    drop(replayer);
    drop(db);
    let total_ops = sim.op_count();
    assert!(total_ops > 0, "seed {seed}: replay did no I/O");

    let step = (total_ops / max_points.max(1)).max(1);
    let mut crashes_fired = 0u64;
    let mut c = 1u64;
    while c < total_ops {
        let ctx = format!("seed {seed} crash_at_op {c}/{total_ops} torn {torn}B");
        let sim = SimVfs::with_faults(
            seed,
            FaultConfig {
                crash_at_op: Some(c),
                io_error_rate: 0.0,
                torn_granularity: torn,
                survive_probability: 0.5,
            },
        );
        // The crash may fire during open itself; a failed open goes
        // straight to recovery.
        if let Ok(db) = Aion::open(replica_config(&sim)) {
            let db = Arc::new(db);
            let mut replayer = Replayer::start(db.clone(), replayer_config(&sim, shipper.addr()));
            // Replay until the crash point fires (or, when timing shifted
            // the op stream short of `c`, until convergence).
            wait_for(10, || {
                sim.has_crashed() || db.latest_ts() == primary.latest_ts()
            });
            replayer.shutdown();
        }
        if sim.has_crashed() {
            crashes_fired += 1;
        }

        // Recover, then prove the replica can rejoin and converge.
        let db = check_recovery(&sim, &primary, &primary_log, &ctx);
        let mut replayer = Replayer::start(db.clone(), replayer_config(&sim, shipper.addr()));
        assert!(
            wait_for(20, || db.latest_ts() == primary.latest_ts()),
            "{ctx}: replica never re-converged after recovery (last error {:?})",
            replayer.last_error()
        );
        replayer.shutdown();
        drop(replayer);
        let report = db.check_consistency(CheckLevel::Full).unwrap();
        assert!(
            report.is_clean(),
            "{ctx}: post-rejoin fsck dirty: {report:?}"
        );
        c += step;
    }
    assert!(
        crashes_fired > 0,
        "seed {seed}: no sampled crash point ever fired ({total_ops} ops)"
    );
    shipper.shutdown();
    println!("seed {seed}: {crashes_fired} crashes over {total_ops} replay ops, torn={torn}B");
}

/// Regression: a replayed frame whose append fails *transiently* (EIO
/// from the fault-injecting VFS, not a crash) must stay retryable. The
/// commit clock may only advance when an append actually reaches the
/// log; if a failed forced-timestamp commit consumed its timestamp, the
/// replayer's retry would be rejected as `NonMonotonicCommit`, treated
/// as idempotent re-delivery, and the commit would be silently missing
/// from the replica forever. After the errors stop, the replica must
/// converge to a byte-exact copy of the primary's history — no gaps.
#[test]
fn transient_replay_errors_never_lose_frames() {
    let pdir = tempdir().unwrap();
    let primary = Arc::new(Aion::open(AionConfig::new(pdir.path())).unwrap());
    let key = primary.intern("v");
    for i in 1..=COMMITS {
        primary
            .write(|tx| {
                tx.add_node(
                    NodeId::new(i),
                    vec![],
                    vec![(key, PropertyValue::Int(i as i64))],
                )
            })
            .unwrap();
    }
    let mut shipper = LogShipper::start(primary.clone()).unwrap();

    // Phase 1: replay under a persistent transient-error rate. Open is
    // clean (faults armed afterwards) so every failure lands in replay.
    let sim = SimVfs::new(9);
    let db = Arc::new(Aion::open(replica_config(&sim)).unwrap());
    sim.arm(FaultConfig {
        io_error_rate: 0.05,
        ..FaultConfig::none()
    });
    let mut replayer = Replayer::start(db.clone(), replayer_config(&sim, shipper.addr()));
    // Let it fight the faults for a while; convergence already now is
    // fine, but not required.
    wait_for(3, || db.latest_ts() == primary.latest_ts());
    replayer.shutdown();
    drop(replayer);
    drop(db);

    // Phase 2: errors stop; recover and re-join. Every frame the faults
    // interrupted must still be fetchable and applicable.
    sim.arm(FaultConfig::none());
    sim.heal();
    let db = Arc::new(Aion::open(replica_config(&sim)).expect("reopen after transient errors"));
    let mut replayer = Replayer::start(db.clone(), replayer_config(&sim, shipper.addr()));
    assert!(
        wait_for(20, || db.latest_ts() == primary.latest_ts()),
        "replica never converged after transient errors stopped \
         (replica ts {} vs primary {}, last error {:?})",
        db.latest_ts(),
        primary.latest_ts(),
        replayer.last_error()
    );
    replayer.shutdown();
    drop(replayer);

    // No gaps: the replica's history is the primary's, commit for commit.
    let end = primary.latest_ts() + 1;
    let p_diff: Vec<_> = primary
        .get_diff(1, end)
        .unwrap()
        .into_iter()
        .map(|u| (u.ts, u.op))
        .collect();
    let r_diff: Vec<_> = db
        .get_diff(1, end)
        .unwrap()
        .into_iter()
        .map(|u| (u.ts, u.op))
        .collect();
    assert_eq!(p_diff, r_diff, "replica history diverged from primary");
    for ts in 1..=COMMITS {
        assert!(
            r_diff.iter().any(|(t, _)| *t == ts),
            "commit {ts} silently missing from the replica — a transiently \
             failed frame was dropped instead of retried"
        );
    }
    assert!(
        db.latest_graph().same_as(&primary.latest_graph()),
        "replica graph diverged from primary"
    );
    let report = db.check_consistency(CheckLevel::Full).unwrap();
    assert!(report.is_clean(), "replica fsck dirty: {report:?}");
    shipper.shutdown();
}

#[test]
fn replica_crash_mid_replay_recovers_clean() {
    let seeds = env_u64("AION_REPL_SIM_SEEDS", 2);
    let points = env_u64("AION_REPL_SIM_POINTS", 10);
    for seed in 0..seeds {
        run_seed(seed, points);
    }
}
