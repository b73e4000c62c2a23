//! The shipper must never outrun the primary's durable prefix
//! (DESIGN.md §13): a replica may only apply — and durably ack — commits
//! that survive a primary crash. The primary here runs on [`vfs::SimVfs`]
//! with `sync_on_commit = false` and the test itself never calls
//! `sync()`, so every shipped frame is durable only because the shipper
//! forced a group sync before shipping it. A simulated crash then drops
//! all unsynced bytes; on recovery the primary must still hold everything
//! the replica acked — otherwise recovery would reuse the lost
//! timestamps for different commits and the replica would silently
//! diverge (the exact failure mode durable-prefix shipping exists to
//! prevent).

use aion::{Aion, AionConfig, CheckLevel};
use lpg::{NodeId, PropertyValue};
use repl::{LogShipper, Replayer, ReplayerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempfile::tempdir;
use vfs::{SimVfs, VfsRef};

const PRIMARY_ROOT: &str = "/primary";
const COMMITS: u64 = 25;

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

fn primary_config(sim: &SimVfs) -> AionConfig {
    let mut cfg = AionConfig::new(PRIMARY_ROOT);
    cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
    // Synchronous lineage: no background cascade racing the crash point.
    cfg.sync_lineage = true;
    cfg
}

#[test]
fn primary_crash_loses_nothing_a_replica_acked() {
    let sim = SimVfs::new(7);
    let primary = Arc::new(Aion::open(primary_config(&sim)).unwrap());
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

    // Ship to a replica on the real file system. The shipper may only
    // stream the fsynced prefix, group-syncing the backlog itself.
    let mut shipper = LogShipper::start(primary.clone()).unwrap();
    let rdir = tempdir().unwrap();
    let replica = Arc::new(Aion::open(AionConfig::new(rdir.path())).unwrap());
    let mut rcfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    rcfg.sync_every = 4;
    let mut replayer = Replayer::start(replica.clone(), rcfg);
    assert!(
        wait_for(10, || replica.latest_ts() == primary.latest_ts()),
        "replica never converged: {} vs {} (last error {:?})",
        replica.latest_ts(),
        primary.latest_ts(),
        replayer.last_error()
    );
    assert!(
        wait_for(10, || replayer.watermark().ts == primary.latest_ts()),
        "replica watermark stalled at {:?}",
        replayer.watermark()
    );
    let acked = replayer.watermark();
    let replica_ts = replica.latest_ts();
    replayer.shutdown();

    // Crash the primary: every byte not fsynced is gone.
    sim.crash_now();
    shipper.shutdown();
    drop(shipper);
    drop(primary);
    sim.heal();

    // Recovery must still hold the full acked (= shipped = fsynced)
    // prefix; the replica is never ahead of the reborn primary.
    let recovered = Arc::new(Aion::open(primary_config(&sim)).unwrap());
    assert!(
        recovered.latest_ts() >= acked.ts,
        "primary recovery lost acked commits: recovered ts {} < acked watermark ts {}",
        recovered.latest_ts(),
        acked.ts
    );
    assert!(
        recovered.latest_ts() >= replica_ts,
        "replica is ahead of the recovered primary: {} > {}",
        replica_ts,
        recovered.latest_ts()
    );
    for i in 1..=COMMITS.min(recovered.latest_ts()) {
        assert!(
            recovered.latest_graph().node(NodeId::new(i)).is_some(),
            "acked node {i} lost in primary crash"
        );
    }
    let report = recovered.check_consistency(CheckLevel::Full).unwrap();
    assert!(
        report.is_clean(),
        "recovered primary fsck dirty: {report:?}"
    );

    // And the old replica can rejoin the recovered primary cleanly.
    let mut shipper = LogShipper::start(recovered.clone()).unwrap();
    let mut rcfg = ReplayerConfig::new(shipper.addr(), rdir.path());
    rcfg.sync_every = 4;
    let mut replayer = Replayer::start(replica.clone(), rcfg);
    assert!(
        wait_for(10, || replica.latest_ts() == recovered.latest_ts()),
        "replica never re-converged (last error {:?})",
        replayer.last_error()
    );
    assert!(
        !replayer.diverged(),
        "rejoin flagged divergence: {:?}",
        replayer.last_error()
    );
    replayer.shutdown();
    shipper.shutdown();
}
