//! Failover quickstart (DESIGN.md §17): a primary dies mid-flight, a
//! replica is promoted with a fresh **epoch**, a routed client finds
//! the new primary by probing epochs, and the deposed primary rejoins —
//! its divergent log suffix quarantined byte-exact into an archive.
//!
//! ```text
//! cargo run --example failover
//! ```

use aion::{Aion, AionConfig};
use aion_server::{Client, ClientConfig, RoutedClient, Server, ServerConfig};
use repl::{prepare_rejoin, read_divergence_archive, ReplNode, ReplayerConfig};
use std::sync::Arc;
use std::time::Duration;
use vfs::VfsRef;

fn main() -> std::io::Result<()> {
    // --- Primary A: a ReplNode ties the database to its replication
    // role and to the durable epoch chain persisted next to it.
    let a_dir = tempfile::tempdir().expect("tempdir");
    let a_db = Arc::new(Aion::open(AionConfig::new(a_dir.path())).expect("open primary"));
    let node_a = ReplNode::new_primary(a_db.clone(), VfsRef::std(), a_dir.path())?;
    let mut a_srv = Server::start(a_db.clone())?;
    println!(
        "A: primary, epoch {}, queries on {}",
        node_a.epochs().current().epoch,
        a_srv.addr()
    );

    // --- Replica B: read-only, replaying A's log. The server and the
    // role manager share one read-only flag, so promotion can open the
    // write path atomically.
    let b_dir = tempfile::tempdir().expect("tempdir");
    let b_db = Arc::new(Aion::open(AionConfig::new(b_dir.path())).expect("open replica"));
    let b_srv = Server::start_with(
        b_db.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )?;
    let mut node_b = ReplNode::new_replica(
        b_db.clone(),
        ReplayerConfig::new(node_a.shipper_addr().expect("shipping"), b_dir.path()),
        b_srv.read_only_flag(),
    );
    println!("B: replica, queries on {} (read-only)", b_srv.addr());

    // Some replicated history, fully converged.
    let mut writer = Client::connect(a_srv.addr())?;
    for id in 1..=5 {
        writer.run(&format!("CREATE (n:Doc {{_id: {id}}})"), vec![])?;
    }
    while b_db.latest_ts() < a_db.latest_ts() {
        std::thread::sleep(Duration::from_millis(10));
    }

    // --- Disaster: the replication link dies, A acks two more commits
    // that will never ship (the divergent suffix), then A goes down.
    node_b.shutdown(); // stand-in for a severed link
    for id in [100, 101] {
        writer.run(&format!("CREATE (n:Doc {{_id: {id}}})"), vec![])?;
    }
    a_srv.shutdown();
    println!("A: crashed with 2 unshipped commits");

    // --- Promotion: drain what was replayed, bump + persist epoch 1,
    // open writes, start shipping. (In production this is
    // `aion-admin promote <addr>` against B's query server.)
    let record = node_b.promote()?;
    println!(
        "B: promoted — epoch {} forked at ts {}",
        record.epoch, record.base_ts
    );

    // --- Client-transparent rerouting: this router still thinks A is
    // the primary. The write fails over: it probes every node it knows
    // with `Status` and re-points at the highest-epoch writable one.
    let mut router = RoutedClient::new(
        a_srv.addr(), // dead
        vec![b_srv.addr()],
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 0,
            ..ClientConfig::default()
        },
    );
    router.run("CREATE (n:Doc {_id: 200})", vec![])?;
    let (rows, served) = router.run_traced("MATCH (n) WHERE id(n) = 200 RETURN n", vec![])?;
    println!(
        "router: write + read-your-writes landed on the new primary \
         ({} row(s), served by {served:?})",
        rows.rows.len()
    );

    // --- Rejoin: with A's database closed, quarantine its divergent
    // suffix (byte-exact, checksummed) and truncate back to the fork.
    drop(node_a);
    drop(a_db);
    let vfs = VfsRef::std();
    let report = prepare_rejoin(
        &vfs,
        a_dir.path(),
        node_b.shipper_addr().expect("B ships"),
        Duration::from_secs(5),
    )?;
    let archive_path = report.archive_path.clone().expect("divergence archived");
    let archive = read_divergence_archive(&vfs, &archive_path)?;
    println!(
        "A: rejoin prep — {} divergent frame(s), {} byte(s) archived at {}",
        report.archived_frames,
        archive.bytes.len(),
        archive_path.display()
    );

    // A reopens as a replica of B: fenced against direct writes, but
    // converging on the epoch-1 timeline.
    let a_db = Arc::new(Aion::open(AionConfig::new(a_dir.path())).expect("reopen A"));
    let a_srv2 = Server::start_with(
        a_db.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )?;
    let node_a2 = ReplNode::new_replica(
        a_db.clone(),
        ReplayerConfig::new(node_b.shipper_addr().expect("B ships"), a_dir.path()),
        a_srv2.read_only_flag(),
    );
    while a_db.latest_ts() < b_db.latest_ts() {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "A: rejoined as replica at epoch {} — converged to ts {}",
        node_a2.epochs().current().epoch,
        a_db.latest_ts()
    );

    let mut a_srv2 = a_srv2;
    a_srv2.shutdown();
    let mut b_srv = b_srv;
    b_srv.shutdown();
    drop(node_a2);
    drop(node_b);
    Ok(())
}
