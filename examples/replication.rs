//! Replication quickstart (DESIGN.md §13): a primary ships its commit
//! log to a read replica; a replica-aware client routes writes to the
//! primary and reads to the replica with read-your-writes guaranteed by
//! the `min_watermark` staleness gate.
//!
//! ```text
//! cargo run --example replication
//! ```

use aion::{Aion, AionConfig};
use aion_server::{ClientConfig, RoutedClient, ServedBy, Server, ServerConfig};
use repl::{LogShipper, Replayer, ReplayerConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // --- Primary: the database that accepts writes, plus a LogShipper
    // that streams its ChangeLog to any replica that connects.
    let primary_dir = tempfile::tempdir().expect("tempdir");
    let primary = Arc::new(Aion::open(AionConfig::new(primary_dir.path())).expect("open primary"));
    let mut shipper = LogShipper::start(primary.clone())?;
    let mut primary_srv = Server::start(primary.clone())?;
    println!(
        "primary:  queries on {}, replication on {}",
        primary_srv.addr(),
        shipper.addr()
    );

    // --- Replica: its own database, kept converging by a Replayer that
    // applies the primary's commit frames. The replica's log is a byte
    // copy of the primary's, so its end is where a restart resumes (see
    // crates/repl docs).
    let replica_dir = tempfile::tempdir().expect("tempdir");
    let replica = Arc::new(Aion::open(AionConfig::new(replica_dir.path())).expect("open replica"));
    let mut replayer = Replayer::start(
        replica.clone(),
        ReplayerConfig::new(shipper.addr(), replica_dir.path()),
    );
    // Replicas serve reads through the ordinary query server, marked
    // read-only: writes are refused with a typed error.
    let mut replica_srv = Server::start_with(
        replica.clone(),
        ServerConfig {
            read_only: true,
            ..ServerConfig::default()
        },
    )?;
    println!("replica:  queries on {} (read-only)", replica_srv.addr());

    // --- A replica-aware client: writes go to the primary; reads fan
    // out to replicas, each read demanding the session's watermark so a
    // lagging replica refuses (StaleReplica) instead of serving stale
    // state, and the router falls back to the primary.
    let mut router = RoutedClient::new(
        primary_srv.addr(),
        vec![replica_srv.addr()],
        ClientConfig::default(),
    );
    for (id, name) in [(1, "ada"), (2, "bob"), (3, "cyd")] {
        router.run(
            &format!("CREATE (n:Person {{_id: {id}, name: '{name}'}})"),
            vec![],
        )?;
        // Read-your-writes: this read observes the CREATE above no
        // matter which node serves it. The guarantee is structural —
        // the entity is present; property *strings* are per-process
        // interner state (DESIGN.md §13), so match on id, not name.
        let (result, served) =
            router.run_traced(&format!("MATCH (n) WHERE id(n) = {id} RETURN n"), vec![])?;
        assert_eq!(result.rows.len(), 1, "read-your-writes for _id {id}");
        println!("read after write of _id {id}: 1 row (served by {served:?})");
    }

    // Give replication a moment, then show the replica serving reads.
    while replica.latest_ts() < primary.latest_ts() {
        std::thread::sleep(Duration::from_millis(10));
    }
    let (result, served) = router.run_traced("MATCH (n:Person) RETURN count(n)", vec![])?;
    println!(
        "count on caught-up node: {:?} (served by {served:?})",
        result.rows[0][0]
    );
    assert!(matches!(served, ServedBy::Replica(_) | ServedBy::Primary));
    // The durable watermark follows at the next batch boundary or
    // heartbeat (repl::shipper::HEARTBEAT_INTERVAL, 200 ms).
    while replayer.watermark().ts < primary.latest_ts() {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "replica watermark: {:?} (primary latest_ts {})",
        replayer.watermark(),
        primary.latest_ts()
    );

    replica_srv.shutdown();
    primary_srv.shutdown();
    replayer.shutdown();
    shipper.shutdown();
    Ok(())
}
