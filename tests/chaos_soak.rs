//! Chaos soak: several seeded storms of client traffic are driven
//! through a fault-injecting TCP proxy ([`aion_server::ChaosProxy`])
//! sitting between resilient clients and a server with tight limits.
//! The proxy delays, corrupts, splits, and severs the byte stream; the
//! suite then asserts the system's network contract held:
//!
//! * **no hangs** — every client thread reports within a deadline;
//! * **no worker leaks** — the server drains to zero connections;
//! * **at-most-once writes** — no client ever observes a replayed
//!   `CREATE` (each write uses a unique `_id`, so a replay surfaces as
//!   "already exists");
//! * **no acknowledged-commit loss** — every `_id` whose `CREATE` was
//!   acked over the wire is durable in the store afterwards;
//! * **conflicts are refused cleanly** — the clients also race `CREATE`s
//!   of shared ids and `MATCH … DELETE`s of shared relationships from
//!   their connections: every reply is `Ok` or a typed constraint error
//!   (a request the storm cut or corrupted gets no reply, or the
//!   server's refusal of a corrupted request), and at most one client is
//!   acked per shared id;
//! * **storage integrity** — the full consistency audit is clean after
//!   the storm, and the database reopens and accepts a write.
//!
//! Seeds and client counts are env-tunable for CI (`AION_CHAOS_SEEDS`,
//! `AION_CHAOS_CLIENTS`); the defaults keep the test under a few
//! seconds per seed.

use aion::{Aion, AionConfig};
use aion_server::{ChaosConfig, ChaosProxy, Client, ClientConfig, Server, ServerConfig};
use lpg::{NodeId, RelId};
use query::Value;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tempfile::tempdir;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn chaos_storm_preserves_network_contract() {
    let seeds = env_u64("AION_CHAOS_SEEDS", 3);
    let clients = env_u64("AION_CHAOS_CLIENTS", 4) as usize;
    for seed in 0..seeds {
        run_storm(seed, clients);
    }
}

/// Ops each client attempts per storm.
const OPS_PER_CLIENT: u64 = 40;

/// Every client creates node `SHARED_NODE + op` at op `op ≡ 1 (mod 8)`,
/// and deletes relationship `SHARED_REL + op` at op `op ≡ 5 (mod 8)`;
/// both lie far above the per-client ids.
const SHARED_NODE: u64 = 1 << 40;
const SHARED_REL: u64 = 1 << 40;

fn run_storm(seed: u64, clients: usize) {
    let dir = tempdir().unwrap();
    let db = Arc::new(Aion::open(AionConfig::new(dir.path())).unwrap());
    // The shared relationships, between two hub nodes.
    let hubs = [NodeId::new(SHARED_NODE - 2), NodeId::new(SHARED_NODE - 1)];
    db.write(|txn| {
        for hub in hubs {
            txn.add_node(hub, vec![], vec![])?;
        }
        for op in (5..OPS_PER_CLIENT).step_by(8) {
            txn.add_rel(RelId::new(SHARED_REL + op), hubs[0], hubs[1], None, vec![])?;
        }
        Ok(())
    })
    .unwrap();
    let mut server = Server::start_with(
        db.clone(),
        ServerConfig {
            max_connections: 64,
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(2),
            // The storm triggers slow queries by design; keep CI logs quiet.
            slow_log_per_sec: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut proxy = ChaosProxy::start(server.addr(), ChaosConfig::storm(seed)).unwrap();
    let proxy_addr = proxy.addr();

    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for c in 0..clients {
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let outcome = client_loop(proxy_addr, seed, c as u64);
            let _ = tx.send((c, outcome));
        }));
    }
    drop(tx);

    // No-hang guard: a stuck worker or client shows up here as a timeout
    // instead of wedging the whole test binary.
    let mut acked: Vec<u64> = Vec::new();
    let (mut created, mut deleted) = (HashSet::new(), HashSet::new());
    for _ in 0..clients {
        let (c, outcome) = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("a chaos client hung (seed {seed})"));
        assert_eq!(
            outcome.double_applies, 0,
            "client {c} observed a replayed write (seed {seed})"
        );
        assert!(
            outcome.bad_replies.is_empty(),
            "client {c}: a conflicting write failed otherwise than on a constraint (seed {seed}): {:?}",
            outcome.bad_replies
        );
        acked.extend(outcome.acked_ids);
        for id in outcome.shared_created {
            assert!(
                created.insert(id),
                "two clients created node {id} (seed {seed})"
            );
        }
        for id in outcome.shared_deleted {
            assert!(
                deleted.insert(id),
                "two clients deleted relationship {id} (seed {seed})"
            );
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    proxy.stop();
    let faults = proxy.stats().total_faults();
    assert!(faults > 0, "storm injected no faults (seed {seed})");

    server.shutdown();
    assert_eq!(
        server.active_connections(),
        0,
        "worker leak after storm (seed {seed})"
    );

    // Every acknowledged commit must be durable; the reverse (applied
    // but unacked, because the *response* was corrupted) is legal
    // at-most-once behaviour and is not asserted against.
    let latest = db.latest_ts();
    db.lineage_barrier(latest);
    for id in &acked {
        let history = db.get_node(NodeId::new(*id), 0, latest + 1).unwrap();
        assert!(
            !history.is_empty(),
            "acked commit for _id {id} lost (seed {seed})"
        );
    }
    let graph = db.latest_graph();
    assert!(created.iter().all(|&id| graph.has_node(NodeId::new(id))));
    assert!(deleted.iter().all(|&id| !graph.has_rel(RelId::new(id))));
    drop(graph);
    assert!(
        !db.lineage_wedged(),
        "the storm wedged the LineageStore (seed {seed})"
    );
    let report = db.check_consistency(aion::CheckLevel::Full).unwrap();
    assert!(
        report.is_clean(),
        "post-storm audit (seed {seed}): {report:?}"
    );
    drop(server);
    assert_eq!(
        Arc::strong_count(&db),
        1,
        "the server released the database"
    );
    drop(db);
    let db = Aion::open(AionConfig::new(dir.path()))
        .unwrap_or_else(|e| panic!("reopen after the storm (seed {seed}): {e}"));
    db.write(|txn| txn.add_node(NodeId::new(SHARED_NODE - 3), vec![], vec![]))
        .unwrap_or_else(|e| panic!("write after the reopen (seed {seed}): {e}"));
}

struct ClientOutcome {
    /// `_id`s whose CREATE got a successful response over the wire.
    acked_ids: Vec<u64>,
    /// "already exists" errors — evidence of a replayed write.
    double_applies: u64,
    /// Shared node ids whose CREATE this client was acked for.
    shared_created: Vec<u64>,
    /// Shared relationship ids this client's DELETE was acked as deleting.
    shared_deleted: Vec<u64>,
    /// Replies to conflicting writes that were neither `Ok` nor a typed
    /// constraint error.
    bad_replies: Vec<String>,
}

/// Whether a conflicting write failed as the contract allows: a request
/// the storm cut or corrupted (no reply, a broken connection, the
/// server's refusal of a corrupted request), or a typed constraint error
/// (a generic wire error carrying the `GraphError`'s text).
fn allowed_failure(e: &io::Error) -> bool {
    if e.kind() != io::ErrorKind::Other {
        return true;
    }
    let msg = e.to_string();
    [
        "already exists",
        "does not exist",
        "protocol error",
        "connection unavailable",
    ]
    .iter()
    .any(|m| msg.contains(m))
}

fn client_loop(addr: SocketAddr, seed: u64, client_no: u64) -> ClientOutcome {
    let cfg = ClientConfig {
        connect_timeout: Duration::from_secs(5),
        // Tight: a corrupted length header can leave a read waiting for
        // bytes that never arrive, and that wait bounds the soak's runtime.
        request_timeout: Duration::from_secs(2),
        retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        jitter_seed: seed.wrapping_mul(1_000_003) ^ client_no,
    };
    let mut out = ClientOutcome {
        acked_ids: Vec::new(),
        double_applies: 0,
        shared_created: Vec::new(),
        shared_deleted: Vec::new(),
        bad_replies: Vec::new(),
    };
    // The proxy may sever the connection during the handshake itself, so
    // even construction needs retries.
    let mut client = None;
    for _ in 0..20 {
        match Client::connect_with(addr, cfg.clone()) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let Some(mut client) = client else {
        return out;
    };
    for op in 0..OPS_PER_CLIENT {
        // Unique per (seed, client, op): a replay is detectable.
        let id = 1 + seed * 10_000_000 + client_no * 100_000 + op;
        match op % 4 {
            // Reads and pings vary frame sizes and exercise idempotent
            // retries; errors are expected under the storm and ignored.
            3 => {
                let _ = client.run("MATCH (n:Soak) RETURN count(n)", Vec::new());
            }
            2 if op % 8 == 6 => {
                let _ = client.ping();
            }
            // Conflicts: every client races the others on the same id.
            1 => {
                let (shared, q) = if op % 8 == 1 {
                    let id = SHARED_NODE + op;
                    (id, format!("CREATE (n:Soak {{_id: {id}}})"))
                } else {
                    let id = SHARED_REL + op;
                    (id, format!("MATCH ()-[r]->() WHERE id(r) = {id} DELETE r"))
                };
                match client.run(&q, Vec::new()) {
                    Ok(_) if op % 8 == 1 => out.shared_created.push(shared),
                    // A DELETE that matched nothing affects nothing.
                    Ok(r) if r.rows == [[Value::Int(1)]] => out.shared_deleted.push(shared),
                    Ok(_) => {}
                    Err(e) if allowed_failure(&e) => {}
                    Err(e) => out.bad_replies.push(format!("{q}: {e}")),
                }
            }
            _ => match client.run(&format!("CREATE (n:Soak {{_id: {id}}})"), Vec::new()) {
                Ok(_) => out.acked_ids.push(id),
                Err(e) => {
                    // At-most-once violation: this unique id was already
                    // present, so some layer replayed the write.
                    if e.to_string().contains("already exists") {
                        out.double_applies += 1;
                    }
                }
            },
        }
    }
    out
}
