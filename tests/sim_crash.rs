//! Crash-consistency simulation harness (DESIGN.md §10).
//!
//! Runs randomized bitemporal workloads against [`vfs::SimVfs`], crashing
//! at **every** injected fault point, reopening the database from the
//! surviving (possibly torn) image, and asserting the durability contract:
//!
//! 1. every commit acknowledged after a successful sync is fully readable
//!    at its timestamp after recovery;
//! 2. no partially applied commit is ever visible — each recovered commit
//!    equals the attempted batch exactly, and every recovered graph equals
//!    the in-memory oracle;
//! 3. `Aion::check_consistency` (the aion-fsck audit) is clean after every
//!    recovery, and the database accepts new commits.
//!
//! Knobs: `AION_SIM_ITERS` (number of seeds, default 8), `AION_SIM_SEED`
//! (re-run exactly one seed — printed by every failure message), and
//! `AION_SIM_POINTS` (cap on crash points per seed; points are sampled
//! evenly when the workload has more).

use aion::{Aion, AionConfig, CheckLevel};
use lpg::{Graph, NodeId, Update};
use std::path::PathBuf;
use std::sync::Arc;
use timestore::SnapshotPolicy;
use vfs::{FaultConfig, SimVfs, Vfs, VfsRef};
use workload::simops::{commit_script, spread_ids, SimOpsConfig};

const COMMITS: usize = 24;
const OPS_PER_COMMIT: usize = 4;
/// Group-durability mode syncs every this many commits.
const SYNC_EVERY: u64 = 5;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn db_root() -> PathBuf {
    PathBuf::from("/simdb")
}

/// One deterministic scenario: everything derives from `seed`.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    /// Odd seeds run per-commit durability, even seeds group durability.
    sync_on_commit: bool,
    /// Torn-write chunk size for the crash lottery.
    torn_granularity: usize,
}

impl Scenario {
    fn new(seed: u64) -> Scenario {
        Scenario {
            sync_on_commit: seed % 2 == 1,
            torn_granularity: [1usize, 16, 64, 512][(seed % 4) as usize],
        }
    }

    fn crash_faults(&self, crash_at_op: u64) -> FaultConfig {
        FaultConfig {
            crash_at_op: Some(crash_at_op),
            io_error_rate: 0.0,
            torn_granularity: self.torn_granularity,
            survive_probability: 0.5,
        }
    }
}

fn db_config(sim: &SimVfs, sync_on_commit: bool) -> AionConfig {
    let mut cfg = AionConfig::new(db_root());
    cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
    // Each commit waits for the cascade to apply it before the next one
    // starts, so the op stream stays a pure function of the seed.
    cfg.sync_lineage = true;
    cfg.sync_on_commit = sync_on_commit;
    // Small snapshot cadence so workloads cross snapshot boundaries.
    cfg.timestore.policy = SnapshotPolicy::EveryNOps(10);
    cfg.lineage.cache_pages = 64;
    cfg
}

/// Builds the seed's commit script. Property keys match the interner ids
/// Aion assigns on every open, so the script is stable across reopens. Ids
/// are spread over many 64-id segments, so that snapshot files reference
/// earlier ones and crash points fall inside such files.
fn script_for(db: &Aion, seed: u64) -> Vec<Vec<Update>> {
    let keys = db.app_time_keys();
    let script = commit_script(
        seed,
        &SimOpsConfig {
            commits: COMMITS,
            ops_per_commit: OPS_PER_COMMIT,
            app_start: keys.start,
            app_end: keys.end,
            key: db.intern("k"),
            label: db.intern("L"),
        },
    );
    spread_ids(script, 29)
}

/// The in-memory oracle: `states[t]` is the graph after commit `t`
/// (`states[0]` is empty; commit `i` runs at system timestamp `i + 1`).
fn oracle_states(script: &[Vec<Update>]) -> Vec<Graph> {
    let mut states = Vec::with_capacity(script.len() + 1);
    let mut g = Graph::new();
    states.push(g.clone());
    for batch in script {
        for u in batch {
            g.apply(u)
                .expect("simops scripts are valid by construction");
        }
        states.push(g.clone());
    }
    states
}

struct RunOutcome {
    /// Highest commit timestamp acknowledged as durable (covered by a
    /// successful sync, or by a successful commit in sync-on-commit mode).
    durable_ts: u64,
    /// Highest commit timestamp whose commit call was *started* — recovery
    /// may legitimately surface up to this point, never past it.
    started_ts: u64,
}

/// Runs the workload until completion or the first I/O failure. The op
/// sequence is identical across runs of the same seed up to the crash
/// point, so `SimVfs::op_count` from a fault-free run enumerates every
/// possible crash point.
fn run_workload(sim: &SimVfs, script: &[Vec<Update>], sync_on_commit: bool) -> RunOutcome {
    let mut out = RunOutcome {
        durable_ts: 0,
        started_ts: 0,
    };
    let Ok(db) = Aion::open(db_config(sim, sync_on_commit)) else {
        return out;
    };
    let mut acked = 0u64;
    for (i, batch) in script.iter().enumerate() {
        let ts = (i + 1) as u64;
        out.started_ts = ts;
        let res = db.write_at(ts, |txn| batch.iter().try_for_each(|u| txn.push(u.clone())));
        match res {
            Ok(t) => {
                acked = t;
                if sync_on_commit {
                    out.durable_ts = t;
                }
            }
            Err(_) => break,
        }
        if !sync_on_commit && ts.is_multiple_of(SYNC_EVERY) && db.sync().is_ok() {
            out.durable_ts = acked;
        }
    }
    if db.sync().is_ok() {
        out.durable_ts = acked;
    }
    out
}

/// Recovery invariants after a crash at `ctx` (a human-readable repro
/// string starting with the seed).
fn check_recovery(
    sim: &SimVfs,
    script: &[Vec<Update>],
    states: &[Graph],
    run: &RunOutcome,
    ctx: &str,
) {
    sim.heal();
    let db = Aion::open(db_config(sim, false))
        .unwrap_or_else(|e| panic!("{ctx}: recovery reopen failed: {e}"));
    let recovered = db.latest_ts();
    // Durability: everything acknowledged after a sync survived.
    assert!(
        recovered >= run.durable_ts,
        "{ctx}: lost synced commits — recovered ts {recovered} < durable ts {}",
        run.durable_ts
    );
    // No time travel into the future: at most the in-flight commit.
    assert!(
        recovered <= run.started_ts,
        "{ctx}: recovered ts {recovered} past last started commit {}",
        run.started_ts
    );
    // Atomicity + exactness: the recovered history is a byte-exact prefix
    // of the attempted commit script...
    let diff = db
        .get_diff(1, recovered + 1)
        .unwrap_or_else(|e| panic!("{ctx}: get_diff after recovery failed: {e}"));
    let want: Vec<Update> = script[..recovered as usize]
        .iter()
        .flatten()
        .cloned()
        .collect();
    let got: Vec<Update> = diff.iter().map(|u| u.op.clone()).collect();
    assert!(
        got == want,
        "{ctx}: recovered log is not an exact prefix of the commit script (recovered ts {recovered})"
    );
    // ...and every probed snapshot equals the oracle graph.
    let mut probes = vec![recovered, run.durable_ts, recovered / 2];
    probes.dedup();
    for t in probes {
        if t == 0 {
            continue;
        }
        let g = db
            .get_graph_at(t)
            .unwrap_or_else(|e| panic!("{ctx}: get_graph_at({t}) after recovery failed: {e}"));
        assert!(
            g.same_as(&states[t as usize]),
            "{ctx}: graph at ts {t} diverges from the oracle after recovery"
        );
    }
    // The full fsck audit must be clean on the recovered instance.
    let report = db
        .check_consistency(CheckLevel::Full)
        .unwrap_or_else(|e| panic!("{ctx}: check_consistency failed: {e}"));
    assert!(
        report.is_clean(),
        "{ctx}: fsck found violations after recovery: {report:?}"
    );
    // And the database must accept new work.
    db.write(|txn| txn.add_node(NodeId::new(9_000_000), vec![], vec![]))
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
}

/// Measures the seed's fault-free op count, then crashes at every op.
fn run_seed(seed: u64, max_points: u64) {
    let scenario = Scenario::new(seed);
    // Fault-free measuring run: obtain the script, the oracle, and the
    // total number of mutating I/O ops (= the set of crash points).
    let sim = SimVfs::new(seed);
    let db = Aion::open(db_config(&sim, scenario.sync_on_commit)).expect("fault-free open");
    let script = script_for(&db, seed);
    drop(db);
    let states = oracle_states(&script);
    let sim = SimVfs::new(seed);
    let clean = run_workload(&sim, &script, scenario.sync_on_commit);
    assert_eq!(
        clean.durable_ts, COMMITS as u64,
        "seed {seed}: fault-free run must commit everything"
    );
    let total_ops = sim.op_count();
    assert!(total_ops > 0);
    // The crash points below fall inside snapshot files that reference
    // earlier ones, not only inside whole ones.
    let snap_dir = db_root().join("timestore/snapshots");
    let referencing = sim
        .read_dir(&snap_dir)
        .unwrap()
        .iter()
        .filter_map(|(name, _)| encoding::snapshot::open(&sim.read(&snap_dir.join(name)).ok()?))
        .filter(|manifest| !manifest.sources().is_empty())
        .count();
    assert!(
        referencing > 0,
        "seed {seed}: no snapshot references an earlier one"
    );
    // Verify the fault-free image too — recovery from "no crash at all".
    check_recovery(
        &sim,
        &script,
        &states,
        &clean,
        &format!("seed {seed} (no crash)"),
    );

    // Crash phase: every mutating op is a crash point (evenly sampled only
    // past the cap).
    let step = (total_ops / max_points.max(1)).max(1);
    let mut points = 0u64;
    let mut c = 0u64;
    while c < total_ops {
        let sim = SimVfs::with_faults(seed, scenario.crash_faults(c));
        let run = run_workload(&sim, &script, scenario.sync_on_commit);
        assert!(
            sim.has_crashed(),
            "seed {seed}: crash point {c} of {total_ops} never fired"
        );
        let ctx = format!(
            "seed {seed} crash_at_op {c}/{total_ops} torn_granularity {} sync_on_commit {}",
            scenario.torn_granularity, scenario.sync_on_commit
        );
        check_recovery(&sim, &script, &states, &run, &ctx);
        points += 1;
        c += step;
    }
    println!(
        "seed {seed}: {points} crash points over {total_ops} ops, \
         sync_on_commit={} torn={}B",
        scenario.sync_on_commit, scenario.torn_granularity
    );
}

#[test]
fn crash_consistency_simulation() {
    let max_points = env_u64("AION_SIM_POINTS", 10_000);
    if let Ok(seed) = std::env::var("AION_SIM_SEED") {
        let seed: u64 = seed.parse().expect("AION_SIM_SEED must be a u64");
        run_seed(seed, max_points);
        return;
    }
    let iters = env_u64("AION_SIM_ITERS", 8);
    for seed in 0..iters {
        run_seed(seed, max_points);
    }
}

/// Crashing the group-commit writer mid-flight: concurrent committers
/// flow through the shared log-writer thread (small latency budget so
/// groups really form), the SimVfs crashes at sampled points, and after
/// heal + reopen:
///
/// 1. every commit acknowledged under `sync_on_commit` survives exactly;
/// 2. every recovered commit — acked or in-flight — equals one attempted
///    batch in full (a group is never torn into partial commits);
/// 3. the Full fsck audit is clean and the database accepts new writes.
#[test]
fn group_commit_crash_recovery_with_concurrent_writers() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20;
    const BATCH: u64 = 3;

    fn group_config(sim: &SimVfs, sync_on_commit: bool) -> AionConfig {
        let mut cfg = AionConfig::new(db_root());
        cfg.vfs = VfsRef::new(Arc::new(sim.clone()));
        cfg.sync_on_commit = sync_on_commit;
        cfg.commit_latency_budget = std::time::Duration::from_millis(1);
        cfg.timestore.policy = SnapshotPolicy::EveryNOps(16);
        cfg.lineage.cache_pages = 64;
        cfg
    }

    /// Node ids encode (writer, commit, slot) so any recovered commit can
    /// be matched back to the exact batch that produced it.
    fn node_id(writer: u64, commit: u64, slot: u64) -> u64 {
        writer * 100_000 + commit * 10 + slot
    }

    /// Runs the concurrent workload until every writer finishes or hits
    /// its first error. Returns each acknowledged commit as
    /// `(ts, writer, commit)` — with `sync_on_commit` every one of these
    /// was covered by a group fsync before the ack.
    fn run_concurrent(sim: &SimVfs) -> Vec<(u64, u64, u64)> {
        let Ok(db) = Aion::open(group_config(sim, true)) else {
            return Vec::new();
        };
        let db = Arc::new(db);
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    for c in 0..PER_WRITER {
                        let res = db.write(|txn| {
                            for s in 0..BATCH {
                                txn.add_node(NodeId::new(node_id(w, c, s)), vec![], vec![])?;
                            }
                            Ok(())
                        });
                        match res {
                            Ok(ts) => acked.push((ts, w, c)),
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread"))
            .collect()
    }

    // Measuring run: a rough op count to spread crash points over. The
    // concurrent schedule is nondeterministic, so points are coarse
    // fractions rather than exhaustive op replay — the invariants they
    // check hold at *any* crash point.
    let sim = SimVfs::new(42);
    let acked = run_concurrent(&sim);
    assert_eq!(
        acked.len() as u64,
        WRITERS * PER_WRITER,
        "fault-free run commits everything"
    );
    let total_ops = sim.op_count().max(1);

    for frac in 1..=8u64 {
        let crash_at = total_ops * frac / 9;
        let sim = SimVfs::with_faults(
            1000 + frac,
            FaultConfig {
                crash_at_op: Some(crash_at),
                io_error_rate: 0.0,
                torn_granularity: 64,
                survive_probability: 0.5,
            },
        );
        let acked = run_concurrent(&sim);
        let ctx = format!("crash_at_op {crash_at}/{total_ops}");
        sim.heal();
        let db = Aion::open(group_config(&sim, false))
            .unwrap_or_else(|e| panic!("{ctx}: recovery reopen failed: {e}"));
        let recovered = db.latest_ts();

        // Group the recovered log by commit timestamp.
        let diff = db
            .get_diff(1, recovered + 1)
            .unwrap_or_else(|e| panic!("{ctx}: get_diff failed: {e}"));
        let mut by_ts: std::collections::BTreeMap<u64, Vec<Update>> = Default::default();
        for u in diff {
            by_ts.entry(u.ts).or_default().push(u.op);
        }

        // 1. No acknowledged commit is lost, and each is recovered as the
        //    batch its writer attempted.
        for &(ts, w, c) in &acked {
            assert!(
                ts <= recovered,
                "{ctx}: acked commit ts {ts} (writer {w} commit {c}) lost — recovered only to {recovered}"
            );
            let want: Vec<Update> = (0..BATCH)
                .map(|s| Update::AddNode {
                    id: NodeId::new(node_id(w, c, s)),
                    labels: vec![],
                    props: vec![],
                })
                .collect();
            assert_eq!(
                by_ts.get(&ts),
                Some(&want),
                "{ctx}: acked commit ts {ts} recovered with the wrong batch"
            );
        }

        // 2. Every recovered commit — including in-flight ones that never
        //    got an ack — is exactly one attempted batch, never a torn
        //    slice of a group.
        for (ts, ops) in &by_ts {
            assert_eq!(
                ops.len() as u64,
                BATCH,
                "{ctx}: commit {ts} is a partial batch: {ops:?}"
            );
            let Update::AddNode { id, .. } = &ops[0] else {
                panic!("{ctx}: commit {ts} holds unexpected op {:?}", ops[0]);
            };
            let (w, c) = (id.raw() / 100_000, id.raw() % 100_000 / 10);
            for (s, op) in ops.iter().enumerate() {
                let Update::AddNode { id, .. } = op else {
                    panic!("{ctx}: commit {ts} holds unexpected op {op:?}");
                };
                assert_eq!(
                    id.raw(),
                    node_id(w, c, s as u64),
                    "{ctx}: commit {ts} mixes updates from different batches"
                );
            }
        }

        // 3. Clean audit, and the recovered instance accepts new work.
        let report = db
            .check_consistency(CheckLevel::Full)
            .unwrap_or_else(|e| panic!("{ctx}: check_consistency failed: {e}"));
        assert!(report.is_clean(), "{ctx}: fsck violations: {report:?}");
        db.write(|txn| txn.add_node(NodeId::new(9_000_000), vec![], vec![]))
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
    }
}

/// Transient `EIO`/`ENOSPC` injection: failed commits surface as errors,
/// every acknowledged commit stays readable, each logged commit is the
/// attempted batch exactly, and the audit stays clean once errors stop.
#[test]
fn transient_io_errors_surface_and_preserve_consistency() {
    for seed in 100..104u64 {
        let sim = SimVfs::new(seed);
        let db = Aion::open(db_config(&sim, false)).expect("open before injection");
        let script = script_for(&db, seed);
        // Arm error injection only after open so the setup is clean.
        sim.arm(FaultConfig {
            io_error_rate: 0.05,
            ..FaultConfig::none()
        });
        let mut acked = Vec::new();
        for (i, batch) in script.iter().enumerate() {
            let ts = (i + 1) as u64;
            let res = db.write_at(ts, |txn| batch.iter().try_for_each(|u| txn.push(u.clone())));
            if res.is_ok() {
                acked.push(ts);
            }
        }
        sim.arm(FaultConfig::none());
        db.sync().expect("sync after disarming faults");
        drop(db);

        let db = Aion::open(db_config(&sim, false)).expect("reopen after transient errors");
        let recovered = db.latest_ts();
        let diff = db.get_diff(1, recovered + 1).expect("diff");
        // Group the recovered log by commit timestamp.
        let mut by_ts: std::collections::BTreeMap<u64, Vec<Update>> = Default::default();
        for u in diff {
            by_ts.entry(u.ts).or_default().push(u.op);
        }
        for ts in &acked {
            assert!(
                by_ts.contains_key(ts),
                "seed {seed}: acknowledged commit {ts} missing after reopen"
            );
        }
        let mut oracle = Graph::new();
        for (ts, ops) in &by_ts {
            assert_eq!(
                ops,
                &script[(ts - 1) as usize],
                "seed {seed}: commit {ts} was applied partially"
            );
            for u in ops {
                oracle.apply(u).expect("logged commits replay cleanly");
            }
        }
        assert!(
            db.latest_graph().same_as(&oracle),
            "seed {seed}: latest graph diverges from replay of the logged commits"
        );
        let report = db.check_consistency(CheckLevel::Full).expect("fsck");
        assert!(report.is_clean(), "seed {seed}: {report:?}");
    }
}
