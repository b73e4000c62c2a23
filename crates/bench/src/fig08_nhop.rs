//! Fig. 8 — n-hop graph accesses (1/2/4/8 hops) from random start nodes:
//! Raphtory vs LineageStore vs TimeStore.
//!
//! Paper shape: LineageStore and Raphtory are 2–3 orders of magnitude
//! faster than TimeStore at 1–2 hops; around 4 hops (≈30 % of the graph
//! accessed) TimeStore catches up; at 8 hops the fine-grained stores are
//! up to 12× slower or time out. This crossover is where the planner's
//! 30 % threshold comes from (Sec. 6.3).

use crate::common::{banner, build_raphtory, fmt_rate, ingest_aion, open_aion, BenchConfig, Timer};
use lpg::Direction;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::convert::Infallible;
use tempfile::tempdir;

/// Datasets measured (paper uses these four for Fig. 8).
pub const DATASETS: [&str; 4] = ["DBLP", "WikiTalk", "Pokec", "LiveJournal"];

/// Hop counts measured.
pub const HOPS: [u32; 4] = [1, 2, 4, 8];

/// One measured row.
pub struct NHopRow {
    /// Dataset name.
    pub dataset: String,
    /// Hop count.
    pub hops: u32,
    /// Raphtory-style expansion ops/s (in-memory adjacency replay).
    pub raphtory: f64,
    /// LineageStore Alg. 1 ops/s.
    pub lineage: f64,
    /// TimeStore (full snapshot + traversal) ops/s.
    pub timestore: f64,
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) -> Vec<NHopRow> {
    banner(
        "Fig. 8 — n-hop accesses: Raphtory vs LineageStore vs TimeStore",
        "paper: LS/Raphtory win 1-2 hops by 100-1000x; TimeStore wins at 8 hops",
    );
    println!(
        "{:<18} {:>14} {:>14} {:>14}   winner",
        "dataset(hops)", "Raphtory", "LineageStore", "TimeStore"
    );
    let mut out = Vec::new();
    for name in DATASETS {
        let w = cfg.workload(name);
        let dir = tempdir().expect("tempdir");
        let db = open_aion(dir.path(), true);
        ingest_aion(&db, &w);
        let raphtory = build_raphtory(&w);
        let end_ts = w.max_ts;
        // Raphtory expansion = BFS over its snapshot-reconstructed adjacency;
        // the paper's point is that its per-entity validity checks make deep
        // expansion expensive. We reuse its snapshot for a fair "in-memory
        // fine-grained" expansion cost.
        let raph_graph = baselines::TemporalBackend::snapshot_at(&raphtory, end_ts);

        for hops in HOPS {
            let ops = (cfg.point_ops / (hops as usize * hops as usize)).clamp(3, 200);
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ u64::from(hops));
            // Random start nodes at random historical time points — probing
            // only the latest timestamp would let TimeStore serve every
            // query from the resident latest graph, hiding the snapshot
            // materialization cost the paper measures.
            let starts: Vec<(lpg::NodeId, u64)> = (0..ops)
                .map(|_| (w.random_node(&mut rng), w.random_ts(&mut rng)))
                .collect();

            // LineageStore: Alg. 1.
            let t = Timer::start();
            for (s, at) in &starts {
                let _ = db.lineagestore().expand(*s, Direction::Outgoing, hops, *at);
            }
            let ls_rate = t.ops_per_sec(starts.len());

            // TimeStore: "point or subgraph queries require the creation
            // of a snapshot" (Sec. 4.3) — charge the |G| materialization
            // (the GraphStore serves the reconstructed state only while a
            // reader holds it, and the query still copies a working
            // snapshot) plus the traversal.
            let t = Timer::start();
            for (s, at) in &starts {
                let snap = (*db.get_graph_at(*at).expect("snapshot")).clone();
                std::hint::black_box(reached(&snap, *s, hops, |rid| Some(snap.rel(rid)?.tgt)));
            }
            let ts_rate = t.ops_per_sec(starts.len());

            // Raphtory-like: BFS on its reconstructed graph, paying a
            // visibility re-check per touched node (the |U_R^n| scans).
            let t = Timer::start();
            for (s, _) in &starts {
                std::hint::black_box(reached(&raph_graph, *s, hops, |rid| {
                    // The expensive per-edge validity check.
                    Some(baselines::TemporalBackend::rel_at(&raphtory, rid, end_ts)?.tgt)
                }));
            }
            let raph_rate = t.ops_per_sec(starts.len());

            let winner = if ls_rate >= ts_rate && ls_rate >= raph_rate {
                "LineageStore"
            } else if ts_rate >= raph_rate {
                "TimeStore"
            } else {
                "Raphtory"
            };
            println!(
                "{:<18} {:>14} {:>14} {:>14}   {winner}",
                format!("{name}({hops})"),
                fmt_rate(raph_rate),
                fmt_rate(ls_rate),
                fmt_rate(ts_rate),
            );
            out.push(NHopRow {
                dataset: name.to_string(),
                hops,
                raphtory: raph_rate,
                lineage: ls_rate,
                timestore: ts_rate,
            });
        }
    }
    out
}

/// How many nodes a `hops`-hop outgoing BFS from `start` reaches over
/// `graph`'s adjacency, taking each relationship's target from `tgt`.
fn reached(
    graph: &lpg::Graph,
    start: lpg::NodeId,
    hops: u32,
    tgt: impl Fn(lpg::RelId) -> Option<lpg::NodeId>,
) -> usize {
    if !graph.has_node(start) {
        return 0;
    }
    let Ok(hits) = lpg::bfs::<Infallible>(start, hops, |cur, out| {
        out.extend(
            graph
                .relationships(cur, Direction::Outgoing)
                .filter_map(&tgt),
        );
        Ok(())
    });
    hits.len()
}
