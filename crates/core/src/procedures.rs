//! Temporal procedures (Sec. 5.1): the callable analytics layer that wraps
//! the Table 1 API — graph projections plus incremental algorithms over
//! consecutive snapshots (Sec. 6.6). Both modes read the series from one
//! forward walk through history ([`Aion::versions`]): Classic runs its
//! algorithm on each version, Incremental feeds the diff each version comes
//! with to its engine.

use crate::db::Aion;
use algo::{
    aggregate::{avg_rel_property, IncrementalAvg},
    bfs::{bfs_levels, IncrementalBfs},
    pagerank::{pagerank, IncrementalPageRank, PageRankConfig},
    Csr,
};
use lpg::{Direction, Graph, NodeId, Result, StrId, Timestamp, TimestampedUpdate};
use std::collections::HashMap;

/// How a snapshot-series procedure executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Recompute from scratch per snapshot (the classic-Neo4j baseline of
    /// Figs. 12/14).
    Classic,
    /// Reuse the previous snapshot's state and apply the diff between
    /// consecutive snapshots.
    Incremental,
}

/// Per-series results: one entry per materialized snapshot.
#[derive(Clone, Debug)]
pub struct SeriesResult<T> {
    /// `(timestamp, result)` pairs.
    pub points: Vec<(Timestamp, T)>,
    /// Total inner work units (iterations for PageRank, touched nodes for
    /// BFS, scanned rels for AVG) — the effort the speedup comes from.
    pub work: u64,
}

impl Aion {
    /// Walks the versions `start, start + step, … < end` once and collects
    /// what `at` makes of each: `at` gets the graph and the diff that led to
    /// it from the previous point (empty at the first) and returns the
    /// point's result and the work it took.
    fn series<T>(
        &self,
        start: Timestamp,
        end: Timestamp,
        step: u64,
        mut at: impl FnMut(&Graph, &[TimestampedUpdate]) -> (T, u64),
    ) -> Result<SeriesResult<T>> {
        let mut out = SeriesResult {
            points: Vec::new(),
            work: 0,
        };
        for version in self.versions(start, end, step)? {
            let (ts, graph, diff) = version?;
            let (value, work) = at(&graph, &diff);
            out.points.push((ts, value));
            out.work += work;
        }
        Ok(out)
    }

    /// `AVG(rel.prop)` over a snapshot series.
    pub fn proc_avg_series(
        &self,
        key: StrId,
        start: Timestamp,
        end: Timestamp,
        step: u64,
        mode: ExecMode,
    ) -> Result<SeriesResult<Option<f64>>> {
        let mut agg: Option<IncrementalAvg> = None;
        self.series(start, end, step, |g, diff| match mode {
            // A full scan each time.
            ExecMode::Classic => (avg_rel_property(g, key), g.rel_count() as u64),
            ExecMode::Incremental => match &mut agg {
                Some(agg) => {
                    agg.apply_diff(diff);
                    (agg.value(), diff.len() as u64)
                }
                None => {
                    let agg = agg.insert(IncrementalAvg::from_graph(g, key));
                    (agg.value(), g.rel_count() as u64)
                }
            },
        })
    }

    /// BFS levels from `source` over a snapshot series; the result per
    /// snapshot is the number of reachable nodes.
    pub fn proc_bfs_series(
        &self,
        source: NodeId,
        start: Timestamp,
        end: Timestamp,
        step: u64,
        mode: ExecMode,
    ) -> Result<SeriesResult<usize>> {
        let mut engine: Option<IncrementalBfs> = None;
        self.series(start, end, step, |g, diff| match mode {
            ExecMode::Classic => (bfs_levels(g, source).len(), g.node_count() as u64),
            ExecMode::Incremental => match &mut engine {
                Some(engine) => {
                    let touched = engine.touched;
                    engine.apply_diff(g, diff);
                    let work = diff.len() + engine.touched - touched;
                    (engine.levels().len(), work as u64)
                }
                None => {
                    let engine = engine.insert(IncrementalBfs::new(g, source));
                    (engine.levels().len(), g.node_count() as u64)
                }
            },
        })
    }

    /// PageRank over a snapshot series; the result per snapshot is the
    /// rank vector (sparse ids).
    pub fn proc_pagerank_series(
        &self,
        config: PageRankConfig,
        start: Timestamp,
        end: Timestamp,
        step: u64,
        mode: ExecMode,
    ) -> Result<SeriesResult<HashMap<NodeId, f64>>> {
        let mut engine = IncrementalPageRank::new(config);
        self.series(start, end, step, |g, _| match mode {
            ExecMode::Classic => {
                let csr = Csr::project(g, Direction::Outgoing);
                let result = pagerank(&csr, config);
                let work = result.iterations as u64;
                (csr.ids.into_iter().zip(result.ranks).collect(), work)
            }
            // Warm-started from the previous point's ranks.
            ExecMode::Incremental => {
                let iterations = engine.total_iterations;
                let ranks = engine.run(g);
                (ranks, (engine.total_iterations - iterations) as u64)
            }
        })
    }
}
