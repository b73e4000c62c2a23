//! Temporal procedures (Sec. 5.1): the callable analytics layer that wraps
//! the Table 1 API — graph projections plus incremental algorithms over
//! consecutive snapshots (Sec. 6.6), reusing intermediate results via
//! `getDiff` between iterations.

use crate::db::Aion;
use algo::{
    aggregate::{avg_rel_property, IncrementalAvg},
    bfs::{bfs_levels, IncrementalBfs},
    pagerank::{pagerank, IncrementalPageRank, PageRankConfig},
    Csr,
};
use lpg::{Direction, Graph, GraphError, NodeId, Result, StrId, Timestamp};
use std::collections::HashMap;

/// How a snapshot-series procedure executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Recompute from scratch per snapshot (the classic-Neo4j baseline of
    /// Figs. 12/14).
    Classic,
    /// Reuse the previous snapshot's state and apply `getDiff` between
    /// iterations.
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
    /// Materializes the snapshot time points `start, start+step, … < end`.
    /// A `step` of 0 would never reach `end` and is refused.
    pub fn series_times(start: Timestamp, end: Timestamp, step: u64) -> Result<Vec<Timestamp>> {
        if step == 0 {
            return Err(GraphError::InvalidTimeRange);
        }
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push(t);
            match t.checked_add(step) {
                Some(n) => t = n,
                None => break,
            }
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
        let times = Self::series_times(start, end, step)?;
        let mut points = Vec::with_capacity(times.len());
        let mut work = 0u64;
        match mode {
            ExecMode::Classic => {
                for &t in &times {
                    let g = self.get_graph_at(t)?;
                    work += g.rel_count() as u64; // full scan each time
                    points.push((t, avg_rel_property(&g, key)));
                }
            }
            ExecMode::Incremental => {
                let first = times.first().copied().unwrap_or(start);
                let g = self.get_graph_at(first)?;
                work += g.rel_count() as u64;
                let mut agg = IncrementalAvg::from_graph(&g, key);
                points.push((first, agg.value()));
                for pair in times.windows(2) {
                    let diff = self.get_diff(pair[0] + 1, pair[1] + 1)?;
                    work += diff.len() as u64;
                    agg.apply_diff(&diff);
                    points.push((pair[1], agg.value()));
                }
            }
        }
        Ok(SeriesResult { points, work })
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
        let times = Self::series_times(start, end, step)?;
        let mut points = Vec::with_capacity(times.len());
        let mut work = 0u64;
        match mode {
            ExecMode::Classic => {
                for &t in &times {
                    let g = self.get_graph_at(t)?;
                    let levels = bfs_levels(&g, source);
                    work += g.node_count() as u64;
                    points.push((t, levels.len()));
                }
            }
            ExecMode::Incremental => {
                let first = times.first().copied().unwrap_or(start);
                // A copy of the spine to apply the diffs to; the chunks stay
                // shared with the stored snapshot until a diff touches them.
                let mut g = Graph::clone(&*self.get_graph_at(first)?);
                let mut engine = IncrementalBfs::new(&g, source);
                work += g.node_count() as u64;
                points.push((first, engine.levels().len()));
                for pair in times.windows(2) {
                    let diff = self.get_diff(pair[0] + 1, pair[1] + 1)?;
                    g.apply_all(diff.iter().map(|u| &u.op))?;
                    engine.apply_diff(&g, &diff);
                    work += diff.len() as u64 + engine.touched as u64;
                    points.push((pair[1], engine.levels().len()));
                }
            }
        }
        Ok(SeriesResult { points, work })
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
        let times = Self::series_times(start, end, step)?;
        let mut points = Vec::with_capacity(times.len());
        let mut work = 0u64;
        match mode {
            ExecMode::Classic => {
                for &t in &times {
                    let g = self.get_graph_at(t)?;
                    let csr = Csr::project(&g, Direction::Outgoing, None);
                    let result = pagerank(&csr, config);
                    work += result.iterations as u64;
                    points.push((t, csr.ids.into_iter().zip(result.ranks).collect()));
                }
            }
            ExecMode::Incremental => {
                let first = times.first().copied().unwrap_or(start);
                let mut g = Graph::clone(&*self.get_graph_at(first)?);
                let mut engine = IncrementalPageRank::new(config);
                let mut prev_iters = 0;
                let ranks = engine.run(&g);
                work += (engine.total_iterations - prev_iters) as u64;
                prev_iters = engine.total_iterations;
                points.push((first, ranks));
                for pair in times.windows(2) {
                    let diff = self.get_diff(pair[0] + 1, pair[1] + 1)?;
                    g.apply_all(diff.iter().map(|u| &u.op))?;
                    let ranks = engine.run(&g);
                    work += (engine.total_iterations - prev_iters) as u64;
                    prev_iters = engine.total_iterations;
                    points.push((pair[1], ranks));
                }
            }
        }
        Ok(SeriesResult { points, work })
    }
}
