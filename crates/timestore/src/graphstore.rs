//! GraphStore: the latest graph, always current, plus every historical
//! version a reader still holds (Sec. 4.3 "an in-memory … cache for
//! snapshots called GraphStore"; Sec. 5.1 "we maintain the latest graph
//! in-memory … by synchronously applying all committed graph updates",
//! HTAP-style).
//!
//! Snapshots are shared as `Arc<Graph>`: handing one out is a pointer copy
//! (the CoW discipline of Sec. 5.2). `lpg::Graph` is itself structurally
//! shared, so a commit that finds the latest graph held by a reader copies
//! the ≤ 3 chunks per update it lands in and the spine page of each
//! (`timestore.latest.cow_chunks`), never the graph; a replayed version
//! shares every chunk the replay did not touch with its base, and versions
//! loaded from snapshot files share the relationship segments the files
//! share with each other and with the latest graph: every relationship
//! chunk no commit changed since the file that holds it was written
//! (`encoding::snapshot::SharedSegments`).
//!
//! **The version registry.** The store keeps one `ts → Weak<Graph>` map
//! and no copies. Two things register a version there: a read at the
//! implicit latest time, which takes the latest graph and its timestamp in
//! one step ([`GraphStore::pin_latest`]) and holds that `Arc` until it
//! ends, and `TimeStore::snapshot_at`, for the graph it loads or replays
//! and returns. Every registration first sweeps the entries nobody holds
//! any more. [`GraphStore::get`] (an exact timestamp) and
//! [`GraphStore::floor`] (the replay base of Sec. 4.3's "closest
//! snapshot" lookup) hand out live entries only. So a version lives
//! exactly as long as some reader holds it: a commit landing in the middle
//! of a read costs the writer one page and one chunk per chunk it touches
//! (the copy-on-write of a held graph), and the reader's own
//! `snapshot_at(ts)` finds its version instead of rebuilding it from a
//! snapshot file and the log. Ingest, which holds nothing, parks nothing.
//! The gauge `timestore.graphstore.versions` reports how many versions are
//! alive as of the last registration.
//!
//! The paper's GraphStore is an LRU over copies under a byte budget. An
//! LRU only wins when the same time is asked for again before its entry is
//! evicted, and it keeps every graph it was handed resident until then;
//! EXPERIMENTS.md records what it won and what it cost here.

use lock::{Mutex, Rank};
use lpg::{Graph, Timestamp, Update};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

struct Inner {
    latest: Arc<Graph>,
    latest_ts: Timestamp,
    /// The versions readers hold, by timestamp (see the module doc).
    versions: BTreeMap<Timestamp, Weak<Graph>>,
}

/// The latest graph plus the registry of the versions readers hold.
pub struct GraphStore {
    inner: Mutex<Inner>,
    /// `timestore.latest.cow_copies`: commits that found the latest graph
    /// shared with a reader.
    cow_copies: Arc<obs::Counter>,
    /// `timestore.latest.cow_chunks`: chunks those commits had to copy (or
    /// create) instead of updating in place.
    cow_chunks: Arc<obs::Counter>,
    /// `timestore.graphstore.versions`: registered versions still alive,
    /// as of the last registration.
    live: Arc<obs::Gauge>,
}

impl GraphStore {
    /// An empty latest graph and an empty registry of versions, counting
    /// into `metrics`.
    pub(crate) fn new(metrics: &obs::Registry) -> GraphStore {
        GraphStore {
            inner: Mutex::new(
                Rank::GraphStore,
                Inner {
                    latest: Arc::new(Graph::new()),
                    latest_ts: 0,
                    versions: BTreeMap::new(),
                },
            ),
            cow_copies: metrics.counter("timestore.latest.cow_copies"),
            cow_chunks: metrics.counter("timestore.latest.cow_chunks"),
            live: metrics.gauge("timestore.graphstore.versions"),
        }
    }

    /// Sweeps the dead entries, then registers `graph` at `ts` unless a
    /// live version is registered there already.
    fn register_locked(&self, g: &mut Inner, ts: Timestamp, graph: &Arc<Graph>) {
        g.versions.retain(|_, v| v.strong_count() > 0);
        g.versions
            .entry(ts)
            .or_insert_with(|| Arc::downgrade(graph));
        self.live.set(g.versions.len() as i64);
    }

    /// Checks that `updates` apply to the latest graph
    /// ([`Graph::check_batch`]), under the store's lock and without
    /// sharing the graph. Only the commit path changes the latest graph,
    /// so a batch that passes applies when the same thread commits it
    /// next.
    pub fn check(&self, updates: &[Update]) -> lpg::Result<()> {
        self.inner.lock().latest.check_batch(updates)
    }

    /// Applies one committed transaction to the latest graph, returning
    /// what `publish` returns. `publish` runs first, under the store's
    /// lock: a reader that sees what it published and then pins the latest
    /// graph waits for this commit.
    pub fn apply_commit<R>(
        &self,
        ts: Timestamp,
        updates: &[Update],
        publish: impl FnOnce() -> R,
    ) -> lpg::Result<R> {
        let mut g = self.inner.lock();
        let published = publish();
        // A reader holds the latest graph: it keeps its version, this
        // commit copies the pages and chunks it touches. A pin nobody
        // holds any more is only a `Weak`, which copies nothing.
        let before = (Arc::strong_count(&g.latest) > 1).then(|| g.latest.clone());
        let graph = Arc::make_mut(&mut g.latest);
        graph.apply_all(updates)?;
        if let Some(before) = before {
            self.cow_copies.inc();
            self.cow_chunks
                .add(graph.chunks_diverged_from(&before) as u64);
        }
        g.latest_ts = ts;
        Ok(published)
    }

    /// The latest graph (shared, zero-copy) and its timestamp.
    pub fn latest(&self) -> (Arc<Graph>, Timestamp) {
        let g = self.inner.lock();
        (g.latest.clone(), g.latest_ts)
    }

    /// The latest graph and its timestamp, pinned: until every clone of the
    /// returned `Arc` is dropped, [`Self::get`] finds it at that timestamp.
    pub fn pin_latest(&self) -> (Timestamp, Arc<Graph>) {
        let mut g = self.inner.lock();
        let (ts, graph) = (g.latest_ts, g.latest.clone());
        self.register_locked(&mut g, ts, &graph);
        (ts, graph)
    }

    /// Registers `graph` as the version at `ts` while some reader holds
    /// it. The caller vouches that no commit at or before `ts` is still to
    /// come, so that the version never changes.
    pub(crate) fn register(&self, ts: Timestamp, graph: &Arc<Graph>) {
        self.register_locked(&mut self.inner.lock(), ts, graph);
    }

    /// Replaces the latest graph wholesale (recovery).
    pub fn set_latest(&self, graph: Graph, ts: Timestamp) {
        let mut g = self.inner.lock();
        g.latest = Arc::new(graph);
        g.latest_ts = ts;
    }

    /// The version registered at exactly `ts`, while a reader holds it.
    pub fn get(&self, ts: Timestamp) -> Option<Arc<Graph>> {
        self.inner.lock().versions.get(&ts)?.upgrade()
    }

    /// The newest version at or before `ts` a reader holds — the "closest
    /// snapshot" lookup of Sec. 4.3. The latest graph also qualifies when
    /// current.
    pub fn floor(&self, ts: Timestamp) -> Option<(Timestamp, Arc<Graph>)> {
        let g = self.inner.lock();
        if g.latest_ts <= ts && g.latest.node_count() > 0 {
            // The live graph is the cheapest base when it's old enough.
            return Some((g.latest_ts, g.latest.clone()));
        }
        g.versions
            .range(..=ts)
            .rev()
            .find_map(|(t, v)| Some((*t, v.upgrade()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::NodeId;

    fn graph_with_nodes(n: u64) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn latest_graph_tracks_commits() {
        let gs = GraphStore::new(&obs::Registry::new());
        gs.apply_commit(
            5,
            &[Update::AddNode {
                id: NodeId::new(1),
                labels: vec![],
                props: vec![],
            }],
            || {},
        )
        .unwrap();
        let (g, ts) = gs.latest();
        assert_eq!(ts, 5);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn cow_latest_does_not_disturb_readers() {
        let gs = GraphStore::new(&obs::Registry::new());
        gs.apply_commit(
            1,
            &[Update::AddNode {
                id: NodeId::new(1),
                labels: vec![],
                props: vec![],
            }],
            || {},
        )
        .unwrap();
        let (before, _) = gs.latest();
        gs.apply_commit(
            2,
            &[Update::AddNode {
                id: NodeId::new(2),
                labels: vec![],
                props: vec![],
            }],
            || {},
        )
        .unwrap();
        // The reader's Arc still sees the old state (copy-on-write).
        assert_eq!(before.node_count(), 1);
        assert_eq!(gs.latest().0.node_count(), 2);
    }

    #[test]
    fn floor_prefers_closest_held_at_or_before() {
        let gs = GraphStore::new(&obs::Registry::new());
        let held: Vec<_> = (1..=3).map(|n| Arc::new(graph_with_nodes(n))).collect();
        for (ts, g) in [10, 20, 30].into_iter().zip(&held) {
            gs.register(ts, g);
        }
        assert_eq!(gs.floor(25).unwrap().0, 20);
        assert_eq!(gs.floor(30).unwrap().0, 30);
        assert!(gs.floor(5).is_none());
    }

    #[test]
    fn floor_uses_latest_when_applicable() {
        let gs = GraphStore::new(&obs::Registry::new());
        gs.apply_commit(
            50,
            &[Update::AddNode {
                id: NodeId::new(1),
                labels: vec![],
                props: vec![],
            }],
            || {},
        )
        .unwrap();
        let (ts, g) = gs.floor(60).unwrap();
        assert_eq!(ts, 50);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn a_version_lives_as_long_as_a_reader_holds_it() {
        let gs = GraphStore::new(&obs::Registry::new());
        let (ten, twenty) = (Arc::new(graph_with_nodes(1)), Arc::new(graph_with_nodes(2)));
        gs.register(10, &ten);
        gs.register(20, &twenty);
        assert!(Arc::ptr_eq(&gs.get(20).unwrap(), &twenty));
        drop(twenty);
        // A dead entry is neither served nor a floor: the floor skips it.
        assert!(gs.get(20).is_none());
        assert_eq!(gs.floor(25).unwrap().0, 10);
        // The next registration sweeps it; a live entry is not replaced.
        gs.register(10, &Arc::new(graph_with_nodes(3)));
        assert!(Arc::ptr_eq(&gs.get(10).unwrap(), &ten));
        assert_eq!(gs.inner.lock().versions.len(), 1);
    }
}
