//! GraphStore: the in-memory snapshot cache plus the always-current latest
//! graph (Sec. 4.3 "an in-memory Least Recently Used (LRU) cache for
//! snapshots called GraphStore"; Sec. 5.1 "we maintain the latest graph
//! in-memory … by synchronously applying all committed graph updates",
//! HTAP-style).
//!
//! Snapshots are shared as `Arc<Graph>`: handing one out is a pointer copy
//! (the CoW discipline of Sec. 5.2). `lpg::Graph` is itself structurally
//! shared, so a commit that finds the latest graph held by a reader copies
//! the ≤ 3 chunks per update it lands in and the spine page of each
//! (`timestore.latest.cow_chunks`), never the graph; a replayed entry shares
//! every chunk the replay did not touch with its base, and entries loaded
//! from snapshot files share the relationship segments the files share with
//! each other and with the latest graph: every relationship chunk no commit
//! changed since the file that holds it was written
//! (`encoding::snapshot::SharedSegments`).
//!
//! The byte budget counts `Graph::heap_size()`: every entry is charged in
//! full when it is inserted, shared chunks included (those it shares with
//! the latest graph too, which the budget does not hold), so the entries
//! never charge more than `budget` together and hold less, being shared.
//! `heap_size()` counts the bytes the graph's structures hold, not what the
//! allocator spends on them (its per-block header and rounding): building
//! `aion-perf`'s final graph charges 9.9 MB and grows the resident set by
//! 10.5 MB. The gauges `timestore.graphstore.bytes` and
//! `timestore.graphstore.entries` report what the historical cache is
//! charged and how many graphs it holds.
//!
//! The historical cache is **demand-filled**: only reads put graphs there
//! (`TimeStore::snapshot_at` caches what it loads or replays). Writing a
//! snapshot file and recovery do not: that would keep a snapshot resident
//! that no reader asked for. Nor do pins:
//!
//! **Pinned versions.** A read at the implicit latest time takes the
//! latest graph and its timestamp in one step ([`GraphStore::pin_latest`])
//! and holds that `Arc` until it ends. The store remembers each pin as a
//! `ts → Weak<Graph>` entry, swept of dead entries on every pin, and
//! [`GraphStore::pinned`] hands the version out again while any reader
//! still holds it. So a commit landing in the middle of a read costs the
//! writer one page and one chunk per chunk it touches (the copy-on-write of
//! a held graph), and the reader's own `snapshot_at(ts)` finds its version
//! instead of rebuilding it from a snapshot file and the log. A pinned
//! version lives exactly as long as a reader holds it; it is never charged
//! to the byte budget, and ingest, which pins nothing, pays nothing.

use lpg::{Graph, Timestamp, Update};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

struct Entry {
    graph: Arc<Graph>,
    /// Drives LRU eviction.
    tick: u64,
    /// `graph.heap_size()` when it was inserted (a cached graph is never
    /// mutated): eviction must not walk graphs under the store's mutex.
    bytes: usize,
}

struct Inner {
    /// Cached historical snapshots keyed by timestamp; `BTreeMap` gives us
    /// the floor lookup.
    cache: BTreeMap<Timestamp, Entry>,
    bytes: usize,
    tick: u64,
    latest: Arc<Graph>,
    latest_ts: Timestamp,
    /// The versions readers pinned, by timestamp (see the module doc).
    pinned: BTreeMap<Timestamp, Weak<Graph>>,
}

/// In-memory snapshot cache with a byte budget, plus the latest graph.
pub struct GraphStore {
    inner: Mutex<Inner>,
    budget: usize,
    /// `timestore.latest.cow_copies`: commits that found the latest graph
    /// shared with a reader.
    cow_copies: Arc<obs::Counter>,
    /// `timestore.latest.cow_chunks`: chunks those commits had to copy (or
    /// create) instead of updating in place.
    cow_chunks: Arc<obs::Counter>,
    /// `timestore.pins`: pinned versions still alive, as of the last pin.
    pins: Arc<obs::Gauge>,
    /// `timestore.graphstore.bytes`: what the historical cache's entries
    /// are charged together, as of the last `put`.
    cached_bytes: Arc<obs::Gauge>,
    /// `timestore.graphstore.entries`: how many it holds, likewise.
    entries: Arc<obs::Gauge>,
}

impl GraphStore {
    /// A store whose historical cache may hold up to `budget_bytes` of
    /// estimated graph heap (the latest graph is not counted — it must
    /// always be resident).
    pub fn new(budget_bytes: usize) -> GraphStore {
        GraphStore {
            inner: Mutex::new(Inner {
                cache: BTreeMap::new(),
                bytes: 0,
                tick: 0,
                latest: Arc::new(Graph::new()),
                latest_ts: 0,
                pinned: BTreeMap::new(),
            }),
            budget: budget_bytes,
            cow_copies: obs::counter("timestore.latest.cow_copies"),
            cow_chunks: obs::counter("timestore.latest.cow_chunks"),
            pins: obs::gauge("timestore.pins"),
            cached_bytes: obs::gauge("timestore.graphstore.bytes"),
            entries: obs::gauge("timestore.graphstore.entries"),
        }
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
    /// returned `Arc` is dropped, [`Self::pinned`] finds it at that
    /// timestamp. `None`, pinning nothing, while the latest graph is older
    /// than `at_least`, which only a commit that failed to apply here
    /// leaves behind.
    pub fn pin_latest(&self, at_least: Timestamp) -> Option<(Timestamp, Arc<Graph>)> {
        let mut g = self.inner.lock();
        if g.latest_ts < at_least {
            return None;
        }
        g.pinned.retain(|_, v| v.strong_count() > 0);
        let (ts, graph) = (g.latest_ts, g.latest.clone());
        g.pinned.entry(ts).or_insert_with(|| Arc::downgrade(&graph));
        self.pins.set(g.pinned.len() as i64);
        Some((ts, graph))
    }

    /// The version a reader pinned at exactly `ts`, while one holds it.
    pub fn pinned(&self, ts: Timestamp) -> Option<Arc<Graph>> {
        self.inner.lock().pinned.get(&ts)?.upgrade()
    }

    /// Replaces the latest graph wholesale (recovery).
    pub fn set_latest(&self, graph: Graph, ts: Timestamp) {
        let mut g = self.inner.lock();
        g.latest = Arc::new(graph);
        g.latest_ts = ts;
    }

    /// Caches a historical snapshot, evicting LRU entries past the budget.
    pub fn put(&self, ts: Timestamp, graph: Arc<Graph>) {
        let bytes = graph.heap_size();
        if bytes > self.budget {
            return; // would evict everything else for one entry
        }
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        if let Some(old) = g.cache.insert(ts, Entry { graph, tick, bytes }) {
            g.bytes -= old.bytes;
        }
        g.bytes += bytes;
        while g.bytes > self.budget {
            // Evict the least recently used snapshot. An empty cache with
            // a non-zero byte count would be an accounting bug; reset the
            // counter instead of panicking.
            let victim = g
                .cache
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(ts, _)| *ts);
            let Some(victim) = victim else {
                g.bytes = 0;
                break;
            };
            if let Some(old) = g.cache.remove(&victim) {
                g.bytes -= old.bytes;
            }
        }
        self.cached_bytes.set(g.bytes as i64);
        self.entries.set(g.cache.len() as i64);
    }

    /// Exact-timestamp cache lookup.
    pub fn get(&self, ts: Timestamp) -> Option<Arc<Graph>> {
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        let e = g.cache.get_mut(&ts)?;
        e.tick = tick;
        Some(e.graph.clone())
    }

    /// Best cached snapshot with timestamp `≤ ts` — the "closest snapshot"
    /// lookup of Sec. 4.3. The latest graph also qualifies when current.
    pub fn floor(&self, ts: Timestamp) -> Option<(Timestamp, Arc<Graph>)> {
        let mut g = self.inner.lock();
        g.tick += 1;
        let tick = g.tick;
        if g.latest_ts <= ts && g.latest.node_count() > 0 {
            // The live graph is the cheapest base when it's old enough.
            return Some((g.latest_ts, g.latest.clone()));
        }
        let (k, e) = g.cache.range_mut(..=ts).next_back()?;
        e.tick = tick;
        Some((*k, e.graph.clone()))
    }

    /// Number of cached historical snapshots.
    pub fn len(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// `true` when no historical snapshots are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes held by the historical cache.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().bytes
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
        let gs = GraphStore::new(1 << 20);
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
        let gs = GraphStore::new(1 << 20);
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
    fn floor_prefers_closest_at_or_before() {
        let gs = GraphStore::new(1 << 24);
        gs.put(10, Arc::new(graph_with_nodes(1)));
        gs.put(20, Arc::new(graph_with_nodes(2)));
        gs.put(30, Arc::new(graph_with_nodes(3)));
        assert_eq!(gs.floor(25).unwrap().0, 20);
        assert_eq!(gs.floor(30).unwrap().0, 30);
        assert!(gs.floor(5).is_none());
    }

    #[test]
    fn floor_uses_latest_when_applicable() {
        let gs = GraphStore::new(1 << 24);
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
    fn budget_evicts_lru() {
        let one = Arc::new(graph_with_nodes(10));
        let size = one.heap_size();
        let gs = GraphStore::new(size * 2 + size / 2); // fits two
        gs.put(1, one.clone());
        gs.put(2, Arc::new(graph_with_nodes(10)));
        assert_eq!(gs.len(), 2);
        // Touch 1 so 2 is the LRU.
        assert!(gs.get(1).is_some());
        gs.put(3, Arc::new(graph_with_nodes(10)));
        assert_eq!(gs.len(), 2);
        assert!(gs.get(2).is_none(), "2 was evicted");
        assert!(gs.get(1).is_some());
        assert!(gs.get(3).is_some());
    }

    #[test]
    fn oversized_snapshot_is_not_cached() {
        let gs = GraphStore::new(64);
        gs.put(1, Arc::new(graph_with_nodes(100)));
        assert!(gs.is_empty());
        assert_eq!(gs.cached_bytes(), 0);
    }
}
