//! `PageStore::cache_stats()` and the `pagestore.cache.*` obs counters
//! count the same thing: one hit or one miss per page access.
//!
//! The obs registry is process-wide, so this file holds exactly one test:
//! nothing else in the binary touches a page store between the snapshots.

use pagestore::{PageId, PageStore};

fn obs_hits_misses() -> (u64, u64) {
    let snap = obs::snapshot();
    (
        snap.counter("pagestore.cache.hits").unwrap_or(0),
        snap.counter("pagestore.cache.misses").unwrap_or(0),
    )
}

#[test]
fn cache_stats_and_obs_counters_book_one_hit_or_miss_per_access() {
    let dir = tempfile::tempdir().unwrap();
    let store = PageStore::open(dir.path().join("p.db"), 4).unwrap();
    // Fresh pages enter the cache without a lookup: no access is booked.
    let pages: Vec<PageId> = (0..8).map(|_| store.allocate().unwrap()).collect();
    assert_eq!(store.cache_stats().hits + store.cache_stats().misses, 0);
    assert_eq!(obs_hits_misses(), (0, 0));

    let stats_before = store.cache_stats();
    let obs_before = obs_hits_misses();
    let mut accesses = 0;
    // The last four allocated pages are resident, the first four were
    // evicted: four misses (each evicting a resident page), then hits on
    // what those loads brought in.
    for &p in &pages[..4] {
        store.write(p, |b| b.write_u64(0, p.0)).unwrap();
        accesses += 1;
    }
    for &p in &pages[..4] {
        assert_eq!(store.read(p, |b| b.read_u64(0)).unwrap(), p.0);
        accesses += 1;
    }
    // free + allocate-from-free-list: one access each.
    store.free(pages[0]).unwrap();
    assert_eq!(store.allocate().unwrap(), pages[0]);
    accesses += 2;
    // free_list walks nothing (the list is empty again).
    assert!(store.free_list().unwrap().is_empty());
    // One more miss: page 7 was evicted by the loads above.
    store.read(pages[7], |_| ()).unwrap();
    accesses += 1;

    let stats = store.cache_stats();
    let delta = (
        stats.hits - stats_before.hits,
        stats.misses - stats_before.misses,
    );
    let obs_after = obs_hits_misses();
    assert_eq!(delta, (6, 5));
    assert_eq!(delta.0 + delta.1, accesses);
    assert_eq!(
        (obs_after.0 - obs_before.0, obs_after.1 - obs_before.1),
        delta
    );
}
