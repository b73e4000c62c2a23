//! Ingestion micro-benchmarks (Fig. 9): the cost of feeding one batched
//! commit through each store configuration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lineagestore::{LineageStore, LineageStoreConfig};
use tempfile::tempdir;
use timestore::{SnapshotPolicy, TimeStore, TimeStoreConfig};
use workload::datasets;

fn bench(c: &mut Criterion) {
    let spec = datasets::by_name("WikiTalk").unwrap().scaled(0.001);
    let w = workload::generate(spec, 11);
    let batches: Vec<(u64, Vec<lpg::Update>)> = w.batches(1_000).collect();

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);

    g.bench_function("timestore_full_load", |b| {
        b.iter_batched(
            || tempdir().unwrap(),
            |dir| {
                let ts = TimeStore::open(
                    dir.path().join("ts"),
                    TimeStoreConfig {
                        cache_pages: 2048,
                        policy: SnapshotPolicy::EveryNOps(5_000),
                        graphstore_bytes: 32 << 20,
                        ..Default::default()
                    },
                )
                .unwrap();
                for (t, ops) in &batches {
                    ts.append_commit(*t, ops).unwrap();
                }
            },
            BatchSize::PerIteration,
        )
    });

    g.bench_function("lineagestore_full_load", |b| {
        b.iter_batched(
            || tempdir().unwrap(),
            |dir| {
                let ls = LineageStore::open(
                    dir.path().join("ls.db"),
                    LineageStoreConfig {
                        cache_pages: 2048,
                        chain_threshold: Some(4),
                        ..Default::default()
                    },
                )
                .unwrap();
                for (t, ops) in &batches {
                    ls.apply_commit(*t, ops).unwrap();
                }
            },
            BatchSize::PerIteration,
        )
    });

    g.bench_function("graph_full_load", |b| {
        b.iter(|| {
            let mut graph = lpg::Graph::new();
            for u in &w.updates {
                graph.apply(&u.op).unwrap();
            }
            std::hint::black_box(graph.rel_count())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
