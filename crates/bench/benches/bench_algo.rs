//! Algorithm micro-benchmarks (Fig. 12 shape): static vs incremental
//! execution on a snapshot step.

use algo::aggregate::{avg_rel_property, IncrementalAvg};
use algo::bfs::{bfs_levels, IncrementalBfs};
use algo::pagerank::{pagerank, IncrementalPageRank, PageRankConfig};
use algo::Csr;
use criterion::{criterion_group, criterion_main, Criterion};
use lpg::{Direction, Graph, NodeId, StrId, TimestampedUpdate};
use workload::datasets;

fn bench(c: &mut Criterion) {
    let spec = datasets::by_name("Pokec").unwrap().scaled(0.0005);
    let w = workload::generate(spec, 5);
    let half = w.updates.len() / 2;
    let mut graph = Graph::new();
    for u in &w.updates[..half] {
        graph.apply(&u.op).unwrap();
    }
    // One increment: the next 1% of updates.
    let inc: Vec<TimestampedUpdate> = w.updates[half..half + w.updates.len() / 100].to_vec();
    let mut after = graph.clone();
    for u in &inc {
        after.apply(&u.op).unwrap();
    }
    let weight = StrId::new(2);
    let src = NodeId::new(0);

    let mut g = c.benchmark_group("algorithms");
    g.sample_size(10);

    g.bench_function("avg_scratch", |b| {
        b.iter(|| std::hint::black_box(avg_rel_property(&after, weight)))
    });
    g.bench_function("avg_incremental_step", |b| {
        let base = IncrementalAvg::from_graph(&graph, weight);
        b.iter(|| {
            let mut agg = base.clone();
            agg.apply_diff(&inc);
            std::hint::black_box(agg.value())
        })
    });

    g.bench_function("bfs_scratch", |b| {
        b.iter(|| std::hint::black_box(bfs_levels(&after, src).len()))
    });
    g.bench_function("bfs_incremental_step", |b| {
        b.iter(|| {
            let mut engine = IncrementalBfs::new(&graph, src);
            engine.apply_diff(&after, &inc);
            std::hint::black_box(engine.levels().len())
        })
    });

    let pr_cfg = PageRankConfig::default();
    g.bench_function("pagerank_scratch", |b| {
        let csr = Csr::project(&after, Direction::Outgoing, None);
        b.iter(|| std::hint::black_box(pagerank(&csr, pr_cfg).iterations))
    });
    g.bench_function("pagerank_incremental_step", |b| {
        b.iter(|| {
            let mut engine = IncrementalPageRank::new(pr_cfg);
            engine.run(&graph);
            std::hint::black_box(engine.run(&after).len())
        })
    });

    g.bench_function("csr_projection", |b| {
        b.iter(|| {
            std::hint::black_box(Csr::project(&after, Direction::Outgoing, None).edge_count())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
