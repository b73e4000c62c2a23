//! Micro-benchmarks of the variable-size record codec (Fig. 3) and the
//! snapshot serializer.

use criterion::{criterion_group, criterion_main, Criterion};
use encoding::{snapshot, RecordBody};
use lpg::{Graph, NodeId, PropertyValue, RelId, StrId, Update};

fn sample_body() -> RecordBody {
    RecordBody::NodeFull {
        labels: vec![StrId::new(1), StrId::new(2)],
        props: vec![
            (StrId::new(0), PropertyValue::Int(42)),
            (StrId::new(1), PropertyValue::Float(2.5)),
            (StrId::new(2), PropertyValue::Str(StrId::new(99))),
        ],
    }
}

fn sample_graph(n: u64) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.apply(&Update::AddNode {
            id: NodeId::new(i),
            labels: vec![StrId::new((i % 4) as u32)],
            props: vec![(StrId::new(0), PropertyValue::Int(i as i64))],
        })
        .unwrap();
    }
    for i in 0..n * 4 {
        g.apply(&Update::AddRel {
            id: RelId::new(i),
            src: NodeId::new(i % n),
            tgt: NodeId::new((i * 13 + 1) % n),
            label: Some(StrId::new(9)),
            props: vec![(StrId::new(1), PropertyValue::Float(i as f64))],
        })
        .unwrap();
    }
    g
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("encoding");

    let body = sample_body();
    g.bench_function("record_encode", |b| {
        b.iter(|| std::hint::black_box(body.to_bytes()))
    });

    let bytes = body.to_bytes();
    g.bench_function("record_decode", |b| {
        b.iter(|| std::hint::black_box(RecordBody::from_bytes(&bytes).unwrap()))
    });

    g.bench_function("composite_key", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(encoding::keys::neigh_key(
                NodeId::new(i),
                NodeId::new(i * 3),
                RelId::new(i),
                i,
            ))
        })
    });

    let graph = sample_graph(2_000);
    g.bench_function("snapshot_encode_10k_entities", |b| {
        b.iter(|| std::hint::black_box(snapshot::encode(&graph, 1, None, |_| true).0.len()))
    });

    let (blob, manifest) = snapshot::encode(&graph, 1, None, |_| true);
    g.bench_function("snapshot_decode_10k_entities", |b| {
        b.iter(|| {
            let graph = snapshot::decode(&manifest, &blob, |_, _| None).unwrap();
            std::hint::black_box(graph.node_count())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
