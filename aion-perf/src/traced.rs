//! The traced pass: a fixed-count prefix of a workload's operation list,
//! replayed by one client at successive public entry points, innermost level
//! first, with spans and counts recorded from this file.
//!
//! Levels (each is the same operation entered one layer further out):
//!
//! * store — `LineageStore::{node_at, rel_at, expand, rels_at}` /
//!   `TimeStore::snapshot_at`
//! * core — `Aion::{get_node, get_relationship, expand, get_graph_at,
//!   get_relationships, write}`
//! * in-process — `encode_request → decode_request → query::parse →
//!   query::run → encode_response → decode_response`, as nested spans
//! * client — `Client::run` over loopback
//!
//! A layer's self time is its level's median minus the next level's.

use crate::bench::Bench;
use crate::dataset::{single_client_ops, Op, OpKind, Workload, KEY_TOUCHED, LABEL_CLIENT};
use crate::report::Metrics;
use crate::span::per_op;
use crate::stats::median_us;
use crate::timed::plausible;
use crate::tracing_vfs::IoCounts;
use aion_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use lpg::{Direction, NodeId, PropertyValue, RelId};
use obs::MetricsSnapshot;
use query::Params;
use std::collections::BTreeMap;
use std::time::Instant;

/// Durations one level measured, nanoseconds.
#[derive(Default)]
struct Level {
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Reads split by what they ask for.
    by_kind: BTreeMap<&'static str, Vec<u64>>,
    wall_s: f64,
}

impl Level {
    fn push(&mut self, op: &Op, ns: u64) {
        if op.kind.is_write() {
            self.writes.push(ns);
        } else {
            self.reads.push(ns);
            self.by_kind
                .entry(kind_group(op.kind))
                .or_default()
                .push(ns);
        }
    }

    fn read_us(&self) -> f64 {
        median_us(&self.reads)
    }

    fn kind_us(&self, group: &str) -> f64 {
        self.by_kind.get(group).map_or(0.0, |v| median_us(v))
    }
}

/// Which store-level metric a read kind feeds.
fn kind_group(kind: OpKind) -> &'static str {
    match kind {
        OpKind::NodeAt | OpKind::NodeLatest => "node_at",
        OpKind::RelAt => "rel_at",
        OpKind::Expand2 | OpKind::Hop1Latest => "expand",
        OpKind::CountAt => "snapshot_at",
        OpKind::Create | OpKind::SetTouched => "write",
    }
}

/// The `AS OF` time of a read; latest-time reads resolve it now.
fn read_time(bench: &Bench, op: &Op) -> u64 {
    match op.kind {
        OpKind::NodeLatest | OpKind::Hop1Latest => bench.sut().db.latest_ts(),
        _ => op.t,
    }
}

/// Commits a write operation through the embedded API.
fn embedded_write(bench: &Bench, op: &Op) {
    let id = NodeId::new(op.id);
    bench
        .sut()
        .db
        .write(|txn| match op.kind {
            OpKind::Create => txn.add_node(id, vec![LABEL_CLIENT], vec![]),
            _ => txn.set_node_prop(id, KEY_TOUCHED, PropertyValue::Int(op.value)),
        })
        .expect("a generated write commits");
}

fn store_level(bench: &mut Bench, ops: &[Op]) -> Level {
    let mut level = Level::default();
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if op.kind.is_write() {
            // Not a store-level call; committed untimed so that the reads
            // that follow see the state the other levels see.
            embedded_write(bench, op);
            bench.acknowledge(op);
            continue;
        }
        let db = &bench.sut().db;
        let t = read_time(bench, op);
        let (name, id) = (store_span_name(op.kind), op.id);
        let span = bench.tracer.open(name, None, i as u32);
        match op.kind {
            OpKind::NodeAt | OpKind::NodeLatest => {
                std::hint::black_box(db.lineagestore().node_at(NodeId::new(id), t).ok());
            }
            OpKind::RelAt => {
                std::hint::black_box(db.lineagestore().rel_at(RelId::new(id), t).ok());
            }
            OpKind::Expand2 => {
                // The expansion and, as the executor asks for each hit when
                // it builds rows, the hit's node.
                let store = db.lineagestore();
                let hits = store.expand(NodeId::new(id), Direction::Outgoing, 2, t);
                for hit in hits.iter().flatten() {
                    std::hint::black_box(store.node_at(hit.node.id, t).ok());
                }
            }
            OpKind::Hop1Latest => {
                std::hint::black_box(
                    db.lineagestore()
                        .rels_at(NodeId::new(id), Direction::Outgoing, t)
                        .ok(),
                );
            }
            OpKind::CountAt => {
                std::hint::black_box(db.timestore().snapshot_at(t).ok());
            }
            OpKind::Create | OpKind::SetTouched => unreachable!("writes are handled above"),
        }
        level.push(op, bench.tracer.close(span));
    }
    level.wall_s = began.elapsed().as_secs_f64();
    level
}

fn store_span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::NodeAt | OpKind::NodeLatest => "lineagestore.node_at",
        OpKind::RelAt => "lineagestore.rel_at",
        OpKind::Expand2 => "lineagestore.expand",
        OpKind::Hop1Latest => "lineagestore.rels_at",
        OpKind::CountAt => "timestore.snapshot_at",
        OpKind::Create | OpKind::SetTouched => "core.write",
    }
}

fn core_span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::NodeAt | OpKind::NodeLatest => "core.get_node",
        OpKind::RelAt => "core.get_relationship",
        OpKind::Expand2 => "core.expand",
        OpKind::Hop1Latest => "core.get_relationships",
        OpKind::CountAt => "core.get_graph_at",
        OpKind::Create | OpKind::SetTouched => "core.write",
    }
}

/// The core level; also counts the reads the LineageStore served (those
/// during which the TimeStore's snapshot lookup counters did not move).
fn core_level(bench: &mut Bench, ops: &[Op]) -> (Level, f64) {
    let mut level = Level::default();
    let lookups = [
        obs::counter("timestore.graphstore.hits"),
        obs::counter("timestore.graphstore.misses"),
    ];
    let snapshot_lookups = || lookups.iter().map(|c| c.get()).sum::<u64>();
    let mut lineage_served = 0u64;
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let span = bench.tracer.open(core_span_name(op.kind), None, i as u32);
        if op.kind.is_write() {
            embedded_write(bench, op);
            level.push(op, bench.tracer.close(span));
            bench.acknowledge(op);
            continue;
        }
        let db = &bench.sut().db;
        let t = read_time(bench, op);
        let before = snapshot_lookups();
        match op.kind {
            OpKind::NodeAt | OpKind::NodeLatest => {
                std::hint::black_box(db.get_node(NodeId::new(op.id), t, t + 1).ok());
            }
            OpKind::RelAt => {
                std::hint::black_box(db.get_relationship(RelId::new(op.id), t, t + 1).ok());
            }
            OpKind::Expand2 => {
                let hits = db.expand(NodeId::new(op.id), Direction::Outgoing, 2, t);
                for (node, _) in hits.iter().flatten() {
                    std::hint::black_box(db.get_node(*node, t, t).ok());
                }
            }
            OpKind::Hop1Latest => {
                std::hint::black_box(
                    db.get_relationships(NodeId::new(op.id), Direction::Outgoing, t, t + 1)
                        .ok(),
                );
            }
            OpKind::CountAt => {
                std::hint::black_box(db.get_graph_at(t).ok());
            }
            OpKind::Create | OpKind::SetTouched => unreachable!("writes are handled above"),
        }
        level.push(op, bench.tracer.close(span));
        if snapshot_lookups() == before {
            lineage_served += 1;
        }
    }
    level.wall_s = began.elapsed().as_secs_f64();
    let frac = per_op(lineage_served as f64, level.reads.len() as u64);
    (level, frac)
}

/// What the in-process level measured beyond the whole request.
#[derive(Default)]
struct InProcess {
    whole: Level,
    codec: Level,
    parse: Level,
    run: Level,
    req_bytes: u64,
    resp_bytes: u64,
    rows: u64,
}

/// Times `f` as a child span of `parent`.
fn child<R>(
    bench: &Bench,
    name: &'static str,
    parent: Option<u32>,
    request: u32,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let span = bench.tracer.open(name, parent, request);
    let result = f();
    (result, bench.tracer.close(span))
}

fn in_process_level(bench: &mut Bench, ops: &[Op]) -> InProcess {
    let mut out = InProcess::default();
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let r = i as u32;
        let root = bench.tracer.open("inproc", None, r);
        let p = root.id();
        let request = Request::Run {
            query: op.text.clone(),
            params: op.params.clone(),
            min_watermark: 0,
            page_size: 0,
            cursor: None,
        };
        let (wire, enc_req) = child(bench, "protocol.encode_request", p, r, || {
            encode_request(&request)
        });
        let (decoded, dec_req) = child(bench, "protocol.decode_request", p, r, || {
            decode_request(&wire).expect("own request decodes")
        });
        let Request::Run { query, params, .. } = decoded else {
            unreachable!("a Run request decodes to a Run request");
        };
        let params: Params = params.into_iter().collect();
        let (parsed, parse_ns) = child(bench, "query.parse", p, r, || {
            query::parse(&query).expect("generated queries parse")
        });
        let db = &bench.sut().db;
        let (result, run_ns) = child(bench, "query.run", p, r, || {
            query::exec::run(db, &parsed, &params).expect("generated queries run")
        });
        out.rows += result.rows.len() as u64;
        let response = Response::Ok {
            result,
            watermark: db.latest_ts(),
            cursor: None,
        };
        let (wire_back, enc_resp) = child(bench, "protocol.encode_response", p, r, || {
            encode_response(&response)
        });
        let (_, dec_resp) = child(bench, "protocol.decode_response", p, r, || {
            decode_response(&wire_back).expect("own response decodes")
        });
        let whole = bench.tracer.close(root);
        out.req_bytes += wire.len() as u64;
        out.resp_bytes += wire_back.len() as u64;
        out.whole.push(op, whole);
        out.codec.push(op, enc_req + dec_req + enc_resp + dec_resp);
        out.parse.push(op, parse_ns);
        out.run.push(op, run_ns);
        if op.kind.is_write() {
            bench.acknowledge(op);
        }
    }
    out.whole.wall_s = began.elapsed().as_secs_f64();
    out
}

/// The client level. Returns the level, failures and reconnects.
fn client_level(bench: &mut Bench, ops: &[Op], span_name: &'static str) -> (Level, u64, u64) {
    let mut level = Level::default();
    let mut client = bench.sut().connect();
    let mut failed = 0;
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let span = bench.tracer.open(span_name, None, i as u32);
        let result = client.run(&op.text, op.params.clone());
        let ns = bench.tracer.close(span);
        if result.is_ok_and(|r| plausible(op, &r)) {
            level.push(op, ns);
            if op.kind.is_write() {
                bench.acknowledge(op);
            }
        } else {
            failed += 1;
        }
    }
    level.wall_s = began.elapsed().as_secs_f64();
    (level, failed, client.reconnect_count())
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// `(count, sum)` a histogram grew by.
fn histogram_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    ((c1 - c0) as f64, (s1 - s0) as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The operation list of one level. A read-only workload replays the same
/// prefix at every level, so that the difference between two levels is the
/// layer between them on identical operations; `mixed_rw` cannot commit the
/// same writes twice, so each level takes the next slice of its list.
fn level_ops(bench: &mut Bench, workload: Workload) -> Vec<Op> {
    let n = bench.sizes.traced_ops[workload.index()];
    let ops = single_client_ops(&bench.data, workload, n, bench.next_write);
    bench.next_write += ops.iter().filter(|o| o.kind.is_write()).count() as u64;
    ops
}

/// What the traced pass of one workload produced.
pub struct TracedPass {
    /// Per-layer metrics (the caller adds the probes, `trace.overhead_frac`
    /// and the untraced window's `client.*`).
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Client-level operations per second with tracing on.
    pub ops_per_s: f64,
}

/// Runs the traced pass of `workload`. Every level starts from a freshly
/// reopened database (on the counting file system), so each sees the same
/// cache state — empty page caches, a GraphStore holding only the latest
/// graph — and the counts depend on the seed alone.
pub fn traced_pass(bench: &mut Bench, workload: Workload) -> TracedPass {
    let mut reopen_s = Vec::new();
    let mut fresh_level = |bench: &mut Bench| {
        bench.tracer.set_enabled(false);
        reopen_s.push(bench.reopen(true));
        bench.tracer.set_enabled(true);
        level_ops(bench, workload)
    };
    let ops = fresh_level(bench);
    let store = store_level(bench, &ops);
    let ops = fresh_level(bench);
    let (core, lineage_frac) = core_level(bench, &ops);
    let ops = fresh_level(bench);
    let inproc = in_process_level(bench, &ops);
    let ops = fresh_level(bench);

    // Counts are taken around the client level: the whole path.
    let obs_before = bench.sut().db.metrics();
    let io_before = bench.io_counts();
    let log_before = bench.log_io_counts();
    let fsync_mark = bench.tvfs.as_ref().map_or(0, |t| t.fsync_mark());
    let (client, failed, reconnects) = client_level(bench, &ops, "client.run");
    let drain_began = Instant::now();
    let db = &bench.sut().db;
    db.lineage_barrier(db.latest_ts());
    let drain_ms = drain_began.elapsed().as_secs_f64() * 1e3;
    let obs_after = bench.sut().db.metrics();
    let io: IoCounts = bench.io_counts().since(&io_before);
    let log_io: IoCounts = bench.log_io_counts().since(&log_before);
    let fsyncs = bench
        .tvfs
        .as_ref()
        .map_or(Vec::new(), |t| t.fsync_samples_since(fsync_mark));
    bench.tracer.set_enabled(false);

    let n = ops.len() as u64;
    let commits = ops.iter().filter(|o| o.kind.is_write()).count() as f64;
    let user_bytes: u64 = ops
        .iter()
        .filter_map(|o| o.as_update())
        .map(|u| crate::dataset::encoded_len(0, &u))
        .sum();
    let delta = |name: &str| counter_delta(&obs_before, &obs_after, name);
    let hist = |name: &str| histogram_delta(&obs_before, &obs_after, name);

    let l0 = client.read_us();
    let in_process = inproc.whole.read_us();
    let (codec, parse, run) = (
        inproc.codec.read_us(),
        inproc.parse.read_us(),
        inproc.run.read_us(),
    );
    let (l4, l5) = (core.read_us(), store.read_us());
    let net_self = l0 - in_process;
    let exec_self = run - l4;
    let core_self = l4 - l5;
    let accounted = net_self + codec + parse + exec_self + core_self + l5;

    let (hits, misses) = (
        delta("pagestore.cache.hits"),
        delta("pagestore.cache.misses"),
    );
    let (gs_hits, gs_misses) = (
        delta("timestore.graphstore.hits"),
        delta("timestore.graphstore.misses"),
    );
    let (read_miss_n, read_miss_ns) = hist("pagestore.read.latency_ns");
    let (writeback_n, writeback_ns) = hist("pagestore.writeback.latency_ns");
    let (_, replay_ns) = hist("timestore.snapshot.replay.latency_ns");
    let (fanout_n, fanout_sum) = hist("lineagestore.expand.fanout");
    let (groups, grouped) = hist("core.group_commit.size");

    let mut m = Metrics::new();
    m.insert("client.l0_p50_us", l0);
    m.insert("server.net_self_us", net_self);
    m.insert("server.protocol.codec_us", codec);
    m.insert(
        "server.protocol.req_bytes_per_op",
        per_op(inproc.req_bytes as f64, n),
    );
    m.insert(
        "server.protocol.resp_bytes_per_op",
        per_op(inproc.resp_bytes as f64, n),
    );
    m.insert("server.retry_frac", per_op(reconnects as f64, n));
    m.insert("query.parse_us", parse);
    m.insert("query.exec_self_us", exec_self);
    m.insert("query.rows_per_op", per_op(inproc.rows as f64, n));
    m.insert("core.read_self_us", core_self);
    m.insert("core.planner.lineage_frac", lineage_frac);
    m.insert("core.commit_us", median_us(&core.writes));
    m.insert(
        "core.group_commit.commits_per_fsync",
        ratio(grouped, groups),
    );
    m.insert(
        "core.cascade.drain_ms",
        if commits > 0.0 { drain_ms } else { 0.0 },
    );
    m.insert("core.reopen_s", crate::stats::median(&reopen_s));
    m.insert("timestore.snapshot_at_us", store.kind_us("snapshot_at"));
    m.insert(
        "timestore.graphstore.hit_frac",
        ratio(gs_hits, gs_hits + gs_misses),
    );
    m.insert(
        "timestore.snapshot.replays_per_op",
        per_op(delta("timestore.snapshot.replays"), n),
    );
    m.insert(
        "timestore.snapshot.replay_us_per_op",
        per_op(replay_ns / 1e3, n),
    );
    m.insert(
        "timestore.log.append_bytes_per_commit",
        ratio(log_io.write_bytes as f64, commits),
    );
    m.insert("lineagestore.node_at_us", store.kind_us("node_at"));
    m.insert("lineagestore.rel_at_us", store.kind_us("rel_at"));
    m.insert("lineagestore.expand_us", store.kind_us("expand"));
    m.insert(
        "lineagestore.expand.fanout_per_op",
        ratio(fanout_sum, fanout_n),
    );
    m.insert(
        "btree.page_reads_per_op",
        per_op(delta("btree.page.reads"), n),
    );
    m.insert(
        "btree.overflow_walks_per_op",
        per_op(delta("btree.overflow.walks"), n),
    );
    m.insert("pagestore.cache.hit_frac", ratio(hits, hits + misses));
    m.insert("pagestore.cache.misses_per_op", per_op(misses, n));
    m.insert(
        "pagestore.cache.evictions_per_op",
        per_op(delta("pagestore.cache.evictions"), n),
    );
    m.insert(
        "pagestore.read_miss_us",
        ratio(read_miss_ns / 1e3, read_miss_n),
    );
    m.insert(
        "pagestore.writeback_us",
        ratio(writeback_ns / 1e3, writeback_n),
    );
    m.insert(
        "vfs.fsyncs_per_commit",
        ratio(io.fsync_calls as f64, commits),
    );
    m.insert("vfs.fsync_us_p50", median_us(&fsyncs));
    m.insert(
        "vfs.write_bytes_per_commit",
        ratio(io.write_bytes as f64, commits),
    );
    m.insert(
        "vfs.write_bytes_per_user_byte",
        ratio(io.write_bytes as f64, user_bytes as f64),
    );
    m.insert("vfs.read_calls_per_op", per_op(io.read_calls as f64, n));
    m.insert("vfs.read_bytes_per_op", per_op(io.read_bytes as f64, n));
    m.insert(
        "vfs.read_us_per_call",
        ratio(io.read_ns as f64 / 1e3, io.read_calls as f64),
    );
    m.insert("trace.unaccounted_us", l0 - accounted);
    TracedPass {
        metrics: m,
        attempted: n,
        failed,
        ops_per_s: ratio(n as f64, client.wall_s),
    }
}

/// Replays the client level once more with tracing off, from a database
/// freshly reopened on plain `StdVfs`, and returns operations per second.
/// The traced client level's rate against it is the tracing overhead.
pub fn untraced_rate(bench: &mut Bench, workload: Workload) -> f64 {
    bench.reopen(false);
    let ops = level_ops(bench, workload);
    let (level, _, _) = client_level(bench, &ops, "untraced.run");
    ratio(ops.len() as f64, level.wall_s)
}
