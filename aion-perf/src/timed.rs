//! The measured window: closed-loop load with tracing off. A caller of a
//! DBMS waits for its reply, so each connection sends its next request only
//! after the previous one completed.
//!
//! A read-only workload loads the one CPU the run is pinned to from one
//! connection, which cycles through a fixed, seed-generated list of distinct
//! operations. `mixed_rw` has two connections: a writer of single-statement
//! durable commits and a reader that follows it (it reads what was written
//! last, so its operations do not repeat).
//!
//! What the window reports is plain: operations completed per second of the
//! window, and quantiles over every latency sample. On this sandbox those
//! numbers move by a third with the host's phases, so one more is kept
//! beside them under its own name: the *undisturbed* read latency, the lower
//! decile of each distinct operation's repetitions, averaged over the list.
//! It is what a read costs when nothing else gets in its way — which means
//! it cannot see a stall that hits fewer than nine in ten repetitions. It is
//! there to compare two commits on a noisy host, not to describe service.

use crate::dataset::{cycle_ops, write_op, Dataset, Op, OpGen, OpKind, Workload};
use crate::report::Metrics;
use crate::stats::{quantile_sorted, quantile_us};
use crate::sut::{Sut, CLIENTS};
use aion_server::Client;
use query::{QueryResult, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Samples a 99th percentile needs before it is reported: ten beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// One successful operation that started inside the window. (Kept small:
/// a window holds a third of a million of them, and what they take shows in
/// `peak_rss_mb` in proportion to how fast the run happened to be.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub latency_ns: u64,
    /// Which distinct operation of the connection's list it was — or, where
    /// operations do not repeat, which kind.
    pub slot: u32,
}

/// What one kind of operation (reads or writes) measured in a window.
#[derive(Default)]
pub struct Samples {
    pub all: Vec<Sample>,
    /// How many of them were also answered inside the window.
    pub answered_in_window: u64,
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    samples: Samples,
    attempted: u64,
    failed: u64,
    writes_issued: u64,
    acked: Vec<Op>,
}

/// What a window measured, over all connections.
#[derive(Default)]
pub struct WindowResult {
    pub seconds: f64,
    pub reads: Samples,
    pub writes: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Writes sent, acknowledged or not: how far the write sequence moved.
    pub writes_issued: u64,
    /// Acknowledged writes, in commit order.
    pub acked: Vec<Op>,
}

fn latencies(samples: &Samples) -> Vec<u64> {
    samples.all.iter().map(|s| s.latency_ns).collect()
}

/// The 99th percentile, microseconds; 0 with too few samples to have one.
fn p99_us(latencies_ns: &[u64]) -> f64 {
    if latencies_ns.len() < P99_MIN_SAMPLES {
        0.0
    } else {
        quantile_us(latencies_ns, 0.99)
    }
}

/// Mean over the slots of the lower decile of each slot's latencies,
/// microseconds.
fn undisturbed_us(samples: &[Sample]) -> f64 {
    let slots = samples.iter().map(|s| s.slot + 1).max().unwrap_or(0);
    let mut by_slot: Vec<Vec<f64>> = vec![Vec::new(); slots as usize];
    for s in samples {
        by_slot[s.slot as usize].push(s.latency_ns as f64 / 1e3);
    }
    let costs: Vec<f64> = by_slot
        .into_iter()
        .filter(|reps| !reps.is_empty())
        .map(|mut reps| {
            reps.sort_by(f64::total_cmp);
            quantile_sorted(&reps, 0.1)
        })
        .collect();
    if costs.is_empty() {
        0.0
    } else {
        costs.iter().sum::<f64>() / costs.len() as f64
    }
}

impl WindowResult {
    /// The `client.*` metrics of the window. The write metrics are 0 on a
    /// read-only workload: no connection writes.
    pub fn metrics(&self) -> Metrics {
        let (reads, writes) = (latencies(&self.reads), latencies(&self.writes));
        let per_s = |answered: u64| answered as f64 / self.seconds;
        Metrics::from([
            (
                "client.ops_per_s",
                per_s(self.reads.answered_in_window + self.writes.answered_in_window),
            ),
            ("client.read_p50_us", quantile_us(&reads, 0.5)),
            ("client.read_p99_us", p99_us(&reads)),
            (
                "client.read_undisturbed_us",
                undisturbed_us(&self.reads.all),
            ),
            ("client.writes_per_s", per_s(self.writes.answered_in_window)),
            ("client.write_p50_us", quantile_us(&writes, 0.5)),
            ("client.write_p99_us", p99_us(&writes)),
        ])
    }
}

/// A cheap structural check on every timed answer (the full comparison with
/// the oracle runs before timing, on the first operations of the workload).
pub fn plausible(op: &Op, result: &QueryResult) -> bool {
    let first = result.rows.first().and_then(|r| r.first());
    match op.kind {
        OpKind::NodeAt | OpKind::RelAt | OpKind::NodeLatest => {
            result.rows.len() == 1 && first.and_then(Value::entity_id) == Some(op.id)
        }
        OpKind::CountAt => first.and_then(Value::as_int).is_some_and(|n| n > 0),
        OpKind::Create | OpKind::SetTouched => first.and_then(Value::as_int) == Some(1),
        OpKind::Expand2 | OpKind::Hop1Latest => result
            .rows
            .iter()
            .all(|r| r.len() == 1 && r[0].as_int().is_some()),
    }
}

/// Sends the operations `next` yields — each with the slot its latency is
/// filed under — one after the other until one ends after `end`; records
/// those that start after `measure_from`.
fn closed_loop(
    client: &mut Client,
    measure_from: Instant,
    end: Instant,
    mut next: impl FnMut() -> (usize, Op),
) -> ConnResult {
    let mut out = ConnResult::default();
    loop {
        let (slot, op) = next();
        out.writes_issued += u64::from(op.kind.is_write());
        let start = Instant::now();
        let result = client.run(&op.text, op.params.clone());
        let done = Instant::now();
        let ok = result.as_ref().is_ok_and(|r| plausible(&op, r));
        if start >= measure_from {
            out.attempted += 1;
            if ok {
                out.samples.all.push(Sample {
                    latency_ns: (done - start).as_nanos() as u64,
                    slot: slot as u32,
                });
                out.samples.answered_in_window += u64::from(done <= end);
            } else {
                out.failed += 1;
            }
        }
        if ok && op.kind.is_write() {
            out.acked.push(op);
        }
        if done >= end {
            break;
        }
    }
    // A reconnect means a request failed in transport and was retried.
    out.failed += client.reconnect_count();
    out
}

/// One warm-up plus measured window of `workload`. `first_write` is the
/// index of the next unused write of the `mixed_rw` write sequence; the
/// reader reads what was written before it.
pub fn run_window(
    sut: &Sut,
    data: &Dataset,
    workload: Workload,
    cycle: usize,
    warmup_s: f64,
    seconds: f64,
    first_write: u64,
) -> WindowResult {
    // Everything runs on one CPU, so a read-only workload loads it from one
    // connection: a second one would only time-slice with the first, and
    // its operations would take one or two turns at random. `mixed_rw` has
    // its two roles; the writer mostly waits for the disk.
    let connections = if workload.mutates() { CLIENTS } else { 1 };
    let mut clients: Vec<Client> = (0..connections).map(|_| sut.connect()).collect();
    let measure_from = Instant::now() + Duration::from_secs_f64(warmup_s);
    let end = measure_from + Duration::from_secs_f64(seconds);
    // Writes acknowledged so far: `mixed_rw`'s reader reads the latest.
    let progress = AtomicU64::new(first_write);
    let conns: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let progress = &progress;
                scope.spawn(move || {
                    if workload.mutates() && conn == 0 {
                        // The writer: single-statement durable commits, a
                        // creation and a property set in turn. Its previous
                        // write was acknowledged when it asks for the next.
                        let mut j = first_write;
                        closed_loop(client, measure_from, end, || {
                            progress.store(j, Ordering::Release);
                            j += 1;
                            let op = write_op(data, j - 1);
                            (usize::from(op.kind == OpKind::SetTouched), op)
                        })
                    } else if workload.mutates() {
                        let mut gen = OpGen::new(data, workload, conn as u64);
                        closed_loop(client, measure_from, end, || {
                            let op = gen.next_read(progress.load(Ordering::Acquire));
                            (usize::from(op.kind == OpKind::Hop1Latest), op)
                        })
                    } else {
                        let ops = cycle_ops(data, workload, conn as u64, cycle, first_write);
                        let mut i = 0;
                        closed_loop(client, measure_from, end, || {
                            i += 1;
                            ((i - 1) % ops.len(), ops[(i - 1) % ops.len()].clone())
                        })
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut out = WindowResult {
        seconds,
        ..Default::default()
    };
    for (conn, c) in conns.into_iter().enumerate() {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.writes_issued += c.writes_issued;
        if workload.mutates() && conn == 0 {
            out.writes = c.samples;
            out.acked = c.acked;
        } else {
            out.reads.all.extend(c.samples.all);
            out.reads.answered_in_window += c.samples.answered_in_window;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(slot: u32, latencies_ns: &[u64]) -> Vec<Sample> {
        latencies_ns
            .iter()
            .map(|&latency_ns| Sample { latency_ns, slot })
            .collect()
    }

    #[test]
    fn the_window_reports_what_happened_in_it() {
        // Operation 0 takes 10 us when left alone and was stalled twice;
        // operation 1 takes 30 us. The last reply came after the window.
        let mut reads = samples(0, &[10_000, 10_000, 10_000, 55_000, 10_000, 90_000, 10_000]);
        reads.extend(samples(1, &[30_000, 30_000, 31_000, 30_000]));
        let w = WindowResult {
            seconds: 2.0,
            reads: Samples {
                all: reads,
                answered_in_window: 10,
            },
            writes: Samples {
                all: samples(0, &[400_000, 600_000]),
                answered_in_window: 2,
            },
            ..Default::default()
        };
        let m = w.metrics();
        // Ten reads and two writes were answered within the two seconds.
        assert_eq!(m["client.ops_per_s"], 6.0);
        assert_eq!(m["client.writes_per_s"], 1.0);
        // The stalls count: the median is over all eleven read latencies.
        assert_eq!(m["client.read_p50_us"], 30.0);
        assert_eq!(m["client.write_p50_us"], 500.0);
        // Too few samples for a 99th percentile.
        assert_eq!(m["client.read_p99_us"], 0.0);
        // The undisturbed latency does not see them: (10 + 30) / 2.
        assert_eq!(m["client.read_undisturbed_us"], 20.0);
    }

    #[test]
    fn a_p99_needs_a_thousand_samples() {
        let latencies: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        assert!((p99_us(&latencies) - 990.01).abs() < 1e-9);
        assert_eq!(p99_us(&latencies[..999]), 0.0);
    }

    #[test]
    fn an_empty_window_reports_zeros() {
        let m = WindowResult {
            seconds: 1.0,
            ..Default::default()
        }
        .metrics();
        assert!(m.values().all(|v| *v == 0.0));
    }
}
