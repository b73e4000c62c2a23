//! The aviation network of the paper's Fig. 2: airports as nodes, flights
//! as relationships whose validity interval is `[departure, arrival)`.
//! Computes earliest-arrival and latest-departure temporal paths with the
//! single-scan algorithms (no joins across snapshots), and asserts the
//! answers the schedule implies.
//!
//! ```text
//! cargo run --example flight_network
//! ```

use aion::{Aion, AionConfig};
use algo::{earliest_arrival, latest_departure};
use lpg::{NodeId, PropertyValue, RelId, Timestamp};
use std::collections::HashMap;

const AIRPORTS: [&str; 5] = ["AMS", "LHR", "JFK", "SFO", "NRT"];

/// A path result as `(airport, time)` pairs in airport order.
fn by_airport(times: &HashMap<NodeId, Timestamp>) -> Vec<(&'static str, Timestamp)> {
    let mut out: Vec<_> = times.iter().map(|(n, &t)| (n.index(), t)).collect();
    out.sort_unstable();
    out.into_iter().map(|(i, t)| (AIRPORTS[i], t)).collect()
}

fn main() -> lpg::Result<()> {
    let dir = tempfile::tempdir().expect("tempdir");
    let db = Aion::open(AionConfig::new(dir.path()))?;
    let airport = db.intern("Airport");
    let code = db.intern("code");

    // Airports exist from the start.
    for (i, name) in AIRPORTS.iter().enumerate() {
        db.write(|txn| {
            txn.add_node(
                NodeId::new(i as u64),
                vec![airport],
                vec![(code, PropertyValue::Str(db.intern(name)))],
            )
        })?;
    }

    // Flights: (id, from, to, departure, arrival). Commit timestamps model
    // the flight's validity: the relationship is inserted at departure and
    // deleted at arrival, exactly the Fig. 2 annotation.
    let flights: &[(u64, usize, usize, u64, u64)] = &[
        (0, 0, 1, 10, 12), // AMS→LHR dep 10 arr 12
        (1, 1, 2, 14, 21), // LHR→JFK dep 14 arr 21
        (2, 0, 2, 11, 20), // AMS→JFK direct, dep 11 arr 20
        (3, 2, 3, 23, 29), // JFK→SFO dep 23 arr 29
        (4, 2, 3, 21, 27), // JFK→SFO earlier, dep 21 arr 27 (tight!)
        (5, 3, 4, 30, 41), // SFO→NRT dep 30 arr 41
        (6, 1, 4, 15, 27), // LHR→NRT direct, dep 15 arr 27
    ];
    // Build the flight schedule as graph history: a flight's relationship
    // is inserted at its departure time and deleted at its arrival time,
    // committed with `write_at` so system time equals flight time — exactly
    // the Fig. 2 interval annotation.
    // (timestamp, flight id, Some(endpoints) = departure / None = arrival)
    type FlightEvent = (u64, u64, Option<(usize, usize)>);
    let mut events: Vec<FlightEvent> = Vec::new();
    for &(id, from, to, dep, arr) in flights {
        events.push((dep, id, Some((from, to))));
        events.push((arr, id, None));
    }
    events.sort();
    // Events sharing a timestamp commit in one transaction.
    let flight_label = db.intern("FLIGHT");
    for group in events.chunk_by(|a, b| a.0 == b.0) {
        let ts = group[0].0;
        db.write_at(ts, |txn| {
            for (_, id, action) in group {
                match action {
                    Some((from, to)) => txn.add_rel(
                        RelId::new(*id),
                        NodeId::new(*from as u64),
                        NodeId::new(*to as u64),
                        Some(flight_label),
                        vec![],
                    )?,
                    None => txn.delete_rel(RelId::new(*id))?,
                }
            }
            Ok(())
        })?;
    }

    let tg = db.get_temporal_graph(1, 100)?;
    println!(
        "schedule: {} airports, {} flight intervals\n",
        tg.nodes.len(),
        tg.rels.len()
    );

    // Earliest arrival from AMS starting at t=10. SFO is reached at 27
    // only by the tight JFK connection (arrive 20, leave 21).
    let ea = by_airport(&earliest_arrival(&tg, NodeId::new(0), 10));
    println!("earliest arrival from AMS (start t=10):");
    for (name, at) in &ea {
        println!("  {name:<4} t = {at}");
    }
    let want = [
        ("AMS", 10),
        ("LHR", 12),
        ("JFK", 20),
        ("SFO", 27),
        ("NRT", 27),
    ];
    assert_eq!(ea, want, "earliest arrival");

    // Latest departure to reach NRT by t=45.
    let ld = by_airport(&latest_departure(&tg, NodeId::new(4), 45));
    println!("\nlatest departure reaching NRT by t=45:");
    for (name, at) in &ld {
        println!("  {name:<4} leave by t = {at}");
    }
    let want = [
        ("AMS", 11),
        ("LHR", 15),
        ("JFK", 23),
        ("SFO", 30),
        ("NRT", 45),
    ];
    assert_eq!(ld, want, "latest departure");

    // Contrast: the graph "as of" a time point only sees in-air flights:
    // AMS→JFK, LHR→JFK and LHR→NRT.
    let mid = db.get_graph_at(15)?;
    println!("\nsnapshot at t=15: {} flights in the air", mid.rel_count());
    assert_eq!(mid.rel_count(), 3, "flights in the air at t=15");
    Ok(())
}
