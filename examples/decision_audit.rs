//! Decision audit: capture a run's arrival trace, replay it with the
//! flight recorder attached, and explain one replication decision —
//! the full Fig. 2 table behind a redirector choice and the placement
//! thresholds behind a `geo-replicate`, reconstructed from the event
//! log alone.
//!
//! ```text
//! cargo run --release --example decision_audit
//! ```

use radar::obs::{EventKind, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{Scenario, Simulation};
use radar::workload::ZipfReeds;

const OBJECTS: u32 = 40;

fn scenario() -> Result<Scenario, radar::sim::ScenarioError> {
    // Long enough for a full placement round (period 100 s), hot
    // enough (Zipf head) that remote demand triggers geo-replication.
    Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(2.0)
        .duration(150.0)
        .seed(3)
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Run 1: an ordinary run, capturing every arrival as a trace.
    let mut sim = Simulation::new(scenario()?, Box::new(ZipfReeds::new(OBJECTS)));
    sim.record_trace();
    let report = sim.run();
    let trace = report.trace.expect("record_trace was enabled");
    println!(
        "captured {} arrivals; replaying with the flight recorder on…\n",
        trace.len()
    );

    // Run 2: replay the same arrivals with a recorder attached. The
    // recorder is an Observer; keep a clone to read the log after the
    // run consumes the simulation.
    let recorder = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
    let mut replay = Simulation::replay(scenario()?, trace)?;
    replay.attach_observer(Box::new(recorder.clone()));
    let _ = replay.run();
    let events = recorder.with(Recorder::snapshot);
    println!("recorded {} events\n", events.len());

    // Find the first geo-replication the placement algorithm performed.
    let replication = events
        .iter()
        .find(|e| {
            matches!(&e.kind, EventKind::PlacementAction(p)
                if p.action == radar_obs::PlacementActionKind::GeoReplicate)
        })
        .expect("this scenario geo-replicates its hottest objects");
    println!("=== the placement action ===\n{}", replication.explain());

    // Audit the next redirector decision for the replicated object:
    // after the copy exists, the Fig. 2 candidate table shows both
    // replicas and which branch routed the request.
    let object = replication.object().expect("placement events carry one");
    let decision = events
        .iter()
        .find(|e| {
            e.seq > replication.seq
                && e.object() == Some(object)
                && matches!(&e.kind, EventKind::Decision(d) if d.candidates.len() > 1)
        })
        .expect("the replicated object keeps being requested");
    println!(
        "=== the next multi-candidate decision for object {object} ===\n{}",
        decision.explain()
    );

    // The causal chain ties the decision back to its arrival and
    // forward to its outcome.
    if let Some(parent) = decision.parent {
        if let Some(arrival) = events.iter().find(|e| e.seq == parent) {
            println!("caused by:\n  {}", arrival.brief());
        }
    }
    if let Some(outcome) = events.iter().find(|e| e.parent == Some(decision.seq)) {
        println!("led to:\n  {}", outcome.brief());
    }
    Ok(())
}
