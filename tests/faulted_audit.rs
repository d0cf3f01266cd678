//! Replica-set invariant and request conservation on a faulted run.
//!
//! One host crashes and recovers, another crashes for good and is
//! declared dead, and every object must be kept at two live replicas —
//! so the run crosses purges, re-replication and the primary-fallback
//! path, which is where a drop the directory was never told about, or
//! a request that is neither served nor failed, would slip through.
//! The arrivals are a recorded trace that stops ten simulated seconds
//! before the run does, so no request is still in flight at the end and
//! conservation is an equality.

use radar::core::Params;
use radar::obs::{Event, EventKind, InvariantAuditor};
use radar::sim::{FaultSpec, Observer, Scenario, ScenarioBuilder, Simulation};
use radar::workload::ZipfReeds;
use std::sync::{Arc, Mutex};

const OBJECTS: u32 = 200;

#[derive(Default)]
struct Audit {
    auditor: InvariantAuditor,
    arrived: u64,
    served: u64,
    failed: u64,
}

#[derive(Clone, Default)]
struct SharedAudit(Arc<Mutex<Audit>>);

impl Observer for SharedAudit {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event) {
        let mut audit = self.0.lock().expect("audit lock");
        audit.auditor.fold(event);
        match event.kind {
            EventKind::RequestArrived { .. } => audit.arrived += 1,
            EventKind::RequestServed { .. } => audit.served += 1,
            EventKind::RequestFailed { .. } => audit.failed += 1,
            _ => {}
        }
    }
}

fn scenario(duration: f64) -> ScenarioBuilder {
    let params = Params {
        placement_period: 10.0,
        measurement_interval: 2.0,
        ..Params::paper()
    };
    Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(4.0)
        .duration(duration)
        .seed(7)
}

#[test]
fn faulted_run_keeps_the_invariant_and_conserves_requests() {
    let mut recording = Simulation::new(
        scenario(50.0).build().expect("valid"),
        Box::new(ZipfReeds::new(OBJECTS)),
    );
    recording.record_trace();
    let trace = recording.run().trace.expect("recording was enabled");
    let arrivals = trace.len() as u64;

    let faults = FaultSpec::new()
        .with_declare_dead_after(8.0)
        .with_min_replicas(2)
        .host_down(5, 6.0, Some(30.0))
        .host_down(12, 14.0, None);
    let audit = SharedAudit::default();
    let mut sim = Simulation::replay(scenario(60.0).faults(faults).build().expect("valid"), trace)
        .expect("recorded in this scenario");
    sim.attach_observer(Box::new(audit.clone()));
    let report = sim.run();

    let audit = audit.0.lock().expect("audit lock");
    assert_eq!(audit.auditor.violations(), &[], "replica-set invariant");
    assert_eq!(audit.arrived, arrivals, "every trace entry arrives");
    assert_eq!(
        audit.arrived,
        audit.served + audit.failed,
        "arrived {} != served {} + failed {}",
        audit.arrived,
        audit.served,
        audit.failed
    );
    assert_eq!(
        (report.total_requests, report.failed_requests),
        (audit.served, audit.failed),
        "the report counts what the event feed shows"
    );
    // The scenario must actually reach the paths it is here for.
    assert!(audit.failed > 0, "no request met a crashed host");
    assert!(report.re_replications > 0, "the dead host's objects moved");
}
