//! Integration tests of the fault-injection layer: graceful degradation
//! must never route a request to a crashed host, faulted runs must stay
//! seed-deterministic, and declared-dead hosts must have their objects
//! re-replicated onto live hosts.

use radar_sim::obs::{Event, EventKind};
use radar_sim::{FaultSpec, Observer, RequestRecord, Scenario, Simulation};
use radar_workload::ZipfReeds;
use std::sync::{Arc, Mutex};

const OBJECTS: u32 = 200;

/// host 5 crashes at t=100 and recovers at t=300; host 12 crashes at
/// t=200 and never comes back (declared dead 30 s later). The catalog
/// is asked to keep every object at two live replicas, so both the
/// declare-dead purge and the recovery sweep must re-replicate.
fn faulted_scenario() -> Scenario {
    Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(2.0)
        .duration(600.0)
        .seed(11)
        .faults(
            FaultSpec::new()
                .with_declare_dead_after(30.0)
                .with_min_replicas(2)
                .host_down(5, 100.0, Some(300.0))
                .host_down(12, 200.0, None),
        )
        .build()
        .expect("valid faulted scenario")
}

/// Collects every served request and fault transition for post-hoc
/// assertions.
#[derive(Default)]
struct Recorder {
    served: Vec<RequestRecord>,
    failed: u64,
    transitions: u64,
}

#[derive(Clone, Default)]
struct SharedRecorder(Arc<Mutex<Recorder>>);

impl Observer for SharedRecorder {
    fn on_request_served(&mut self, record: &RequestRecord) {
        self.0.lock().unwrap().served.push(*record);
    }

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event) {
        match event.kind {
            EventKind::RequestFailed { .. } => self.0.lock().unwrap().failed += 1,
            EventKind::Fault { .. } => self.0.lock().unwrap().transitions += 1,
            _ => {}
        }
    }
}

#[test]
fn no_request_is_served_by_a_crashed_host() {
    let recorder = SharedRecorder::default();
    let mut sim = Simulation::new(faulted_scenario(), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    let report = sim.run();

    let state = recorder.0.lock().unwrap();
    assert!(!state.served.is_empty(), "run served no requests at all");
    for r in &state.served {
        // Host 5 is down in [100, 300); host 12 from 200 on. A request
        // entering the platform inside a host's down window can never be
        // served by that host.
        assert!(
            !(r.host == 5 && (100.0..300.0).contains(&r.entered)),
            "request at t={} served by crashed host 5",
            r.entered
        );
        assert!(
            !(r.host == 12 && r.entered >= 200.0),
            "request at t={} served by crashed host 12",
            r.entered
        );
    }
    // down@100, up@300, down@200 = three scheduled transitions.
    assert_eq!(state.transitions, 3);
    assert_eq!(report.faults_injected, 3);
    assert_eq!(report.failed_requests, state.failed);
    // Graceful degradation keeps the success rate high: replicas on
    // live hosts (or the primary fallback) absorb the lost capacity.
    assert!(
        report.availability() > 0.99,
        "availability {} collapsed under two host faults",
        report.availability()
    );
    assert!(report.unavailable_object_seconds > 0.0);
}

#[test]
fn faulted_runs_are_seed_deterministic() {
    let run = || {
        Simulation::new(faulted_scenario(), Box::new(ZipfReeds::new(OBJECTS)))
            .run()
            .to_json_pretty()
    };
    assert_eq!(run(), run(), "same seed and faults must reproduce exactly");
}

#[test]
fn declared_dead_hosts_lose_their_replicas_to_live_hosts() {
    let report = Simulation::new(faulted_scenario(), Box::new(ZipfReeds::new(OBJECTS))).run();
    assert_eq!(report.final_replicas.len(), OBJECTS as usize);
    for (object, replicas) in report.final_replicas.iter().enumerate() {
        assert!(
            !replicas.is_empty(),
            "object {object} ended the run with no replicas"
        );
        assert!(
            replicas.iter().all(|&(host, _)| host != 12),
            "object {object} still lists a replica on the declared-dead host"
        );
    }
    assert!(
        report.re_replications > 0,
        "losing host 12 for good must trigger re-replication"
    );
    assert!(report.restore_time.count > 0);
}

#[test]
fn empty_fault_spec_is_bit_identical_to_no_faults() {
    let base = Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(2.0)
        .duration(300.0)
        .seed(7);
    let plain = Simulation::new(
        base.clone().build().expect("valid scenario"),
        Box::new(ZipfReeds::new(OBJECTS)),
    )
    .run();
    let with_empty = Simulation::new(
        base.faults(FaultSpec::new())
            .build()
            .expect("valid scenario"),
        Box::new(ZipfReeds::new(OBJECTS)),
    )
    .run();
    assert_eq!(plain.to_json_pretty(), with_empty.to_json_pretty());
}
