//! Observer hook ordering and flight-recorder determinism.
//!
//! The recorder's guarantee is that two identical seeded runs deliver
//! **byte-identical** event sequences — including under a fault
//! schedule — and that multiple observers see every hook in attachment
//! order. Both properties are what make recorded logs diffable across
//! code changes.

use radar_sim::obs::{Recorder, SharedRecorder};
use radar_sim::{FaultSpec, Observer, RequestRecord, Scenario, Simulation};
use radar_workload::ZipfReeds;
use std::sync::{Arc, Mutex};

const OBJECTS: u32 = 40;

fn scenario(faults: Option<FaultSpec>) -> Scenario {
    // 150 s covers at least one full placement round (period 100 s), so
    // the log contains placement and counts-reset events, not just the
    // request lifecycle.
    let mut builder = Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(2.0)
        .duration(150.0)
        .seed(23);
    if let Some(spec) = faults {
        builder = builder.faults(spec);
    }
    builder.build().expect("valid scenario")
}

fn faults() -> FaultSpec {
    FaultSpec::new()
        .with_declare_dead_after(20.0)
        .with_min_replicas(2)
        .host_down(5, 40.0, Some(110.0))
        .host_down(12, 60.0, None)
}

fn run_jsonl(faults_spec: Option<FaultSpec>) -> String {
    let recorder = SharedRecorder::from(Recorder::new(radar_sim::obs::DEFAULT_CAPACITY));
    let mut sim = Simulation::new(scenario(faults_spec), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    let _report = sim.run();
    recorder.with(Recorder::to_jsonl)
}

#[test]
fn seeded_runs_emit_byte_identical_event_logs() {
    let a = run_jsonl(None);
    let b = run_jsonl(None);
    assert!(!a.is_empty(), "run recorded no events");
    assert!(a == b, "two identical seeded runs diverged");
    // The log contains the full decision vocabulary, not just arrivals.
    for needle in ["\"type\":\"decision\"", "\"type\":\"placement\""] {
        assert!(a.contains(needle), "log missing {needle}");
    }
}

#[test]
fn seeded_runs_are_byte_identical_under_faults() {
    let a = run_jsonl(Some(faults()));
    let b = run_jsonl(Some(faults()));
    assert!(a == b, "faulted seeded runs diverged");
    for needle in [
        "\"type\":\"fault\"",
        "\"type\":\"re-replication\"",
        "\"cause\":\"purge\"",
    ] {
        assert!(a.contains(needle), "faulted log missing {needle}");
    }
}

/// One `(observer name, hook or event type, event time)` record.
type HookRecord = (&'static str, &'static str, f64);

/// Tags every hook invocation with the observer's name, into a shared
/// log, so cross-observer ordering is visible.
#[derive(Clone)]
struct HookLogger {
    name: &'static str,
    log: Arc<Mutex<Vec<HookRecord>>>,
}

impl Observer for HookLogger {
    fn on_request_served(&mut self, record: &RequestRecord) {
        self.log
            .lock()
            .unwrap()
            .push((self.name, "on_request_served", record.delivered));
    }

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_sim::obs::Event) {
        self.log
            .lock()
            .unwrap()
            .push((self.name, event.type_name(), event.t));
    }
}

#[test]
fn observers_see_every_hook_in_attachment_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let first = HookLogger {
        name: "first",
        log: log.clone(),
    };
    let second = HookLogger {
        name: "second",
        log: log.clone(),
    };
    let mut sim = Simulation::new(scenario(Some(faults())), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(first));
    sim.attach_observer(Box::new(second));
    sim.enable_loop_profile();
    let report = sim.run();

    let log = log.lock().unwrap();
    assert!(!log.is_empty(), "no hooks fired");
    // Every hook fires once per observer, and always first-then-second:
    // the log must be an exact alternation of identical (hook, t) pairs.
    assert_eq!(log.len() % 2, 0, "unpaired hook invocation");
    for pair in log.chunks(2) {
        let [(name_a, hook_a, t_a), (name_b, hook_b, t_b)] = pair else {
            unreachable!("chunks(2) on an even-length slice");
        };
        assert_eq!(*name_a, "first", "attachment order violated: {pair:?}");
        assert_eq!(*name_b, "second", "attachment order violated: {pair:?}");
        assert_eq!(
            (hook_a, t_a),
            (hook_b, t_b),
            "observers saw different hooks"
        );
    }
    // Both feeds reached both observers, faults included.
    for hook in ["on_request_served", "fault", "placement"] {
        assert!(log.iter().any(|r| r.1 == hook), "no {hook} hook fired");
    }
    // The loop profile is returned with the report, not fed to observers.
    let profile = report.loop_profile.expect("profiling was enabled");
    assert!(profile.total_events() > 0, "profile must not be empty");
}
