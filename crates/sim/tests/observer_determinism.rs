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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// The sink now holds channel ends and a thread handle; a simulation
/// must still be movable to another thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Simulation>();
};

/// One hook call: `record`, `served` or `other`, then the request's
/// object, gateway and host (zeros for `other`).
type CrossHook = (&'static str, u32, u16, u16);

/// Records which hook fired, in order, with the served request's ids.
#[derive(Clone, Default)]
struct CrossHookLog(Arc<Mutex<Vec<CrossHook>>>);

impl Observer for CrossHookLog {
    fn on_request_served(&mut self, r: &RequestRecord) {
        self.0
            .lock()
            .unwrap()
            .push(("record", r.object, r.gateway, r.host));
    }

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_sim::obs::Event) {
        let entry = match event.kind {
            radar_sim::obs::EventKind::RequestServed {
                object,
                gateway,
                host,
                ..
            } => ("served", object, gateway, host),
            _ => ("other", 0, 0, 0),
        };
        self.0.lock().unwrap().push(entry);
    }
}

/// Records and events ride one feed: an observer implementing both hooks
/// sees each `served` event directly followed by that request's record,
/// and no record anywhere else.
#[test]
fn each_served_event_is_directly_followed_by_its_record() {
    let log = CrossHookLog::default();
    let mut sim = Simulation::new(scenario(Some(faults())), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(log.clone()));
    let _report = sim.run();

    let log = log.0.lock().unwrap();
    let mut served = 0;
    let mut i = 0;
    while i < log.len() {
        match log[i].0 {
            "served" => {
                let record = log.get(i + 1).copied();
                assert_eq!(
                    record,
                    Some(("record", log[i].1, log[i].2, log[i].3)),
                    "entry {i}: a served event not followed by its record"
                );
                served += 1;
                i += 2;
            }
            "record" => panic!("entry {i}: a record without its served event"),
            _ => i += 1,
        }
    }
    assert!(served > 1_000, "only {served} requests served");
}

/// The events of a whole run, from an in-memory recorder.
fn full_run_events() -> Vec<radar_sim::obs::Event> {
    let recorder = SharedRecorder::from(Recorder::new(radar_sim::obs::DEFAULT_CAPACITY));
    let mut sim = Simulation::new(scenario(Some(faults())), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    let _report = sim.run();
    recorder.with(Recorder::snapshot)
}

/// `run_until` returns only once every observer has folded what the run
/// emitted so far: after each slice, a recorder and the ledger have seen
/// exactly the events of a whole run stamped at or before its end.
#[test]
fn folds_are_current_after_every_slice() {
    let whole = full_run_events();
    let recorder = SharedRecorder::from(Recorder::new(radar_sim::obs::DEFAULT_CAPACITY));
    let mut sim = Simulation::new(scenario(Some(faults())), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    let ledger = sim.enable_object_ledger();
    for k in 0..=30 {
        let t = 5.0 * f64::from(k);
        sim.run_until(t);
        let emitted = whole.iter().filter(|e| e.t <= t).count() as u64;
        assert_eq!(
            recorder.with(Recorder::recorded),
            emitted,
            "recorder at t = {t}"
        );
        let seen = ledger
            .with(radar_sim::obs::ObjectLedger::health)
            .events_seen;
        assert_eq!(seen, emitted, "ledger at t = {t}");
    }
    assert_eq!(
        recorder.with(Recorder::recorded),
        whole.len() as u64,
        "the last slice reaches the end of the run"
    );
}

/// An observer attached mid-run joins the stream at that point: it sees
/// every later event and no earlier one.
#[test]
fn an_observer_attached_mid_run_sees_the_rest_of_the_feed() {
    let whole = full_run_events();
    let mut sim = Simulation::new(scenario(Some(faults())), Box::new(ZipfReeds::new(OBJECTS)));
    let first = SharedRecorder::from(Recorder::new(radar_sim::obs::DEFAULT_CAPACITY));
    sim.attach_observer(Box::new(first.clone()));
    sim.run_until(60.0);
    let late = SharedRecorder::from(Recorder::new(radar_sim::obs::DEFAULT_CAPACITY));
    sim.attach_observer(Box::new(late.clone()));
    let _report = sim.run();
    let before = whole.iter().filter(|e| e.t <= 60.0).count();
    assert_eq!(late.with(Recorder::snapshot), whole[before..]);
    assert_eq!(first.with(Recorder::snapshot), whole);
}

/// Counts the events it folds and flags its own drop.
struct DropFlag {
    seen: Arc<AtomicU64>,
    dropped: Arc<AtomicBool>,
}

impl Observer for DropFlag {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, _event: &radar_sim::obs::Event) {
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::Relaxed);
    }
}

/// Dropping a simulation mid-run lets its observers fold everything
/// emitted, then joins their thread, which drops them.
#[test]
fn dropping_a_simulation_mid_run_joins_the_observer_thread() {
    let (seen, dropped) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let mut sim = Simulation::new(scenario(None), Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(DropFlag {
        seen: seen.clone(),
        dropped: dropped.clone(),
    }));
    sim.run_until(40.0);
    let folded = seen.load(Ordering::Relaxed);
    assert!(folded > 0, "nothing folded in 40 s");
    assert!(
        !dropped.load(Ordering::Relaxed),
        "dropped while the run lives"
    );
    drop(sim);
    assert!(
        dropped.load(Ordering::Relaxed),
        "observer thread not joined"
    );
    assert_eq!(seen.load(Ordering::Relaxed), folded);
}

/// Panics on the event it is counting down to.
struct PanicsAt(u64);

impl Observer for PanicsAt {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, _event: &radar_sim::obs::Event) {
        self.0 -= 1;
        assert!(self.0 > 0, "observer gave up on its 1000th event");
    }
}

/// The message of a caught panic.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// An observer's panic ends its thread and is re-raised by the
/// simulation thread at its next hand-off or barrier, not turned into a
/// hang. A caller that catches it and carries on gets the same panic
/// from every later `run_until` and from `finish`, never a report folded
/// from a stream that stopped mid-run.
#[test]
fn an_observer_panic_is_re_raised_by_run_until() {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sim = Simulation::new(scenario(None), Box::new(ZipfReeds::new(OBJECTS)));
        sim.attach_observer(Box::new(PanicsAt(1_000)));
        let mut messages = Vec::new();
        for until in [150.0, 160.0] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_until(until);
            }));
            messages.push(result.err().map(panic_message));
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.finish()));
        messages.push(result.err().map(panic_message));
        done.send(messages).unwrap();
    });
    let messages = outcome
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run_until hung after an observer panicked");
    let expected = Some("observer gave up on its 1000th event".to_string());
    assert_eq!(messages, [expected.clone(), expected.clone(), expected]);
}
