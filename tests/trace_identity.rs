//! Byte identity of the flight-recorder stream: two small traced runs
//! (one fault-free, one with a host outage and provider updates) go
//! through `Recorder::with_sink` with the ledger attached, and the
//! FNV-1a-64 of the JSONL plus the audit verdict are pinned. The
//! constants were taken before the trace encoder, the recorder and the
//! observer folds were rebuilt, so any drift in a serialized byte —
//! a float rendered differently, a key out of order — fails tier-1
//! instead of the next benchmark evaluation. A longer run pins the
//! in-memory log to the streamed one.

use radar::core::{Catalog, ConsistencyMix, Params};
use radar::obs::{Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{FaultSpec, RunReport, Scenario, ScenarioBuilder, Simulation};
use radar::workload::ZipfReeds;

mod common;
use common::{fnv1a64, HashSink};

const OBJECTS: u32 = 200;

/// 200 objects for 30 s; a 10 s placement period puts three placement
/// rounds (actions, counts resets) inside the window.
fn scenario() -> ScenarioBuilder {
    let params = Params {
        placement_period: 10.0,
        measurement_interval: 2.0,
        ..Params::paper()
    };
    Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(4.0)
        .duration(30.0)
        .seed(7)
}

/// Runs `scenario` with `recorder` and the ledger attached.
fn run(scenario: Scenario, recorder: &SharedRecorder) -> RunReport {
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    sim.enable_object_ledger();
    let report = sim.run();
    assert_eq!(recorder.finish(), None, "sink error");
    report
}

/// A recorder streaming into `sink`.
fn streamed(sink: &HashSink) -> SharedRecorder {
    SharedRecorder::from_recorder(Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink.clone())))
}

/// Runs `scenario` traced; returns (FNV-1a-64 of the JSONL, its length
/// in bytes, replica-set-invariant violations).
fn traced(scenario: Scenario) -> (u64, u64, u64) {
    let sink = HashSink::new();
    let report = run(scenario, &streamed(&sink));
    let health = report.protocol_health.expect("ledger was enabled");
    let (hash, bytes) = sink.digest();
    (hash, bytes, health.violations)
}

#[test]
fn fault_free_trace_is_byte_identical() {
    let (hash, bytes, violations) = traced(scenario().build().expect("valid"));
    assert_eq!(
        (hash, bytes, violations),
        (FAULT_FREE_FNV, FAULT_FREE_BYTES, 0),
        "got ({hash:#018x}, {bytes}, {violations})"
    );
}

#[test]
fn faulted_update_trace_is_byte_identical() {
    let topology = radar::simnet::builders::uunet();
    let faults = FaultSpec::new()
        .with_min_replicas(2)
        .with_declare_dead_after(8.0)
        .host_down(11, 5.0, Some(20.0));
    let scenario = scenario()
        .catalog(Catalog::with_mix(
            OBJECTS,
            12 * 1024,
            topology.len() as u16,
            ConsistencyMix::Mixed,
        ))
        .update_rate(20.0)
        .faults(faults)
        .topology(topology)
        .build()
        .expect("valid");
    let (hash, bytes, violations) = traced(scenario);
    assert_eq!(
        (hash, bytes, violations),
        (FAULTED_FNV, FAULTED_BYTES, 0),
        "got ({hash:#018x}, {bytes}, {violations})"
    );
}

/// 120 s of the fault-free run records more events than
/// `DEFAULT_CAPACITY`: the in-memory log is still the streamed log,
/// byte for byte, and holds every event from seq 1 on.
#[test]
fn in_memory_log_is_the_streamed_log() {
    let long = || scenario().duration(120.0).build().expect("valid");
    let sink = HashSink::new();
    run(long(), &streamed(&sink));
    let memory = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
    run(long(), &memory);

    let jsonl = memory.with(Recorder::to_jsonl);
    assert_eq!(
        (fnv1a64(jsonl.as_bytes()), jsonl.len() as u64),
        sink.digest()
    );
    let seqs: Vec<u64> = memory
        .with(Recorder::snapshot)
        .iter()
        .map(|e| e.seq)
        .collect();
    let n = seqs.len() as u64;
    assert!(n > DEFAULT_CAPACITY as u64, "only {n} events");
    assert!(seqs.into_iter().eq(1..=n), "seqs are not 1..={n}");
}

const FAULT_FREE_FNV: u64 = 0x1c81_e2b2_cda4_9ac9;
const FAULT_FREE_BYTES: u64 = 3_348_428;
const FAULTED_FNV: u64 = 0x3c99_7f08_6431_c2e2;
const FAULTED_BYTES: u64 = 3_708_078;
