//! Byte identity of the event order under a deep backlog: one small
//! hot-sites run whose hosts are a twentieth of the paper's capacity, so
//! tens of thousands of completions are pending at once, pins the
//! FNV-1a-64 of `RunReport::to_json_pretty()` — bare, and again with a
//! recorder attached, whose JSONL stream (queue depth, `seq` and
//! `parent` of every emitted event) is pinned too. The constants were
//! taken while the future-event list was a `(time, seq)` binary heap,
//! so a queue that pops two simultaneous events in a different order, or
//! reports a different length, fails tier-1 instead of the next
//! benchmark evaluation.

use radar::core::Params;
use radar::obs::{Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{RunReport, Scenario, Simulation};
use radar::simcore::SimRng;
use radar::simnet::builders;
use radar::workload::HotSites;

mod common;
use common::{fnv1a64, HashSink};

const OBJECTS: u32 = 400;

/// 400 hot-sites objects on UUNET for 12 s: 53 × 40 req/s arrive, the
/// hosts (8–12 req/s each) serve about a quarter of that, and the rest
/// queue. A 4 s placement period puts two Fig. 5 rounds inside the run.
fn simulation() -> Simulation {
    let topology = builders::uunet();
    let n = topology.len();
    let mut rng = SimRng::seed_from(9);
    let workload = HotSites::new(OBJECTS, n as u16, 0.1, 0.9, &mut rng);
    let params = Params {
        placement_period: 4.0,
        measurement_interval: 1.0,
        ..Params::paper()
    };
    let scenario = Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(40.0)
        .node_capacities((0..n).map(|i| 8.0 + (i % 5) as f64).collect())
        .duration(12.0)
        .seed(13)
        .topology(topology)
        .build()
        .expect("valid");
    Simulation::new(scenario, Box::new(workload))
}

fn digest(report: &RunReport) -> u64 {
    fnv1a64(report.to_json_pretty().as_bytes())
}

#[test]
fn saturated_report_is_byte_identical_and_the_queue_is_deep() {
    let bare = simulation().run();
    assert!(bare.loop_profile.is_none());
    assert_eq!(digest(&bare), REPORT_FNV, "got {:#018x}", digest(&bare));

    // The same run profiled: the depth that makes this test worth
    // having, and profiling must not move the report.
    let mut sim = simulation();
    sim.enable_loop_profile();
    let profiled = sim.run();
    let profile = profiled.loop_profile.as_ref().expect("profile was enabled");
    let depth_max = profile.rows().map(|(_, row)| row.depth_max).max();
    assert!(
        depth_max > Some(10_000),
        "the run must keep a deep queue, got {depth_max:?}"
    );
    assert_eq!(digest(&profiled), REPORT_FNV);
}

#[test]
fn saturated_trace_is_byte_identical() {
    let sink = HashSink::new();
    let recorder = SharedRecorder::from_recorder(
        Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink.clone())),
    );
    let mut sim = simulation();
    sim.attach_observer(Box::new(recorder.clone()));
    let report = sim.run();
    assert_eq!(recorder.finish(), None, "sink error");
    let (hash, bytes) = sink.digest();
    assert_eq!(
        (digest(&report), hash, bytes),
        (REPORT_FNV, TRACE_FNV, TRACE_BYTES),
        "got ({:#018x}, {hash:#018x}, {bytes})",
        digest(&report)
    );
}

const REPORT_FNV: u64 = 0x4585_e49e_cbad_52ab;
const TRACE_FNV: u64 = 0x86d3_8292_a9af_fe52;
const TRACE_BYTES: u64 = 9_736_491;
