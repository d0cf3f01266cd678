//! The loop profile reads the clock on only a sample of the
//! request-path dispatches, but its counts and queue depths cover every
//! dispatch, and turning it on moves no output. A short fault-free run
//! with a recorder attached is checked against the log it writes and
//! against the same run unprofiled.

use radar::core::Params;
use radar::obs::{Event, LoopProfile, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{RunReport, Scenario, Simulation};
use radar::workload::ZipfReeds;

mod common;
use common::fnv1a64;

const OBJECTS: u32 = 200;

/// 200 objects for 30 s with three placement rounds, traced into memory;
/// profiled or not.
fn traced_run(profile: bool) -> (RunReport, Vec<Event>) {
    let params = Params {
        placement_period: 10.0,
        measurement_interval: 2.0,
        ..Params::paper()
    };
    let scenario = Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(4.0)
        .duration(30.0)
        .seed(7)
        .build()
        .expect("valid");
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS)));
    let recorder = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
    sim.attach_observer(Box::new(recorder.clone()));
    if profile {
        sim.enable_loop_profile();
    }
    let report = sim.run();
    (report, recorder.with(Recorder::snapshot))
}

fn count(log: &[Event], type_name: &str) -> u64 {
    log.iter().filter(|e| e.type_name() == type_name).count() as u64
}

fn dispatches(profile: &LoopProfile, label: &str) -> u64 {
    profile.get(label).map_or(0, |row| row.count)
}

/// (sum, max) of the queue depth carried by the log's events of one type.
fn depths(log: &[Event], type_name: &str) -> (u64, u32) {
    log.iter()
        .filter(|e| e.type_name() == type_name)
        .fold((0, 0), |(sum, max), e| {
            (sum + u64::from(e.queue_depth), max.max(e.queue_depth))
        })
}

#[test]
fn profile_counts_every_dispatch_and_moves_no_output() {
    let (bare, bare_log) = traced_run(false);
    let (profiled, log) = traced_run(true);
    let profile = profiled.loop_profile.as_ref().expect("profile was enabled");

    // Each request-path handler emits exactly one event per dispatch on
    // a fault-free run, so the sampled rows' counts are the log's.
    let requests = count(&log, "request");
    assert!(requests > 5_000, "run too small: {requests} requests");
    assert_eq!(dispatches(profile, "arrival"), requests);
    assert_eq!(dispatches(profile, "redirect"), count(&log, "decision"));
    assert_eq!(
        dispatches(profile, "service-complete"),
        count(&log, "served")
    );

    // A decision and a served event are emitted before their handler
    // schedules anything, so they carry the depth the profile saw at
    // dispatch: the unprofiled run's log must give the same sums and
    // maxima.
    for (label, type_name) in [("redirect", "decision"), ("service-complete", "served")] {
        let row = profile.get(label).expect("request path ran");
        assert_eq!(
            (row.depth_sum, row.depth_max),
            depths(&bare_log, type_name),
            "{label}"
        );
    }

    // Profiling moves neither the log nor the report.
    assert!(log == bare_log, "the profiled run's log differs");
    assert_eq!(
        fnv1a64(profiled.to_json_pretty().as_bytes()),
        fnv1a64(bare.to_json_pretty().as_bytes())
    );
}
