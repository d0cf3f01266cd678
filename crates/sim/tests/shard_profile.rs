//! End-to-end contract of the shard-aware performance telemetry.
//!
//! A profiled multi-shard run must attribute (nearly) all of its wall
//! clock to named span categories on every lane, populate the hand-off
//! histograms, and count every epoch barrier — while a run without
//! `enable_shard_profile` carries no profile section at all and a serial
//! run never collects one.

use radar_sim::{Scenario, Simulation};
use radar_workload::ZipfReeds;

const OBJECTS: u32 = 40;

fn scenario() -> Scenario {
    // 150 s covers one placement round, and a 0.2 Hz provider-update
    // rate guarantees updates, so the barrier counters see more than
    // one cause.
    Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(2.0)
        .update_rate(0.2)
        .duration(150.0)
        .seed(42)
        .build()
        .expect("valid scenario")
}

#[test]
fn profiled_sharded_run_attributes_wall_clock_to_named_spans() {
    let mut sim = Simulation::new(scenario(), Box::new(ZipfReeds::new(OBJECTS)));
    let live = sim.enable_shard_profile();
    let report = sim.run_sharded(2);

    let profile = report.shard_profile.as_ref().expect("profile collected");
    assert_eq!(profile.shards, 2);
    assert_eq!(profile.workers.len(), 2);
    assert!(profile.wall_ns > 0);

    // The cursor-based span clock leaves no unattributed gaps beyond
    // the instants between a lane's last charge and the sequencer's
    // final assembly; even on a loaded machine that is far below 5%.
    assert!(
        profile.min_coverage() > 0.95,
        "span coverage {:.1}% below 95%",
        profile.min_coverage() * 100.0
    );

    // Every redirect was deferred exactly once and answered exactly
    // once, so worker items sum to the hand-off count.
    let worker_items: u64 = profile.workers.iter().map(|w| w.items).sum();
    assert!(worker_items > 0, "no redirects were deferred");
    assert_eq!(profile.handoff_ns.count(), worker_items);
    assert!(
        profile.handoff_ns.max() >= profile.handoff_ns.sum() / profile.handoff_ns.count().max(1)
    );

    // Every answered item traveled in exactly one batched reply
    // message, so batch sizes sum to the item count — and a rate-2.0
    // Zipf workload must coalesce at least some runs into real batches.
    assert_eq!(profile.batch_items.sum(), worker_items);
    assert!(profile.batch_items.count() <= worker_items);
    assert!(
        profile.batch_items.max() >= 2,
        "no multi-item batch in a whole profiled run"
    );

    // The sequencer popped every event the workers decided, plus its own.
    assert!(profile.sequencer.items > worker_items);

    // 150 s at a 100 s placement period and 30 s provider updates: at
    // least one barrier of each periodic cause, none from faults.
    use radar_sim::obs::BarrierCause;
    assert!(profile.barriers[BarrierCause::Placement as usize] >= 1);
    assert!(profile.barriers[BarrierCause::ProviderUpdate as usize] >= 1);
    assert_eq!(profile.barriers[BarrierCause::Fault as usize], 0);

    // The live handle saw the final snapshot too.
    let snapshot = live.snapshot().expect("published at the final barrier");
    assert_eq!(snapshot.shards, 2);
}

#[test]
fn unprofiled_and_serial_runs_carry_no_profile() {
    let report = Simulation::new(scenario(), Box::new(ZipfReeds::new(OBJECTS))).run_sharded(2);
    assert!(report.shard_profile.is_none());
    assert!(!report.to_json_pretty().contains("shard_profile"));

    // Serial delegation collects nothing even when profiling is on.
    let mut sim = Simulation::new(scenario(), Box::new(ZipfReeds::new(OBJECTS)));
    let live = sim.enable_shard_profile();
    let report = sim.run_sharded(1);
    assert!(report.shard_profile.is_none());
    assert!(live.snapshot().is_none());
}

#[test]
fn profiled_report_json_round_trips_the_section() {
    let mut sim = Simulation::new(scenario(), Box::new(ZipfReeds::new(OBJECTS)));
    sim.enable_shard_profile();
    let report = sim.run_sharded(2);
    let json = report.to_json_pretty();
    for key in [
        "\"shard_profile\"",
        "\"lanes\"",
        "\"sequencer\"",
        "\"worker-0\"",
        "\"worker-1\"",
        "\"channel-wait\"",
        "\"barrier-drain\"",
        "\"handoff_ns\"",
        "\"batch_items\"",
        "\"barriers\"",
        "\"provider-update\"",
    ] {
        assert!(json.contains(key), "report JSON is missing {key}");
    }
}
