//! The streaming metrics fold reproduces the simulator's own report.
//!
//! `radar_obs::MetricsObserver` consumes only the flight-recorder event
//! stream, yet its `Tally` must equal the one the simulator builds its
//! report from, field for field: both record through the same
//! `Tally` methods, served events carry the service-completion time the
//! simulator uses for its bandwidth series and host-load windows, and
//! samples arrive in the same order they were recorded. This is what
//! makes `radar simulate --dashboard` and `radar events watch` trustworthy
//! views of a run.

use radar::core::{Catalog, ConsistencyMix};
use radar::obs::{MetricsConfig, SharedMetrics, Tally};
use radar::sim::{FaultSpec, RunReport, Scenario, Simulation};
use radar::workload::ZipfReeds;

/// Runs `scenario` with a metrics fold attached; returns the report and
/// the finalized fold.
fn run_folded(scenario: Scenario) -> (RunReport, SharedMetrics) {
    let objects = scenario.num_objects;
    let metrics = SharedMetrics::new(MetricsConfig {
        object_size: scenario.object_size,
        bandwidth_bin: scenario.metric_bin,
        load_interval: scenario.params.measurement_interval,
        ..MetricsConfig::default()
    });
    let duration = scenario.duration;
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(objects)));
    sim.attach_observer(Box::new(metrics.clone()));
    let report = sim.run();
    metrics.finalize(duration);
    (report, metrics)
}

/// Asserts every `Tally` field equal to its report counterpart, bit for
/// bit.
fn assert_tally_matches(t: &Tally, report: &RunReport) {
    assert_eq!(t.served, report.total_requests);
    assert_eq!(t.failed, report.failed_requests);
    // Latency: both folds see the same samples in the same order, so
    // the streaming aggregates agree to the last bit.
    assert_eq!(t.latency.snapshot(), report.latency);
    assert_eq!(t.latency_p50.estimate().unwrap_or(0.0), report.latency_p50);
    assert_eq!(t.latency_p99.estimate().unwrap_or(0.0), report.latency_p99);
    // Client bandwidth: served events carry the hop count and the
    // service-completion time the simulator bins by.
    assert_eq!(t.client_bandwidth, report.client_bandwidth);
    // Max measured host load, sampled at every measurement-interval
    // boundary (the Fig. 8a series).
    assert_eq!(t.max_load, report.max_load);
    assert_eq!(t.faults, report.faults_injected);
    assert_eq!(t.re_replications, report.re_replications);
    // §5 update traffic: the `provider-update` / `update-delivered`
    // events carry the exact bytes×hops and lag values the simulator
    // records.
    assert_eq!(t.updates, report.updates_propagated);
    assert_eq!(t.updates_by_class, report.updates_by_class);
    assert_eq!(t.update_bandwidth, report.update_bandwidth);
    assert_eq!(t.primary_reassignments, report.primary_reassignments);
    assert_eq!(t.update_deliveries, report.update_deliveries);
    assert_eq!(t.wasted_deliveries, report.wasted_deliveries);
    assert_eq!(t.updates_merged, report.updates_merged);
    assert_eq!(t.update_lag_type1.snapshot(), report.update_lag_type1);
    assert_eq!(t.update_lag_type2.snapshot(), report.update_lag_type2);
}

#[test]
fn folded_metrics_match_the_end_of_run_report() {
    // 150 s covers a full placement round (period 100 s), so the event
    // stream includes placements, not just the request lifecycle.
    let scenario = Scenario::builder()
        .num_objects(40)
        .node_request_rate(2.0)
        .duration(150.0)
        .seed(23)
        .build()
        .expect("valid scenario");
    let (report, metrics) = run_folded(scenario);
    metrics.with(|m| {
        assert!(m.tally().served > 0, "run served no requests");
        assert_tally_matches(m.tally(), &report);
        // Placement accounting seen through the event stream.
        let placements: u64 = m.placement_counts().values().sum();
        assert_eq!(
            placements,
            report.geo_migrations
                + report.geo_replications
                + report.offload_migrations
                + report.offload_replications
                + report.drops
                + report.affinity_reductions
        );
    });
}

#[test]
fn folded_update_metrics_match_the_end_of_run_report() {
    // A write-heavy §5 catalog with provider updates enabled.
    let scenario = Scenario::builder()
        .num_objects(40)
        .node_request_rate(2.0)
        .duration(150.0)
        .seed(23)
        .update_rate(0.5)
        .catalog(Catalog::with_mix(
            40,
            12 * 1024,
            53,
            ConsistencyMix::WriteHeavy,
        ))
        .build()
        .expect("valid scenario");
    let (report, metrics) = run_folded(scenario);
    metrics.with(|m| {
        let t = m.tally();
        assert!(t.updates > 0, "run issued no provider updates");
        assert!(
            report.updates_by_class.iter().all(|&n| n > 0),
            "write-heavy mix should exercise all three classes: {:?}",
            report.updates_by_class
        );
        // Asynchronous deliveries (type-1/2 only; type-3 is synchronous).
        assert!(t.update_deliveries > 0, "no delivery reached a replica");
        assert_tally_matches(t, &report);
    });
}

#[test]
fn folded_metrics_match_the_report_under_faults() {
    // Crashes with and without recovery, a declared-dead host, a link
    // partition and updates over two redirectors: failures, faults and
    // re-replications reach the fold only through their events.
    let scenario = Scenario::builder()
        .num_objects(200)
        .node_request_rate(2.0)
        .duration(600.0)
        .seed(11)
        .update_rate(0.5)
        .num_redirectors(2)
        .catalog(Catalog::with_mix(200, 12 * 1024, 53, ConsistencyMix::Mixed))
        .faults(
            FaultSpec::new()
                .with_declare_dead_after(30.0)
                .with_min_replicas(2)
                .host_down(5, 105.0, Some(307.0))
                .host_down(12, 213.0, None)
                .link_down(0, 1, 150.0, Some(400.0)),
        )
        .build()
        .expect("valid faulted scenario");
    let (report, metrics) = run_folded(scenario);
    metrics.with(|m| {
        let t = m.tally();
        assert!(t.re_replications > 0, "nothing was re-replicated");
        assert_eq!(t.faults, 5, "crash, recover, crash, link-fail, link-heal");
        assert_tally_matches(t, &report);
    });
}
