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
//!
//! The dashboard's per-object and per-host counts come from the other
//! fold, `radar_obs::ObjectLedger`; its table is pinned here against a
//! brute-force count over the same events.

use std::collections::BTreeMap;

use radar::core::{Catalog, ConsistencyMix};
use radar::obs::{
    Event, EventKind, Fold, MetricsConfig, ObjectLedger, PlacementActionKind, Shared,
    SharedMetrics, Tally,
};
use radar::sim::{FaultSpec, RunReport, Scenario, Simulation};
use radar::workload::ZipfReeds;

/// Runs `scenario` with a metrics fold attached; returns the report and
/// the finalized fold.
fn run_folded(scenario: Scenario) -> (RunReport, SharedMetrics) {
    let objects = scenario.num_objects;
    let metrics = SharedMetrics::new(MetricsConfig {
        object_size: scenario.catalog.object_size(),
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

/// Crashes with and without recovery, a declared-dead host, a link
/// partition and updates over two redirectors: failures, faults,
/// purges and re-replications reach the folds only through their
/// events. `more` adds faults to the schedule.
fn faulted_scenario(more: fn(FaultSpec) -> FaultSpec) -> Scenario {
    Scenario::builder()
        .num_objects(200)
        .node_request_rate(2.0)
        .duration(600.0)
        .seed(11)
        .update_rate(0.5)
        .num_redirectors(2)
        .catalog(Catalog::with_mix(200, 12 * 1024, 53, ConsistencyMix::Mixed))
        .faults(more(
            FaultSpec::new()
                .with_declare_dead_after(30.0)
                .with_min_replicas(2)
                .host_down(5, 105.0, Some(307.0))
                .host_down(12, 213.0, None)
                .link_down(0, 1, 150.0, Some(400.0)),
        ))
        .build()
        .expect("valid faulted scenario")
}

#[test]
fn folded_metrics_match_the_report_under_faults() {
    let (report, metrics) = run_folded(faulted_scenario(|faults| faults));
    metrics.with(|m| {
        let t = m.tally();
        assert!(t.re_replications > 0, "nothing was re-replicated");
        assert_eq!(t.faults, 5, "crash, recover, crash, link-fail, link-heal");
        assert_tally_matches(t, &report);
    });
}

/// Per-object `[requests, served, failed, replica delta]` and per-host
/// served counts, recounted from the raw feed.
#[derive(Default)]
struct Recount {
    objects: BTreeMap<u32, [i64; 4]>,
    hosts: BTreeMap<u16, u64>,
}

impl Fold for Recount {
    fn fold(&mut self, event: &Event) {
        let (object, column, step) = match &event.kind {
            EventKind::RequestArrived { object, .. } => (*object, 0, 1),
            EventKind::RequestServed { object, host, .. } => {
                *self.hosts.entry(*host).or_default() += 1;
                (*object, 1, 1)
            }
            EventKind::RequestFailed { object, .. } => (*object, 2, 1),
            EventKind::PlacementAction(p) => {
                let step = match p.action {
                    PlacementActionKind::GeoReplicate | PlacementActionKind::LoadReplicate => 1,
                    PlacementActionKind::Drop => -1,
                    _ => 0,
                };
                (p.object, 3, step)
            }
            EventKind::ReReplication { object, .. } => (*object, 3, 1),
            _ => return,
        };
        self.objects.entry(object).or_default()[column] += step;
    }
}

#[test]
fn the_ledger_table_matches_a_recount_of_the_feed() {
    // Sydney (node 51) cut off from the backbone for two minutes, so
    // requests entering there fail.
    let scenario = faulted_scenario(|faults| {
        faults
            .link_down(50, 51, 20.0, Some(140.0))
            .link_down(51, 52, 20.0, Some(140.0))
            .link_down(5, 51, 20.0, Some(140.0))
    });
    let objects = scenario.num_objects;
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(objects)));
    let ledger = sim.enable_object_ledger();
    let recount = Shared::from(Recount::default());
    sim.attach_observer(Box::new(recount.clone()));
    let report = sim.run();
    assert!(report.failed_requests > 0 && report.re_replications > 0);

    ledger.with(|l: &ObjectLedger| {
        recount.with(|r| {
            // Every object a request, failure, placement action or
            // re-replication named, with the dashboard's four columns.
            let table: BTreeMap<u32, [i64; 4]> = l
                .busiest_objects(usize::MAX)
                .into_iter()
                .map(|(o, c)| {
                    let counts = [c.requests, c.served, c.failed].map(|n| n as i64);
                    (o, [counts[0], counts[1], counts[2], c.replica_delta])
                })
                .collect();
            assert_eq!(table, r.objects);
            let served: BTreeMap<u16, u64> = l
                .node_table()
                .into_iter()
                .filter(|(_, n)| n.served > 0)
                .map(|(node, n)| (node, n.served))
                .collect();
            assert_eq!(served, r.hosts);

            // The health totals are the column sums of the table.
            let h = l.health();
            let rows = l.churn_table(usize::MAX);
            let total = |column: fn(&radar::obs::ObjectChurn) -> u64| -> u64 {
                rows.iter().map(|(_, c)| column(c)).sum()
            };
            assert_eq!(h.requests, total(|c| c.requests));
            assert_eq!(h.served, total(|c| c.served));
            assert_eq!(h.relocations, total(|c| c.relocations));
            assert_eq!(h.bytes_moved, total(|c| c.bytes_moved));
            assert_eq!(h.ping_pong, total(|c| c.ping_pong));
            assert_eq!(h.replicate_drop, total(|c| c.replicate_drop));
            assert_eq!(h.served, report.total_requests);
            assert!(h.relocations > 0 && h.bytes_moved > 0);
        })
    });
}
