//! End-to-end tests of the hosting-platform simulation.
//!
//! These run scaled-down versions of the paper's scenarios (fewer
//! objects, lower request rates, shorter horizons) so they finish in
//! seconds in debug builds while still exercising the full request and
//! placement machinery. The full-scale paper runs live in `radar-bench`.

use radar_sim::{InitialPlacement, PlacementMode, Scenario, Simulation};
use radar_workload::{Regional, Uniform, Workload, ZipfReeds};

/// A scaled-down paper scenario on the UUNET testbed.
fn small_scenario() -> radar_sim::ScenarioBuilder {
    Scenario::builder()
        .num_objects(400)
        .node_request_rate(4.0)
        .duration(420.0)
        .seed(11)
}

fn regional_workload(num_objects: u32) -> Box<dyn Workload + Send> {
    let topo = radar_simnet::builders::uunet();
    Box::new(Regional::new(num_objects, &topo, 0.01, 0.9))
}

#[test]
fn smoke_run_produces_traffic_and_latency() {
    let scenario = small_scenario().duration(120.0).build().unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run();
    // 53 gateways × 4 req/s × 120 s ≈ 25k requests (minus in-flight tail).
    assert!(
        report.total_requests > 20_000,
        "requests: {}",
        report.total_requests
    );
    assert!(report.latency.mean > 0.0);
    assert!(report.client_bandwidth.total() > 0.0);
    assert!(report.max_load.len() > 3);
    assert!(!report.load_estimates.is_empty());
    assert_eq!(report.workload, "zipf");
    assert_eq!(report.policy, "radar");
}

#[test]
fn identical_seeds_identical_runs() {
    let run = || {
        let scenario = small_scenario().duration(150.0).build().unwrap();
        Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.client_bandwidth, b.client_bandwidth);
    assert_eq!(a.overhead_bandwidth, b.overhead_bandwidth);
    assert_eq!(a.relocations(), b.relocations());
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let scenario = small_scenario().duration(150.0).seed(seed).build().unwrap();
        Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run()
    };
    let a = run(1);
    let b = run(2);
    // Same arrival count (deterministic arrivals) but different object
    // choices => different traffic patterns.
    assert_ne!(a.client_bandwidth, b.client_bandwidth);
}

#[test]
fn static_placement_never_relocates() {
    let scenario = small_scenario()
        .duration(250.0)
        .placement(PlacementMode::Static)
        .build()
        .unwrap();
    let report = Simulation::new(scenario, regional_workload(400)).run();
    assert_eq!(report.relocations(), 0);
    assert_eq!(report.drops, 0);
    assert!(!report.dynamic_placement);
    assert!((report.equilibrium_avg_replicas() - 1.0).abs() < 1e-9);
}

#[test]
fn dynamic_placement_cuts_regional_bandwidth() {
    // The paper's headline: the regional workload sees the largest
    // bandwidth reduction (90.1% at full scale). At this reduced scale we
    // assert the shape: dynamic placement relocates objects and ends with
    // substantially less backbone traffic than it started with.
    let scenario = small_scenario().build().unwrap();
    let report = Simulation::new(scenario, regional_workload(400)).run();
    assert!(report.relocations() > 0, "no relocations happened");
    let initial = report.initial_bandwidth_rate();
    let equilibrium = report.equilibrium_bandwidth_rate();
    assert!(
        equilibrium < 0.7 * initial,
        "expected ≥30% reduction, initial {initial:.0} → equilibrium {equilibrium:.0}"
    );
    // And it does so with few extra replicas.
    let avg = report.equilibrium_avg_replicas();
    assert!(avg < 4.0, "too many replicas: {avg}");
}

#[test]
fn dynamic_beats_static_on_equilibrium_bandwidth() {
    let dynamic = {
        let scenario = small_scenario().build().unwrap();
        Simulation::new(scenario, regional_workload(400)).run()
    };
    let static_run = {
        let scenario = small_scenario()
            .placement(PlacementMode::Static)
            .build()
            .unwrap();
        Simulation::new(scenario, regional_workload(400)).run()
    };
    assert!(
        dynamic.equilibrium_bandwidth_rate() < static_run.equilibrium_bandwidth_rate(),
        "dynamic {} >= static {}",
        dynamic.equilibrium_bandwidth_rate(),
        static_run.equilibrium_bandwidth_rate()
    );
}

/// Every object on every one of the testbed's 53 nodes.
fn on_every_node(objects: usize) -> InitialPlacement {
    InitialPlacement::Explicit(vec![(0..53).collect(); objects])
}

#[test]
fn everywhere_placement_starts_fully_replicated() {
    let scenario = small_scenario()
        .num_objects(50)
        .duration(60.0)
        .placement(PlacementMode::Static)
        .initial_placement(on_every_node(50))
        .build()
        .unwrap();
    let report = Simulation::new(scenario, Box::new(Uniform::new(50))).run();
    assert!((report.equilibrium_avg_replicas() - 53.0).abs() < 1e-9);
}

#[test]
fn dynamic_placement_prunes_needless_replicas() {
    // Start fully replicated under a uniform workload: the deletion
    // threshold should strip most of the needless replicas (the paper's
    // §4 argument for why replicate-everywhere is harmful).
    // 53 gateways × 4 req/s over 200 objects ≈ 0.02 req/s per replica
    // when fully replicated — below the deletion threshold u = 0.03, so
    // the needless replicas are cold and must be stripped.
    // Placement runs are phase-staggered, so allow several full rounds.
    let scenario = small_scenario()
        .num_objects(200)
        .duration(620.0)
        .initial_placement(on_every_node(200))
        .build()
        .unwrap();
    let report = Simulation::new(scenario, Box::new(Uniform::new(200))).run();
    assert!(report.drops > 0, "no replicas were pruned");
    let avg = report.equilibrium_avg_replicas();
    assert!(avg < 15.0, "still {avg} replicas per object");
}

#[test]
fn explicit_placement_respected() {
    // All objects start on node 7.
    let scenario = small_scenario()
        .num_objects(20)
        .duration(60.0)
        .placement(PlacementMode::Static)
        .initial_placement(InitialPlacement::Explicit(vec![vec![7]; 20]))
        .build()
        .unwrap();
    let report = Simulation::new(scenario, Box::new(Uniform::new(20))).run();
    // One replica per object throughout.
    assert!((report.equilibrium_avg_replicas() - 1.0).abs() < 1e-9);
    assert!(report.total_requests > 0);
}

#[test]
fn load_estimates_bracket_actual_at_equilibrium() {
    // Fig. 8b's property: actual load lies between the lower and upper
    // estimates (they coincide with the measurement outside relocation
    // windows).
    let scenario = small_scenario().build().unwrap();
    let report = Simulation::new(scenario, regional_workload(400)).run();
    for s in &report.load_estimates {
        assert!(
            s.lower <= s.actual + 1e-9 && s.actual <= s.upper + 1e-9,
            "estimates do not bracket actual at t={}: {} ≤ {} ≤ {}",
            s.t,
            s.lower,
            s.actual,
            s.upper
        );
    }
}

#[test]
fn multiple_redirectors_partition_namespace() {
    let run = |n| {
        let scenario = small_scenario()
            .duration(150.0)
            .num_redirectors(n)
            .build()
            .unwrap();
        Simulation::new(scenario, Box::new(ZipfReeds::new(400)))
    };
    let sim1 = run(1);
    let sim4 = run(4);
    assert_eq!(sim1.redirector_nodes().len(), 1);
    assert_eq!(sim4.redirector_nodes().len(), 4);
    // Both run to completion deterministically.
    let r1 = sim1.run();
    let r4 = sim4.run();
    // Identical arrival streams; only the in-flight tail differs.
    assert!(r1.total_requests.abs_diff(r4.total_requests) < 20);
    // Partitioning only moves control-message latency; data traffic
    // stays in the same ballpark (placement decisions can drift a little
    // with the changed request timing).
    let (t1, t4) = (r1.client_bandwidth.total(), r4.client_bandwidth.total());
    assert!(
        (t1 - t4).abs() / t1 < 0.05,
        "client traffic diverged: {t1} vs {t4}"
    );
}

#[test]
fn provider_updates_propagate_from_primaries() {
    // Replicated objects receive update traffic; a migration-heavy
    // workload forces primary reassignment.
    let scenario = small_scenario().update_rate(5.0).build().unwrap();
    let report = Simulation::new(scenario, regional_workload(400)).run();
    assert!(
        report.updates_propagated > 1_000,
        "{}",
        report.updates_propagated
    );
    assert!(
        report.update_bandwidth.total() > 0.0,
        "replicated objects must generate propagation traffic"
    );
    assert!(
        report.primary_reassignments > 0,
        "regional migration should displace some primaries"
    );
    // Update traffic counts toward the total-bandwidth series.
    let totals = report.total_bandwidth_sums();
    let client: f64 = (0..totals.len())
        .map(|i| report.client_bandwidth.bin_sum(i))
        .sum();
    assert!(totals.iter().sum::<f64>() > client);
}

#[test]
fn updates_without_replicas_cost_nothing() {
    // Static single-replica placement: the primary is the only copy, so
    // propagation moves zero bytes (but updates still occur).
    let scenario = small_scenario()
        .duration(150.0)
        .update_rate(5.0)
        .placement(PlacementMode::Static)
        .build()
        .unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run();
    assert!(report.updates_propagated > 100);
    assert_eq!(report.update_bandwidth.total(), 0.0);
    assert_eq!(report.primary_reassignments, 0);
}

#[test]
fn zero_update_rate_disables_updates() {
    let scenario = small_scenario().duration(120.0).build().unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run();
    assert_eq!(report.updates_propagated, 0);
    assert_eq!(report.update_bandwidth.total(), 0.0);
}

#[test]
fn heterogeneous_hosts_attract_load_by_weight() {
    // Double-capacity hosts have proportionally higher watermarks, so
    // offloading and admission steer more replicas (and hence load) to
    // them — the paper's §2 weights extension.
    let mut capacities = vec![200.0; 53];
    for i in (0..53).step_by(2) {
        capacities[i] = 400.0;
    }
    let scenario = small_scenario()
        .num_objects(200)
        .node_request_rate(12.0)
        .node_capacities(capacities.clone())
        .duration(700.0)
        .build()
        .unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(200))).run();
    // Tally final replica mass per capacity class.
    let (mut big, mut small) = (0u64, 0u64);
    for reps in &report.final_replicas {
        for &(node, aff) in reps {
            if capacities[node as usize] > 200.0 {
                big += aff as u64;
            } else {
                small += aff as u64;
            }
        }
    }
    assert!(
        big > small,
        "big hosts should hold more replica mass: {big} vs {small}"
    );
}

#[test]
fn staged_run_equals_one_shot_run() {
    let build = || {
        let scenario = small_scenario().duration(300.0).build().unwrap();
        Simulation::new(scenario, Box::new(ZipfReeds::new(400)))
    };
    let one_shot = build().run();
    let mut staged = build();
    staged.run_until(90.0);
    assert!((staged.now() - 90.0).abs() < 1.0);
    staged.run_until(210.0);
    staged.run_until(10_000.0); // clamps to duration
    let staged = staged.finish();
    assert_eq!(one_shot.total_requests, staged.total_requests);
    assert_eq!(one_shot.client_bandwidth, staged.client_bandwidth);
    assert_eq!(one_shot.relocations(), staged.relocations());
    assert_eq!(one_shot.final_replicas, staged.final_replicas);
}

#[test]
fn mid_run_inspection_exposes_protocol_state() {
    use radar_core::ObjectId;
    use radar_simnet::NodeId;
    let scenario = small_scenario().duration(300.0).build().unwrap();
    let mut sim = Simulation::new(scenario, regional_workload(400));
    sim.run_until(250.0);
    // Every object still has at least one replica, and hosts report
    // sensible measured loads.
    let directory = sim.redirector().directory();
    assert!((0..400).all(|i| directory.replica_count(ObjectId::new(i)) >= 1));
    let loads: Vec<f64> = (0..53)
        .map(|i| sim.host(NodeId::new(i)).measured_load())
        .collect();
    assert!(loads.iter().any(|&l| l > 0.0));
    assert!(loads.iter().all(|&l| l < 200.0 + 1e-9));
}

#[test]
fn storage_limits_bound_replica_spread() {
    // Unbounded vs storage-capped hosts under a replication-happy
    // workload: the cap must bound per-host object counts and total
    // replica mass.
    let run = |limit: Option<u32>| {
        let mut builder = small_scenario().num_objects(100).duration(500.0);
        if let Some(l) = limit {
            builder = builder.storage_limit(l);
        }
        let scenario = builder.build().unwrap();
        Simulation::new(scenario, Box::new(Uniform::new(100))).run()
    };
    let free = run(None);
    let capped = run(Some(4));
    // Per-host bound holds: no host ends with more than 4 objects.
    for host in 0..53u16 {
        let held = capped
            .final_replicas
            .iter()
            .filter(|reps| reps.iter().any(|&(n, _)| n == host))
            .count();
        assert!(
            held <= 4,
            "host {host} holds {held} objects despite the cap"
        );
    }
    assert!(
        capped.equilibrium_avg_replicas() <= free.equilibrium_avg_replicas() + 1e-9,
        "cap should not increase replication"
    );
    // Every object still has a home.
    assert!(capped.final_replicas.iter().all(|r| !r.is_empty()));
}

#[test]
fn link_traffic_conserves_bytes_hops() {
    // Σ per-link bytes must equal Σ bytes×hops across every traffic
    // class (each hop of a transfer crosses exactly one link).
    let scenario = small_scenario()
        .duration(300.0)
        .update_rate(2.0)
        .build()
        .unwrap();
    let report = Simulation::new(scenario, regional_workload(400)).run();
    let link_total: f64 = report.link_traffic.iter().map(|&(_, b)| b).sum();
    let class_total = report.client_bandwidth.total()
        + report.overhead_bandwidth.total()
        + report.update_bandwidth.total();
    assert!(
        (link_total - class_total).abs() < 1e-6 * class_total.max(1.0),
        "links {link_total} vs classes {class_total}"
    );
    // Links are the topology's links.
    assert_eq!(
        report.link_traffic.len(),
        radar_simnet::builders::uunet().links().len()
    );
}

#[test]
fn the_catalog_sizes_every_response() {
    // 4 KiB objects: a response costs 4 096 B per hop, the size provider
    // updates and relocations are charged at too, not 12 KiB.
    use radar_core::{Catalog, ConsistencyMix};
    use radar_sim::{Observer, RequestRecord};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Hops(Arc<AtomicU64>);
    impl Observer for Hops {
        fn on_request_served(&mut self, r: &RequestRecord) {
            self.0.fetch_add(u64::from(r.hops), Ordering::Relaxed);
        }
    }
    let hops = Arc::new(AtomicU64::new(0));
    let scenario = small_scenario()
        .num_objects(200)
        .duration(300.0)
        .catalog(Catalog::with_mix(200, 4096, 53, ConsistencyMix::ReadOnly))
        .build()
        .unwrap();
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(200)));
    sim.attach_observer(Box::new(Hops(hops.clone())));
    let report = sim.run();
    let hops = hops.load(Ordering::Relaxed);
    assert!(hops > 0);
    assert_eq!(report.client_bandwidth.total(), 4096.0 * hops as f64);
}

#[test]
fn latency_breakdown_components_sum_to_total() {
    let scenario = small_scenario().duration(200.0).build().unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run();
    let service_time = 1.0 / 200.0; // capacity 200 req/s
    let reconstructed = report.redirect_delay.mean
        + report.queueing_delay.mean
        + service_time
        + report.response_travel.mean;
    assert!(
        (reconstructed - report.latency.mean).abs() < 1e-6,
        "components {reconstructed} vs total {}",
        report.latency.mean
    );
    assert!(report.redirect_delay.mean > 0.0);
    assert!(report.response_travel.mean > 0.0);
}

#[test]
fn observers_receive_every_event_class() {
    use radar_sim::obs::{EventKind, MetricsConfig, PlacementActionKind, SharedMetrics};
    use radar_sim::{Observer, RequestRecord};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    struct Counter {
        requests: Arc<AtomicU64>,
        relocations: Arc<AtomicU64>,
    }
    impl Observer for Counter {
        fn on_request_served(&mut self, r: &RequestRecord) {
            assert!(r.delivered >= r.entered);
            assert!((r.host as usize) < 53 && (r.gateway as usize) < 53);
            self.requests.fetch_add(1, Ordering::Relaxed);
        }
        fn wants_events(&self) -> bool {
            true
        }
        fn on_event(&mut self, event: &radar_sim::obs::Event) {
            // A refused drop changes nothing and is not logged.
            if let EventKind::PlacementAction(p) = &event.kind {
                if p.action != PlacementActionKind::DropRefused {
                    self.relocations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    let (requests, relocations) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let counter = Counter {
        requests: requests.clone(),
        relocations: relocations.clone(),
    };
    let scenario = small_scenario().duration(300.0).build().unwrap();
    // Load samples are not events: the metrics fold re-derives them at
    // every measurement-interval boundary.
    let (duration, interval) = (scenario.duration, scenario.params.measurement_interval);
    let samples = SharedMetrics::new(MetricsConfig {
        load_interval: interval,
        ..MetricsConfig::default()
    });
    let mut sim = Simulation::new(scenario, regional_workload(400));
    sim.attach_observer(Box::new(counter));
    sim.attach_observer(Box::new(samples.clone()));
    sim.run_until(f64::MAX);
    let report = sim.finish();
    samples.finalize(duration);
    assert_eq!(requests.load(Ordering::Relaxed), report.total_requests);
    assert_eq!(
        relocations.load(Ordering::Relaxed),
        report.relocation_log.len() as u64
    );
    assert_eq!(
        samples.with(|m| m.tally().max_load.total_count()),
        report.max_load.total_count()
    );
}

#[test]
fn latency_percentiles_are_ordered_and_plausible() {
    let scenario = small_scenario().duration(200.0).build().unwrap();
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(400))).run();
    assert!(report.latency.min <= report.latency_p50 + 1e-9);
    assert!(report.latency_p50 <= report.latency_p99 + 1e-9);
    assert!(report.latency_p99 <= report.latency.max * 1.05);
    // The median sits near the mean for this benign workload.
    assert!((report.latency_p50 - report.latency.mean).abs() < report.latency.mean);
}

#[test]
fn recorded_trace_replays_to_identical_traffic() {
    // Capture a synthetic run's arrival stream, replay it, and get the
    // same client traffic and placement decisions — the trace-driven
    // mode of the paper's companion report.
    let scenario = || small_scenario().duration(250.0).build().unwrap();
    let mut original = Simulation::new(scenario(), Box::new(ZipfReeds::new(400)));
    original.record_trace();
    let original = original.run();
    let trace = original.trace.clone().expect("capture enabled");
    assert!(trace.len() as u64 >= original.total_requests);

    let replayed = Simulation::replay(scenario(), trace)
        .expect("recorded in this scenario")
        .run();
    assert_eq!(replayed.policy, "radar");
    assert_eq!(replayed.workload, "replay");
    assert_eq!(replayed.total_requests, original.total_requests);
    assert_eq!(replayed.client_bandwidth, original.client_bandwidth);
    assert_eq!(replayed.relocations(), original.relocations());
    assert_eq!(replayed.final_replicas, original.final_replicas);
}

#[test]
fn trace_round_trips_through_text() {
    use radar_sim::Trace;
    let scenario = small_scenario()
        .duration(30.0)
        .num_objects(50)
        .build()
        .unwrap();
    let mut sim = Simulation::new(scenario, Box::new(Uniform::new(50)));
    sim.record_trace();
    let report = sim.run();
    let trace = report.trace.expect("capture enabled");
    let text = trace.to_text();
    let reparsed = Trace::from_text(&text).expect("valid serialization");
    assert_eq!(reparsed.len(), trace.len());
    assert_eq!(reparsed.entries()[0].gateway, trace.entries()[0].gateway);
}

#[test]
fn replay_rejects_foreign_objects_and_gateways() {
    use radar_sim::{Trace, TraceEntry, TraceError, TraceErrorKind};
    let scenario = || small_scenario().num_objects(10).build().unwrap();
    let entry = |gateway, object| TraceEntry {
        t: 0.0,
        gateway,
        object,
    };
    let replay = |entries| Simulation::replay(scenario(), Trace::new(entries).unwrap());
    assert!(replay(vec![entry(52, 9)]).is_ok());
    let err = replay(vec![entry(0, 0), entry(0, 99)]).err().unwrap();
    assert_eq!(
        err,
        TraceError {
            line: 2,
            kind: TraceErrorKind::OutOfRange {
                field: "object",
                value: 99,
                count: 10
            }
        }
    );
    let err = replay(vec![entry(99, 0)]).err().unwrap();
    assert_eq!(
        err.to_string(),
        "line 1: gateway 99 is out of range, the scenario has 53"
    );
}

#[test]
fn redirector_request_counts_partition_fully() {
    let scenario = small_scenario()
        .duration(120.0)
        .num_redirectors(4)
        .build()
        .unwrap();
    let sim = Simulation::new(scenario, Box::new(ZipfReeds::new(400)));
    let homes: Vec<u16> = sim
        .redirector_nodes()
        .iter()
        .map(|n| n.index() as u16)
        .collect();
    let report = sim.run();
    // Every counted redirector is one of the four homes, and together
    // they handled every redirected request.
    assert!(report
        .redirector_requests
        .keys()
        .all(|node| homes.contains(node)));
    let handled: u64 = report.redirector_requests.values().sum();
    assert!(handled >= report.total_requests);
    // With 400 objects hashed over 4 redirectors, no single one should
    // carry more than ~35% of the control load.
    let max = report.redirector_requests.values().copied().max().unwrap();
    assert!(
        (max as f64) < 0.35 * handled as f64,
        "skewed partition: {max} of {handled}"
    );
}

#[test]
fn region_matrix_localizes_under_regional_demand() {
    // At equilibrium the regional workload serves most traffic
    // region-locally: the matrix diagonal share must rise between the
    // static baseline and the dynamic run.
    let run = |mode| {
        let scenario = small_scenario()
            .duration(600.0)
            .placement(mode)
            .build()
            .unwrap();
        Simulation::new(scenario, regional_workload(400)).run()
    };
    let share = |m: &[[f64; 4]; 4]| {
        let total: f64 = m.iter().flatten().sum();
        let diag: f64 = (0..4).map(|i| m[i][i]).sum();
        diag / total.max(1.0)
    };
    let fixed = run(PlacementMode::Static);
    let dynamic = run(PlacementMode::Dynamic);
    // Matrix totals match the client bandwidth series exactly.
    let matrix_total: f64 = dynamic.region_matrix.iter().flatten().sum();
    assert!((matrix_total - dynamic.client_bandwidth.total()).abs() < 1e-6 * matrix_total);
    assert!(
        share(&dynamic.region_matrix) > share(&fixed.region_matrix),
        "dynamic diagonal share {} should exceed static {}",
        share(&dynamic.region_matrix),
        share(&fixed.region_matrix)
    );
}
