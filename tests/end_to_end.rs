//! Workspace-level integration tests: drive the whole stack through the
//! `radar` facade crate exactly as a downstream user would.

use radar::core::ObjectId;
use radar::sim::{PlacementMode, Scenario, Simulation};
use radar::simnet::{builders, Region};
use radar::workload::{Regional, ZipfReeds};

const OBJECTS: u32 = 400;

fn scenario() -> radar::sim::ScenarioBuilder {
    Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(4.0)
        .duration(500.0)
        .seed(3)
}

#[test]
fn facade_exposes_full_pipeline() {
    let report = Simulation::new(
        scenario().build().expect("valid"),
        Box::new(ZipfReeds::new(OBJECTS)),
    )
    .run();
    assert!(report.total_requests > 50_000);
    assert_eq!(report.final_replicas.len(), OBJECTS as usize);
    // Every object retains at least one replica — the redirector's
    // last-replica protection seen end-to-end.
    assert!(report.final_replicas.iter().all(|r| !r.is_empty()));
}

#[test]
fn regional_content_moves_to_its_region() {
    let topo = builders::uunet();
    let workload = Regional::new(OBJECTS, &topo, 0.01, 0.9);
    let report = Simulation::new(
        scenario().duration(900.0).build().expect("valid"),
        Box::new(workload.clone()),
    )
    .run();

    // For each region, the majority of its preferred objects' replica
    // mass must end up inside that region.
    for region in Region::ALL {
        let (start, len) = workload.preferred_slice(region);
        let mut inside = 0u32;
        let mut total = 0u32;
        for obj in start..start + len {
            for &(node, aff) in &report.final_replicas[ObjectId::new(obj).index()] {
                total += aff;
                if topo.region(radar::simnet::NodeId::new(node)) == region {
                    inside += aff;
                }
            }
        }
        assert!(
            inside * 2 > total,
            "{region}: only {inside}/{total} replica mass is local"
        );
    }
}

#[test]
fn relocation_log_is_consistent_with_counters() {
    let report = Simulation::new(
        scenario().build().expect("valid"),
        Box::new(ZipfReeds::new(OBJECTS)),
    )
    .run();
    use radar::obs::PlacementActionKind as A;
    let count = |a: A| {
        report
            .relocation_log
            .iter()
            .filter(|e| e.action == a)
            .count() as u64
    };
    assert_eq!(count(A::GeoMigrate), report.geo_migrations);
    assert_eq!(count(A::GeoReplicate), report.geo_replications);
    assert_eq!(count(A::LoadMigrate), report.offload_migrations);
    assert_eq!(count(A::LoadReplicate), report.offload_replications);
    assert_eq!(count(A::Drop), report.drops);
    assert_eq!(count(A::AffinityReduce), report.affinity_reductions);
    // Every relocation with a target names a real node.
    assert!(report
        .relocation_log
        .iter()
        .filter_map(|e| e.target)
        .all(|t| (t as usize) < 53));
}

#[test]
fn overhead_stays_small_fraction_of_traffic() {
    // The paper's Fig. 7 claim, checked end-to-end at test scale: the
    // relocation traffic never dominates.
    let topo = builders::uunet();
    let report = Simulation::new(
        scenario().build().expect("valid"),
        Box::new(Regional::new(OBJECTS, &topo, 0.01, 0.9)),
    )
    .run();
    let peak = report
        .overhead_fractions()
        .into_iter()
        .fold(0.0f64, f64::max);
    assert!(peak < 0.10, "overhead fraction peaked at {peak}");
}

#[test]
fn static_and_dynamic_runs_share_workload_structure() {
    // The same seed must generate the identical request sequence in both
    // modes, so comparisons isolate the placement policy.
    let run = |mode| {
        Simulation::new(
            scenario().placement(mode).build().expect("valid"),
            Box::new(ZipfReeds::new(OBJECTS)),
        )
        .run()
    };
    let dynamic = run(PlacementMode::Dynamic);
    let fixed = run(PlacementMode::Static);
    // Identical arrival streams; only the handful of requests in flight
    // at the cutoff differ (different queueing/routing latencies).
    let diff = dynamic.total_requests.abs_diff(fixed.total_requests);
    assert!(
        diff * 1000 < fixed.total_requests,
        "request volumes diverged: {} vs {}",
        dynamic.total_requests,
        fixed.total_requests
    );
}
