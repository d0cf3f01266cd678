//! Workspace-level integration tests: drive the whole stack through the
//! `radar` facade crate exactly as a downstream user would.

use std::sync::{Arc, Mutex};

use radar::core::ObjectId;
use radar::obs::{Event, EventKind, PlacementActionKind};
use radar::sim::{Observer, PlacementMode, Scenario, Simulation};
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

/// Collects the flight recorder's placement-action events: a feed the
/// simulator builds from each epoch's decisions, not from the per-action
/// lists the relocation log is written from.
#[derive(Clone, Default)]
struct PlacementFeed(Arc<Mutex<Vec<Action>>>);

/// A placement action: its name, host, object and target.
type Action = (String, u16, u32, Option<u16>);

impl Observer for PlacementFeed {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event) {
        if let EventKind::PlacementAction(a) = &event.kind {
            let entry = (a.action.to_string(), a.host, a.object, a.target);
            self.0.lock().expect("feed lock").push(entry);
        }
    }
}

#[test]
fn relocation_log_is_consistent_with_counters() {
    let feed = PlacementFeed::default();
    let mut sim = Simulation::new(
        scenario().build().expect("valid"),
        Box::new(ZipfReeds::new(OBJECTS)),
    );
    sim.attach_observer(Box::new(feed.clone()));
    let report = sim.run();
    // The report's counters are tallied from the log, so the log is
    // checked against the event feed: the same actions, hosts, objects
    // and targets, apart from the refused drops the log leaves out.
    let mut logged: Vec<_> = report
        .relocation_log
        .iter()
        .map(|e| (e.action.to_string(), e.host, e.object, e.target))
        .collect();
    let mut fed: Vec<_> = feed.0.lock().expect("feed lock").clone();
    fed.retain(|e| e.0 != PlacementActionKind::DropRefused.to_string());
    logged.sort();
    fed.sort();
    assert_eq!(logged, fed);
    let count = |a: PlacementActionKind| fed.iter().filter(|e| e.0 == a.to_string()).count() as u64;
    use PlacementActionKind as A;
    assert_eq!(count(A::GeoMigrate), report.geo_migrations);
    assert_eq!(count(A::GeoReplicate), report.geo_replications);
    assert_eq!(count(A::LoadMigrate), report.offload_migrations);
    assert_eq!(count(A::LoadReplicate), report.offload_replications);
    assert_eq!(count(A::Drop), report.drops);
    assert_eq!(count(A::AffinityReduce), report.affinity_reductions);
    assert!(report.relocations() > 0, "the run relocates");
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
