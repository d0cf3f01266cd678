//! The paper's §3 worked examples and headline protocol claims, verified
//! end-to-end at test scale.

use radar::core::{ObjectId, Params, Redirector};
use radar::sim::{Scenario, Simulation};
use radar::simcore::SimRng;
use radar::simnet::{builders, NodeId};
use radar::workload::{Uniform, Workload};

/// §3's America/Europe example, part 1: with balanced demand, every
/// request is served by its local replica.
#[test]
fn balanced_two_continent_demand_served_locally() {
    let topo = builders::two_continents();
    let routes = topo.routes();
    let mut redirector = Redirector::new(1, Params::paper().distribution_constant);
    let x = ObjectId::new(0);
    redirector.install(x, NodeId::new(0));
    redirector.install(x, NodeId::new(1));
    for i in 0..1000 {
        let gw = NodeId::new(i % 2);
        assert_eq!(redirector.choose_replica(x, gw, &routes), Some(gw));
    }
}

/// §3, part 2: one-sided demand sheds one third of the load to the
/// remote replica — the protocol's load sharing without load knowledge.
#[test]
fn one_sided_demand_sheds_a_third() {
    let topo = builders::two_continents();
    let routes = topo.routes();
    let mut redirector = Redirector::new(1, 2.0);
    let x = ObjectId::new(0);
    redirector.install(x, NodeId::new(0));
    redirector.install(x, NodeId::new(1));
    let n = 6000;
    let remote = (0..n)
        .filter(|_| redirector.choose_replica(x, NodeId::new(0), &routes) == Some(NodeId::new(1)))
        .count();
    let frac = remote as f64 / n as f64;
    assert!((frac - 1.0 / 3.0).abs() < 0.02, "remote share {frac}");
}

/// The paper's central §3 claim, end-to-end: a server swamped by
/// requests from its own vicinity sheds load under the protocol, which
/// closest-replica routing can never do.
#[test]
fn swamped_server_sheds_local_overload() {
    #[derive(Debug)]
    struct Swamp {
        uniform: Uniform,
    }
    impl Workload for Swamp {
        fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
            // Gateway 5's clients hammer objects 0..20 (hosted on node 5
            // via round-robin? no — explicit below); others browse.
            if gateway == NodeId::new(5) && rng.chance(0.95) {
                ObjectId::new(rng.index(20) as u32)
            } else {
                self.uniform.choose(now, gateway, rng)
            }
        }
        fn name(&self) -> &str {
            "swamp"
        }
    }

    let objects = 400u32;
    let mut rates = vec![4.0; 53];
    rates[5] = 160.0;
    let mut placement: Vec<Vec<u16>> = (0..objects).map(|i| vec![(i % 53) as u16]).collect();
    for assignment in placement.iter_mut().take(20) {
        *assignment = vec![5];
    }
    let scenario = Scenario::builder()
        .num_objects(objects)
        .node_request_rates(rates)
        .initial_placement(radar::sim::InitialPlacement::Explicit(placement))
        .duration(1_500.0)
        .tracked_host(5)
        .seed(17)
        .build()
        .expect("valid scenario");
    let report = Simulation::new(
        scenario,
        Box::new(Swamp {
            uniform: Uniform::new(objects),
        }),
    )
    .run();

    let first = report
        .load_estimates
        .iter()
        .find(|s| s.actual > 0.0)
        .unwrap();
    let last = report.load_estimates.last().unwrap();
    assert!(
        first.actual > 140.0,
        "node 5 should start swamped, got {}",
        first.actual
    );
    assert!(
        last.actual < 100.0,
        "node 5 should shed below ~hw, still at {}",
        last.actual
    );
    // The shedding happened through replication of the hot objects.
    let hot_replicas: usize = (0..20).map(|i| report.final_replicas[i].len()).sum();
    assert!(
        hot_replicas > 25,
        "hot objects only have {hot_replicas} replicas"
    );
}

/// Theorem 5's run-time guarantee: with the paper's `4u < m` constraint,
/// a full simulation never cycles an object through replicate→delete in
/// consecutive epochs on the same host pair.
#[test]
fn no_replicate_delete_cycles() {
    use radar::obs::PlacementActionKind as A;
    let scenario = Scenario::builder()
        .num_objects(400)
        .node_request_rate(4.0)
        .duration(900.0)
        .seed(23)
        .build()
        .expect("valid");
    let topo = builders::uunet();
    let report = Simulation::new(
        scenario,
        Box::new(radar::workload::Regional::new(400, &topo, 0.01, 0.9)),
    )
    .run();
    // For each (object, target) replication, check the target does not
    // drop that object at its own next placement run (within one period
    // plus stagger slack).
    let mut cycles = 0;
    for e in &report.relocation_log {
        if e.action != A::GeoReplicate && e.action != A::LoadReplicate {
            continue;
        }
        let target = e.target.expect("replications have targets");
        let cycle = report.relocation_log.iter().any(|d| {
            d.action == A::Drop
                && d.object == e.object
                && d.host == target
                && d.t > e.t
                && d.t <= e.t + 220.0
        });
        if cycle {
            cycles += 1;
        }
    }
    let total = report.geo_replications + report.offload_replications;
    assert!(
        (cycles as f64) <= (total as f64) * 0.02,
        "{cycles} of {total} replications were dropped within two epochs"
    );
}
