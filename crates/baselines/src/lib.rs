//! Baseline policies the paper argues against (§1, §3), implemented so
//! the evaluation harness can reproduce the motivating comparisons:
//!
//! * [`RoundRobinSelection`] — "a simple round-robin request distribution
//!   … would distribute the load among all replicas but would be
//!   oblivious to the proximity of requesters to servers" (the DNS
//!   rotation of Katz et al., paper reference 23);
//! * [`ClosestSelection`] — "always directing requests to the closest
//!   replica … would create problems when a server is swamped with
//!   requests originating from its vicinity: no matter how many
//!   additional replicas the server creates, all requests will be sent
//!   to it anyway" (the proximity-only mode of CISCO DistributedDirector
//!   and of ADR/WebWave's placement assumption);
//! * [`RandomSelection`] — uniformly random over current replicas, a
//!   proximity- and load-oblivious control.
//!
//! Placement baselines mirror the selection seam on the other half of
//! the protocol ([`radar_sim::PlacementPolicy`]): see
//! [`AvailabilityPlacement`] (availability-aware continuous placement)
//! and [`ClusterPlacement`] (cluster-based load-balancing replication)
//! in [`mod@placement`]. The degenerate baselines still need no code: static
//! placement is [`radar_sim::PlacementMode::Static`] with the paper's
//! round-robin initial placement, and replicate-everywhere is
//! [`radar_sim::InitialPlacement::Everywhere`].
//!
//! [`selection()`] and [`placement()`] build any policy of either half, the
//! paper's own included, from the name the CLI and the experiments use.
//!
//! # Examples
//!
//! Running the paper's protocol against a baseline on the same scenario:
//!
//! ```
//! use radar_baselines::ClosestSelection;
//! use radar_sim::{Scenario, Simulation};
//! use radar_workload::ZipfReeds;
//!
//! let scenario = Scenario::builder()
//!     .num_objects(100)
//!     .duration(60.0)
//!     .node_request_rate(1.0)
//!     .build()?;
//! let report = Simulation::with_selection(
//!     scenario,
//!     Box::new(ZipfReeds::new(100)),
//!     Box::new(ClosestSelection::new()),
//! )
//! .run();
//! assert_eq!(report.policy, "closest");
//! # Ok::<(), radar_sim::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod placement;

pub use placement::{AvailabilityPlacement, ClusterPlacement};

use std::collections::HashMap;

use radar_core::{ObjectId, Redirector};
use radar_sim::{PlacementPolicy, RadarPlacement, RadarSelection, SelectionPolicy};
use radar_simcore::SimRng;
use radar_simnet::{NodeId, RoutingTable};

/// Round-robin over an object's replicas, in host-id order. Distributes
/// load evenly and ignores proximity entirely.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinSelection {
    cursors: HashMap<ObjectId, usize>,
}

impl RoundRobinSelection {
    /// Creates a round-robin policy with per-object cursors.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionPolicy for RoundRobinSelection {
    fn choose(
        &mut self,
        object: ObjectId,
        _gateway: NodeId,
        redirector: &mut Redirector,
        _routes: &RoutingTable,
    ) -> Option<NodeId> {
        let replicas = redirector.replicas(object);
        if replicas.is_empty() {
            return None;
        }
        let cursor = self.cursors.entry(object).or_insert(0);
        let host = replicas[*cursor % replicas.len()].host;
        *cursor = (*cursor + 1) % replicas.len();
        Some(host)
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Always the replica closest to the requesting gateway (hop count,
/// lowest id on ties). Optimal proximity, no load sharing at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosestSelection;

impl ClosestSelection {
    /// Creates a closest-replica policy.
    pub fn new() -> Self {
        ClosestSelection
    }
}

impl SelectionPolicy for ClosestSelection {
    fn choose(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        redirector: &mut Redirector,
        routes: &RoutingTable,
    ) -> Option<NodeId> {
        routes.closest_to(gateway, redirector.replicas(object).iter().map(|r| r.host))
    }

    fn name(&self) -> &str {
        "closest"
    }
}

/// Uniformly random replica choice, seeded for reproducibility.
#[derive(Debug, Clone)]
pub struct RandomSelection {
    rng: SimRng,
}

impl RandomSelection {
    /// Creates a random policy from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from(seed),
        }
    }
}

impl SelectionPolicy for RandomSelection {
    fn choose(
        &mut self,
        object: ObjectId,
        _gateway: NodeId,
        redirector: &mut Redirector,
        _routes: &RoutingTable,
    ) -> Option<NodeId> {
        let replicas = redirector.replicas(object);
        if replicas.is_empty() {
            return None;
        }
        let idx = self.rng.index(replicas.len());
        Some(replicas[idx].host)
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Builds a replica-selection policy by name: `radar` (the paper's
/// Fig. 2 algorithm), `round-robin`, `closest`, or `random` drawing from
/// `seed`.
///
/// # Errors
///
/// Returns a message naming an unknown policy and listing the known ones.
pub fn selection(name: &str, seed: u64) -> Result<Box<dyn SelectionPolicy + Send>, String> {
    match name {
        "radar" => Ok(Box::new(RadarSelection::new())),
        "round-robin" => Ok(Box::new(RoundRobinSelection::new())),
        "closest" => Ok(Box::new(ClosestSelection::new())),
        "random" => Ok(Box::new(RandomSelection::new(seed))),
        _ => Err(format!(
            "unknown policy {name:?} (radar, round-robin, closest, random)"
        )),
    }
}

/// Builds a replica-placement policy by name: `radar` (the paper's §4
/// distribution algorithm), `availability` or `cluster`.
///
/// # Errors
///
/// Returns a message naming an unknown placement and listing the known
/// ones.
pub fn placement(name: &str) -> Result<Box<dyn PlacementPolicy + Send>, String> {
    match name {
        "radar" => Ok(Box::new(RadarPlacement::new())),
        "availability" => Ok(Box::new(AvailabilityPlacement::new())),
        "cluster" => Ok(Box::new(ClusterPlacement::new())),
        _ => Err(format!(
            "unknown placement {name:?} (radar, availability, cluster)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::builders;

    fn x() -> ObjectId {
        ObjectId::new(0)
    }

    fn setup() -> (Redirector, RoutingTable) {
        let topo = builders::line(4);
        let routes = topo.routes();
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(0));
        r.install(x(), NodeId::new(3));
        (r, routes)
    }

    #[test]
    fn factories_build_the_policy_they_name() {
        for name in ["radar", "round-robin", "closest", "random"] {
            assert_eq!(selection(name, 1).unwrap().name(), name);
        }
        for name in ["radar", "availability", "cluster"] {
            assert_eq!(placement(name).unwrap().name(), name);
        }
        assert_eq!(
            selection("psychic", 1).err().unwrap(),
            "unknown policy \"psychic\" (radar, round-robin, closest, random)"
        );
        assert_eq!(
            placement("psychic").err().unwrap(),
            "unknown placement \"psychic\" (radar, availability, cluster)"
        );
    }

    #[test]
    fn round_robin_alternates() {
        let (mut r, routes) = setup();
        let mut p = RoundRobinSelection::new();
        let picks: Vec<_> = (0..4)
            .map(|_| p.choose(x(), NodeId::new(0), &mut r, &routes).unwrap())
            .collect();
        assert_eq!(
            picks,
            vec![
                NodeId::new(0),
                NodeId::new(3),
                NodeId::new(0),
                NodeId::new(3)
            ]
        );
        assert_eq!(p.name(), "round-robin");
    }

    #[test]
    fn round_robin_ignores_proximity() {
        let (mut r, routes) = setup();
        let mut p = RoundRobinSelection::new();
        // Gateway 3 is co-located with a replica, yet half the requests
        // go to the far one.
        let far = (0..100)
            .filter(|_| p.choose(x(), NodeId::new(3), &mut r, &routes) == Some(NodeId::new(0)))
            .count();
        assert_eq!(far, 50);
    }

    #[test]
    fn closest_always_local() {
        let (mut r, routes) = setup();
        let mut p = ClosestSelection::new();
        for _ in 0..100 {
            assert_eq!(
                p.choose(x(), NodeId::new(3), &mut r, &routes),
                Some(NodeId::new(3))
            );
            assert_eq!(
                p.choose(x(), NodeId::new(1), &mut r, &routes),
                Some(NodeId::new(0))
            );
        }
        assert_eq!(p.name(), "closest");
    }

    #[test]
    fn closest_never_sheds_local_load() {
        // The paper's §3 criticism: adding replicas does not relieve a
        // host swamped by local requests under closest-replica routing.
        let (mut r, routes) = setup();
        r.install(x(), NodeId::new(1));
        r.install(x(), NodeId::new(2));
        let mut p = ClosestSelection::new();
        for _ in 0..100 {
            assert_eq!(
                p.choose(x(), NodeId::new(0), &mut r, &routes),
                Some(NodeId::new(0))
            );
        }
    }

    #[test]
    fn random_covers_all_replicas_reproducibly() {
        let (mut r, routes) = setup();
        let mut p = RandomSelection::new(7);
        let picks: Vec<_> = (0..100)
            .map(|_| p.choose(x(), NodeId::new(0), &mut r, &routes).unwrap())
            .collect();
        assert!(picks.contains(&NodeId::new(0)));
        assert!(picks.contains(&NodeId::new(3)));
        let mut p2 = RandomSelection::new(7);
        let picks2: Vec<_> = (0..100)
            .map(|_| p2.choose(x(), NodeId::new(0), &mut r, &routes).unwrap())
            .collect();
        assert_eq!(picks, picks2);
        assert_eq!(p.name(), "random");
    }

    #[test]
    fn empty_replica_set_yields_none() {
        let topo = builders::line(2);
        let routes = topo.routes();
        let mut r = Redirector::new(1, 2.0);
        assert_eq!(
            RoundRobinSelection::new().choose(x(), NodeId::new(0), &mut r, &routes),
            None
        );
        assert_eq!(
            ClosestSelection::new().choose(x(), NodeId::new(0), &mut r, &routes),
            None
        );
        assert_eq!(
            RandomSelection::new(1).choose(x(), NodeId::new(0), &mut r, &routes),
            None
        );
    }
}
