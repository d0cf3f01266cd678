//! Pluggable replica-selection policies.
//!
//! The protocol's own distribution algorithm is [`RadarSelection`];
//! comparator policies (round-robin, closest-replica) live in the
//! `radar-baselines` crate and implement the same [`SelectionPolicy`]
//! trait, so every policy runs against identical replica bookkeeping.

use radar_core::{ObjectId, Redirector};
use radar_simnet::{NodeId, RoutingTable};

/// Chooses which replica serves a request. Implementations may keep
/// their own per-object state (e.g. round-robin cursors) but share the
/// platform's [`Redirector`] for replica-set membership.
pub trait SelectionPolicy: Send {
    /// Picks the serving host for a request to `object` entering at
    /// `gateway`, or `None` if the object has no replicas.
    fn choose(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        redirector: &mut Redirector,
        routes: &RoutingTable,
    ) -> Option<NodeId>;

    /// Fault-aware variant: picks a serving host among those passing
    /// `usable` (live and reachable). The platform always routes requests
    /// through this method; on fault-free runs `usable` is constantly
    /// `true` and it behaves exactly like [`choose`](Self::choose).
    ///
    /// The default implementation runs [`choose`](Self::choose) and fails
    /// the request when the pick is unusable — a policy unaware of faults
    /// degrades pessimistically rather than routing to a crashed host.
    /// Policies should override this to re-select among usable replicas
    /// (see [`RadarSelection`]).
    fn choose_available(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        redirector: &mut Redirector,
        routes: &RoutingTable,
        usable: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        self.choose(object, gateway, redirector, routes)
            .filter(|&h| usable(h))
    }

    /// Policy name for reports.
    fn name(&self) -> &str;

    /// `true` when the policy is the redirector's Fig. 2 rule over the
    /// usable replicas and nothing else, so the platform may decide
    /// through its redirect engine instead of this trait. Policies with
    /// state or decisions of their own (round-robin cursors, randomized
    /// picks) must leave this `false`.
    fn delegates_to_fig2(&self) -> bool {
        false
    }
}

/// The paper's request distribution algorithm (Fig. 2), delegating to
/// [`Redirector::choose_replica`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RadarSelection;

impl RadarSelection {
    /// Creates the protocol's own selection policy.
    pub fn new() -> Self {
        RadarSelection
    }
}

impl SelectionPolicy for RadarSelection {
    fn choose(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        redirector: &mut Redirector,
        routes: &RoutingTable,
    ) -> Option<NodeId> {
        redirector.choose_replica(object, gateway, routes)
    }

    fn choose_available(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        redirector: &mut Redirector,
        routes: &RoutingTable,
        usable: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        redirector.choose_replica_filtered(object, gateway, routes, usable)
    }

    fn name(&self) -> &str {
        "radar"
    }

    fn delegates_to_fig2(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::builders;

    #[test]
    fn radar_selection_delegates_to_redirector() {
        let topo = builders::two_continents();
        let routes = topo.routes();
        let mut redirector = Redirector::new(1, 2.0);
        redirector.install(ObjectId::new(0), NodeId::new(1));
        let mut policy = RadarSelection::new();
        assert_eq!(policy.name(), "radar");
        assert_eq!(
            policy.choose(ObjectId::new(0), NodeId::new(0), &mut redirector, &routes),
            Some(NodeId::new(1))
        );
        // Request count advanced through the policy.
        assert_eq!(redirector.replicas(ObjectId::new(0))[0].rcnt, 2);
    }

    /// A minimal fault-oblivious policy: always the lowest-id replica.
    struct FirstReplica;

    impl SelectionPolicy for FirstReplica {
        fn choose(
            &mut self,
            object: ObjectId,
            _gateway: NodeId,
            redirector: &mut Redirector,
            _routes: &RoutingTable,
        ) -> Option<NodeId> {
            redirector.replicas(object).first().map(|r| r.host)
        }

        fn name(&self) -> &str {
            "first-replica"
        }
    }

    #[test]
    fn default_choose_available_degrades_pessimistically() {
        // The trait's default `choose_available` runs the fault-oblivious
        // `choose` and then *fails* the request if the pick is unusable —
        // it must not silently re-route to another replica, because a
        // policy that never looks at liveness has no basis for a second
        // choice.
        let topo = builders::line(4);
        let routes = topo.routes();
        let mut redirector = Redirector::new(1, 2.0);
        let x = ObjectId::new(0);
        redirector.install(x, NodeId::new(0));
        redirector.install(x, NodeId::new(3));
        let mut policy = FirstReplica;

        // Fault-free: behaves exactly like `choose`.
        let all_up = |_: NodeId| true;
        assert_eq!(
            policy.choose_available(x, NodeId::new(1), &mut redirector, &routes, &all_up),
            Some(NodeId::new(0))
        );

        // The picked host is down: the request fails even though the
        // replica on node 3 is alive and usable.
        let node0_down = |h: NodeId| h != NodeId::new(0);
        assert_eq!(
            policy.choose_available(x, NodeId::new(1), &mut redirector, &routes, &node0_down),
            None
        );

        // Contrast: the protocol's own policy re-selects among usable
        // replicas instead of failing.
        assert_eq!(
            RadarSelection::new().choose_available(
                x,
                NodeId::new(1),
                &mut redirector,
                &routes,
                &node0_down,
            ),
            Some(NodeId::new(3))
        );
    }
}
