//! Pluggable baseline replica-selection policies.
//!
//! The protocol's own distribution algorithm (Fig. 2) is not a policy:
//! a simulation without one runs it in the redirect engine. Comparator
//! policies (round-robin, closest-replica, random) live in the
//! `radar-baselines` crate and plug in beside the engine through
//! [`SelectionPolicy`], against the same replica bookkeeping.

use radar_core::{ObjectId, Redirector};
use radar_simnet::{NodeId, RoutingTable};

/// Chooses which replica serves a request. Implementations may keep
/// their own per-object state (e.g. round-robin cursors) but share the
/// platform's [`Redirector`] for replica-set membership.
///
/// A policy need not know about faults: the platform serves its pick
/// only when that host is up and reachable, and otherwise falls back to
/// the object's primary copy without asking the policy again.
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

    /// Policy name for reports.
    fn name(&self) -> &str;
}
