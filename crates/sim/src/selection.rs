//! Pluggable baseline replica-selection policies.
//!
//! The protocol's own distribution algorithm (Fig. 2) is not a policy:
//! a simulation without one runs it in the redirect engine. Comparator
//! policies (round-robin, closest-replica, random) live in the
//! `radar-baselines` crate and plug in beside the engine through
//! [`SelectionPolicy`], against the same replica bookkeeping.

use radar_core::{Directory, ObjectId};
use radar_simnet::{NodeId, RoutingTable};

/// Chooses which replica serves a request. Implementations may keep
/// their own per-object state (e.g. round-robin cursors) but read
/// replica-set membership from the platform's [`Directory`].
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
        directory: &Directory,
        routes: &RoutingTable,
    ) -> Option<NodeId>;

    /// Policy name for reports.
    fn name(&self) -> &str;
}
