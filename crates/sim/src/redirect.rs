//! The redirect engine: the per-request decision layer between the
//! event loop and the [`Redirector`].
//!
//! Every redirect (1) filters the object's replicas down to the
//! *usable* ones — host up, redirector→host and host→gateway routes
//! intact — with their hop distances to the gateway, noting the closest
//! on the way, then (2) runs the Fig. 2 decision over that list
//! ([`Redirector::choose_among_into`]). An object has a handful of
//! replicas, so step (1) is a few array reads; the engine keeps nothing
//! between requests but the list's allocation, and its memory does not
//! grow with the catalogue or the number of gateways. While every host
//! and every link is up ([`FaultState::all_up`]) the filter is vacuous —
//! topologies are validated connected — and only the distance lookups
//! remain.

use radar_core::{ObjectId, Redirector};
use radar_obs::DecisionEvent;
use radar_simnet::{NodeId, RoutingView};

use crate::faults::FaultState;

/// `true` when a request entering at `gateway` can be served by `host`
/// through redirector node `rnode`: the host is up and traffic can flow
/// redirector → host and host → gateway.
pub(crate) fn usable(
    fault_state: &FaultState,
    view: &RoutingView,
    rnode: NodeId,
    host: NodeId,
    gateway: NodeId,
) -> bool {
    fault_state.host_up(host.index() as u16)
        && !view.path(rnode, host).is_empty()
        && !view.path(host, gateway).is_empty()
}

/// The Fig. 2 decision over the currently usable replicas; one engine
/// serves every request.
#[derive(Default)]
pub(crate) struct RedirectEngine {
    /// `(entry_index, distance)` of the usable replicas of the request
    /// being decided, in replica-set order; refilled per request.
    candidates: Vec<(u32, u32)>,
}

impl RedirectEngine {
    /// Chooses the replica of `object` serving a request entering at
    /// `gateway`, through redirector node `rnode`. Passing `record`
    /// requests the Fig. 2 decision for the flight recorder, filled into
    /// the caller's reused event so tracing allocates nothing per
    /// request.
    ///
    /// Returns `None` when no usable replica exists — the platform then
    /// runs its primary-fallback path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn choose(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        rnode: NodeId,
        redirector: &mut Redirector,
        view: &RoutingView,
        fault_state: &FaultState,
        record: Option<&mut DecisionEvent>,
    ) -> Option<NodeId> {
        let reachable = |h: NodeId| usable(fault_state, view, rnode, h, gateway);
        let all_up = fault_state.all_up();
        // The closest candidate `p`: minimum `(distance, host)`; zero and
        // unused when nothing is usable.
        self.candidates.clear();
        let mut closest = 0u32;
        let mut best = (u32::MAX, NodeId::new(u16::MAX));
        for (i, e) in redirector.directory().replicas(object).iter().enumerate() {
            debug_assert!(
                !all_up || reachable(e.host),
                "all up, yet {} is unusable",
                e.host
            );
            if all_up || reachable(e.host) {
                let dist = view.distance(e.host, gateway);
                self.candidates.push((i as u32, dist));
                if (dist, e.host) < best {
                    best = (dist, e.host);
                    closest = i as u32;
                }
            }
        }
        redirector.choose_among_into(object, &self.candidates, Some(closest), record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultTransition};
    use radar_simcore::SimRng;
    use radar_simnet::builders;

    fn x() -> ObjectId {
        ObjectId::new(0)
    }

    /// Opens or closes `fault`'s window in the fault state and, like the
    /// platform's fault handler, mirrors effective link transitions into
    /// the view.
    fn apply(fault_state: &mut FaultState, view: &mut RoutingView, fault: Fault, opens: bool) {
        let t = 0.0;
        let routes_dirty = fault_state.apply(FaultTransition { t, fault, opens });
        if let Fault::LinkDown { a, b, .. } = fault {
            if routes_dirty {
                view.set_link(NodeId::new(a), NodeId::new(b), !opens);
            }
        }
    }

    fn crash(host: u16) -> Fault {
        Fault::HostDown {
            host,
            from: 0.0,
            until: None,
        }
    }

    #[test]
    fn decisions_match_the_filtered_redirector_under_random_faults() {
        // The engine against a naively filtered candidate list decided
        // by `Redirector::choose_among_into` on a cloned redirector,
        // which scans for the closest replica itself, over random host
        // and link outages that start all-up, pass through overlapping
        // faults (including states where no replica is usable) and
        // return to all-up.
        let mut rng = SimRng::seed_from(0x5eed_0013);
        let mut view = RoutingView::new(builders::uunet());
        let n = view.topology().len() as u16;
        let links: Vec<(u16, u16)> = view
            .topology()
            .links()
            .iter()
            .map(|&(a, b)| (a.index() as u16, b.index() as u16))
            .collect();
        let mut fault_state = FaultState::new(n as usize);
        let objects = 8u32;
        let mut engine_side = Redirector::new(objects, 2.0);
        for i in 0..objects {
            for _ in 0..1 + rng.index(4) {
                engine_side.install(ObjectId::new(i), NodeId::new(rng.index(n as usize) as u16));
            }
        }
        let mut oracle_side = engine_side.clone();
        let mut engine = RedirectEngine::default();
        let rnode = view.table().centroid();
        let mut active: Vec<Fault> = Vec::new();
        let (mut empty_sets, mut all_up_rounds, mut faulted_rounds) = (0, 0, 0);
        for round in 0..400 {
            // Rounds 0..150 open faults more often than they close them,
            // 150..300 mostly close, and the tail closes whatever is left.
            let open = match round {
                0..=149 => rng.chance(0.6),
                150..=299 => rng.chance(0.3),
                _ => false,
            };
            if open {
                let fault = if rng.chance(0.5) {
                    // Crash a host that holds a replica half of the time.
                    let o = ObjectId::new(rng.index(objects as usize) as u32);
                    let replicas = engine_side.replicas(o);
                    if rng.chance(0.5) && !replicas.is_empty() {
                        let host = replicas[rng.index(replicas.len())].host;
                        crash(host.index() as u16)
                    } else {
                        crash(rng.index(n as usize) as u16)
                    }
                } else {
                    let (a, b) = links[rng.index(links.len())];
                    Fault::LinkDown {
                        a,
                        b,
                        from: 0.0,
                        until: None,
                    }
                };
                apply(&mut fault_state, &mut view, fault, true);
                active.push(fault);
            } else if !active.is_empty() {
                let closing = active.swap_remove(rng.index(active.len()));
                apply(&mut fault_state, &mut view, closing, false);
            }
            assert_eq!(fault_state.all_up(), active.is_empty(), "round {round}");
            if active.is_empty() {
                all_up_rounds += 1;
            } else {
                faulted_rounds += 1;
            }
            for _ in 0..40 {
                let object = ObjectId::new(rng.index(objects as usize) as u32);
                let gw = NodeId::new(rng.index(n as usize) as u16);
                let usable = |h: NodeId| {
                    fault_state.host_up(h.index() as u16)
                        && !view.path(rnode, h).is_empty()
                        && !view.path(h, gw).is_empty()
                };
                let candidates: Vec<(u32, u32)> = oracle_side
                    .replicas(object)
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| usable(e.host))
                    .map(|(i, e)| (i as u32, view.table().distance(e.host, gw)))
                    .collect();
                let expect = oracle_side.choose_among_into(object, &candidates, None, None);
                let got = engine.choose(
                    object,
                    gw,
                    rnode,
                    &mut engine_side,
                    &view,
                    &fault_state,
                    None,
                );
                assert_eq!(got, expect, "round {round}, {object} from {gw}");
                empty_sets += u32::from(got.is_none());
            }
        }
        assert_eq!(engine_side, oracle_side, "identical request counts");
        assert!(fault_state.all_up() && all_up_rounds > 50 && faulted_rounds > 200);
        assert!(empty_sets > 0, "no round left an object without a replica");
    }

    #[test]
    fn membership_change_is_seen_by_the_next_request() {
        let view = RoutingView::new(builders::star(5));
        let fault_state = FaultState::new(view.topology().len());
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(1));
        let mut engine = RedirectEngine::default();
        let gw = NodeId::new(2);
        let rnode = NodeId::new(0);
        let first = engine.choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(first, Some(NodeId::new(1)));
        r.directory_mut().notify_created(x(), gw);
        let second = engine.choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(second, Some(gw), "the new, much closer replica wins");
    }

    #[test]
    fn a_crashed_host_is_filtered_out() {
        let mut view = RoutingView::new(builders::star(5));
        let mut fault_state = FaultState::new(view.topology().len());
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(1));
        r.install(x(), NodeId::new(3));
        let mut engine = RedirectEngine::default();
        let gw = NodeId::new(1);
        let rnode = NodeId::new(0);
        let first = engine.choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(first, Some(NodeId::new(1)), "local replica wins");
        apply(&mut fault_state, &mut view, crash(1), true);
        let second = engine.choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(second, Some(NodeId::new(3)));
    }
}
