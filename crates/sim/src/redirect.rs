//! The redirect engine: the per-request decision layer between the
//! event loop and the [`Redirector`].
//!
//! Every redirect walks the object's replica set once ([`choose`]),
//! skipping the replicas that are not *usable* — host down, or cut off
//! from the redirector or the gateway (a compare of component labels) —
//! and offering the rest, with their hop distances read from the
//! gateway's row of the routing table, to one [`Fig2Pass`];
//! [`Redirector::serve`] then takes Fig. 2's branch. At paper scale a
//! set is not small: in the `paper_zipf` run (10 000 objects, Zipf,
//! seed 1) at t = 3 000 s a request's object holds 25 replicas on
//! average, weighted by request share, 47 % of requests go to objects
//! with 20 or more, and 15 objects sit on all 53 nodes. So the walk
//! does each step once per replica — one distance read, one unit-count
//! division, two compares — keeps nothing between requests, and its
//! memory does not grow with the catalogue or the number of gateways.
//! While every host and every link is up ([`FaultState::all_up`]) the
//! usability test is vacuous — topologies are validated connected — and
//! is skipped.

use radar_core::{Fig2Pass, ObjectId, Redirector};
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
        && view.reachable(rnode, host)
        && view.reachable(host, gateway)
}

/// Chooses the replica of `object` serving a request entering at
/// `gateway`, through redirector node `rnode`, by Fig. 2 over the
/// usable replicas. Passing `record` requests the Fig. 2 decision for
/// the flight recorder, filled into the caller's reused event so
/// tracing allocates nothing per request; traced or not, the decision
/// is the same pass.
///
/// Returns `None` when no usable replica exists — the platform then
/// runs its primary-fallback path.
pub(crate) fn choose(
    object: ObjectId,
    gateway: NodeId,
    rnode: NodeId,
    redirector: &mut Redirector,
    view: &RoutingView,
    fault_state: &FaultState,
    record: Option<&mut DecisionEvent>,
) -> Option<NodeId> {
    let all_up = fault_state.all_up();
    let row = view.table().distances_to(gateway);
    let mut pass = Fig2Pass::new(record);
    for (i, e) in redirector.directory().replicas(object).iter().enumerate() {
        let reachable = || usable(fault_state, view, rnode, e.host, gateway);
        debug_assert!(!all_up || reachable(), "all up, yet {} is unusable", e.host);
        if all_up || reachable() {
            pass.offer(i, e, row[e.host.index()]);
        }
    }
    redirector.serve(object, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultTransition};
    use radar_obs::{CandidateSnapshot, DecisionBranch};
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

    /// Fig. 2 as the engine decided it before the one-pass walk: the
    /// usable replicas collected into an `(entry index, distance)` list,
    /// `p` = min `(distance, host)` and `q` = min `(unit_rcnt, host)` by
    /// two scans of that list, then the published test. Returns the
    /// chosen entry index and the decision record, or `None` when no
    /// replica is usable.
    fn listed_rule(
        r: &Redirector,
        constant: f64,
        object: ObjectId,
        gateway: NodeId,
        rnode: NodeId,
        view: &RoutingView,
        fault_state: &FaultState,
    ) -> Option<(usize, DecisionEvent)> {
        let entries = r.replicas(object);
        let candidates: Vec<(usize, u32)> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                fault_state.host_up(e.host.index() as u16)
                    && !view.path(rnode, e.host).is_empty()
                    && !view.path(e.host, gateway).is_empty()
            })
            .map(|(i, e)| (i, view.distance(e.host, gateway)))
            .collect();
        let p = candidates
            .iter()
            .min_by_key(|&&(i, dist)| (dist, entries[i].host))?
            .0;
        let q = candidates
            .iter()
            .min_by(|&&(a, _), &&(b, _)| {
                let (ea, eb) = (&entries[a], &entries[b]);
                ea.unit_rcnt()
                    .partial_cmp(&eb.unit_rcnt())
                    .expect("unit request counts are finite")
                    .then(ea.host.cmp(&eb.host))
            })?
            .0;
        let unit = |i: usize| entries[i].unit_rcnt();
        let (chosen, branch) = if unit(p) / constant > unit(q) {
            (q, DecisionBranch::LeastRequested)
        } else {
            (p, DecisionBranch::Closest)
        };
        let host = |i: usize| entries[i].host.index() as u16;
        let record = DecisionEvent {
            chosen: host(chosen),
            branch,
            constant,
            closest: Some(host(p)),
            least: Some(host(q)),
            unit_closest: Some(unit(p)),
            unit_least: Some(unit(q)),
            candidates: candidates
                .iter()
                .map(|&(i, distance)| CandidateSnapshot {
                    host: host(i),
                    rcnt: entries[i].rcnt,
                    aff: entries[i].aff,
                    unit: unit(i),
                    distance,
                })
                .collect(),
            ..DecisionEvent::default()
        };
        Some((chosen, record))
    }

    #[test]
    fn one_pass_matches_the_listed_rule_under_random_faults() {
        // The one-pass walk, traced and untraced on two redirectors in
        // lockstep, against the listed rule on the state each decision
        // was made in, over the 53-node backbone: replica sets of every
        // size up to all 53 nodes, affinities 1–4 (so units like 2/2 and
        // 1/1 tie), request counts reset now and then (every unit ties
        // again), and random host and link outages that start all-up,
        // overlap (including states where no replica is usable) and end
        // all-up.
        const CONSTANT: f64 = 2.0;
        let mut rng = SimRng::seed_from(0x5eed_0049);
        let mut view = RoutingView::new(builders::uunet());
        let n = view.topology().len() as u16;
        assert_eq!(n, 53);
        let links: Vec<(u16, u16)> = view
            .topology()
            .links()
            .iter()
            .map(|&(a, b)| (a.index() as u16, b.index() as u16))
            .collect();
        let mut fault_state = FaultState::new(n as usize);
        let objects = 24u32;
        let mut untraced = Redirector::new(objects, CONSTANT);
        for i in 0..objects {
            // Sizes spread over 1..=53, with the last objects on every node.
            let size = match i {
                0..=19 => 1 + rng.index(n as usize),
                _ => n as usize,
            };
            let mut hosts: Vec<u16> = (0..n).collect();
            for k in 0..size {
                let pick = k + rng.index(hosts.len() - k);
                hosts.swap(k, pick);
                untraced.install(ObjectId::new(i), NodeId::new(hosts[k]));
            }
        }
        let mut traced = untraced.clone();
        let mut record = DecisionEvent::default();
        let rnode = view.table().centroid();
        let mut active: Vec<Fault> = Vec::new();
        let (mut empty_sets, mut shed, mut full_sets) = (0, 0, 0);
        let (mut all_up_rounds, mut faulted_rounds, mut unit_ties) = (0, 0, 0);
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
                    crash(rng.index(n as usize) as u16)
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
            // An affinity change resets the object's counts to 1.
            for _ in 0..2 {
                let o = ObjectId::new(rng.index(objects as usize) as u32);
                let replicas = untraced.replicas(o);
                let host = replicas[rng.index(replicas.len())].host;
                let aff = 1 + rng.index(4) as u32;
                untraced.notify_affinity(o, host, aff);
                traced.notify_affinity(o, host, aff);
            }
            for _ in 0..60 {
                let object = ObjectId::new(rng.index(objects as usize) as u32);
                let gw = NodeId::new(rng.index(n as usize) as u16);
                let before = untraced.replicas(object).to_vec();
                let expect =
                    listed_rule(&untraced, CONSTANT, object, gw, rnode, &view, &fault_state);
                let got = choose(object, gw, rnode, &mut untraced, &view, &fault_state, None);
                let got_traced = choose(
                    object,
                    gw,
                    rnode,
                    &mut traced,
                    &view,
                    &fault_state,
                    Some(&mut record),
                );
                let at = format!("round {round}, {object} from {gw}");
                assert_eq!(got, got_traced, "{at}");
                let mut after = before.clone();
                match expect {
                    None => {
                        assert_eq!(got, None, "{at}");
                        empty_sets += 1;
                    }
                    Some((chosen, want)) => {
                        assert_eq!(got, Some(before[chosen].host), "{at}");
                        after[chosen].rcnt += 1;
                        let (object, gateway) = (record.object, record.gateway);
                        assert_eq!(
                            record,
                            DecisionEvent {
                                object,
                                gateway,
                                ..want.clone()
                            },
                            "{at}"
                        );
                        shed += usize::from(want.branch == DecisionBranch::LeastRequested);
                        full_sets += usize::from(want.candidates.len() == n as usize);
                        let mut units: Vec<f64> = want.candidates.iter().map(|c| c.unit).collect();
                        units.sort_by(f64::total_cmp);
                        unit_ties += usize::from(units.windows(2).any(|w| w[0] == w[1]));
                    }
                }
                assert_eq!(untraced.replicas(object), &after[..], "{at}");
            }
            assert_eq!(untraced, traced, "round {round}");
        }
        assert!(fault_state.all_up() && all_up_rounds > 50 && faulted_rounds > 200);
        assert!(
            empty_sets > 0,
            "no round left an object without a usable replica"
        );
        assert!(
            shed > 1_000 && full_sets > 1_000 && unit_ties > 10_000,
            "{shed} shed, {full_sets} over all 53 nodes, {unit_ties} with tied units"
        );
    }

    #[test]
    fn membership_change_is_seen_by_the_next_request() {
        let view = RoutingView::new(builders::star(5));
        let fault_state = FaultState::new(view.topology().len());
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(1));
        let gw = NodeId::new(2);
        let rnode = NodeId::new(0);
        let first = choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(first, Some(NodeId::new(1)));
        r.directory_mut().notify_created(x(), gw);
        let second = choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(second, Some(gw), "the new, much closer replica wins");
    }

    #[test]
    fn a_crashed_host_is_filtered_out() {
        let mut view = RoutingView::new(builders::star(5));
        let mut fault_state = FaultState::new(view.topology().len());
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(1));
        r.install(x(), NodeId::new(3));
        let gw = NodeId::new(1);
        let rnode = NodeId::new(0);
        let first = choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(first, Some(NodeId::new(1)), "local replica wins");
        apply(&mut fault_state, &mut view, crash(1), true);
        let second = choose(x(), gw, rnode, &mut r, &view, &fault_state, None);
        assert_eq!(second, Some(NodeId::new(3)));
    }
}
