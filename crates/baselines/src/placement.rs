//! Baseline *placement* policies for head-to-head comparison with the
//! paper's placement algorithm
//! ([`radar_core::placement::run_placement_into`]).
//!
//! Both implement [`radar_sim::PlacementPolicy`] over the identical
//! [`PlacementEnv`] surface the paper's algorithm uses, so a comparison
//! run differs only in the decision rule:
//!
//! * [`AvailabilityPlacement`] — availability-aware continuous
//!   placement (after arXiv 1605.04069): steer every object toward a
//!   fixed replica-count target, replicating under-replicated objects
//!   toward their demand and shedding excess copies, with no load
//!   awareness at all;
//! * [`ClusterPlacement`] — cluster-based load-balancing replication
//!   (after arXiv 1009.4563): replicate hot objects to the candidate
//!   carrying the *largest* demand share (the cluster head of its
//!   access cluster, vs. the paper's farthest-qualified rule) and shed
//!   load watermark-to-watermark like a classic load balancer.

use radar_core::placement::{
    action_event, PlacementActionKind, PlacementEnv, PlacementOutcome, PlacementScratch,
};
use radar_core::{bounds, CreateObjRequest, HostState, RelocationKind};
use radar_sim::PlacementPolicy;
use radar_simnet::NodeId;

/// The availability policy's replica-count target: two copies survive
/// one host loss.
const REPLICA_TARGET: usize = 2;

/// Availability-aware continuous replica placement: every object is
/// driven toward two replicas, continuously.
///
/// Each epoch, for every hosted object, the policy reads the live
/// replica count from the directory ([`PlacementEnv::replica_count`]):
/// an under-replicated object is copied to the demand candidate
/// farthest along its preference paths (falling back to an under-loaded
/// host when demand is purely local), an over-replicated one sheds this
/// host's copy (the redirector still protects the last replica). Load
/// plays no part — that is the point of the comparison: availability
/// stays flat while max load and update traffic drift wherever the
/// replica floor pushes them.
#[derive(Debug, Clone, Copy, Default)]
pub struct AvailabilityPlacement;

impl AvailabilityPlacement {
    /// Creates the availability-aware policy.
    pub fn new() -> Self {
        AvailabilityPlacement
    }
}

impl PlacementPolicy for AvailabilityPlacement {
    fn run_epoch(
        &mut self,
        host: &mut HostState,
        now: f64,
        env: &mut dyn PlacementEnv,
        scratch: &mut PlacementScratch,
        out: &mut PlacementOutcome,
    ) {
        out.clear();
        host.advance(now);
        let params = *host.params();
        let s = host.node();
        let mut object_ids = std::mem::take(scratch.object_ids_mut());
        host.collect_object_ids(&mut object_ids);
        for &x in &object_ids {
            let o = host.object(x).expect("object_ids() returns hosted objects");
            let (aff, cnt_s, unit_load, acquired_at) =
                (o.aff(), o.own_count(), o.unit_load(), o.acquired_at());
            // Same partial-window rule as the paper's algorithm: never
            // judge a replica acquired since the last run.
            if acquired_at > host.last_placement_run() {
                continue;
            }
            let unit_rate = cnt_s as f64 / aff as f64 / params.placement_period;
            let n = env.replica_count(x);
            if n > REPLICA_TARGET {
                // Excess copy: offer this host's replica back. The
                // redirector refuses the last copy, and because each
                // host's epoch re-reads the live count, a wave of epochs
                // converges on the target without undershooting.
                if env.request_drop(x, s) {
                    host.drop_object(x);
                    out.decisions.push(action_event(
                        host,
                        x,
                        PlacementActionKind::Drop,
                        None,
                        unit_rate,
                        None,
                        None,
                    ));
                }
                continue;
            }
            if n >= REPLICA_TARGET || !env.may_replicate(x) {
                continue;
            }
            // Under-replicated: place the missing copy where the demand
            // is, farthest demand candidate first (availability against
            // regional failures improves with spread), falling back to
            // any under-loaded host when all demand is local.
            let counts = scratch.counts_mut();
            host.counts(host.object(x).expect("still hosted"), counts);
            let mut best: Option<(u32, NodeId, f64)> = None;
            for &(p, c) in counts.iter() {
                if p == s || c == 0 {
                    continue;
                }
                let share = if cnt_s == 0 {
                    0.0
                } else {
                    c as f64 / cnt_s as f64
                };
                let key = (env.distance(s, p), p, share);
                best = match best {
                    None => Some(key),
                    Some(b)
                        if (key.0, std::cmp::Reverse(key.1)) > (b.0, std::cmp::Reverse(b.1)) =>
                    {
                        Some(key)
                    }
                    b => b,
                };
            }
            let candidate = best
                .map(|(_, p, share)| (p, Some(share)))
                .or_else(|| env.find_offload_recipient(s).map(|(p, _)| (p, None)));
            let Some((p, share)) = candidate else {
                continue;
            };
            let req = CreateObjRequest {
                kind: RelocationKind::Replicate,
                object: x,
                source: s,
                unit_load,
            };
            if env.create_obj(p, req).is_accepted() {
                out.decisions.push(action_event(
                    host,
                    x,
                    PlacementActionKind::GeoReplicate,
                    Some(p),
                    unit_rate,
                    share,
                    None,
                ));
            }
        }
        *scratch.object_ids_mut() = object_ids;
        host.reset_access_counts();
        host.mark_placement_run(now);
    }

    fn name(&self) -> &str {
        "availability"
    }
}

/// Cluster-based load-balancing replication: hot objects are copied to
/// the head of their access cluster, overload is shed to under-loaded
/// hosts, cold copies are dropped.
///
/// The contrast with the paper's rule is the candidate choice: where
/// RaDaR places on the *farthest* qualified candidate (responsiveness),
/// the cluster balancer places on the candidate with the *largest*
/// demand share — the cluster head — concentrating replicas inside hot
/// clusters and leaving the periphery to eat the latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterPlacement;

impl ClusterPlacement {
    /// Creates the cluster-based load-balancing policy.
    pub fn new() -> Self {
        ClusterPlacement
    }
}

impl PlacementPolicy for ClusterPlacement {
    fn run_epoch(
        &mut self,
        host: &mut HostState,
        now: f64,
        env: &mut dyn PlacementEnv,
        scratch: &mut PlacementScratch,
        out: &mut PlacementOutcome,
    ) {
        out.clear();
        host.advance(now);
        let params = *host.params();
        let s = host.node();

        // Watermark hysteresis identical to the paper's (the comparison
        // should isolate the replication rule, not the overload sensor).
        let load = host.load_lower();
        if load > params.high_watermark {
            host.set_offloading(true);
        }
        if load < params.low_watermark {
            host.set_offloading(false);
        }

        let mut object_ids = std::mem::take(scratch.object_ids_mut());
        host.collect_object_ids(&mut object_ids);
        for &x in &object_ids {
            let o = host.object(x).expect("object_ids() returns hosted objects");
            let (aff, cnt_s, unit_load, acquired_at) =
                (o.aff(), o.own_count(), o.unit_load(), o.acquired_at());
            if acquired_at > host.last_placement_run() {
                continue;
            }
            let unit_rate = cnt_s as f64 / aff as f64 / params.placement_period;

            // Cold copies leave (same deletion test as the paper, so
            // replicas do not accumulate without bound).
            if unit_rate < params.deletion_threshold {
                let action = if aff > 1 {
                    let new_aff = host.reduce_affinity(x);
                    env.notify_affinity(x, s, new_aff);
                    PlacementActionKind::AffinityReduce
                } else if env.request_drop(x, s) {
                    host.drop_object(x);
                    PlacementActionKind::Drop
                } else {
                    continue;
                };
                out.decisions
                    .push(action_event(host, x, action, None, unit_rate, None, None));
                continue;
            }

            // Hot objects replicate to their cluster head: the foreign
            // candidate carrying the largest demand share (lowest id on
            // ties — total, deterministic order).
            if unit_rate > params.replication_threshold && env.may_replicate(x) {
                // Fresh borrow: the cold branch above may mutate `host`.
                let counts = scratch.counts_mut();
                host.counts(host.object(x).expect("hot object is still hosted"), counts);
                let head = counts
                    .iter()
                    .copied()
                    .filter(|&(p, c)| p != s && c > 0)
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
                if let Some((p, c)) = head {
                    let share = c as f64 / cnt_s as f64;
                    let req = CreateObjRequest {
                        kind: RelocationKind::Replicate,
                        object: x,
                        source: s,
                        unit_load,
                    };
                    if env.create_obj(p, req).is_accepted() {
                        out.decisions.push(action_event(
                            host,
                            x,
                            PlacementActionKind::GeoReplicate,
                            Some(p),
                            unit_rate,
                            Some(share),
                            None,
                        ));
                    }
                }
            }
        }

        // Load balancing: shed watermark-to-watermark to one
        // under-loaded recipient, coldest objects first (a classic LB
        // moves the cheapest load units; hot objects were already
        // replicated above and stay for their cluster).
        if host.is_offloading() {
            if let Some((recipient, mut recipient_load)) = env.find_offload_recipient(s) {
                let shed = scratch.keyed_objects_mut();
                shed.clear();
                host.collect_object_ids(&mut object_ids);
                for &x in &object_ids {
                    let o = host.object(x).expect("hosted");
                    if o.acquired_at() > host.last_placement_run() {
                        continue;
                    }
                    let ur = o.own_count() as f64 / o.aff() as f64 / params.placement_period;
                    shed.push((x, ur));
                }
                shed.sort_unstable_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("unit rates are finite")
                        .then(a.0.cmp(&b.0))
                });
                let shed = std::mem::take(scratch.keyed_objects_mut());
                for &(x, unit_rate) in &shed {
                    if host.load_lower() <= params.low_watermark
                        || recipient_load >= params.low_watermark
                    {
                        break;
                    }
                    let (aff, rate, unit_load) = {
                        let o = host.object(x).expect("hosted");
                        (o.aff(), o.rate(), o.unit_load())
                    };
                    let req = CreateObjRequest {
                        kind: RelocationKind::Migrate,
                        object: x,
                        source: s,
                        unit_load,
                    };
                    if !env.create_obj(recipient, req).is_accepted() {
                        break;
                    }
                    host.note_shed(now, bounds::migration_source_decrease(rate, aff));
                    recipient_load += bounds::target_increase(rate, aff);
                    if aff > 1 {
                        let new_aff = host.reduce_affinity(x);
                        env.notify_affinity(x, s, new_aff);
                    } else if env.request_drop(x, s) {
                        host.drop_object(x);
                    }
                    out.decisions.push(action_event(
                        host,
                        x,
                        PlacementActionKind::LoadMigrate,
                        Some(recipient),
                        unit_rate,
                        None,
                        None,
                    ));
                }
                *scratch.keyed_objects_mut() = shed;
            }
        }

        *scratch.object_ids_mut() = object_ids;
        host.reset_access_counts();
        host.mark_placement_run(now);
    }

    fn name(&self) -> &str {
        "cluster"
    }
}
