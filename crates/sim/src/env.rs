//! The placement layer: the environment a deciding host sees
//! ([`SimEnv`]) and the periodic handlers (placement epochs, load
//! sampling, provider updates).
//!
//! A placement epoch applies each replica-set change to the
//! [`radar_core::Directory`] as it is made: membership and the
//! accompanying request-count reset take effect at once, so drop
//! arbitration and replication caps read live state.

use radar_core::placement::{handle_create_obj, run_placement_into, PlacementEnv};
use radar_core::{
    Catalog, CreateObjRequest, CreateObjResponse, Directory, HostState, ObjectId, ObjectKind,
};
use radar_obs::{
    ConsistencyClass, EventKind as ObsEventKind, ProviderUpdateEvent, ResetCause,
    UpdateDeliveredEvent,
};
use radar_simcore::{SimDuration, SimTime};
use radar_simnet::{NodeId, RoutingView};

use crate::faults::FaultState;
use crate::metrics::{LoadEstimateSample, Metrics};
use crate::platform::{Event, Simulation};
use crate::sink::EventSink;

impl Simulation {
    pub(crate) fn on_load_sample(&mut self, t: SimTime) {
        let now = t.as_secs();
        let mut max = 0.0f64;
        let mut max_host = 0u16;
        for (i, host) in self.hosts.iter_mut().enumerate() {
            if !self.fault_state.host_up(i as u16) {
                // A crashed host publishes nothing; an infinite report
                // keeps it off everyone's offload candidate list.
                self.load_reports[i] = f64::INFINITY;
                continue;
            }
            host.advance(now);
            // Publish this measurement round's load report.
            self.load_reports[i] = host.load_upper();
            if host.measured_load() > max {
                max = host.measured_load();
                max_host = i as u16;
            }
        }
        self.metrics.tally.max_load.record(now, max);
        self.metrics.max_load_host.push((now, max_host, max));
        // Replica census for Table 2 (sampled here rather than at
        // placement epochs so static runs are covered too). The
        // directory maintains the total incrementally, so this no longer
        // rescans every object's replica set.
        let total = self.redirector.directory().total_replicas();
        let avg = total as f64 / self.scenario.num_objects as f64;
        self.metrics.replica_series.push((now, avg));
        let tracked = &self.hosts[self.scenario.tracked_host as usize];
        self.metrics.load_estimates.push(LoadEstimateSample {
            t: now,
            actual: tracked.measured_load(),
            upper: tracked.load_upper(),
            lower: tracked.load_lower(),
        });
        let next = t + SimDuration::from_secs(self.scenario.params.measurement_interval);
        if next.as_secs() <= self.scenario.duration {
            self.queue.schedule(next, Event::LoadSample);
        }
    }

    pub(crate) fn on_placement(&mut self, t: SimTime, node: NodeId) {
        let now = t.as_secs();
        let i = node.index();
        if !self.fault_state.host_up(i as u16) {
            // A crashed host makes no placement decisions, but its timer
            // keeps ticking so decisions resume after recovery.
            let next = t + SimDuration::from_secs(self.scenario.params.placement_period);
            if next.as_secs() <= self.scenario.duration {
                self.queue.schedule(next, Event::Placement { host: node });
            }
            return;
        }
        // Take the deciding host out of the vector so the environment
        // can borrow the rest mutably; the empty placeholder allocates
        // nothing.
        let placeholder = HostState::new(node, *self.hosts[i].params());
        let mut host = std::mem::replace(&mut self.hosts[i], placeholder);
        let queue_depth = self.depth();
        let mut env = SimEnv {
            self_index: i,
            hosts: &mut self.hosts,
            directory: self.redirector.directory_mut(),
            metrics: &mut self.metrics,
            view: &self.view,
            catalog: &self.scenario.catalog,
            load_reports: &self.load_reports,
            faults: &self.fault_state,
            offload_probes: &mut self.offload_probe_scratch,
            now,
            events: &mut self.events,
            queue_depth,
        };
        let (scratch, out) = (&mut self.placement_scratch, &mut self.placement_outcome);
        match &mut self.placement_policy {
            Some(policy) => policy.run_epoch(&mut host, now, &mut env, scratch, out),
            None => run_placement_into(&mut host, now, &mut env, scratch, out),
        }
        if self.events.tracing {
            // One flight-recorder event per placement decision, carrying
            // the threshold comparison that triggered it.
            let qd = self.depth();
            for d in &self.placement_outcome.decisions {
                self.events
                    .emit(now, qd, 0, ObsEventKind::PlacementAction(d.clone()));
            }
        }
        self.metrics.record_placement(now, &self.placement_outcome);
        self.hosts[i] = host;
        self.debug_check_invariants();
        let next = t + SimDuration::from_secs(self.scenario.params.placement_period);
        if next.as_secs() <= self.scenario.duration {
            self.queue.schedule(next, Event::Placement { host: node });
        }
    }

    /// A provider update (§5): pick a random object and dispatch on its
    /// consistency class. Type-1 (primary-copy) and type-2 (commuting)
    /// objects propagate the new version asynchronously — per-target
    /// [`Event::UpdateDeliver`] events measure each replica's staleness
    /// window — while type-3 (non-commuting) objects apply the update
    /// synchronously at every copy: the bandwidth is charged but no
    /// replica is ever stale. If the primary's host no longer holds the
    /// object (it migrated or was dropped), the primary moves to the
    /// object's lowest-id replica — "the location of the primary copy is
    /// tracked by the object's redirector". A replica the primary cannot
    /// reach (a partition) is skipped: it is neither charged nor sent
    /// the version, and the event's `targets` and `bytes_hops` count
    /// only the reachable ones.
    pub(crate) fn on_provider_update(&mut self, t: SimTime) {
        let now = t.as_secs();
        let gap = self.rng.exponential(self.scenario.update_rate);
        self.queue
            .schedule(t + SimDuration::from_secs(gap), Event::ProviderUpdate);

        let object = ObjectId::new(self.rng.index(self.scenario.num_objects as usize) as u32);
        let replicas = self.redirector.directory().replicas(object);
        debug_assert!(
            !replicas.is_empty() || !self.scenario.faults.is_empty(),
            "every object keeps a replica"
        );
        if replicas.is_empty() {
            // Every copy is on a purged host; the re-replication sweep
            // will restore the object — nothing to propagate to.
            return;
        }
        let kind = self.scenario.catalog.kind(object);
        let mut primary = self.scenario.catalog.primary(object);
        let mut reassigned = false;
        if !replicas.iter().any(|r| r.host == primary) {
            // Prefer a live replica as the new primary (they are all
            // live on fault-free runs, where this picks replicas[0]).
            primary = replicas
                .iter()
                .map(|r| r.host)
                .find(|h| self.fault_state.host_up(h.index() as u16))
                .unwrap_or(replicas[0].host);
            self.scenario.catalog.set_primary(object, primary);
            reassigned = true;
        }
        let bytes = self.scenario.catalog.object_size();
        let mut targets = std::mem::take(&mut self.update_targets);
        targets.clear();
        // A replica the primary cannot reach is skipped: no byte is
        // charged or scheduled over a route that does not exist.
        let mut bytes_hops = 0u64;
        for r in replicas.iter().filter(|r| r.host != primary) {
            if let Some(hops) = self.metrics.charge(&self.view, primary, r.host, bytes) {
                targets.push(r.host);
                bytes_hops += bytes * hops as u64;
            }
        }
        let version = self.redirector.directory_mut().bump_update_version(object);
        let class = class_tag(kind);
        self.metrics
            .tally
            .record_update(now, class, bytes_hops as f64, reassigned);
        if matches!(kind, ObjectKind::Immutable | ObjectKind::CommutingUpdates) {
            // Asynchronous propagation: each secondary learns the new
            // version one store-and-forward transfer later.
            for &target in &targets {
                let delay = self.transfer(primary, target, bytes);
                self.queue.schedule(
                    t + SimDuration::from_secs(delay),
                    Event::UpdateDeliver {
                        object,
                        target,
                        version,
                        issued: t,
                    },
                );
            }
        }
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                now,
                qd,
                0,
                ObsEventKind::ProviderUpdate(ProviderUpdateEvent {
                    object: object.index() as u32,
                    class,
                    version,
                    primary: primary.index() as u16,
                    targets: targets.len() as u16,
                    bytes_hops,
                    reassigned,
                }),
            );
        }
        self.update_targets = targets;
    }

    /// One asynchronously propagated provider update reaching one
    /// replica (§5). The target may have dropped the object (or been
    /// purged) while the update was in flight — that delivery is wasted:
    /// its traffic was already charged at issue, and it carries no
    /// staleness sample because there is no replica left to be stale.
    pub(crate) fn on_update_deliver(
        &mut self,
        t: SimTime,
        object: ObjectId,
        target: NodeId,
        version: u64,
        issued: SimTime,
    ) {
        let now = t.as_secs();
        let lag = (t - issued).as_secs();
        let class = class_tag(self.scenario.catalog.kind(object));
        let wasted = !self
            .redirector
            .directory()
            .replicas(object)
            .iter()
            .any(|r| r.host == target);
        self.metrics.tally.record_delivery(class, lag, wasted);
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                now,
                qd,
                0,
                ObsEventKind::UpdateDelivered(UpdateDeliveredEvent {
                    object: object.index() as u32,
                    host: target.index() as u16,
                    class,
                    version,
                    lag,
                    wasted,
                }),
            );
        }
    }
}

/// The §5 consistency class of an object kind, as the metrics tally
/// and the flight recorder name it.
fn class_tag(kind: ObjectKind) -> ConsistencyClass {
    match kind {
        ObjectKind::Immutable => ConsistencyClass::Type1,
        ObjectKind::CommutingUpdates => ConsistencyClass::Type2,
        ObjectKind::NonCommuting { .. } => ConsistencyClass::Type3,
    }
}

/// How many ranked candidates offload-recipient discovery probes with a
/// fresh load check (§4.2.2's "a few probable candidates").
const OFFLOAD_PROBES: usize = 5;

/// Ranks offload candidates `(headroom, host index)` — highest headroom
/// first, lowest index breaking ties — and returns the leading `probes`
/// entries in that order. The index tiebreak makes the order total, so
/// the probe prefix is the same as a stable sort by headroom alone over
/// candidates in ascending index order.
fn select_probe_candidates(candidates: &mut [(f64, usize)], probes: usize) -> &[(f64, usize)] {
    candidates.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite headroom")
            .then(a.1.cmp(&b.1))
    });
    &candidates[..candidates.len().min(probes)]
}

/// The placement environment the simulator exposes to a deciding host:
/// all *other* hosts (slot `self_index` holds a placeholder), the
/// replica directory, and overhead accounting.
struct SimEnv<'a> {
    self_index: usize,
    hosts: &'a mut [HostState],
    directory: &'a mut Directory,
    metrics: &'a mut Metrics,
    view: &'a RoutingView,
    catalog: &'a Catalog,
    load_reports: &'a [f64],
    /// Host liveness: crashed hosts accept nothing and are skipped
    /// during offload-recipient discovery.
    faults: &'a FaultState,
    /// Reusable `(headroom, host index)` buffer for offload-recipient
    /// discovery.
    offload_probes: &'a mut Vec<(f64, usize)>,
    now: f64,
    /// Flight-recorder sink for replica-set change events (count
    /// resets) triggered by the placement run.
    events: &'a mut EventSink,
    /// Queue depth snapshot at the placement event, stamped onto events
    /// emitted during it.
    queue_depth: u32,
}

impl SimEnv<'_> {
    /// Emits a `CountsReset` flight-recorder event (replica-set change →
    /// "request counts are re-initialized to 1", §4.1), one per
    /// directory mutation.
    fn emit_counts_reset(&mut self, object: ObjectId, cause: ResetCause) {
        if !self.events.tracing {
            return;
        }
        self.events.emit(
            self.now,
            self.queue_depth,
            0,
            ObsEventKind::CountsReset {
                object: object.index() as u32,
                cause,
            },
        );
    }
}

impl PlacementEnv for SimEnv<'_> {
    fn create_obj(&mut self, target: NodeId, req: CreateObjRequest) -> CreateObjResponse {
        assert_ne!(
            target.index(),
            self.self_index,
            "a host never offers an object to itself"
        );
        if !self.faults.host_up(target.index() as u16) || !self.view.reachable(req.source, target) {
            // A crashed or cut-off candidate cannot respond to CreateObj.
            return CreateObjResponse::Refused;
        }
        let host = &mut self.hosts[target.index()];
        let resp = handle_create_obj(host, self.now, &req);
        if let CreateObjResponse::Accepted { new_copy } = resp {
            // Notify the directory *after* the copy exists.
            self.directory.notify_created(req.object, target);
            self.emit_counts_reset(req.object, ResetCause::Created);
            if new_copy {
                // The object data crosses the backbone: overhead traffic.
                let size = self.catalog.object_size();
                let hops = self
                    .metrics
                    .charge(self.view, req.source, target, size)
                    .expect("a reachable target");
                self.metrics
                    .record_overhead(self.now, (size * hops as u64) as f64);
            }
        }
        resp
    }

    fn request_drop(&mut self, object: ObjectId, host: NodeId) -> bool {
        let approved = self.directory.request_drop(object, host);
        if approved {
            self.emit_counts_reset(object, ResetCause::Dropped);
        }
        approved
    }

    fn notify_affinity(&mut self, object: ObjectId, host: NodeId, aff: u32) {
        self.directory.notify_affinity(object, host, aff);
        self.emit_counts_reset(object, ResetCause::Affinity);
    }

    fn find_offload_recipient(&mut self, requester: NodeId) -> Option<(NodeId, f64)> {
        // "Hosts periodically exchange load reports, so that each host
        // knows a few probable candidates": *discovery* reads the
        // gossiped board (up to one measurement interval stale), but the
        // paper's recipient "responds to the requesting host with its
        // load value" — acceptance is a fresh check at the candidate.
        // Without the fresh check, every overloaded host in an epoch
        // herds onto the same stale best candidate and offloading
        // starves. Candidates are ranked by board headroom against their
        // *own* low watermarks (hosts may be heterogeneous); the first
        // few are probed.
        let SimEnv {
            self_index,
            hosts,
            load_reports,
            faults,
            offload_probes,
            now,
            ..
        } = self;
        offload_probes.clear();
        offload_probes.extend(
            hosts
                .iter()
                .enumerate()
                .filter(|&(j, _)| {
                    j != *self_index && j != requester.index() && faults.host_up(j as u16)
                })
                .filter_map(|(j, host)| {
                    let headroom = host.params().low_watermark - load_reports[j];
                    (headroom > 0.0).then_some((headroom, j))
                }),
        );
        for &(_, j) in select_probe_candidates(offload_probes.as_mut_slice(), OFFLOAD_PROBES) {
            let host = &mut hosts[j];
            host.advance(*now);
            let current = host.load_upper();
            if current < host.params().low_watermark {
                return Some((host.node(), current));
            }
        }
        None
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.view.distance(a, b)
    }

    fn may_replicate(&self, object: ObjectId) -> bool {
        self.catalog
            .kind(object)
            .may_add_replica(self.directory.replica_count(object))
    }

    fn replica_count(&self, object: ObjectId) -> usize {
        self.directory.replica_count(object)
    }
}

#[cfg(test)]
mod tests {
    use super::select_probe_candidates;
    use radar_simcore::SimRng;

    /// The oracle: full stable sort, descending headroom, *no*
    /// tiebreak — ties keep insertion (ascending index) order.
    fn reference_probes(mut candidates: Vec<(f64, usize)>, probes: usize) -> Vec<(f64, usize)> {
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite headroom"));
        candidates.truncate(probes);
        candidates
    }

    #[test]
    fn probe_order_matches_full_sort() {
        // Randomized candidate boards, with deliberate headroom ties
        // (quantized values), must yield byte-identical probe prefixes.
        let mut rng = SimRng::seed_from(0x00FF_10AD);
        for len in 0..40usize {
            for _ in 0..20 {
                let candidates: Vec<(f64, usize)> =
                    (0..len).map(|j| (rng.index(6) as f64 * 2.5, j)).collect();
                let reference = reference_probes(candidates.clone(), 5);
                let mut buf = candidates;
                let got = select_probe_candidates(&mut buf, 5).to_vec();
                assert_eq!(got, reference, "len {len}");
            }
        }
    }

    #[test]
    fn probe_order_handles_degenerate_sizes() {
        let mut empty: Vec<(f64, usize)> = Vec::new();
        assert!(select_probe_candidates(&mut empty, 5).is_empty());
        let mut one = vec![(3.0, 7)];
        assert_eq!(select_probe_candidates(&mut one, 5), &[(3.0, 7)]);
        // Exactly `probes` candidates: all of them, sorted.
        let mut exact = vec![(1.0, 4), (9.0, 1), (1.0, 0), (9.0, 3), (5.0, 2)];
        assert_eq!(
            select_probe_candidates(&mut exact, 5),
            &[(9.0, 1), (9.0, 3), (5.0, 2), (1.0, 0), (1.0, 4)]
        );
    }
}
