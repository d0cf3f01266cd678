//! Request-lifecycle handlers: arrival → redirect → host arrival →
//! service completion, plus the network-delay helpers they share.
//!
//! All routing questions (distances, preference paths, reachability) go
//! through the platform's [`radar_simnet::RoutingView`]; replica
//! decisions go through [`crate::redirect::choose`] (Fig. 2)
//! unless a baseline [`crate::selection::SelectionPolicy`] is plugged
//! in; both serve only a replica [`crate::redirect::usable`] admits.

use radar_core::{ObjectId, SlotHint};
use radar_obs::{DecisionBranch, EventKind as ObsEventKind, FailReason};
use radar_simcore::{SimDuration, SimTime};
use radar_simnet::NodeId;

use crate::config::{NetworkParams, MAX_CLOCK_SECS};
use crate::observer::RequestRecord;
use crate::platform::{Event, Simulation};
use crate::redirect::{self, usable};
use crate::trace::TraceEntry;

impl Simulation {
    /// `true` when nodes `a` and `b` can currently exchange traffic
    /// (always true until a link partition severs them).
    pub(crate) fn connected(&self, a: NodeId, b: NodeId) -> bool {
        !self.view.path(a, b).is_empty()
    }

    /// Propagation-only delay over the current route, honoring per-link
    /// degradation factors (a degraded route slower than the clock's
    /// range arrives at its end, after any run). Callers must have
    /// checked [`connected`](Self::connected).
    pub(crate) fn propagation(&self, from: NodeId, to: NodeId) -> SimDuration {
        if !self.fault_state.any_link_degraded() {
            return self.propagation_by_hops[self.view.distance(from, to) as usize];
        }
        let secs = NetworkParams::paper().hop_delay * self.weighted_hops(from, to);
        SimDuration::from_secs(secs.min(MAX_CLOCK_SECS))
    }

    /// Store-and-forward transfer time over the current route. Degraded
    /// links stretch the propagation term only — the bandwidth term of
    /// the §6.1 cost model is a link property, not a congestion signal.
    pub(crate) fn transfer(&self, from: NodeId, to: NodeId, bytes: u64) -> f64 {
        let hops = self.view.distance(from, to);
        if !self.fault_state.any_link_degraded() {
            return NetworkParams::paper().transfer_time(bytes, hops);
        }
        let secs = NetworkParams::paper().hop_delay * self.weighted_hops(from, to)
            + hops as f64 * (bytes as f64 / NetworkParams::paper().link_bandwidth);
        secs.min(MAX_CLOCK_SECS)
    }

    /// Sum of per-link delay factors along the current route (equals the
    /// hop count when nothing is degraded).
    fn weighted_hops(&self, from: NodeId, to: NodeId) -> f64 {
        self.view
            .path(from, to)
            .windows(2)
            .map(|w| {
                self.fault_state
                    .link_factor(w[0].index() as u16, w[1].index() as u16)
            })
            .sum()
    }

    pub(crate) fn fail_request(
        &mut self,
        t: SimTime,
        object: ObjectId,
        gateway: NodeId,
        reason: FailReason,
        cause: u64,
    ) {
        self.metrics.tally.failed += 1;
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                t.as_secs(),
                qd,
                cause,
                ObsEventKind::RequestFailed {
                    gateway: gateway.index() as u16,
                    object: object.index() as u32,
                    reason,
                },
            );
        }
    }

    pub(crate) fn on_arrival(&mut self, t: SimTime, gateway: NodeId) {
        // Next arrival of this stream.
        let gap = self.arrival_gaps[gateway.index()];
        self.queue.schedule(t + gap, Event::Arrival { gateway });
        let object = self.workload.choose(t.as_secs(), gateway, &mut self.rng);
        self.admit(t, object, gateway);
    }

    pub(crate) fn on_trace_arrival(&mut self, t: SimTime, index: usize) {
        let trace = self.replay.as_ref().expect("replay trace present");
        let entry = trace.entries()[index];
        if let Some(next) = trace.entries().get(index + 1) {
            let at = SimTime::from_secs(next.t).max(t);
            self.queue
                .schedule(at, Event::TraceArrival { index: index + 1 });
        }
        self.admit(t, ObjectId::new(entry.object), NodeId::new(entry.gateway));
    }

    /// The path every arriving request takes, generated or replayed:
    /// record it in the trace being captured, emit the root of its
    /// causal chain (a `RequestArrived` event), and forward it to the
    /// object's redirector — propagation only, requests are tiny — or
    /// fail it as unreachable when no route leads there.
    fn admit(&mut self, t: SimTime, object: ObjectId, gateway: NodeId) {
        if let Some(recorded) = &mut self.recorded {
            recorded.push(TraceEntry {
                t: t.as_secs(),
                gateway: gateway.index() as u16,
                object: object.index() as u32,
            });
        }
        let cause = if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                t.as_secs(),
                qd,
                0,
                ObsEventKind::RequestArrived {
                    gateway: gateway.index() as u16,
                    object: object.index() as u32,
                },
            )
        } else {
            0
        };
        let rnode = self.redirector_node_of(object);
        if !self.connected(gateway, rnode) {
            self.fail_request(t, object, gateway, FailReason::Unreachable, cause);
            return;
        }
        let delay = self.propagation(gateway, rnode);
        self.queue.schedule(
            t + delay,
            Event::Redirect {
                object,
                gateway,
                t0: t,
                cause,
            },
        );
    }

    pub(crate) fn on_redirect(
        &mut self,
        t: SimTime,
        object: ObjectId,
        gateway: NodeId,
        t0: SimTime,
        cause: u64,
    ) {
        let rnode = self.redirector_node_of(object);
        self.metrics.redirector_requests[rnode.index()] += 1;
        let chosen = match &mut self.selection {
            // Fig. 2 over the usable replicas. When tracing, the engine
            // fills the platform's reused decision record in place.
            None => {
                let record = self.events.tracing.then_some(&mut self.decision);
                redirect::choose(
                    object,
                    gateway,
                    rnode,
                    &mut self.redirector,
                    &self.view,
                    &self.fault_state,
                    record,
                )
            }
            // A baseline's pick serves only when usable; otherwise the
            // primary fallback below serves, and the policy is not asked
            // again. Baselines have no Fig. 2 data, so their decisions
            // are traced as `policy`.
            Some(policy) => policy
                .choose(
                    object,
                    gateway,
                    self.redirector.directory(),
                    self.view.table(),
                )
                .filter(|&h| usable(&self.fault_state, &self.view, rnode, h, gateway)),
        };
        let explained = self.selection.is_none() && chosen.is_some();
        let mut fallback_used = false;
        let host = match chosen {
            Some(h) => h,
            None => {
                // Graceful degradation: no usable replica, so fetch from
                // the provider's origin — modeled as re-installing the
                // object at its primary node (reassigned to the most
                // central live host when the primary itself is down).
                debug_assert!(
                    !self.scenario.faults.is_empty(),
                    "every object keeps at least one replica"
                );
                let now = t.as_secs();
                let fallback = self
                    .live_primary(object)
                    .filter(|&p| usable(&self.fault_state, &self.view, rnode, p, gateway));
                let Some(p) = fallback else {
                    let any_live = self
                        .redirector
                        .directory()
                        .replicas(object)
                        .iter()
                        .any(|r| self.fault_state.host_up(r.host.index() as u16));
                    let reason = if any_live {
                        FailReason::Unreachable
                    } else {
                        FailReason::AllReplicasDown
                    };
                    self.fail_request(t, object, gateway, reason, cause);
                    return;
                };
                if !self
                    .redirector
                    .directory()
                    .replicas(object)
                    .iter()
                    .any(|r| r.host == p)
                {
                    self.install(object, p);
                    self.refresh_one(now, object);
                }
                self.metrics.primary_fallbacks += 1;
                fallback_used = true;
                p
            }
        };
        let decision = if self.events.tracing {
            let qd = self.depth();
            let d = &mut self.decision;
            d.object = object.index() as u32;
            d.gateway = gateway.index() as u16;
            if !explained {
                // Either the selection policy has no Fig. 2 data (a
                // baseline) or no usable replica existed and the primary
                // fallback served.
                d.chosen = host.index() as u16;
                d.branch = if fallback_used {
                    DecisionBranch::PrimaryFallback
                } else {
                    DecisionBranch::Policy
                };
                d.constant = self.scenario.params.distribution_constant;
                d.closest = None;
                d.least = None;
                d.unit_closest = None;
                d.unit_least = None;
                d.candidates.clear();
            }
            self.events.emit_decision(t.as_secs(), qd, cause, d)
        } else {
            0
        };
        let delay = self.propagation(rnode, host);
        self.queue.schedule(
            t + delay,
            Event::ArriveAtHost {
                object,
                gateway,
                host,
                t0,
                cause: decision,
            },
        );
    }

    pub(crate) fn on_arrive_at_host(
        &mut self,
        t: SimTime,
        object: ObjectId,
        gateway: NodeId,
        host: NodeId,
        t0: SimTime,
        cause: u64,
    ) {
        let i = host.index();
        if !self.fault_state.host_up(i as u16) {
            // The host crashed while the redirect was in flight.
            self.fail_request(t, object, gateway, FailReason::CrashedMidService, cause);
            return;
        }
        // Record the preference path (host → gateway) for placement.
        let path = self.view.path(host, gateway);
        let slot = self.hosts[i].record_access(object, path);
        // FIFO service.
        let outcome = self.servers[i].offer(t);
        // Latency breakdown: the redirect leg is everything before host
        // arrival; queueing is time until service begins.
        self.metrics.redirect_delay.record((t - t0).as_secs());
        self.metrics
            .queueing_delay
            .record(outcome.queueing_delay(t).as_secs());
        self.queue.schedule(
            outcome.completion,
            Event::ServiceComplete {
                object,
                gateway,
                host,
                t0,
                epoch: self.host_epoch[i],
                slot,
                cause,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_service_complete(
        &mut self,
        t: SimTime,
        object: ObjectId,
        gateway: NodeId,
        host: NodeId,
        t0: SimTime,
        epoch: u32,
        slot: SlotHint,
        cause: u64,
    ) {
        let i = host.index();
        if epoch != self.host_epoch[i] {
            // The host crashed while this request was queued or in
            // service; the work is lost.
            self.fail_request(t, object, gateway, FailReason::CrashedMidService, cause);
            return;
        }
        self.hosts[i].record_serviced_hinted(t.as_secs(), object, slot);
        let size = self.scenario.catalog.object_size();
        let Some(hops) = self.metrics.charge(&self.view, host, gateway, size) else {
            // The response has nowhere to go: a partition opened while
            // the request was in service.
            self.fail_request(t, object, gateway, FailReason::Unreachable, cause);
            return;
        };
        let travel = self.transfer(host, gateway, size);
        let delivered = t + SimDuration::from_secs(travel);
        let latency = (delivered - t0).as_secs();
        let bytes_hops = (size * hops as u64) as f64;
        self.metrics
            .record_response(t.as_secs(), delivered.as_secs(), latency, bytes_hops);
        self.metrics.response_travel.record(travel);
        let topology = &self.scenario.topology;
        let (from, to) = (
            topology.region(host).index(),
            topology.region(gateway).index(),
        );
        self.metrics.region_matrix[from][to] += bytes_hops;
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                t.as_secs(),
                qd,
                cause,
                ObsEventKind::RequestServed {
                    gateway: gateway.index() as u16,
                    object: object.index() as u32,
                    host: host.index() as u16,
                    latency,
                    hops,
                },
            );
        }
        if self.events.observed() {
            self.events.served(RequestRecord {
                entered: t0.as_secs(),
                delivered: delivered.as_secs(),
                gateway: gateway.index() as u16,
                object: object.index() as u32,
                host: host.index() as u16,
                latency,
                hops,
            });
        }
    }
}
