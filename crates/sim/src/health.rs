//! Fault handling and platform-health maintenance: applying scheduled
//! fault transitions (a link change rebuilds the routing view), the
//! declare-dead sweep, and re-replication back to the replica floor.

use radar_core::{HostState, ObjectId};
use radar_obs::EventKind as ObsEventKind;
use radar_simcore::{FifoServer, SimDuration, SimTime};
use radar_simnet::NodeId;

use crate::faults::Fault;
use crate::platform::{Event, Simulation};

impl Simulation {
    /// Applies the `index`-th scheduled fault transition and schedules
    /// the next one.
    pub(crate) fn on_fault(&mut self, t: SimTime, index: usize) {
        if let Some(next) = self.fault_schedule.get(index + 1) {
            self.queue.schedule(
                SimTime::from_secs(next.t),
                Event::Fault { index: index + 1 },
            );
        }
        let transition = self.fault_schedule[index];
        let now = t.as_secs();
        let routes_dirty = self.fault_state.apply(transition);
        self.metrics.tally.faults += 1;
        if self.events.tracing {
            let qd = self.depth();
            self.events.emit(
                now,
                qd,
                0,
                ObsEventKind::Fault {
                    desc: transition.to_string(),
                },
            );
        }
        match transition.fault {
            Fault::HostDown { host: h, .. } => {
                let i = h as usize;
                if transition.opens {
                    // Everything queued or in service on the host is
                    // lost: bump the epoch (stale completions fail) and
                    // replace the server with an empty one.
                    self.host_epoch[i] += 1;
                    self.servers[i] = FifoServer::with_capacity(self.scenario.capacity_of(i));
                    self.queue.schedule(
                        t + SimDuration::from_secs(self.scenario.faults.declare_dead_after()),
                        Event::DeclareDead {
                            host: NodeId::new(h),
                            epoch: self.host_epoch[i],
                        },
                    );
                    self.refresh_object_health(now);
                } else if self.fault_state.host_up(h) {
                    if self.declared_dead[i] {
                        // Its replicas were purged while it was away; it
                        // rejoins as an empty host.
                        self.declared_dead[i] = false;
                        let mut fresh = HostState::new(NodeId::new(h), self.scenario.params_of(i));
                        if let Some(limit) = self.scenario.storage_limit {
                            fresh.set_storage_limit(limit as usize);
                        }
                        self.hosts[i] = fresh;
                    }
                    self.refresh_object_health(now);
                    self.re_replicate(t);
                }
            }
            Fault::LinkDown { a, b, .. } => {
                if routes_dirty {
                    let up = !transition.opens;
                    self.view.set_link(NodeId::new(a), NodeId::new(b), up);
                }
            }
            Fault::LinkSlow { .. } => {}
        }
    }

    /// The declare-dead timer fired: if the host is still down from the
    /// same crash, purge its replicas and re-replicate what fell below
    /// the floor.
    pub(crate) fn on_declare_dead(&mut self, t: SimTime, host: NodeId, epoch: u32) {
        let i = host.index();
        if self.host_epoch[i] != epoch
            || self.fault_state.host_up(i as u16)
            || self.declared_dead[i]
        {
            return;
        }
        self.declared_dead[i] = true;
        let purged = self.redirector.directory_mut().purge_host(host);
        if self.events.tracing {
            // Purging resets the surviving replicas' request counts —
            // one CountsReset per affected object.
            let qd = self.depth();
            for object in purged {
                self.events.emit(
                    t.as_secs(),
                    qd,
                    0,
                    ObsEventKind::CountsReset {
                        object: object.index() as u32,
                        cause: radar_obs::ResetCause::Purge,
                    },
                );
            }
        }
        self.refresh_object_health(t.as_secs());
        self.re_replicate(t);
    }

    /// The object's primary node, standing in for the provider's origin
    /// server. When the recorded primary is itself down, the designation
    /// moves to the most central live host. `None` when every host is
    /// down.
    pub(crate) fn live_primary(&mut self, object: ObjectId) -> Option<NodeId> {
        let p = self.scenario.catalog.primary(object);
        if self.fault_state.host_up(p.index() as u16) {
            return Some(p);
        }
        let c = *self
            .view
            .table()
            .nodes_by_centrality()
            .iter()
            .find(|n| self.fault_state.host_up(n.index() as u16))?;
        self.scenario.catalog.set_primary(object, c);
        Some(c)
    }

    /// Re-checks one object's live-replica count against the
    /// availability and replica-floor trackers, opening or closing the
    /// corresponding intervals.
    pub(crate) fn refresh_one(&mut self, now: f64, object: ObjectId) {
        let i = object.index() as u32;
        let live = self
            .redirector
            .directory()
            .replicas(object)
            .iter()
            .filter(|r| self.fault_state.host_up(r.host.index() as u16))
            .count() as u32;
        if live == 0 {
            self.unavailable_since.entry(i).or_insert(now);
        } else if let Some(since) = self.unavailable_since.remove(&i) {
            self.metrics.unavailable_object_seconds += now - since;
        }
        if live < self.scenario.faults.min_replicas() {
            self.below_min_since.entry(i).or_insert(now);
        } else if let Some(since) = self.below_min_since.remove(&i) {
            self.metrics.restore_time.record(now - since);
        }
    }

    /// Full sweep of [`refresh_one`](Self::refresh_one) after a liveness
    /// change.
    fn refresh_object_health(&mut self, now: f64) {
        if self.scenario.faults.is_empty() {
            return;
        }
        for i in 0..self.scenario.num_objects {
            self.refresh_one(now, ObjectId::new(i));
        }
    }

    /// Restores every object to the replica floor: copies from a live
    /// replica onto the live host with the most load-report headroom, or
    /// — when no live copy exists anywhere — re-installs the object at
    /// its primary (an origin fetch). Runs after a host is declared dead
    /// and after recoveries.
    fn re_replicate(&mut self, t: SimTime) {
        if self.scenario.faults.is_empty() {
            return;
        }
        let now = t.as_secs();
        let floor = self.scenario.faults.min_replicas();
        for i in 0..self.scenario.num_objects {
            let object = ObjectId::new(i);
            loop {
                let replicas = self.redirector.directory().replicas(object);
                let is_live = |h: &NodeId| self.fault_state.host_up(h.index() as u16);
                let live = replicas.iter().filter(|r| is_live(&r.host)).count();
                if live as u32 >= floor {
                    break;
                }
                let source = replicas.iter().map(|r| r.host).find(is_live);
                let elapsed = now - self.below_min_since.get(&i).copied().unwrap_or(now);
                let target = if let Some(source) = source {
                    // Copy onto the live host the source can reach with
                    // the most headroom on the load-report board (ties
                    // broken by node id).
                    let best = (0..self.hosts.len())
                        .filter(|&j| self.fault_state.host_up(j as u16))
                        .filter(|&j| self.view.reachable(source, NodeId::new(j as u16)))
                        .filter(|&j| !replicas.iter().any(|r| r.host.index() == j))
                        .map(|j| {
                            (
                                self.hosts[j].params().low_watermark - self.load_reports[j],
                                j,
                            )
                        })
                        .min_by(|a, b| {
                            b.0.partial_cmp(&a.0)
                                .expect("headroom is never NaN")
                                .then(a.1.cmp(&b.1))
                        });
                    let Some((_, j)) = best else {
                        break; // fewer reachable live hosts than the floor
                    };
                    let target = NodeId::new(j as u16);
                    let size = self.scenario.catalog.object_size();
                    let hops = self
                        .metrics
                        .charge(&self.view, source, target, size)
                        .expect("a reachable target");
                    self.metrics
                        .record_overhead(now, (size * hops as u64) as f64);
                    target
                } else {
                    // Origin fetch: every copy was lost with its hosts.
                    let Some(p) = self.live_primary(object) else {
                        break; // the whole platform is down
                    };
                    p
                };
                self.install(object, target);
                self.metrics.tally.re_replications += 1;
                if self.events.tracing {
                    let qd = self.depth();
                    self.events.emit(
                        now,
                        qd,
                        0,
                        ObsEventKind::ReReplication {
                            object: i,
                            target: target.index() as u16,
                            elapsed,
                        },
                    );
                }
            }
            self.refresh_one(now, object);
        }
    }
}
