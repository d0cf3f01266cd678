//! The discrete-event hosting-platform sequencer.
//!
//! [`Simulation`] only owns state and sequences events; the actual
//! work lives in the layer modules:
//!
//! * routing — [`radar_simnet::RoutingView`] (distances, paths, and
//!   reachability over the live links, rebuilt on each link change);
//! * directory — [`radar_core::Directory`], held by the [`Redirector`]
//!   (replica sets, affinities, request counts);
//! * redirect — [`crate::redirect::choose`] (Fig. 2 in one pass over
//!   the usable replicas);
//! * request lifecycle — `lifecycle.rs` (arrival → redirect → service
//!   → delivery handlers);
//! * placement — `env.rs` (the [`radar_core::placement::PlacementEnv`]
//!   wiring and periodic epochs);
//! * health — `health.rs` (fault transitions, declare-dead,
//!   re-replication).

use radar_core::{HostState, ObjectId, Redirector, SlotHint};
use radar_obs::{DecisionEvent, HandlerCounter, LedgerConfig, ObjectLedger, SharedObjectLedger};
use radar_simcore::{EventQueue, FifoServer, SimDuration, SimRng, SimTime};
use radar_simnet::{NodeId, RoutingView};
use radar_workload::Workload;

use std::collections::BTreeMap;

use crate::config::{InitialPlacement, NetworkParams, PlacementMode, Scenario};
use crate::faults::{FaultState, FaultTransition};
use crate::metrics::Metrics;
use crate::observer::Observer;
use crate::placement_policy::PlacementPolicy;
use crate::report::{FinalReplicas, RunReport};
use crate::selection::SelectionPolicy;
use crate::sink::EventSink;
use crate::trace::{Trace, TraceEntry, TraceError};

/// Simulation events. Per client request: `Arrival` → `Redirect` →
/// `ArriveAtHost` → `ServiceComplete` (delivery statistics are computed
/// arithmetically at completion; no fourth hop event is needed).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A client request enters at its gateway.
    Arrival { gateway: NodeId },
    /// The request reaches the redirector. `cause` is the
    /// flight-recorder sequence number of the arrival event (0 when
    /// tracing is off).
    Redirect {
        object: ObjectId,
        gateway: NodeId,
        t0: SimTime,
        cause: u64,
    },
    /// The request reaches the chosen host. `cause` chains to the
    /// redirector's decision event.
    ArriveAtHost {
        object: ObjectId,
        gateway: NodeId,
        host: NodeId,
        t0: SimTime,
        cause: u64,
    },
    /// The host finishes serving; the response departs. `epoch` is the
    /// host's crash epoch when the request entered service — a mismatch
    /// at completion means the host crashed underneath it. `slot` is
    /// where the host's table held the object at arrival.
    ServiceComplete {
        object: ObjectId,
        gateway: NodeId,
        host: NodeId,
        t0: SimTime,
        epoch: u32,
        slot: SlotHint,
        cause: u64,
    },
    /// Periodic load measurement sampling (Fig. 8a / 8b).
    LoadSample,
    /// Periodic placement decision run on one host (Fig. 3). Hosts are
    /// phase-staggered across the placement period.
    Placement { host: NodeId },
    /// A content provider updates an object; the new version propagates
    /// from the primary copy to every replica (§5).
    ProviderUpdate,
    /// An asynchronously propagated provider update reaches one replica
    /// (§5, type-1/type-2 objects). `issued` is the provider-update
    /// time, so `t − issued` is the replica's staleness window for this
    /// version.
    UpdateDeliver {
        object: ObjectId,
        target: NodeId,
        version: u64,
        issued: SimTime,
    },
    /// The next entry of a replayed trace arrives at its gateway.
    TraceArrival { index: usize },
    /// The next scheduled fault transition fires.
    Fault { index: usize },
    /// A crashed host has been down for the declare-dead timeout; if it
    /// is still down (and this is not a stale timer from an earlier
    /// crash — `epoch` guards that), its replicas are purged and
    /// re-replicated elsewhere.
    DeclareDead { host: NodeId, epoch: u32 },
}

/// Each event kind's loop-profile label, by [`Event::kind`], and
/// whether its clock reads are sampled: the per-request and per-update
/// handlers are, every other handler (each ≥ 100 µs) is timed on every
/// dispatch ([`Simulation::enable_loop_profile`]).
const PROFILE_KINDS: [(&str, bool); 11] = [
    ("arrival", true),
    ("redirect", true),
    ("arrive-at-host", true),
    ("service-complete", true),
    ("load-sample", false),
    ("placement", false),
    ("provider-update", false),
    ("update-deliver", true),
    ("trace-arrival", true),
    ("fault", false),
    ("declare-dead", false),
];

impl Event {
    /// Index of the event's kind in [`PROFILE_KINDS`] (declaration order).
    fn kind(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            Event::Redirect { .. } => 1,
            Event::ArriveAtHost { .. } => 2,
            Event::ServiceComplete { .. } => 3,
            Event::LoadSample => 4,
            Event::Placement { .. } => 5,
            Event::ProviderUpdate => 6,
            Event::UpdateDeliver { .. } => 7,
            Event::TraceArrival { .. } => 8,
            Event::Fault { .. } => 9,
            Event::DeclareDead { .. } => 10,
        }
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
///
/// See the crate documentation for the modeled request lifecycle. Every
/// run is a deterministic function of `(Scenario, workload, selection,
/// placement)` — the scenario carries the RNG seed.
pub struct Simulation {
    pub(crate) scenario: Scenario,
    /// Routing layer: distances and paths over the live links.
    pub(crate) view: RoutingView,
    /// Homes of the hash-partitioned redirectors, most central first.
    pub(crate) redirector_nodes: Vec<NodeId>,
    pub(crate) workload: Box<dyn Workload + Send>,
    /// A baseline replica-selection policy; `None` runs the paper's
    /// Fig. 2 through [`crate::redirect::choose`].
    pub(crate) selection: Option<Box<dyn SelectionPolicy + Send>>,
    /// A baseline replica-placement policy; `None` runs the paper's
    /// Figs. 3–5 ([`radar_core::placement::run_placement_into`]).
    pub(crate) placement_policy: Option<Box<dyn PlacementPolicy + Send>>,
    pub(crate) hosts: Vec<HostState>,
    pub(crate) servers: Vec<FifoServer>,
    pub(crate) redirector: Redirector,
    pub(crate) metrics: Metrics,
    pub(crate) rng: SimRng,
    pub(crate) queue: EventQueue<Event>,
    /// The constant inter-arrival gap of each gateway.
    pub(crate) arrival_gaps: Vec<SimDuration>,
    /// Propagation delay by hop count over undegraded links, so the
    /// per-request path converts no seconds to microseconds.
    pub(crate) propagation_by_hops: Vec<SimDuration>,
    /// Whether bootstrap (initial placement + first events) has run.
    pub(crate) started: bool,
    /// Attached observers plus the flight-recorder state.
    pub(crate) events: EventSink,
    /// Event-loop profile counters, indexed by [`Event::kind`]; `None`
    /// until [`enable_loop_profile`](Simulation::enable_loop_profile).
    profile: Option<Box<[HandlerCounter; PROFILE_KINDS.len()]>>,
    /// Protocol-health ledger handle; `None` until
    /// [`enable_object_ledger`](Simulation::enable_object_ledger). The
    /// ledger folds the same ordered event feed every observer sees.
    pub(crate) object_ledger: Option<SharedObjectLedger>,
    /// The load-report board (§4.2.2 / the TR's recipient discovery):
    /// "hosts periodically exchange load reports, so that each host
    /// knows a few probable candidates." Each entry is the upper-estimate
    /// load the host last published (infinite while it is down); offload
    /// recipient discovery reads these possibly-stale reports, while
    /// `CreateObj` admission remains authoritative at the recipient.
    pub(crate) load_reports: Vec<f64>,
    /// Replay source: when set, arrivals come from this trace instead of
    /// the arrival processes + workload.
    pub(crate) replay: Option<Trace>,
    /// Capture sink: when enabled, every arrival is recorded.
    pub(crate) recorded: Option<Vec<TraceEntry>>,
    /// Compiled fault schedule, time-sorted (empty on fault-free runs).
    pub(crate) fault_schedule: Vec<FaultTransition>,
    /// Live fault state replayed from the schedule.
    pub(crate) fault_state: FaultState,
    /// Per-host crash epoch. Completions carry the epoch they entered
    /// service under, so work queued before a crash is seen as lost.
    pub(crate) host_epoch: Vec<u32>,
    /// Hosts the platform has declared dead (replicas purged; the host
    /// rejoins empty if it ever recovers).
    pub(crate) declared_dead: Vec<bool>,
    /// Objects currently below the replica floor → when they fell below.
    pub(crate) below_min_since: BTreeMap<u32, f64>,
    /// Objects with zero live replicas → when they lost the last one.
    pub(crate) unavailable_since: BTreeMap<u32, f64>,
    /// Reusable working memory for the core placement algorithms.
    pub(crate) placement_scratch: radar_core::placement::PlacementScratch,
    /// Reusable placement outcome, cleared and refilled each epoch.
    pub(crate) placement_outcome: radar_core::placement::PlacementOutcome,
    /// Reusable offload-recipient candidate buffer.
    pub(crate) offload_probe_scratch: Vec<(f64, usize)>,
    /// Reusable provider-update target buffer.
    pub(crate) update_targets: Vec<NodeId>,
    /// The flight-recorder decision the redirect path fills when
    /// tracing and the event sink copies into its hand-off batch; its
    /// candidate buffer is reused, so traced decisions allocate nothing
    /// per request.
    pub(crate) decision: DecisionEvent,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("workload", &self.workload.name())
            .field("policy", &self.policy_name())
            .field("nodes", &self.hosts.len())
            .field("objects", &self.scenario.num_objects)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates a simulation with the protocol's own request distribution
    /// and placement algorithms.
    pub fn new(scenario: Scenario, workload: Box<dyn Workload + Send>) -> Self {
        Self::with_policies(scenario, workload, None, None)
    }

    /// Creates a simulation with a baseline replica-selection policy
    /// (`None` keeps the paper's Fig. 2) and a baseline replica-placement
    /// policy (`None` keeps the paper's Figs. 3–5) — the full pluggable
    /// surface for head-to-head baseline comparisons.
    pub fn with_policies(
        scenario: Scenario,
        workload: Box<dyn Workload + Send>,
        selection: Option<Box<dyn SelectionPolicy + Send>>,
        placement_policy: Option<Box<dyn PlacementPolicy + Send>>,
    ) -> Self {
        let view = RoutingView::new(scenario.topology.clone());
        let n = scenario.topology.len();
        // "The redirector is co-located with a node whose average
        // distance in hops to other nodes is minimum" (§6.1); with more
        // than one redirector the URL namespace is hash-partitioned over
        // the most central nodes (§2).
        let k = (scenario.num_redirectors as usize).min(n);
        let redirector_nodes = view.table().nodes_by_centrality()[..k].to_vec();
        let hosts = scenario
            .topology
            .nodes()
            .map(|node| {
                let mut host = HostState::new(node, scenario.params_of(node.index()));
                if let Some(limit) = scenario.storage_limit {
                    host.set_storage_limit(limit as usize);
                }
                host
            })
            .collect();
        let servers = (0..n)
            .map(|i| FifoServer::with_capacity(scenario.capacity_of(i)))
            .collect();
        let redirector =
            Redirector::new(scenario.num_objects, scenario.params.distribution_constant);
        let mut metrics = Metrics::new(scenario.metric_bin, scenario.params.measurement_interval);
        metrics.link_bytes = vec![0.0; scenario.topology.links().len()];
        metrics.redirector_requests = vec![0; n];
        let rng = SimRng::seed_from(scenario.seed);
        let fault_schedule = scenario.faults.transitions(scenario.duration);
        let arrival_gaps = (0..n)
            .map(|i| SimDuration::from_secs(1.0 / scenario.request_rate_of(i)))
            .collect();
        // A route over `n` nodes has fewer than `n` hops.
        let propagation_by_hops = (0..=n as u32)
            .map(|hops| SimDuration::from_secs(NetworkParams::paper().propagation_time(hops)))
            .collect();
        Self {
            scenario,
            view,
            redirector_nodes,
            workload,
            selection,
            placement_policy,
            hosts,
            servers,
            redirector,
            metrics,
            rng,
            queue: EventQueue::new(),
            arrival_gaps,
            propagation_by_hops,
            started: false,
            events: EventSink::new(),
            profile: None,
            object_ledger: None,
            load_reports: vec![0.0; n],
            replay: None,
            recorded: None,
            fault_schedule,
            fault_state: FaultState::new(n),
            host_epoch: vec![0; n],
            declared_dead: vec![false; n],
            below_min_since: BTreeMap::new(),
            unavailable_since: BTreeMap::new(),
            placement_scratch: radar_core::placement::PlacementScratch::default(),
            placement_outcome: radar_core::placement::PlacementOutcome::default(),
            offload_probe_scratch: Vec::new(),
            update_targets: Vec::new(),
            decision: DecisionEvent::default(),
        }
    }

    /// Creates a simulation that replays a captured [`Trace`] instead of
    /// generating arrivals from a workload — the paper's companion
    /// trace-driven mode. The scenario's request-rate settings are
    /// ignored; object ids in the trace must be within
    /// `scenario.num_objects` and gateways within the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceErrorKind::OutOfRange`](crate::TraceErrorKind)
    /// error on the first entry whose gateway or object the scenario
    /// does not have (its line is the entry's index + 1).
    pub fn replay(scenario: Scenario, trace: Trace) -> Result<Self, TraceError> {
        trace.check_ids(scenario.topology.len() as u32, scenario.num_objects)?;
        let mut sim = Self::new(scenario, Box::new(NullWorkload));
        sim.replay = Some(trace);
        Ok(sim)
    }

    /// The selection policy's name for reports: `radar` for Fig. 2.
    fn policy_name(&self) -> &str {
        self.selection.as_ref().map_or("radar", |p| p.name())
    }

    /// The placement policy's name for reports: `radar` for Figs. 3–5.
    fn placement_name(&self) -> &str {
        self.placement_policy.as_ref().map_or("radar", |p| p.name())
    }

    /// Enables arrival capture: the finished report's
    /// [`RunReport::trace`] will hold every request arrival, replayable
    /// via [`Simulation::replay`].
    pub fn record_trace(&mut self) {
        self.recorded = Some(Vec::new());
    }

    /// Attaches an [`Observer`] receiving a live feed of simulation
    /// events. Multiple observers are invoked in attachment order.
    ///
    /// Attaching an observer whose [`Observer::wants_events`] returns
    /// `true` (e.g. a [`radar_obs::SharedRecorder`]) switches on the flight
    /// recorder: the platform then builds and delivers the typed
    /// [`radar_obs::Event`] feed — decision snapshots, placement
    /// explanations, causal parents.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.events.attach(observer);
    }

    /// Enables event-loop profiling: each handled event is counted and
    /// binned by type, together with its queue depth, and timed — every
    /// dispatch for the rare handlers, one in 16 for the per-request and
    /// per-update ones (see [`radar_obs::HandlerCounter`]). The profile
    /// is returned in [`RunReport::loop_profile`]. Wall-clock numbers stay
    /// out of the event stream and the report JSON, so profiling never
    /// perturbs determinism of recorded outputs.
    pub fn enable_loop_profile(&mut self) {
        self.profile = Some(Box::new(
            PROFILE_KINDS.map(|(_, sampled)| HandlerCounter::new(sampled)),
        ));
    }

    /// Enables the protocol-health ledger: a
    /// [`radar_obs::ObjectLedger`] is attached as an observer, folding
    /// the flight-recorder feed into per-object replica sets, an online
    /// replica-set-invariant audit, and churn/cost attribution.
    /// The returned handle yields live [`radar_obs::ProtocolHealth`]
    /// snapshots mid-run (the dashboard's protocol panel reads it);
    /// the final snapshot lands in [`RunReport::protocol_health`].
    ///
    /// The ledger prices relocations at the catalog's object size and
    /// uses two placement periods as its churn window. Attaching it
    /// switches on event tracing (the feed it folds), but — like every
    /// observer — consumes no randomness and never alters outcomes:
    /// recorded event logs stay byte-identical either way.
    pub fn enable_object_ledger(&mut self) -> SharedObjectLedger {
        let ledger = SharedObjectLedger::from(ObjectLedger::new(LedgerConfig {
            object_size: self.scenario.catalog.object_size(),
            churn_window: 2.0 * self.scenario.params.placement_period,
        }));
        self.attach_observer(Box::new(ledger.clone()));
        self.object_ledger = Some(ledger.clone());
        ledger
    }

    /// The nodes hosting the redirectors (the most central nodes; one
    /// per hash partition).
    pub fn redirector_nodes(&self) -> &[NodeId] {
        &self.redirector_nodes
    }

    /// The redirector responsible for `object` (URL-hash partitioning,
    /// §2 — here the hash is the object id).
    pub(crate) fn redirector_node_of(&self, object: ObjectId) -> NodeId {
        self.redirector_nodes[object.index() % self.redirector_nodes.len()]
    }

    /// Runs the simulation to the configured duration and returns the
    /// finalized report.
    pub fn run(mut self) -> RunReport {
        self.run_until(self.scenario.duration);
        self.finish()
    }

    /// Advances the simulation to simulated time `t` seconds (clamped to
    /// the scenario duration), then pauses so intermediate state can be
    /// inspected via [`host`](Self::host), [`redirector`](Self::redirector)
    /// and [`now`](Self::now). Running in stages is exactly equivalent to
    /// one [`run`](Self::run) call.
    pub fn run_until(&mut self, t: f64) {
        if !self.started {
            self.bootstrap();
            self.started = true;
        }
        let end = SimTime::from_secs(t.min(self.scenario.duration).max(0.0));
        while let Some((t, ev)) = self.queue.pop_through(end) {
            self.dispatch(t, ev);
        }
        self.events.barrier();
    }

    /// Handles one popped event, counting it into the loop profile when
    /// profiling is on and timing it when its counter asks.
    fn dispatch(&mut self, t: SimTime, ev: Event) {
        let Some(profile) = &mut self.profile else {
            self.handle(t, ev);
            return;
        };
        let kind = ev.kind();
        if !profile[kind].dispatch(self.queue.len() as u32) {
            self.handle(t, ev);
            return;
        }
        let started = std::time::Instant::now();
        self.handle(t, ev);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(profile) = &mut self.profile {
            profile[kind].record(nanos);
        }
    }

    /// Current simulated time in seconds (the timestamp of the last
    /// processed event; 0 before the simulation starts).
    pub fn now(&self) -> f64 {
        self.queue.now().as_secs()
    }

    /// The protocol state of one host, for mid-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn host(&self, node: NodeId) -> &HostState {
        &self.hosts[node.index()]
    }

    /// The redirector's replica bookkeeping, for mid-run inspection.
    pub fn redirector(&self) -> &Redirector {
        &self.redirector
    }

    /// Finalizes a (possibly partially run) simulation into its report.
    pub fn finish(self) -> RunReport {
        self.finalize()
    }

    fn bootstrap(&mut self) {
        // Initial object placement.
        match self.scenario.initial_placement.clone() {
            InitialPlacement::RoundRobin => {
                let n = self.hosts.len() as u32;
                for i in 0..self.scenario.num_objects {
                    let node = NodeId::new((i % n) as u16);
                    self.install(ObjectId::new(i), node);
                }
            }
            InitialPlacement::Explicit(assignments) => {
                for (i, nodes) in assignments.iter().enumerate() {
                    for &node in nodes {
                        self.install(ObjectId::new(i as u32), NodeId::new(node));
                    }
                }
            }
        }
        let num_nodes = self.hosts.len();
        if let Some(trace) = &self.replay {
            if let Some(first) = trace.entries().first() {
                self.queue.schedule(
                    SimTime::from_secs(first.t),
                    Event::TraceArrival { index: 0 },
                );
            }
        } else {
            // One arrival stream per gateway, phase-staggered within its
            // period so the constant-rate sources are not lock-stepped.
            for i in 0..num_nodes {
                let period = 1.0 / self.scenario.request_rate_of(i);
                let offset = period * i as f64 / num_nodes as f64;
                self.queue.schedule(
                    SimTime::from_secs(offset),
                    Event::Arrival {
                        gateway: NodeId::new(i as u16),
                    },
                );
            }
        }
        // Timers.
        self.queue.schedule(
            SimTime::from_secs(self.scenario.params.measurement_interval),
            Event::LoadSample,
        );
        if self.scenario.update_rate > 0.0 {
            let gap = self.rng.exponential(self.scenario.update_rate);
            self.queue
                .schedule(SimTime::from_secs(gap), Event::ProviderUpdate);
        }
        if self.scenario.placement == PlacementMode::Dynamic {
            // Hosts run their placement decisions periodically but not in
            // lock-step: host i fires at period·(1 + (i+1)/n)·…, spreading
            // the runs across the period so admission estimates and load
            // measurements refresh between consecutive deciders.
            let period = self.scenario.params.placement_period;
            for i in 0..num_nodes {
                let phase = period + period * (i + 1) as f64 / num_nodes as f64;
                self.queue.schedule(
                    SimTime::from_secs(phase),
                    Event::Placement {
                        host: NodeId::new(i as u16),
                    },
                );
            }
        }
        if let Some(first) = self.fault_schedule.first() {
            self.queue
                .schedule(SimTime::from_secs(first.t), Event::Fault { index: 0 });
        }
    }

    pub(crate) fn install(&mut self, object: ObjectId, node: NodeId) {
        self.redirector.directory_mut().install(object, node);
        self.hosts[node.index()].install_object(object);
    }

    /// Recorder-visible queue depth: the scheduled events.
    pub(crate) fn depth(&self) -> u32 {
        self.queue.len() as u32
    }

    fn handle(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Arrival { gateway } => self.on_arrival(t, gateway),
            Event::Redirect {
                object,
                gateway,
                t0,
                cause,
            } => self.on_redirect(t, object, gateway, t0, cause),
            Event::ArriveAtHost {
                object,
                gateway,
                host,
                t0,
                cause,
            } => self.on_arrive_at_host(t, object, gateway, host, t0, cause),
            Event::ServiceComplete {
                object,
                gateway,
                host,
                t0,
                epoch,
                slot,
                cause,
            } => self.on_service_complete(t, object, gateway, host, t0, epoch, slot, cause),
            Event::LoadSample => self.on_load_sample(t),
            Event::Placement { host } => self.on_placement(t, host),
            Event::ProviderUpdate => self.on_provider_update(t),
            Event::UpdateDeliver {
                object,
                target,
                version,
                issued,
            } => self.on_update_deliver(t, object, target, version, issued),
            Event::TraceArrival { index } => self.on_trace_arrival(t, index),
            Event::Fault { index } => self.on_fault(t, index),
            Event::DeclareDead { host, epoch } => self.on_declare_dead(t, host, epoch),
        }
    }

    /// Debug-build check of the protocol's replica-set subset invariant:
    /// every replica the redirector knows physically exists on its host.
    pub(crate) fn debug_check_invariants(&self) {
        if cfg!(debug_assertions) {
            for i in 0..self.scenario.num_objects {
                let object = ObjectId::new(i);
                for info in self.redirector.directory().replicas(object) {
                    debug_assert!(
                        self.hosts[info.host.index()].has_object(object),
                        "replica-set invariant violated: redirector lists {object}@{} \
                         but the host does not hold it",
                        info.host
                    );
                }
                // Crashes can transiently leave an object with no
                // replicas (until the sweep restores it), so the
                // last-replica invariant only holds on fault-free runs.
                debug_assert!(
                    self.redirector.directory().replica_count(object) >= 1
                        || !self.scenario.faults.is_empty(),
                    "object {object} lost its last replica"
                );
            }
        }
    }

    fn finalize(self) -> RunReport {
        let policy = self.policy_name().to_string();
        let placement = self.placement_name().to_string();
        let workload = self.workload.name().to_string();
        // Keep what the report is built from. Moving `self` into a
        // temporary drops every other field — the per-host tables, the
        // event queue, the workload and the placement scratch — at the
        // end of this statement, so the report's tables reuse that
        // memory instead of raising the peak.
        let Simulation {
            scenario,
            redirector,
            mut metrics,
            profile,
            mut events,
            object_ledger,
            recorded,
            unavailable_since,
            ..
        } = { self };
        // Every fold has now seen the whole feed.
        events.close();
        // Close the unavailability intervals still open at the end of
        // the run (replica-floor intervals never restored stay out of
        // the restore-time distribution: they have no restore).
        let end = scenario.duration;
        for (_, since) in unavailable_since {
            metrics.unavailable_object_seconds += end - since;
        }
        let directory = redirector.directory();
        let mut final_replicas = FinalReplicas::with_capacity(
            scenario.num_objects as usize,
            directory.total_replicas() as usize,
        );
        for i in 0..scenario.num_objects {
            let replicas = directory.replicas(ObjectId::new(i));
            final_replicas.push(replicas.iter().map(|r| (r.host.index() as u16, r.aff)));
        }
        drop(redirector);
        let link_traffic: Vec<((u16, u16), f64)> = scenario
            .topology
            .links()
            .iter()
            .zip(&metrics.link_bytes)
            .map(|(&(a, b), &bytes)| ((a.index() as u16, b.index() as u16), bytes))
            .collect();
        let mut report = RunReport::from_metrics(
            metrics,
            workload,
            policy,
            placement,
            scenario.placement == PlacementMode::Dynamic,
            scenario.duration,
        );
        report.final_replicas = final_replicas;
        report.link_traffic = link_traffic;
        report.trace = recorded.map(|entries| entries.into_iter().collect::<Trace>());
        report.loop_profile = profile.map(|counters| {
            PROFILE_KINDS
                .iter()
                .zip(counters.iter())
                .map(|(&(label, _), &counter)| (label, counter))
                .collect()
        });
        if let Some(ledger) = &object_ledger {
            ledger.finalize(end);
            report.protocol_health = Some(ledger.with(ObjectLedger::health));
        }
        report
    }
}

/// Placeholder workload for replay mode (never consulted: arrivals come
/// from the trace).
#[derive(Debug)]
struct NullWorkload;

impl Workload for NullWorkload {
    fn choose(&mut self, _now: f64, _gateway: NodeId, _rng: &mut SimRng) -> ObjectId {
        unreachable!("replay mode never samples a workload")
    }

    fn name(&self) -> &str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_workload::{ArrivalProcess, ZipfReeds};

    #[test]
    fn an_event_is_32_bytes() {
        // The wheel's nodes hold an event each; a request's completion
        // carries the most fields, and a `u32` slot hint there grows
        // every node from 48 to 56 bytes (hot_sites_backlog peak RSS
        // 15.9 → 17.2 MB).
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }

    #[test]
    fn every_event_kind_indexes_its_own_profile_row() {
        let (object, node, t0) = (ObjectId::new(1), NodeId::new(2), SimTime::ZERO);
        // Each variant, its label and whether its clock reads are
        // sampled, stated independently of `Event::kind`'s indices.
        let kinds = [
            (Event::Arrival { gateway: node }, "arrival", true),
            (
                Event::Redirect {
                    object,
                    gateway: node,
                    t0,
                    cause: 0,
                },
                "redirect",
                true,
            ),
            (
                Event::ArriveAtHost {
                    object,
                    gateway: node,
                    host: node,
                    t0,
                    cause: 0,
                },
                "arrive-at-host",
                true,
            ),
            (
                Event::ServiceComplete {
                    object,
                    gateway: node,
                    host: node,
                    t0,
                    epoch: 0,
                    slot: SlotHint::NONE,
                    cause: 0,
                },
                "service-complete",
                true,
            ),
            (Event::LoadSample, "load-sample", false),
            (Event::Placement { host: node }, "placement", false),
            (Event::ProviderUpdate, "provider-update", false),
            (
                Event::UpdateDeliver {
                    object,
                    target: node,
                    version: 1,
                    issued: t0,
                },
                "update-deliver",
                true,
            ),
            (Event::TraceArrival { index: 0 }, "trace-arrival", true),
            (Event::Fault { index: 0 }, "fault", false),
            (
                Event::DeclareDead {
                    host: node,
                    epoch: 0,
                },
                "declare-dead",
                false,
            ),
        ];
        assert_eq!(kinds.len(), PROFILE_KINDS.len());
        let mut seen = [false; PROFILE_KINDS.len()];
        for (event, label, sampled) in kinds {
            let kind = event.kind();
            assert_eq!(PROFILE_KINDS[kind], (label, sampled), "{event:?}");
            assert!(!std::mem::replace(&mut seen[kind], true), "{event:?}");
        }
    }

    #[test]
    fn delay_tables_equal_the_per_request_conversions() {
        let rates: Vec<f64> = (0..53).map(|i| 7.0 + i as f64 / 3.0).collect();
        let scenario = Scenario::builder()
            .num_objects(10)
            .node_request_rates(rates.clone())
            .build()
            .expect("valid");
        let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(10)));
        let n = sim.hosts.len();
        assert_eq!(sim.propagation_by_hops.len(), n + 1);
        for hops in 0..=n {
            assert_eq!(
                sim.propagation_by_hops[hops],
                SimDuration::from_secs(hops as f64 * 0.010)
            );
        }
        let mut rng = SimRng::seed_from(1);
        assert_eq!(sim.arrival_gaps.len(), n);
        for (gap, &rate) in sim.arrival_gaps.iter().zip(&rates) {
            let process = ArrivalProcess::Deterministic { rate };
            assert_eq!(
                *gap,
                SimDuration::from_secs(process.next_interarrival(&mut rng))
            );
        }
        // Each gateway's first arrival sits at its phase offset.
        sim.bootstrap();
        let mut first = vec![None; n];
        while let Some((t, event)) = sim.queue.pop_through(SimTime::from_secs(1.0)) {
            if let Event::Arrival { gateway } = event {
                first[gateway.index()] = Some(t);
            }
        }
        for (i, &rate) in rates.iter().enumerate() {
            let offset = ArrivalProcess::Deterministic { rate }.phase_offset(i, n);
            assert_eq!(first[i], Some(SimTime::from_secs(offset)), "gateway {i}");
        }
    }
}
