//! Custom instrumentation hooks.

use crate::faults::FaultTransition;
use crate::metrics::RelocationEvent;

/// Why a request failed to be served (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Every replica of the object (and the primary fallback) was on a
    /// crashed host.
    AllReplicasDown,
    /// A replica existed but no route reached it from the redirector, or
    /// the response could not reach the gateway.
    Unreachable,
    /// The serving host crashed while the request was queued or in
    /// service.
    CrashedMidService,
}

impl FailureReason {
    /// Stable kebab-case tag, as recorded in flight-recorder
    /// [`radar_obs::EventKind::RequestFailed`] events.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureReason::AllReplicasDown => "all-replicas-down",
            FailureReason::Unreachable => "unreachable",
            FailureReason::CrashedMidService => "crashed-mid-service",
        }
    }
}

/// One served request, as delivered to observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// When the request entered its gateway (seconds).
    pub entered: f64,
    /// When the response reached the gateway (seconds).
    pub delivered: f64,
    /// The gateway node.
    pub gateway: u16,
    /// The requested object.
    pub object: u32,
    /// The host that served it.
    pub host: u16,
    /// End-to-end latency (seconds).
    pub latency: f64,
    /// Hops the response traveled.
    pub hops: u32,
}

/// Receives a live feed of simulation events — the extension point for
/// measurements the built-in [`crate::Metrics`] does not collect
/// (per-object latency percentiles, custom traces, live dashboards, …).
///
/// All methods have empty defaults; implement only what you need.
/// Observers run synchronously inside the event loop, so they should be
/// cheap; they cannot affect the simulation (they receive shared
/// borrows of event data only).
///
/// # Examples
///
/// ```
/// use radar_sim::{Observer, RequestRecord, Scenario, Simulation};
/// use radar_workload::ZipfReeds;
///
/// #[derive(Default)]
/// struct SlowCounter {
///     over_100ms: u64,
/// }
/// impl Observer for SlowCounter {
///     fn on_request_served(&mut self, r: &RequestRecord) {
///         if r.latency > 0.1 {
///             self.over_100ms += 1;
///         }
///     }
/// }
///
/// let scenario = Scenario::builder()
///     .num_objects(50)
///     .node_request_rate(1.0)
///     .duration(30.0)
///     .build()?;
/// let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(50)));
/// sim.attach_observer(Box::new(SlowCounter::default()));
/// let _report = sim.run();
/// # Ok::<(), radar_sim::ScenarioError>(())
/// ```
pub trait Observer: Send {
    /// A response was delivered to its gateway.
    fn on_request_served(&mut self, record: &RequestRecord) {
        let _ = record;
    }

    /// A placement action happened (migration, replication, drop, …).
    fn on_relocation(&mut self, event: &RelocationEvent) {
        let _ = event;
    }

    /// A load-measurement tick completed; `max_load` is the platform-wide
    /// maximum measured host load.
    fn on_load_sample(&mut self, t: f64, max_load: f64) {
        let _ = (t, max_load);
    }

    /// A scheduled fault transition was applied (crash, recovery,
    /// partition, heal, degradation).
    fn on_fault(&mut self, transition: &FaultTransition) {
        let _ = transition;
    }

    /// A request failed: no live, reachable replica could serve it.
    fn on_request_failed(&mut self, t: f64, object: u32, gateway: u16, reason: FailureReason) {
        let _ = (t, object, gateway, reason);
    }

    /// The re-replication sweep restored `object` to its minimum replica
    /// count, `elapsed` seconds after it fell below the floor.
    fn on_re_replication(&mut self, t: f64, object: u32, target: u16, elapsed: f64) {
        let _ = (t, object, target, elapsed);
    }

    /// Whether this observer wants the flight-recorder event feed
    /// ([`on_event`](Self::on_event)). The platform only builds the
    /// typed [`radar_obs::Event`]s — decision snapshots, placement
    /// explanations, causal parents — when at least one attached
    /// observer returns `true`, so with no recorder the hot path pays
    /// only a branch. Asked once, when the observer is attached.
    fn wants_events(&self) -> bool {
        false
    }

    /// A flight-recorder event was emitted. Only called on observers
    /// whose [`wants_events`](Self::wants_events) returns `true`.
    fn on_event(&mut self, event: &radar_obs::Event) {
        let _ = event;
    }

    /// The run finished with event-loop profiling enabled
    /// ([`crate::Simulation::enable_loop_profile`]); called once at
    /// finalization with the accumulated per-handler counters.
    fn on_loop_profile(&mut self, profile: &radar_obs::LoopProfile) {
        let _ = profile;
    }
}

/// A [`radar_obs::Recorder`] is an observer: it subscribes to the event
/// feed and records every event into its ring (and streaming sink, if
/// configured).
impl Observer for radar_obs::Recorder {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.record(event);
    }
}

/// A [`radar_obs::SharedRecorder`] is an observer too — attach one
/// clone to the simulation and keep another to read the events back
/// after the run.
impl Observer for radar_obs::SharedRecorder {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.record(event);
    }
}

/// A [`radar_obs::MetricsObserver`] subscribes to the event feed and
/// folds every event into its streaming dashboard aggregates.
impl Observer for radar_obs::MetricsObserver {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.fold(event);
    }
}

/// A [`radar_obs::SharedMetrics`] is an observer too — attach one
/// clone to the simulation and read the live aggregates (or the final
/// ones) from another.
impl Observer for radar_obs::SharedMetrics {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.fold(event);
    }
}

/// A [`radar_obs::SharedObjectLedger`] is an observer too — attach one
/// clone to the simulation and read live protocol-health snapshots (or
/// object timelines) from another. [`crate::Simulation::enable_object_ledger`]
/// does exactly this.
impl Observer for radar_obs::SharedObjectLedger {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.fold(event);
    }
}
