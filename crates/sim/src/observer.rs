//! Custom instrumentation hooks: two feeds, one per cost.
//!
//! [`Observer::on_request_served`] is the per-request hook that works
//! without tracing; everything else — decisions, failures, placement
//! actions, faults, re-replications, provider updates — arrives as a
//! typed [`radar_obs::Event`] through [`Observer::on_event`] once the
//! observer asks for the feed with [`Observer::wants_events`]. The
//! flight recorder's folds (recorder, metrics, ledger) need no impl of
//! their own: any [`radar_obs::Shared`] fold is an observer.

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
///
/// Observers run on one observer thread of their own, started when the
/// first observer is attached. The event loop hands them its feed in
/// batches and never waits for a hook, so an observer cannot affect the
/// simulation (it receives shared borrows of event data only). Order is
/// exactly that of a synchronous call: every observer sees every hook in
/// attachment order, events and served-request records interleaved as
/// the run produced them.
/// [`Simulation::run_until`](crate::Simulation::run_until),
/// [`finish`](crate::Simulation::finish) and dropping the simulation
/// return only once every observer has seen everything emitted so far,
/// so a fold read between slices or after the run is current. If an
/// observer panics, the simulation thread re-raises that panic at its
/// next hand-off to the observer thread, at the end of `run_until` or in
/// `finish`, and panics with the same message at every later one;
/// dropping the simulation joins the thread without raising it again.
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
}

/// A [`radar_obs::Shared`] fold is an observer: attach one clone to the
/// simulation and read the fold — a recorder's log, the metrics
/// aggregates or the object ledger — through another.
/// [`crate::Simulation::enable_object_ledger`] does exactly this.
impl<T: radar_obs::Fold + Send> Observer for radar_obs::Shared<T> {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.fold(event);
    }
}
