//! The run accounting the paper's evaluation reads, and the streaming
//! fold that rebuilds it from the flight-recorder event stream.
//!
//! [`Tally`] is the one accounting of served and failed requests,
//! latency (Fig. 6), client bytes×hops (Figs. 6–7, Table 2), the
//! max-host-load series (Fig. 8a), faults, re-replications and the §5
//! update traffic. The simulator keeps one in its `Metrics` and builds
//! its report from it; [`MetricsObserver`] consumes the same typed
//! [`Event`] feed the [`crate::Recorder`] does and records into a
//! `Tally` of its own through the same methods, next to aggregates only
//! the dashboard shows: per-host [`WindowedRate`] load gauges (§2.1's
//! measurement interval), a latency [`Histogram`], rolling served /
//! failed / re-replication rates, the fault banner and the branch and
//! placement counts. Per-object and per-host request counts are the
//! [`crate::ObjectLedger`]'s; the dashboard reads them there. The same
//! two folds power the live `radar simulate --dashboard` view and the
//! offline `radar events watch FILE` replay, so both render identical
//! aggregates from identical streams.
//!
//! The fold's `Tally` equals the simulator's field for field: served
//! events carry the service-completion time the simulator uses for both
//! its bandwidth series and its host-load windows, and samples arrive in
//! the order they were recorded. The one exception is `max_load` when a
//! host crashes in an interval in which it is the busiest — the
//! simulator skips down hosts, and the event stream does not carry
//! liveness.

use crate::event::{ConsistencyClass, Event, EventKind};
use crate::idtable::at;
use crate::shared::{Fold, Shared};
use radar_stats::{BinSpec, Histogram, OnlineSummary, P2Quantile, TimeSeries, WindowedRate};
use std::collections::{BTreeMap, VecDeque};

/// Window of the rolling served / failed / re-replication rates the
/// dashboard displays, seconds.
const ROLLING_WINDOW: f64 = 20.0;
/// How many recent fault transitions the dashboard's fault banner
/// retains.
const FAULT_BANNER: usize = 5;

/// The quantities the paper's evaluation reads, recorded by one set of
/// rules: the simulator keeps one `Tally` and [`MetricsObserver`] folds
/// the event stream into another. The counters without a rule of their
/// own (`failed`, `faults`, `re_replications`) and the `max_load`
/// series are updated in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    /// Responses delivered.
    pub served: u64,
    /// Requests that failed: no live, reachable replica could serve
    /// them.
    pub failed: u64,
    /// Whole-run latency summary (seconds).
    pub latency: OnlineSummary,
    /// Streaming P² median latency estimator.
    pub latency_p50: P2Quantile,
    /// Streaming P² 99th-percentile latency estimator.
    pub latency_p99: P2Quantile,
    /// Response traffic, bytes×hops per bin (the paper's bandwidth
    /// metric), binned at service completion.
    pub client_bandwidth: TimeSeries,
    /// Maximum measured host load, sampled once per measurement interval
    /// (Fig. 8a).
    pub max_load: TimeSeries,
    /// Fault transitions applied.
    pub faults: u64,
    /// Replicas restored by the re-replication sweep.
    pub re_replications: u64,
    /// Provider updates propagated (§5).
    pub updates: u64,
    /// Provider updates per consistency class, indexed by the class's
    /// row in its tag table: `[type-1, type-2, type-3]`.
    pub updates_by_class: [u64; 3],
    /// Update propagation traffic, bytes×hops per bin, binned at issue.
    pub update_bandwidth: TimeSeries,
    /// Updates that first had to reassign the primary copy because its
    /// host no longer held the object.
    pub primary_reassignments: u64,
    /// Asynchronous update deliveries applied at a live replica.
    pub update_deliveries: u64,
    /// Deliveries that found their target replica already gone.
    pub wasted_deliveries: u64,
    /// Type-2 deliveries merged commutatively at the replica.
    pub updates_merged: u64,
    /// Staleness of applied type-1 deliveries (seconds).
    pub update_lag_type1: OnlineSummary,
    /// Staleness of applied type-2 deliveries (seconds).
    pub update_lag_type2: OnlineSummary,
}

impl Tally {
    /// An empty tally over `bin`-second traffic bins and
    /// `load_interval`-second load bins.
    pub fn new(bin: f64, load_interval: f64) -> Self {
        Self {
            served: 0,
            failed: 0,
            latency: OnlineSummary::new(),
            latency_p50: P2Quantile::new(0.5),
            latency_p99: P2Quantile::new(0.99),
            client_bandwidth: TimeSeries::new(BinSpec::new(bin)),
            max_load: TimeSeries::new(BinSpec::new(load_interval)),
            faults: 0,
            re_replications: 0,
            updates: 0,
            updates_by_class: [0; 3],
            update_bandwidth: TimeSeries::new(BinSpec::new(bin)),
            primary_reassignments: 0,
            update_deliveries: 0,
            wasted_deliveries: 0,
            updates_merged: 0,
            update_lag_type1: OnlineSummary::new(),
            update_lag_type2: OnlineSummary::new(),
        }
    }

    /// One delivered response: `bytes_hops` of client traffic binned at
    /// `t`, the service completion, and one latency sample.
    pub fn record_served(&mut self, t: f64, latency: f64, bytes_hops: f64) {
        self.served += 1;
        self.client_bandwidth.record(t, bytes_hops);
        self.latency.record(latency);
        self.latency_p50.record(latency);
        self.latency_p99.record(latency);
    }

    /// One provider update issued at `t`: its class tally and its whole
    /// propagation traffic, charged at issue.
    pub fn record_update(
        &mut self,
        t: f64,
        class: ConsistencyClass,
        bytes_hops: f64,
        reassigned: bool,
    ) {
        self.updates += 1;
        self.updates_by_class[class as usize] += 1;
        self.update_bandwidth.record(t, bytes_hops);
        if reassigned {
            self.primary_reassignments += 1;
        }
    }

    /// One asynchronous update delivery at a replica. `lag` is the
    /// replica's staleness window for this version; `wasted` means the
    /// target replica was gone by delivery time, and the lag sample is
    /// then discarded — there is no replica to be stale. Type-2
    /// deliveries also count as merges.
    pub fn record_delivery(&mut self, class: ConsistencyClass, lag: f64, wasted: bool) {
        if wasted {
            self.wasted_deliveries += 1;
            return;
        }
        self.update_deliveries += 1;
        match class {
            ConsistencyClass::Type1 => self.update_lag_type1.record(lag),
            ConsistencyClass::Type2 => {
                self.update_lag_type2.record(lag);
                self.updates_merged += 1;
            }
            ConsistencyClass::Type3 => {}
        }
    }
}

/// Tuning knobs for a [`MetricsObserver`], mirroring the scenario
/// parameters the simulator's own metrics use so folded aggregates are
/// comparable with the end-of-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsConfig {
    /// Object size in bytes (bandwidth = size × hops per response).
    pub object_size: u64,
    /// Width of bandwidth time bins, seconds (the scenario's
    /// `metric_bin`; the paper plots 100 s bins).
    pub bandwidth_bin: f64,
    /// Host load measurement interval, seconds (§2.1; 20 s in the
    /// evaluation).
    pub load_interval: f64,
    /// Latency histogram bucket width, seconds.
    pub latency_bucket: f64,
    /// Number of latency histogram buckets (plus overflow).
    pub latency_buckets: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            object_size: 12 * 1024,
            bandwidth_bin: 100.0,
            load_interval: 20.0,
            latency_bucket: 0.025,
            latency_buckets: 40,
        }
    }
}

/// Folds flight-recorder events into a [`Tally`] plus streaming
/// dashboard aggregates.
///
/// Feed it events in sequence order via [`fold`](Self::fold) (or attach
/// a [`SharedMetrics`] to a simulation as an observer), then call
/// [`finalize`](Self::finalize) with the run duration so windowed
/// gauges complete their last interval.
///
/// ```
/// use radar_obs::{Event, EventKind, MetricsObserver};
///
/// let mut m = MetricsObserver::default();
/// m.fold(&Event {
///     seq: 1,
///     parent: None,
///     t: 0.5,
///     queue_depth: 0,
///     kind: EventKind::RequestServed {
///         gateway: 0,
///         object: 7,
///         host: 3,
///         latency: 0.08,
///         hops: 2,
///     },
/// });
/// m.finalize(20.0);
/// assert_eq!(m.tally().served, 1);
/// assert_eq!(m.tally().client_bandwidth.bin_sum(0), (12 * 1024 * 2) as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsObserver {
    cfg: MetricsConfig,
    tally: Tally,
    events_seen: u64,
    last_t: f64,
    /// `hosts[host]`: the load gauge, `None` until the host serves.
    hosts: Vec<Option<WindowedRate>>,
    next_load_sample: f64,
    latency_hist: Histogram,
    served_rate: WindowedRate,
    failed_rate: WindowedRate,
    re_replication_rate: WindowedRate,
    branch_counts: BTreeMap<&'static str, u64>,
    placement_counts: BTreeMap<&'static str, u64>,
    recent_faults: VecDeque<(f64, String)>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new(MetricsConfig::default())
    }
}

impl MetricsObserver {
    /// Creates an empty fold with the given configuration.
    pub fn new(cfg: MetricsConfig) -> Self {
        Self {
            tally: Tally::new(cfg.bandwidth_bin, cfg.load_interval),
            latency_hist: Histogram::new(cfg.latency_bucket, cfg.latency_buckets.max(1)),
            next_load_sample: cfg.load_interval,
            cfg,
            events_seen: 0,
            last_t: 0.0,
            hosts: Vec::new(),
            served_rate: WindowedRate::new(ROLLING_WINDOW),
            failed_rate: WindowedRate::new(ROLLING_WINDOW),
            re_replication_rate: WindowedRate::new(ROLLING_WINDOW),
            branch_counts: BTreeMap::new(),
            placement_counts: BTreeMap::new(),
            recent_faults: VecDeque::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MetricsConfig {
        &self.cfg
    }

    /// Completes any load-measurement intervals that have fully elapsed
    /// by `t`, sampling the platform-wide maximum host load at each
    /// boundary (the simulator does the same at every `LoadSample`
    /// tick).
    fn sample_load_until(&mut self, t: f64) {
        while self.next_load_sample <= t {
            let boundary = self.next_load_sample;
            let rates = self.hosts.iter_mut().flatten().map(|rate| {
                rate.advance_to(boundary);
                rate.rate()
            });
            self.tally
                .max_load
                .record(boundary, rates.fold(0.0, f64::max));
            self.next_load_sample += self.cfg.load_interval;
        }
    }

    /// Folds one event into the aggregates. Events must arrive in
    /// sequence (non-decreasing time) order, as the recorder emits
    /// them.
    pub fn fold(&mut self, event: &Event) {
        self.sample_load_until(event.t);
        self.events_seen += 1;
        if event.t > self.last_t {
            self.last_t = event.t;
        }
        match &event.kind {
            EventKind::RequestArrived { .. } | EventKind::CountsReset { .. } => {}
            EventKind::Decision(d) => {
                *self.branch_counts.entry(d.branch.as_str()).or_insert(0) += 1;
            }
            EventKind::RequestServed {
                host,
                latency,
                hops,
                ..
            } => {
                self.served_rate.record(event.t);
                at(&mut self.hosts, usize::from(*host))
                    .get_or_insert_with(|| WindowedRate::new(self.cfg.load_interval))
                    .record(event.t);
                let bytes_hops = (self.cfg.object_size * u64::from(*hops)) as f64;
                self.tally.record_served(event.t, *latency, bytes_hops);
                self.latency_hist.record(*latency);
            }
            EventKind::RequestFailed { .. } => {
                self.tally.failed += 1;
                self.failed_rate.record(event.t);
            }
            EventKind::PlacementAction(p) => {
                *self.placement_counts.entry(p.action.as_str()).or_insert(0) += 1;
            }
            EventKind::Fault { desc } => {
                self.tally.faults += 1;
                self.recent_faults.push_back((event.t, desc.clone()));
                while self.recent_faults.len() > FAULT_BANNER {
                    self.recent_faults.pop_front();
                }
            }
            EventKind::ReReplication { .. } => {
                self.tally.re_replications += 1;
                self.re_replication_rate.record(event.t);
            }
            // The update events carry the exact bytes×hops sum and lag
            // the simulator records, so the casts match bit for bit.
            EventKind::ProviderUpdate(u) => {
                self.tally
                    .record_update(event.t, u.class, u.bytes_hops as f64, u.reassigned);
            }
            EventKind::UpdateDelivered(u) => self.tally.record_delivery(u.class, u.lag, u.wasted),
        }
    }

    /// Rolls every windowed gauge forward to the end of the run,
    /// completing measurement intervals the event stream alone cannot
    /// close (the simulator's final `LoadSample` ticks fire on a timer,
    /// not on traffic).
    pub fn finalize(&mut self, t_end: f64) {
        self.sample_load_until(t_end);
        self.served_rate.advance_to(t_end);
        self.failed_rate.advance_to(t_end);
        self.re_replication_rate.advance_to(t_end);
        if t_end > self.last_t {
            self.last_t = t_end;
        }
    }

    // ---- aggregate views -------------------------------------------------

    /// The accounting shared with the simulator's report.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Total events folded.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Latest time observed (event time or `finalize` horizon).
    pub fn last_t(&self) -> f64 {
        self.last_t
    }

    /// The latency histogram.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Rolling served-responses rate (events/s over the last completed
    /// rolling window).
    pub fn served_rate(&self) -> f64 {
        self.served_rate.rate()
    }

    /// Rolling failed-requests rate.
    pub fn failed_rate(&self) -> f64 {
        self.failed_rate.rate()
    }

    /// Rolling re-replication rate.
    pub fn re_replication_rate(&self) -> f64 {
        self.re_replication_rate.rate()
    }

    /// Per-host `(host, current measured load)` rows for every host
    /// that has served, ascending by host id. The load is the rate of
    /// the host's last completed measurement interval.
    pub fn host_loads(&self) -> Vec<(u16, f64)> {
        let gauges = self.hosts.iter().enumerate();
        // `hosts` is indexed by `u16` ids: the cast is lossless.
        gauges
            .filter_map(|(h, rate)| Some((h as u16, rate.as_ref()?.rate())))
            .collect()
    }

    /// The most recent fault transitions `(t, description)`, oldest
    /// first, at most five.
    pub fn recent_faults(&self) -> impl Iterator<Item = &(f64, String)> {
        self.recent_faults.iter()
    }

    /// Redirector branch counts (`closest`, `least-requested`, …),
    /// keyed by the interned branch tag.
    pub fn branch_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.branch_counts
    }

    /// Placement action counts (`drop`, `geo-migrate`, …), keyed by the
    /// interned action tag.
    pub fn placement_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.placement_counts
    }
}

impl Fold for MetricsObserver {
    fn fold(&mut self, event: &Event) {
        MetricsObserver::fold(self, event);
    }

    fn finalize(&mut self, t_end: f64) {
        MetricsObserver::finalize(self, t_end);
    }
}

/// A [`MetricsObserver`] behind a [`Shared`] handle: attach one clone to
/// the simulation and read the aggregates through another (the
/// dashboard renderer does exactly this).
pub type SharedMetrics = Shared<MetricsObserver>;

impl SharedMetrics {
    /// Creates a shared fold with the given configuration.
    pub fn new(cfg: MetricsConfig) -> Self {
        Self::from(MetricsObserver::new(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        DecisionBranch, DecisionEvent, FailReason, PlacementActionEvent, PlacementActionKind,
    };

    fn ev(seq: u64, t: f64, kind: EventKind) -> Event {
        Event {
            seq,
            parent: None,
            t,
            queue_depth: 0,
            kind,
        }
    }

    fn served(seq: u64, t: f64, object: u32, host: u16, latency: f64, hops: u32) -> Event {
        ev(
            seq,
            t,
            EventKind::RequestServed {
                gateway: 0,
                object,
                host,
                latency,
                hops,
            },
        )
    }

    #[test]
    fn served_events_feed_bandwidth_latency_and_host_gauges() {
        let mut m = MetricsObserver::new(MetricsConfig {
            object_size: 1000,
            bandwidth_bin: 100.0,
            load_interval: 10.0,
            ..MetricsConfig::default()
        });
        // Host 3 serves 20 requests in [0, 10): load 2.0 req/s.
        for i in 0..20 {
            m.fold(&served(i + 1, i as f64 * 0.5, 7, 3, 0.05, 2));
        }
        m.fold(&served(21, 12.0, 8, 4, 0.15, 3));
        m.finalize(20.0);
        let tally = m.tally();
        assert_eq!(tally.served, 21);
        assert_eq!(tally.client_bandwidth.bin_sum(0), 20.0 * 2000.0 + 3000.0);
        // Sample at t=10 saw host 3 at 2 req/s; host 4 had not served yet.
        assert_eq!(tally.max_load.bin_sum(1), 2.0);
        // Host 4 served once in [10, 20); host 3 not at all.
        assert_eq!(m.host_loads(), vec![(3, 0.0), (4, 0.1)]);
        let mean = m.tally().latency.mean().unwrap();
        assert!((mean - (20.0 * 0.05 + 0.15) / 21.0).abs() < 1e-12);
        assert_eq!(m.latency_histogram().total(), 21);
    }

    #[test]
    fn load_sampling_matches_interval_boundaries() {
        let mut m = MetricsObserver::new(MetricsConfig {
            load_interval: 20.0,
            ..MetricsConfig::default()
        });
        m.fold(&served(1, 5.0, 1, 0, 0.1, 1));
        // No boundary crossed yet.
        assert_eq!(m.tally().max_load.len(), 0);
        m.fold(&served(2, 45.0, 1, 0, 0.1, 1));
        // Boundaries at 20 and 40 sampled before folding the event.
        let max_load = &m.tally().max_load;
        assert_eq!(max_load.bin_count(1), 1);
        assert_eq!(max_load.bin_sum(1), 1.0 / 20.0);
        assert_eq!(max_load.bin_count(2), 1);
        assert_eq!(max_load.bin_sum(2), 0.0);
        m.finalize(100.0);
        // Remaining boundaries 60, 80, 100 completed by finalize.
        assert_eq!(m.tally().max_load.total_count(), 5);
    }

    #[test]
    fn placements_and_rereplications_are_counted() {
        let mut m = MetricsObserver::default();
        let action = |seq, action: PlacementActionKind, target| {
            ev(
                seq,
                30.0,
                EventKind::PlacementAction(PlacementActionEvent {
                    host: 1,
                    object: 5,
                    action,
                    target,
                    unit_rate: 0.2,
                    share: None,
                    ratio: None,
                    deletion_threshold: 0.01,
                    replication_threshold: 0.18,
                }),
            )
        };
        m.fold(&action(1, PlacementActionKind::GeoReplicate, Some(2)));
        m.fold(&action(2, PlacementActionKind::GeoMigrate, Some(3)));
        m.fold(&action(3, PlacementActionKind::Drop, None));
        m.fold(&ev(
            4,
            40.0,
            EventKind::ReReplication {
                object: 5,
                target: 9,
                elapsed: 12.0,
            },
        ));
        assert_eq!(m.tally().re_replications, 1);
        assert_eq!(m.placement_counts()["drop"], 1);
        assert_eq!(m.placement_counts().values().sum::<u64>(), 3);
    }

    #[test]
    fn faults_and_failures_update_banner_and_rates() {
        let mut m = MetricsObserver::default();
        for i in 1..=FAULT_BANNER + 1 {
            m.fold(&ev(
                i as u64,
                i as f64,
                EventKind::Fault {
                    desc: format!("host-crash {i}"),
                },
            ));
        }
        m.fold(&ev(
            FAULT_BANNER as u64 + 2,
            FAULT_BANNER as f64 + 2.0,
            EventKind::RequestFailed {
                gateway: 0,
                object: 1,
                reason: FailReason::AllReplicasDown,
            },
        ));
        assert_eq!(m.tally().faults, FAULT_BANNER as u64 + 1);
        assert_eq!(m.tally().failed, 1);
        let banner: Vec<&(f64, String)> = m.recent_faults().collect();
        assert_eq!(banner.len(), FAULT_BANNER, "banner capped");
        assert_eq!(banner[0].0, 2.0, "oldest banner entry rotated out");
        m.finalize(ROLLING_WINDOW);
        assert!((m.failed_rate() - 1.0 / ROLLING_WINDOW).abs() < 1e-12);
    }

    #[test]
    fn decision_branches_counted() {
        let mut m = MetricsObserver::default();
        m.fold(&ev(
            1,
            0.5,
            EventKind::RequestArrived {
                gateway: 2,
                object: 9,
            },
        ));
        m.fold(&ev(
            2,
            0.6,
            EventKind::Decision(DecisionEvent {
                object: 9,
                gateway: 2,
                chosen: 1,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(1),
                least: Some(1),
                unit_closest: Some(1.0),
                unit_least: Some(1.0),
                candidates: Vec::new(),
            }),
        ));
        assert_eq!(m.branch_counts()["closest"], 1);
        assert_eq!(m.events_seen(), 2);
    }

    #[test]
    fn shared_metrics_round_trip() {
        let shared = SharedMetrics::default();
        let clone = shared.clone();
        clone.fold(&served(1, 1.0, 3, 2, 0.05, 1));
        clone.finalize(20.0);
        assert_eq!(shared.with(|m| m.tally().served), 1);
        assert_eq!(shared.with(|m| m.tally().max_load.total_count()), 1);
    }
}
