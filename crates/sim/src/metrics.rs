//! In-flight measurement collection.

use radar_obs::{PlacementActionKind, Tally};
use radar_stats::{BinSpec, OnlineSummary, TimeSeries};

/// One Fig. 8b sample: a host's actual measured load together with the
/// protocol's upper and lower estimates at the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadEstimateSample {
    /// Sample time (seconds).
    pub t: f64,
    /// Measured load (requests/second over the last interval).
    pub actual: f64,
    /// Upper-limit estimate.
    pub upper: f64,
    /// Lower-limit estimate.
    pub lower: f64,
}

/// A timestamped relocation-log record (for debugging and analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationEvent {
    /// Placement-run time (seconds).
    pub t: f64,
    /// The deciding host.
    pub host: u16,
    /// The object acted on.
    pub object: u32,
    /// The recipient node, when the action has one.
    pub target: Option<u16>,
    /// What happened (never [`PlacementActionKind::DropRefused`]: a
    /// refused drop changes nothing).
    pub action: PlacementActionKind,
}

/// Everything the simulator measures while running. Finalized into a
/// [`crate::RunReport`] at the end of a run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// The accounting shared with the event-stream fold
    /// ([`radar_obs::MetricsObserver`]): served and failed requests,
    /// latency, client bandwidth, the max-load series, faults,
    /// re-replications and the §5 update traffic.
    pub tally: Tally,
    /// Relocation traffic (object copies), bytes×hops per bin (Fig. 7).
    pub overhead_bandwidth: TimeSeries,
    /// Response latency samples per bin, binned at delivery (read means
    /// for Fig. 6).
    pub latency: TimeSeries,
    /// Load-estimate samples of the tracked host (Fig. 8b).
    pub load_estimates: Vec<LoadEstimateSample>,
    /// `(t, average physical replicas per object)` sampled at placement
    /// epochs (Table 2).
    pub replica_series: Vec<(f64, f64)>,
    /// Full relocation log (one record per placement action); the
    /// report's per-action counts are its tallies.
    pub relocation_log: Vec<RelocationEvent>,
    /// Per load sample: `(t, node with the maximum load, that load)`.
    pub max_load_host: Vec<(f64, u16, f64)>,
    /// Requests handled per redirector, indexed by node id (sized by the
    /// platform at startup; zero for nodes that are not redirectors).
    /// Kept flat because it is bumped on every redirect — the report
    /// layer converts to a sparse map when summarizing.
    pub redirector_requests: Vec<u64>,
    /// Total bytes carried per backbone link (indexed like the
    /// topology's link list), all traffic classes combined.
    pub link_bytes: Vec<f64>,
    /// Response traffic between regions: `region_matrix[from][to]` is
    /// bytes×hops of responses served by a host in region `from` to a
    /// gateway in region `to` (regions indexed by `Region::index`).
    pub region_matrix: [[f64; 4]; 4],
    /// Redirect leg of each request's latency (gateway → redirector →
    /// host propagation).
    pub redirect_delay: OnlineSummary,
    /// Queueing delay at the serving host.
    pub queueing_delay: OnlineSummary,
    /// Response travel time (host → gateway, store-and-forward).
    pub response_travel: OnlineSummary,
    /// Requests salvaged by falling back to the object's primary copy
    /// after the redirector found no live regular replica.
    pub primary_fallbacks: u64,
    /// Total object-seconds spent with zero live replicas (summed over
    /// objects).
    pub unavailable_object_seconds: f64,
    /// Time from an object falling below its minimum replica count to
    /// the sweep restoring it (seconds).
    pub restore_time: OnlineSummary,
}

impl Metrics {
    /// Creates empty metrics over `bin`-second bins for bandwidth and
    /// latency and `measurement_interval`-second bins for load.
    pub fn new(bin: f64, measurement_interval: f64) -> Self {
        Self {
            tally: Tally::new(bin, measurement_interval),
            overhead_bandwidth: TimeSeries::new(BinSpec::new(bin)),
            latency: TimeSeries::new(BinSpec::new(bin)),
            load_estimates: Vec::new(),
            replica_series: Vec::new(),
            relocation_log: Vec::new(),
            max_load_host: Vec::new(),
            redirector_requests: Vec::new(),
            link_bytes: Vec::new(),
            region_matrix: [[0.0; 4]; 4],
            redirect_delay: OnlineSummary::new(),
            queueing_delay: OnlineSummary::new(),
            response_travel: OnlineSummary::new(),
            primary_fallbacks: 0,
            unavailable_object_seconds: 0.0,
            restore_time: OnlineSummary::new(),
        }
    }

    /// Records a delivered response: the shared tally at send time and
    /// the latency sample at delivery time.
    pub fn record_response(
        &mut self,
        sent_at: f64,
        delivered_at: f64,
        latency: f64,
        bytes_hops: f64,
    ) {
        self.tally.record_served(sent_at, latency, bytes_hops);
        self.latency.record(delivered_at, latency);
    }

    /// Records `bytes×hops` of relocation (overhead) traffic.
    pub fn record_overhead(&mut self, t: f64, bytes_hops: f64) {
        self.overhead_bandwidth.record(t, bytes_hops);
    }

    /// Appends one host's placement outcome to the relocation log,
    /// grouped by action in the order the report has always listed
    /// them: moves (geo before load, migrations before replications),
    /// then drops, then affinity reductions. Refused drops change
    /// nothing and are left out.
    pub fn record_placement(&mut self, t: f64, outcome: &radar_core::placement::PlacementOutcome) {
        use PlacementActionKind as A;
        let start = self.relocation_log.len();
        let logged = outcome
            .decisions
            .iter()
            .filter(|d| d.action != A::DropRefused);
        self.relocation_log.extend(logged.map(|d| RelocationEvent {
            t,
            host: d.host,
            object: d.object,
            target: d.target,
            action: d.action,
        }));
        // A stable sort keeps scan order within each group.
        self.relocation_log[start..].sort_by_key(|e| match e.action {
            A::GeoMigrate => 0,
            A::GeoReplicate => 1,
            A::LoadMigrate => 2,
            A::LoadReplicate => 3,
            A::Drop => 4,
            A::AffinityReduce | A::DropRefused => 5,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_recording_feeds_series_and_summary() {
        let mut m = Metrics::new(100.0, 20.0);
        m.record_response(10.0, 10.5, 0.5, 36_000.0);
        m.record_response(110.0, 110.3, 0.3, 24_000.0);
        assert_eq!(m.tally.served, 2);
        assert_eq!(m.tally.client_bandwidth.bin_sum(0), 36_000.0);
        assert_eq!(m.tally.client_bandwidth.bin_sum(1), 24_000.0);
        assert_eq!(m.tally.latency.mean(), Some(0.4));
        assert_eq!(m.latency.bin_mean(1), Some(0.3));
    }

    #[test]
    fn overhead_separate_from_client_traffic() {
        let mut m = Metrics::new(100.0, 20.0);
        m.record_overhead(5.0, 1000.0);
        assert_eq!(m.overhead_bandwidth.bin_sum(0), 1000.0);
        assert_eq!(m.tally.client_bandwidth.bin_sum(0), 0.0);
    }

    #[test]
    fn placement_outcomes_logged() {
        use radar_core::placement::PlacementOutcome;
        use radar_obs::PlacementActionEvent;
        use PlacementActionKind as A;
        let action = |object, action, target| PlacementActionEvent {
            host: 7,
            object,
            action,
            target,
            unit_rate: 0.0,
            share: None,
            ratio: None,
            deletion_threshold: 0.03,
            replication_threshold: 0.18,
        };
        let mut m = Metrics::new(100.0, 20.0);
        // Pushed in scan order, interleaving the kinds.
        let o = PlacementOutcome {
            decisions: vec![
                action(3, A::Drop, None),
                action(5, A::AffinityReduce, None),
                action(2, A::LoadMigrate, Some(3)),
                action(6, A::DropRefused, None),
                action(1, A::GeoReplicate, Some(2)),
                action(4, A::Drop, None),
                action(7, A::LoadReplicate, Some(4)),
                action(0, A::GeoMigrate, Some(1)),
            ],
        };
        m.record_placement(100.0, &o);
        let logged: Vec<_> = m
            .relocation_log
            .iter()
            .map(|e| (e.action, e.object))
            .collect();
        assert_eq!(
            logged,
            [
                (A::GeoMigrate, 0),
                (A::GeoReplicate, 1),
                (A::LoadMigrate, 2),
                (A::LoadReplicate, 7),
                (A::Drop, 3),
                (A::Drop, 4),
                (A::AffinityReduce, 5),
            ],
            "grouped by action, scan order within a group, refusals left out"
        );
        assert!(m.relocation_log.iter().all(|e| e.host == 7 && e.t == 100.0));
        assert_eq!(m.relocation_log[1].target, Some(2));
        assert_eq!(m.relocation_log[4].target, None);
        // A second host's outcome is grouped on its own, after the first.
        let o = PlacementOutcome {
            decisions: vec![action(9, A::Drop, None), action(8, A::GeoMigrate, Some(5))],
        };
        m.record_placement(200.0, &o);
        let tail: Vec<_> = m.relocation_log[7..]
            .iter()
            .map(|e| (e.action, e.object))
            .collect();
        assert_eq!(tail, [(A::GeoMigrate, 8), (A::Drop, 9)]);
        assert_eq!(m.relocation_log[6].action, A::AffinityReduce);
    }
}
