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

    /// Appends one host's placement outcome to the relocation log.
    pub fn record_placement(
        &mut self,
        t: f64,
        host: u16,
        outcome: &radar_core::placement::PlacementOutcome,
    ) {
        let mut log =
            |object: radar_core::ObjectId, target: Option<u16>, action: PlacementActionKind| {
                self.relocation_log.push(RelocationEvent {
                    t,
                    host,
                    object: object.index() as u32,
                    target,
                    action,
                });
            };
        use PlacementActionKind as A;
        let moves = [
            (&outcome.geo_migrations, A::GeoMigrate),
            (&outcome.geo_replications, A::GeoReplicate),
            (&outcome.offload_migrations, A::LoadMigrate),
            (&outcome.offload_replications, A::LoadReplicate),
        ];
        for (entries, action) in moves {
            for &(x, p) in entries {
                log(x, Some(p.index() as u16), action);
            }
        }
        for (entries, action) in [
            (&outcome.drops, A::Drop),
            (&outcome.affinity_reductions, A::AffinityReduce),
        ] {
            for &x in entries {
                log(x, None, action);
            }
        }
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
        use radar_core::ObjectId;
        use radar_simnet::NodeId;
        let mut m = Metrics::new(100.0, 20.0);
        let mut o = PlacementOutcome::default();
        o.geo_migrations.push((ObjectId::new(0), NodeId::new(1)));
        o.geo_replications.push((ObjectId::new(1), NodeId::new(2)));
        o.offload_migrations
            .push((ObjectId::new(2), NodeId::new(3)));
        o.drops = vec![ObjectId::new(3), ObjectId::new(4)];
        m.record_placement(100.0, 7, &o);
        let actions: Vec<_> = m.relocation_log.iter().map(|e| e.action).collect();
        use PlacementActionKind as A;
        assert_eq!(
            actions,
            [
                A::GeoMigrate,
                A::GeoReplicate,
                A::LoadMigrate,
                A::Drop,
                A::Drop
            ]
        );
        assert_eq!(m.relocation_log[0].host, 7);
        assert_eq!(m.relocation_log[1].target, Some(2));
    }
}
