//! In-flight measurement collection.

use radar_obs::{PlacementActionKind, Tally};
use radar_simnet::{NodeId, RoutingView};
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

/// The relocation log: one [`RelocationEvent`] per placement action.
/// Placement runs follow each other in time order; within a run the
/// actions are grouped in the order the report has always listed them:
/// moves (geo before load, migrations before replications), then drops,
/// then affinity reductions, each group in scan order. Refused drops
/// change nothing and are left out. A run's actions share its time, so
/// the log stores the time once per placement run that logged anything
/// and each action in 12 bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelocationLog {
    /// `(t, index of the run's first action)`, one per run, in order.
    runs: Vec<(f64, u32)>,
    actions: Vec<LoggedAction>,
}

/// A [`RelocationEvent`] without its run's time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LoggedAction {
    object: u32,
    host: u16,
    target: Option<u16>,
    action: PlacementActionKind,
}

impl RelocationLog {
    /// Number of logged actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The records in log order.
    pub fn iter(&self) -> RelocationIter<'_> {
        RelocationIter {
            runs: &self.runs,
            actions: &self.actions,
            next: 0,
        }
    }

    /// Appends one placement run's decisions in the log's order; a run
    /// with nothing but refused drops adds no run record.
    fn push_run(&mut self, t: f64, decisions: &[radar_obs::PlacementActionEvent]) {
        use PlacementActionKind as A;
        let start = self.actions.len();
        let logged = decisions.iter().filter(|d| d.action != A::DropRefused);
        self.actions.extend(logged.map(|d| LoggedAction {
            object: d.object,
            host: d.host,
            target: d.target,
            action: d.action,
        }));
        if self.actions.len() == start {
            return;
        }
        let first = u32::try_from(start).expect("fewer than 2^32 logged actions");
        self.runs.push((t, first));
        // A stable sort keeps scan order within each group.
        self.actions[start..].sort_by_key(|e| match e.action {
            A::GeoMigrate => 0,
            A::GeoReplicate => 1,
            A::LoadMigrate => 2,
            A::LoadReplicate => 3,
            A::Drop => 4,
            A::AffinityReduce | A::DropRefused => 5,
        });
    }
}

impl<'a> IntoIterator for &'a RelocationLog {
    type Item = RelocationEvent;
    type IntoIter = RelocationIter<'a>;

    fn into_iter(self) -> RelocationIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`RelocationLog`], yielding records by value.
#[derive(Debug, Clone)]
pub struct RelocationIter<'a> {
    /// The runs from the one holding `actions[next]` on.
    runs: &'a [(f64, u32)],
    actions: &'a [LoggedAction],
    next: usize,
}

impl Iterator for RelocationIter<'_> {
    type Item = RelocationEvent;

    fn next(&mut self) -> Option<RelocationEvent> {
        let a = *self.actions.get(self.next)?;
        // Every run holds at least one action, so this moves at most once.
        while self.runs.get(1).is_some_and(|r| r.1 as usize <= self.next) {
            self.runs = &self.runs[1..];
        }
        self.next += 1;
        Some(RelocationEvent {
            t: self.runs[0].0,
            host: a.host,
            object: a.object,
            target: a.target,
            action: a.action,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.actions.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RelocationIter<'_> {}

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
    pub relocation_log: RelocationLog,
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
            relocation_log: RelocationLog::default(),
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

    /// Charges `bytes` to every backbone link on the current route from
    /// `from` to `to` and returns the route's hop count, or `None`,
    /// charging nothing, when no route exists. Every byte that crosses
    /// the backbone — responses, relocation and re-replication copies,
    /// provider updates — is charged here, so each site's bytes×hops
    /// comes from the same walk as its link bytes.
    pub(crate) fn charge(
        &mut self,
        view: &RoutingView,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Option<u32> {
        let path = view.path(from, to);
        for w in path.windows(2) {
            let idx = view.link_id(w[0], w[1]).expect("adjacent on a path");
            self.link_bytes[idx] += bytes as f64;
        }
        (!path.is_empty()).then(|| path.len() as u32 - 1)
    }

    /// Appends one host's placement outcome to the relocation log (see
    /// [`RelocationLog`] for its order).
    pub fn record_placement(&mut self, t: f64, outcome: &radar_core::placement::PlacementOutcome) {
        self.relocation_log.push_run(t, &outcome.decisions);
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

    fn action(
        host: u16,
        object: u32,
        action: PlacementActionKind,
        target: Option<u16>,
    ) -> radar_obs::PlacementActionEvent {
        radar_obs::PlacementActionEvent {
            host,
            object,
            action,
            target,
            unit_rate: 0.0,
            share: None,
            ratio: None,
            deletion_threshold: 0.03,
            replication_threshold: 0.18,
        }
    }

    fn outcome(
        decisions: Vec<radar_obs::PlacementActionEvent>,
    ) -> radar_core::placement::PlacementOutcome {
        radar_core::placement::PlacementOutcome { decisions }
    }

    #[test]
    fn placement_outcomes_logged() {
        use PlacementActionKind as A;
        let action = |object, kind, target| action(7, object, kind, target);
        let mut m = Metrics::new(100.0, 20.0);
        // Pushed in scan order, interleaving the kinds.
        let o = outcome(vec![
            action(3, A::Drop, None),
            action(5, A::AffinityReduce, None),
            action(2, A::LoadMigrate, Some(3)),
            action(6, A::DropRefused, None),
            action(1, A::GeoReplicate, Some(2)),
            action(4, A::Drop, None),
            action(7, A::LoadReplicate, Some(4)),
            action(0, A::GeoMigrate, Some(1)),
        ]);
        m.record_placement(100.0, &o);
        let log: Vec<RelocationEvent> = m.relocation_log.iter().collect();
        let logged: Vec<_> = log.iter().map(|e| (e.action, e.object)).collect();
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
        assert!(log.iter().all(|e| e.host == 7 && e.t == 100.0));
        assert_eq!(log[1].target, Some(2));
        assert_eq!(log[4].target, None);
        // A second host's outcome is grouped on its own, after the first.
        let o = outcome(vec![
            action(9, A::Drop, None),
            action(8, A::GeoMigrate, Some(5)),
        ]);
        m.record_placement(200.0, &o);
        let log: Vec<RelocationEvent> = m.relocation_log.iter().collect();
        let tail: Vec<_> = log[7..].iter().map(|e| (e.action, e.object)).collect();
        assert_eq!(tail, [(A::GeoMigrate, 8), (A::Drop, 9)]);
        assert_eq!(log[6].action, A::AffinityReduce);
        assert_eq!(m.relocation_log.len(), 9);
        assert_eq!(m.relocation_log.iter().len(), 9);
    }

    #[test]
    fn a_run_of_refusals_adds_no_run() {
        use PlacementActionKind as A;
        let mut m = Metrics::new(100.0, 20.0);
        let refusals = outcome(vec![
            action(1, 4, A::DropRefused, None),
            action(1, 6, A::DropRefused, None),
        ]);
        m.record_placement(100.0, &refusals);
        m.record_placement(150.0, &outcome(Vec::new()));
        assert!(m.relocation_log.is_empty());
        assert!(m.relocation_log.runs.is_empty());
        assert_eq!(m.relocation_log, RelocationLog::default());
        m.record_placement(200.0, &outcome(vec![action(2, 5, A::Drop, None)]));
        m.record_placement(300.0, &refusals);
        assert_eq!(m.relocation_log.runs, [(200.0, 0)]);
        assert_eq!(m.relocation_log.len(), 1);
    }

    #[test]
    fn each_record_carries_its_own_run_s_time() {
        use PlacementActionKind as A;
        let mut m = Metrics::new(100.0, 20.0);
        let runs = [
            (20.5, 3, vec![(10, A::Drop), (11, A::GeoMigrate)]),
            (40.0, 9, vec![(12, A::AffinityReduce)]),
            (
                61.25,
                3,
                vec![(13, A::Drop), (14, A::LoadMigrate), (15, A::Drop)],
            ),
        ];
        for (t, host, actions) in &runs {
            let decisions = actions
                .iter()
                .map(|&(object, kind)| action(*host, object, kind, None))
                .collect();
            m.record_placement(*t, &outcome(decisions));
        }
        let got: Vec<_> = (&m.relocation_log)
            .into_iter()
            .map(|e| (e.t, e.host, e.object))
            .collect();
        assert_eq!(
            got,
            [
                (20.5, 3, 11),
                (20.5, 3, 10),
                (40.0, 9, 12),
                (61.25, 3, 14),
                (61.25, 3, 13),
                (61.25, 3, 15),
            ]
        );
    }

    #[test]
    fn a_logged_action_takes_twelve_bytes() {
        assert_eq!(std::mem::size_of::<LoggedAction>(), 12);
    }

    #[test]
    fn relocation_log_prints_its_pinned_bytes() {
        use PlacementActionKind as A;
        let mut m = Metrics::new(100.0, 20.0);
        let runs = [
            (
                100.0,
                vec![
                    action(7, 3, A::Drop, None),
                    action(7, 0, A::GeoMigrate, Some(1)),
                ],
            ),
            (250.5, vec![action(2, 9, A::LoadReplicate, Some(4))]),
        ];
        for (t, decisions) in runs {
            m.record_placement(t, &outcome(decisions));
        }
        let json =
            crate::RunReport::from_metrics(m, "w".into(), "p".into(), "q".into(), true, 300.0)
                .to_json_pretty();
        let start = json.find("  \"relocation_log\"").expect("section printed");
        let end = json
            .find("  \"max_load_host\"")
            .expect("next section printed");
        assert_eq!(
            &json[start..end],
            r#"  "relocation_log": [
    {
      "t": 100,
      "host": 7,
      "object": 0,
      "target": 1,
      "action": "GeoMigrate"
    },
    {
      "t": 100,
      "host": 7,
      "object": 3,
      "target": null,
      "action": "Drop"
    },
    {
      "t": 250.5,
      "host": 2,
      "object": 9,
      "target": 4,
      "action": "LoadReplicate"
    }
  ],
"#
        );
    }
}
