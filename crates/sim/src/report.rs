//! Finalized run results and the derived paper metrics.

use radar_obs::PlacementActionKind;
use radar_stats::{
    adjustment_time, equilibrium_mean, AdjustmentOutcome, EquilibriumSpec, Summary, TimeSeries,
};

use crate::metrics::{LoadEstimateSample, Metrics, RelocationEvent};
use crate::trace::Trace;

/// Replica statistics at one sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaCensus {
    /// Sample time (seconds).
    pub t: f64,
    /// Mean number of physical replicas per object.
    pub avg_replicas: f64,
}

/// The immutable result of one simulation run: every series the paper's
/// figures need plus whole-run aggregates.
///
/// Derived metrics:
/// * [`total_bandwidth_rates`](Self::total_bandwidth_rates) — the Fig. 6
///   bandwidth curve (client + overhead traffic, bytes×hops per second);
/// * [`overhead_fractions`](Self::overhead_fractions) — Fig. 7;
/// * [`adjustment`](Self::adjustment) — Table 2's adjustment time;
/// * [`equilibrium_avg_replicas`](Self::equilibrium_avg_replicas) —
///   Table 2's average replica count.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Selection-policy name.
    pub policy: String,
    /// Placement-policy name (`radar` unless a baseline was swapped in).
    pub placement_policy: String,
    /// Whether dynamic placement ran.
    pub dynamic_placement: bool,
    /// Simulated duration (seconds).
    pub duration: f64,
    /// Requests delivered.
    pub total_requests: u64,
    /// Whole-run latency summary (seconds).
    pub latency: Summary,
    /// Estimated median latency (seconds; P² streaming estimate).
    pub latency_p50: f64,
    /// Estimated 99th-percentile latency (seconds; P² streaming
    /// estimate).
    pub latency_p99: f64,
    /// Response traffic per bin (bytes×hops).
    pub client_bandwidth: TimeSeries,
    /// Relocation traffic per bin (bytes×hops).
    pub overhead_bandwidth: TimeSeries,
    /// Provider-update propagation traffic per bin (bytes×hops, §5).
    pub update_bandwidth: TimeSeries,
    /// Latency samples per bin (means are the Fig. 6 latency curve).
    pub latency_series: TimeSeries,
    /// Maximum host load per measurement interval (Fig. 8a).
    pub max_load: TimeSeries,
    /// Tracked host's load estimates (Fig. 8b).
    pub load_estimates: Vec<LoadEstimateSample>,
    /// Average replicas per object over time (Table 2).
    pub replica_series: Vec<ReplicaCensus>,
    /// Geo-migrations performed.
    pub geo_migrations: u64,
    /// Geo-replications performed.
    pub geo_replications: u64,
    /// Offload migrations performed.
    pub offload_migrations: u64,
    /// Offload replications performed.
    pub offload_replications: u64,
    /// Replicas dropped.
    pub drops: u64,
    /// Affinity units shed without dropping a replica.
    pub affinity_reductions: u64,
    /// Final replica placement: for each object (by index), the
    /// `(node, affinity)` pairs of its replicas at the end of the run.
    pub final_replicas: Vec<Vec<(u16, u32)>>,
    /// Full relocation log (one record per placement action).
    pub relocation_log: Vec<RelocationEvent>,
    /// Per load sample: `(t, node with the maximum load, that load)`.
    pub max_load_host: Vec<(f64, u16, f64)>,
    /// Captured arrival trace, when [`crate::Simulation::record_trace`]
    /// was enabled; replay with [`crate::Simulation::replay`].
    pub trace: Option<Trace>,
    /// Requests handled per redirector, keyed by redirector node (§2:
    /// the load hash-partitioning divides).
    pub redirector_requests: std::collections::BTreeMap<u16, u64>,
    /// Total bytes carried per backbone link over the run, as
    /// `((node_a, node_b), bytes)` — all traffic classes combined.
    pub link_traffic: Vec<((u16, u16), f64)>,
    /// Response traffic between regions: `region_matrix[from][to]` is
    /// bytes×hops served by region `from` to gateways in region `to`
    /// (indexed by `radar_simnet::Region::index`).
    pub region_matrix: [[f64; 4]; 4],
    /// Mean redirect leg of request latency (seconds).
    pub redirect_delay: Summary,
    /// Mean queueing delay at serving hosts (seconds).
    pub queueing_delay: Summary,
    /// Mean response travel time (seconds).
    pub response_travel: Summary,
    /// Provider updates propagated (§5).
    pub updates_propagated: u64,
    /// Provider updates per consistency class: `[type-1, type-2,
    /// type-3]` (§5's taxonomy — primary-copy, commuting,
    /// non-commuting).
    pub updates_by_class: [u64; 3],
    /// Asynchronous update deliveries applied at replicas (type-1 and
    /// type-2 objects).
    pub update_deliveries: u64,
    /// Deliveries that arrived after the target replica had already
    /// been dropped or migrated away.
    pub wasted_deliveries: u64,
    /// Commuting updates merged at type-2 replicas.
    pub updates_merged: u64,
    /// Per-replica staleness (seconds between a type-1 provider update
    /// and its delivery at each secondary replica).
    pub update_lag_type1: Summary,
    /// Per-replica staleness of type-2 (commuting-merge) deliveries.
    pub update_lag_type2: Summary,
    /// Times the primary copy was reassigned after its host shed the
    /// object.
    pub primary_reassignments: u64,
    /// Requests that failed because every candidate replica was crashed
    /// or unreachable (fault injection).
    pub failed_requests: u64,
    /// Requests salvaged by the redirector's primary-copy fallback.
    pub primary_fallbacks: u64,
    /// Replicas recreated by the catalog's re-replication sweep.
    pub re_replications: u64,
    /// Total object-seconds with zero live replicas.
    pub unavailable_object_seconds: f64,
    /// Time to restore objects to their minimum replica count (seconds).
    pub restore_time: Summary,
    /// Fault transitions applied over the run.
    pub faults_injected: u64,
    /// Event-loop profile (per-event-type wall time and queue depth),
    /// when [`crate::Simulation::enable_loop_profile`] was on. Carries
    /// host wall-clock measurements, so it is deliberately excluded
    /// from the JSON report to keep that output deterministic.
    pub loop_profile: Option<radar_obs::LoopProfile>,
    /// Always `None`; kept only because `benchmark/src/rep.rs` assigns it
    /// (ROADMAP: drop it with the next `benchmark/` change).
    pub shard_profile: Option<std::convert::Infallible>,
    /// Protocol-health summary (replica churn, relocation cost, and
    /// invariant-audit verdict), when
    /// [`crate::Simulation::enable_object_ledger`] was on. Serialized
    /// into the JSON report as an opt-in `protocol_health` section;
    /// reports from runs without the ledger stay byte-identical.
    pub protocol_health: Option<radar_obs::ProtocolHealth>,
}

impl RunReport {
    pub(crate) fn from_metrics(
        metrics: Metrics,
        workload: String,
        policy: String,
        placement_policy: String,
        dynamic_placement: bool,
        duration: f64,
    ) -> Self {
        let tally = metrics.tally;
        let count = |action| {
            metrics
                .relocation_log
                .iter()
                .filter(|e| e.action == action)
                .count() as u64
        };
        Self {
            workload,
            policy,
            placement_policy,
            dynamic_placement,
            duration,
            total_requests: tally.served,
            latency: tally.latency.snapshot(),
            latency_p50: tally.latency_p50.estimate().unwrap_or(0.0),
            latency_p99: tally.latency_p99.estimate().unwrap_or(0.0),
            client_bandwidth: tally.client_bandwidth,
            overhead_bandwidth: metrics.overhead_bandwidth,
            update_bandwidth: tally.update_bandwidth,
            latency_series: metrics.latency,
            max_load: tally.max_load,
            load_estimates: metrics.load_estimates,
            replica_series: metrics
                .replica_series
                .into_iter()
                .map(|(t, avg_replicas)| ReplicaCensus { t, avg_replicas })
                .collect(),
            geo_migrations: count(PlacementActionKind::GeoMigrate),
            geo_replications: count(PlacementActionKind::GeoReplicate),
            offload_migrations: count(PlacementActionKind::LoadMigrate),
            offload_replications: count(PlacementActionKind::LoadReplicate),
            drops: count(PlacementActionKind::Drop),
            affinity_reductions: count(PlacementActionKind::AffinityReduce),
            final_replicas: Vec::new(),
            relocation_log: metrics.relocation_log,
            max_load_host: metrics.max_load_host,
            trace: None,
            // The hot path keeps a flat per-node vector; the report's
            // sparse map lists only nodes that actually served requests.
            redirector_requests: metrics
                .redirector_requests
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(node, &count)| (node as u16, count))
                .collect(),
            link_traffic: Vec::new(),
            region_matrix: metrics.region_matrix,
            redirect_delay: metrics.redirect_delay.snapshot(),
            queueing_delay: metrics.queueing_delay.snapshot(),
            response_travel: metrics.response_travel.snapshot(),
            updates_propagated: tally.updates,
            updates_by_class: tally.updates_by_class,
            update_deliveries: tally.update_deliveries,
            wasted_deliveries: tally.wasted_deliveries,
            updates_merged: tally.updates_merged,
            update_lag_type1: tally.update_lag_type1.snapshot(),
            update_lag_type2: tally.update_lag_type2.snapshot(),
            primary_reassignments: tally.primary_reassignments,
            failed_requests: tally.failed,
            primary_fallbacks: metrics.primary_fallbacks,
            re_replications: tally.re_replications,
            unavailable_object_seconds: metrics.unavailable_object_seconds,
            restore_time: metrics.restore_time.snapshot(),
            faults_injected: tally.faults,
            loop_profile: None,
            shard_profile: None,
            protocol_health: None,
        }
    }

    /// Fraction of arrived requests that were delivered: `1.0` on a
    /// fault-free run, lower when crashes or partitions made objects
    /// unreachable.
    pub fn availability(&self) -> f64 {
        let attempted = self.total_requests + self.failed_requests;
        if attempted == 0 {
            1.0
        } else {
            self.total_requests as f64 / attempted as f64
        }
    }

    /// Number of fully elapsed metric bins (a trailing partial bin would
    /// bias equilibrium statistics low and is excluded everywhere).
    pub fn complete_bins(&self) -> usize {
        (self.duration / self.client_bandwidth.spec().width()).floor() as usize
    }

    /// Total relocations (migrations + replications).
    pub fn relocations(&self) -> u64 {
        self.geo_migrations
            + self.geo_replications
            + self.offload_migrations
            + self.offload_replications
    }

    /// Total traffic (client + relocation + update) per bin, bytes×hops.
    pub fn total_bandwidth_sums(&self) -> Vec<f64> {
        let n = self
            .client_bandwidth
            .len()
            .max(self.overhead_bandwidth.len())
            .max(self.update_bandwidth.len())
            .min(self.complete_bins());
        (0..n)
            .map(|i| {
                self.client_bandwidth.bin_sum(i)
                    + self.overhead_bandwidth.bin_sum(i)
                    + self.update_bandwidth.bin_sum(i)
            })
            .collect()
    }

    /// Total traffic per bin as a rate (bytes×hops per second) — the
    /// Fig. 6 bandwidth curve.
    pub fn total_bandwidth_rates(&self) -> Vec<f64> {
        let w = self.client_bandwidth.spec().width();
        self.total_bandwidth_sums()
            .into_iter()
            .map(|s| s / w)
            .collect()
    }

    /// Overhead traffic as a fraction of total traffic per bin (Fig. 7).
    /// Bins with no traffic report 0.
    pub fn overhead_fractions(&self) -> Vec<f64> {
        self.total_bandwidth_sums()
            .iter()
            .enumerate()
            .map(|(i, &total)| {
                if total <= 0.0 {
                    0.0
                } else {
                    self.overhead_bandwidth.bin_sum(i) / total
                }
            })
            .collect()
    }

    /// The paper's Table 2 adjustment time over the *total* bandwidth
    /// series, or `None` if the run never settles.
    pub fn adjustment(&self, spec: EquilibriumSpec) -> Option<AdjustmentOutcome> {
        let mut total = self.client_bandwidth.clone();
        total.merge(&self.overhead_bandwidth);
        total.merge(&self.update_bandwidth);
        total.truncate(self.complete_bins());
        adjustment_time(&total, spec)
    }

    /// Equilibrium total bandwidth rate (bytes×hops/second), averaged
    /// over the trailing quarter of the run.
    pub fn equilibrium_bandwidth_rate(&self) -> f64 {
        let mut total = self.client_bandwidth.clone();
        total.merge(&self.overhead_bandwidth);
        total.merge(&self.update_bandwidth);
        total.truncate(self.complete_bins());
        equilibrium_mean(&total, 0.25).unwrap_or(0.0) / total.spec().width()
    }

    /// Bandwidth rate of the first bin (the unadjusted initial
    /// configuration), bytes×hops/second.
    pub fn initial_bandwidth_rate(&self) -> f64 {
        let w = self.client_bandwidth.spec().width();
        (self.client_bandwidth.bin_sum(0) + self.overhead_bandwidth.bin_sum(0)) / w
    }

    /// Mean latency over the trailing quarter of the run (seconds).
    pub fn equilibrium_latency(&self) -> f64 {
        let n = self.latency_series.len().min(self.complete_bins());
        if n == 0 {
            return 0.0;
        }
        let start = n - (n / 4).max(1);
        let (mut sum, mut count) = (0.0, 0u64);
        for i in start..n {
            sum += self.latency_series.bin_sum(i);
            count += self.latency_series.bin_count(i);
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Average replicas per object at equilibrium (mean of the trailing
    /// quarter of the census samples; 1.0 if never sampled — every object
    /// starts with a single replica).
    pub fn equilibrium_avg_replicas(&self) -> f64 {
        if self.replica_series.is_empty() {
            return 1.0;
        }
        let n = self.replica_series.len();
        let start = n - (n / 4).max(1);
        let tail = &self.replica_series[start..];
        tail.iter().map(|c| c.avg_replicas).sum::<f64>() / tail.len() as f64
    }

    /// Peak of the Fig. 8a max-load series (requests/second).
    pub fn peak_load(&self) -> f64 {
        self.max_load
            .sums()
            .iter()
            .zip(self.max_load.counts())
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .fold(0.0, f64::max)
    }

    /// Peak max-load after the warmup prefix of `skip_bins` measurement
    /// intervals (the paper's Fig. 8a discussion separates the initial
    /// hot-spot transient from steady state).
    pub fn peak_load_after(&self, skip_bins: usize) -> f64 {
        (skip_bins..self.max_load.len())
            .filter_map(|i| self.max_load.bin_mean(i))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(client: &[f64], overhead: &[f64]) -> RunReport {
        let mut m = Metrics::new(100.0, 20.0);
        for (i, &v) in client.iter().enumerate() {
            if v > 0.0 {
                m.record_response(i as f64 * 100.0, i as f64 * 100.0, 0.1, v);
            }
        }
        for (i, &v) in overhead.iter().enumerate() {
            if v > 0.0 {
                m.record_overhead(i as f64 * 100.0, v);
            }
        }
        RunReport::from_metrics(
            m,
            "test".into(),
            "radar".into(),
            "radar".into(),
            true,
            800.0,
        )
    }

    #[test]
    fn total_bandwidth_combines_series() {
        let r = report_with(&[100.0, 50.0], &[10.0, 0.0]);
        assert_eq!(r.total_bandwidth_sums(), vec![110.0, 50.0]);
        assert_eq!(r.total_bandwidth_rates(), vec![1.1, 0.5]);
    }

    #[test]
    fn overhead_fraction_zero_when_idle() {
        // Bin 1 carries client traffic only; bin 2 is completely idle.
        let r = report_with(&[100.0, 50.0, 0.0, 10.0], &[25.0, 0.0]);
        let f = r.overhead_fractions();
        assert_eq!(f[0], 0.2);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn adjustment_and_equilibrium() {
        let r = report_with(
            &[100.0, 60.0, 11.0, 10.0, 10.0, 10.0, 10.0, 10.0],
            &[0.0; 8],
        );
        let adj = r.adjustment(EquilibriumSpec::default()).unwrap();
        assert_eq!(adj.adjustment_time, 200.0);
        assert!((r.equilibrium_bandwidth_rate() - 0.1).abs() < 1e-12);
        assert_eq!(r.initial_bandwidth_rate(), 1.0);
    }

    #[test]
    fn replica_census_defaults_to_one() {
        let r = report_with(&[1.0], &[0.0]);
        assert_eq!(r.equilibrium_avg_replicas(), 1.0);
    }

    #[test]
    fn peak_load_from_series() {
        let mut m = Metrics::new(100.0, 20.0);
        m.tally.max_load.record(0.0, 95.0);
        m.tally.max_load.record(20.0, 60.0);
        m.tally.max_load.record(40.0, 70.0);
        let r = RunReport::from_metrics(m, "w".into(), "p".into(), "radar".into(), true, 60.0);
        assert_eq!(r.peak_load(), 95.0);
        assert_eq!(r.peak_load_after(1), 70.0);
    }
}
