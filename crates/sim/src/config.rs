//! Simulation scenarios: the paper's Table 1 in executable form.

use std::fmt;

use radar_core::{Catalog, Params, OBJECT_SIZE};
use radar_simnet::Topology;

use crate::faults::{FaultError, FaultSpec};

/// Network cost model (paper Table 1): per-hop propagation delay and
/// per-link bandwidth. A response of `size` bytes crossing `h` hops takes
/// `h × (delay + size / bandwidth)` seconds (store-and-forward) and
/// consumes `size × h` bytes of backbone bandwidth. Every run uses
/// [`NetworkParams::paper`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Propagation delay per hop, seconds (paper: 10 ms).
    pub hop_delay: f64,
    /// Link bandwidth, bytes/second (paper: 350 KBps).
    pub link_bandwidth: f64,
}

impl NetworkParams {
    /// The paper's values: 10 ms per hop, 350 KBps links.
    pub fn paper() -> Self {
        Self {
            hop_delay: 0.010,
            link_bandwidth: 350_000.0,
        }
    }

    /// Time for `bytes` to traverse `hops` hops, store-and-forward.
    pub fn transfer_time(&self, bytes: u64, hops: u32) -> f64 {
        hops as f64 * (self.hop_delay + bytes as f64 / self.link_bandwidth)
    }

    /// Propagation-only time across `hops` hops (for negligible-size
    /// control messages).
    pub fn propagation_time(&self, hops: u32) -> f64 {
        hops as f64 * self.hop_delay
    }
}

/// Requests/second a host of unit power serves (paper Table 1: 200, a
/// 5 ms service time); `Scenario::node_capacities` scales it per host.
pub const SERVER_CAPACITY: f64 = 200.0;

/// Whether the dynamic placement algorithm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// RaDaR's placement algorithm runs every placement period.
    Dynamic,
    /// No placement decisions: replicas stay wherever
    /// [`InitialPlacement`] put them (the static baseline — the paper's
    /// "before adjustment" configuration held for the whole run).
    Static,
}

/// The longest span the clock takes, in seconds: 2^53 µs (about 285
/// years). Up to here `f64` seconds still resolve every microsecond,
/// and any `now + delay` the loop forms is far inside the `u64` clock.
pub(crate) const MAX_CLOCK_SECS: f64 = (1u64 << 53) as f64 / 1e6;

/// The most objects a scenario takes: 2^24, 1 678 × the paper's 10 000.
/// Every object has a slot in dense tables allocated before the first
/// event (directory, workload, hosts), about 145 bytes each (peak RSS
/// 149 MB at 10^6 objects, 578 MB at 4·10^6), so 2^24 objects already
/// need about 2.4 GB up front, before any traffic adds replicas, and a
/// larger count would abort in the allocator instead of failing with a
/// message.
pub const MAX_OBJECTS: u32 = 1 << 24;

/// Checks an object count against the scenario's limits (at least one,
/// at most [`MAX_OBJECTS`]) before anything is allocated for it.
///
/// # Errors
///
/// [`ScenarioError::NoObjects`] or [`ScenarioError::TooManyObjects`].
pub fn check_object_count(objects: u32) -> Result<(), ScenarioError> {
    match objects {
        0 => Err(ScenarioError::NoObjects),
        1..=MAX_OBJECTS => Ok(()),
        _ => Err(ScenarioError::TooManyObjects { objects }),
    }
}

/// Where objects start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialPlacement {
    /// Object `i` on node `i mod n` — the paper's initial configuration.
    RoundRobin,
    /// Explicit placement: `assignments[i]` lists the nodes hosting
    /// object `i`. Each inner list must be non-empty.
    Explicit(Vec<Vec<u16>>),
}

/// Errors from scenario validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A field that must be strictly positive and finite was not.
    NonPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A field that must be finite and at least zero was not.
    Negative {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A time or delay is beyond what the microsecond clock resolves
    /// (2^53 µs, about 285 years).
    BeyondClock {
        /// Name of the offending field (`1/rate` for a rate whose period
        /// is too long).
        field: &'static str,
        /// The rejected span in seconds.
        value: f64,
    },
    /// A rate is so high that its period rounds to zero microseconds:
    /// the event would reschedule itself at the same instant forever.
    BelowClock {
        /// Name of the offending period (`1/rate`).
        field: &'static str,
        /// The rejected period in seconds.
        value: f64,
    },
    /// No objects configured.
    NoObjects,
    /// More objects than [`MAX_OBJECTS`].
    TooManyObjects {
        /// The rejected count.
        objects: u32,
    },
    /// Explicit placement list has the wrong length or an empty entry.
    BadExplicitPlacement {
        /// Explanation.
        detail: String,
    },
    /// A per-node list (`node_capacities`, `node_request_rates`) does
    /// not have exactly one entry per topology node.
    PerNodeLength {
        /// Name of the offending field.
        field: &'static str,
        /// Entries in the list.
        len: usize,
        /// Nodes in the topology.
        nodes: usize,
    },
    /// A custom catalog does not describe exactly `num_objects` objects.
    CatalogMismatch {
        /// Objects in the catalog.
        catalog: usize,
        /// Objects in the scenario.
        scenario: u32,
    },
    /// Protocol parameter constraint violation.
    Params(radar_core::ParamsError),
    /// The fault schedule is invalid for this topology.
    Faults(FaultError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NonPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ScenarioError::Negative { field, value } => {
                write!(f, "{field} must be finite and ≥ 0, got {value}")
            }
            ScenarioError::BeyondClock { field, value } => write!(
                f,
                "{field} is {value:e} s; the simulation clock takes at most \
                 {MAX_CLOCK_SECS} s (2^53 µs, about 285 years)"
            ),
            ScenarioError::BelowClock { field, value } => write!(
                f,
                "{field} is {value:e} s; the simulation clock resolves 1 µs, so a \
                 period below 0.5 µs (a rate above 2e6 /s) is a zero gap"
            ),
            ScenarioError::NoObjects => f.write_str("scenario needs at least one object"),
            ScenarioError::TooManyObjects { objects } => write!(
                f,
                "{objects} objects exceed the limit of {MAX_OBJECTS} (2^24): every object \
                 takes about 145 bytes before the first event and more as traffic adds \
                 replicas, so more would exhaust memory"
            ),
            ScenarioError::BadExplicitPlacement { detail } => {
                write!(f, "bad explicit placement: {detail}")
            }
            ScenarioError::PerNodeLength { field, len, nodes } => write!(
                f,
                "{field} has {len} entries but the topology has {nodes} nodes"
            ),
            ScenarioError::CatalogMismatch { catalog, scenario } => write!(
                f,
                "catalog describes {catalog} objects but the scenario has {scenario}"
            ),
            ScenarioError::Params(e) => write!(f, "invalid protocol parameters: {e}"),
            ScenarioError::Faults(e) => write!(f, "invalid fault schedule: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Params(e) => Some(e),
            ScenarioError::Faults(e) => Some(e),
            _ => None,
        }
    }
}

impl From<radar_core::ParamsError> for ScenarioError {
    fn from(e: radar_core::ParamsError) -> Self {
        ScenarioError::Params(e)
    }
}

impl From<FaultError> for ScenarioError {
    fn from(e: FaultError) -> Self {
        ScenarioError::Faults(e)
    }
}

/// A complete simulation scenario: topology, workload-independent
/// parameters, and measurement settings. Build with [`Scenario::builder`].
///
/// Defaults reproduce the paper's Table 1 on the 53-node UUNET testbed:
/// 10 000 objects of 12 KB, 40 req/s per gateway, dynamic placement every
/// 100 s. Table 1's host and network model is fixed: [`SERVER_CAPACITY`]
/// and [`NetworkParams::paper`], with constant-rate arrivals.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The backbone topology (default: [`radar_simnet::builders::uunet`]).
    pub topology: Topology,
    /// Number of hosted objects.
    pub num_objects: u32,
    /// Request rate per gateway node, requests/second.
    pub node_request_rate: f64,
    /// Optional per-gateway request rates overriding `node_request_rate`
    /// (one entry per node). Used for locally concentrated demand
    /// scenarios such as the paper's §3 swamped-server example.
    pub node_request_rates: Option<Vec<f64>>,
    /// Optional per-node capacities overriding [`SERVER_CAPACITY`] (one
    /// entry per node). Watermarks scale with each host's relative power
    /// — the paper's §2 heterogeneity extension ("weights corresponding
    /// to relative power of hosts").
    pub node_capacities: Option<Vec<f64>>,
    /// Protocol parameters (watermarks, thresholds, periods).
    pub params: Params,
    /// Placement mode (dynamic protocol vs. static baseline).
    pub placement: PlacementMode,
    /// Initial object placement.
    pub initial_placement: InitialPlacement,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// RNG seed; every run is a pure function of (scenario, workload,
    /// seed).
    pub seed: u64,
    /// Width of metric time bins in seconds (default: the placement
    /// period).
    pub metric_bin: f64,
    /// Node whose load estimates are tracked for Fig. 8b (default 0).
    pub tracked_host: u16,
    /// Object catalog: the object size, §5 kinds and primaries. The
    /// builder's default is the paper's: uniform immutable objects of
    /// 12 KB, primaries round-robin over the nodes (§6.1).
    pub catalog: Catalog,
    /// Per-host storage limit in *objects* (`None` = unbounded, the
    /// paper's evaluation setting). A full host refuses new physical
    /// copies — the §2.1 storage-load component's admission effect.
    pub storage_limit: Option<u32>,
    /// Number of redirectors the URL namespace is hash-partitioned over
    /// (paper §2: "the load is divided among multiple redirectors by
    /// hash-partitioning the URL namespace"). They are placed at the
    /// most central nodes. Default 1, matching the paper's simulation.
    pub num_redirectors: u16,
    /// Mean provider-update rate across the whole object population
    /// (updates/second, Poisson; uniformly random object). Each update
    /// is propagated asynchronously from the primary copy to every
    /// replica (paper §5), consuming update-propagation bandwidth.
    /// 0 = no updates (the paper's evaluation setting).
    pub update_rate: f64,
    /// Scheduled faults (host crashes, link partitions, degradations)
    /// plus the recovery-policy knobs. Empty by default — a fault-free
    /// run is bit-identical to one built before fault injection existed.
    pub faults: FaultSpec,
}

impl Scenario {
    /// Starts building a scenario with the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> u16 {
        self.topology.len() as u16
    }

    /// Capacity of node `i` (per-node override or [`SERVER_CAPACITY`]).
    pub fn capacity_of(&self, i: usize) -> f64 {
        self.node_capacities
            .as_ref()
            .map_or(SERVER_CAPACITY, |caps| caps[i])
    }

    /// Request rate of gateway `i` (per-node override or the uniform
    /// rate).
    pub(crate) fn request_rate_of(&self, i: usize) -> f64 {
        self.node_request_rates
            .as_ref()
            .map_or(self.node_request_rate, |rates| rates[i])
    }

    /// Protocol parameters for node `i`: watermarks scaled by the host's
    /// relative power `capacity_i / SERVER_CAPACITY` (the paper's §2
    /// heterogeneity weights). Thresholds and periods are unscaled — they
    /// are per-object demand properties, not host properties.
    pub fn params_of(&self, i: usize) -> Params {
        let weight = self.capacity_of(i) / SERVER_CAPACITY;
        Params {
            low_watermark: self.params.low_watermark * weight,
            high_watermark: self.params.high_watermark * weight,
            ..self.params
        }
    }
}

/// Builder for [`Scenario`]; see [`Scenario::builder`]: the scenario
/// under construction, validated by [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Every field but `metric_bin` as it will be built; an empty
    /// `catalog` stands for the paper's uniform one.
    scenario: Scenario,
    /// Metric bin width; `None` resolves to the placement period.
    metric_bin: Option<f64>,
}

impl ScenarioBuilder {
    /// Paper defaults (Table 1).
    pub fn new() -> Self {
        Self {
            scenario: Scenario {
                topology: radar_simnet::builders::uunet(),
                num_objects: 10_000,
                node_request_rate: 40.0,
                node_request_rates: None,
                node_capacities: None,
                params: Params::paper(),
                placement: PlacementMode::Dynamic,
                initial_placement: InitialPlacement::RoundRobin,
                duration: 3_000.0,
                seed: 1,
                metric_bin: 0.0,
                tracked_host: 0,
                catalog: Catalog::default(),
                storage_limit: None,
                num_redirectors: 1,
                update_rate: 0.0,
                faults: FaultSpec::new(),
            },
            metric_bin: None,
        }
    }

    /// Sets the topology (default: the 53-node UUNET testbed).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.scenario.topology = topology;
        self
    }

    /// Sets the number of objects.
    pub fn num_objects(mut self, n: u32) -> Self {
        self.scenario.num_objects = n;
        self
    }

    /// Sets the per-gateway request rate (requests/second).
    pub fn node_request_rate(mut self, rate: f64) -> Self {
        self.scenario.node_request_rate = rate;
        self
    }

    /// Sets individual per-gateway request rates (one entry per node,
    /// all strictly positive), overriding the uniform rate.
    pub fn node_request_rates(mut self, rates: Vec<f64>) -> Self {
        self.scenario.node_request_rates = Some(rates);
        self
    }

    /// Sets individual per-node capacities (one strictly positive entry
    /// per node). Each host's watermarks scale with its relative power.
    pub fn node_capacities(mut self, capacities: Vec<f64>) -> Self {
        self.scenario.node_capacities = Some(capacities);
        self
    }

    /// Sets the protocol parameters; [`build`](Self::build) checks them
    /// with [`Params::check`].
    pub fn params(mut self, params: Params) -> Self {
        self.scenario.params = params;
        self
    }

    /// Sets the placement mode.
    pub fn placement(mut self, mode: PlacementMode) -> Self {
        self.scenario.placement = mode;
        self
    }

    /// Sets the initial placement.
    pub fn initial_placement(mut self, p: InitialPlacement) -> Self {
        self.scenario.initial_placement = p;
        self
    }

    /// Sets the simulated duration (seconds).
    pub fn duration(mut self, secs: f64) -> Self {
        self.scenario.duration = secs;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the metric bin width (seconds). Default: the placement period.
    pub fn metric_bin(mut self, secs: f64) -> Self {
        self.metric_bin = Some(secs);
        self
    }

    /// Sets the node tracked for Fig. 8b load-estimate series.
    pub fn tracked_host(mut self, node: u16) -> Self {
        self.scenario.tracked_host = node;
        self
    }

    /// Provides a custom object catalog: the object size every transfer
    /// is charged at, and the consistency kinds / replica caps and
    /// primaries of paper §5. Must describe exactly `num_objects`
    /// objects. Default: uniform immutable 12 KB objects.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.scenario.catalog = catalog;
        self
    }

    /// Limits every host to at most `max_objects` distinct objects.
    pub fn storage_limit(mut self, max_objects: u32) -> Self {
        self.scenario.storage_limit = Some(max_objects);
        self
    }

    /// Hash-partitions the URL namespace over `n ≥ 1` redirectors placed
    /// at the most central nodes.
    pub fn num_redirectors(mut self, n: u16) -> Self {
        self.scenario.num_redirectors = n;
        self
    }

    /// Sets the aggregate provider-update rate (updates/second over the
    /// whole object population; 0 disables updates).
    pub fn update_rate(mut self, rate: f64) -> Self {
        self.scenario.update_rate = rate;
        self
    }

    /// Installs a fault schedule (host crashes, link partitions, link
    /// degradations). Validated against the topology at build time.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on non-positive rates/durations, an
    /// empty object space, malformed explicit placement, protocol
    /// parameters that fail [`Params::check`], or a time or period
    /// beyond the clock (2^53 µs).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let mut s = self.scenario;
        check_object_count(s.num_objects)?;
        if s.catalog.is_empty() {
            // Table 1: 12 KB objects.
            s.catalog = Catalog::uniform(s.num_objects, OBJECT_SIZE, s.topology.len() as u16);
        }
        let positives = [
            ("node_request_rate", s.node_request_rate),
            ("duration", s.duration),
            ("object_size", s.catalog.object_size() as f64),
        ];
        for (field, value) in positives {
            if !(value.is_finite() && value > 0.0) {
                return Err(ScenarioError::NonPositive { field, value });
            }
        }
        if let InitialPlacement::Explicit(assignments) = &s.initial_placement {
            if assignments.len() != s.num_objects as usize {
                return Err(ScenarioError::BadExplicitPlacement {
                    detail: format!(
                        "{} assignment lists for {} objects",
                        assignments.len(),
                        s.num_objects
                    ),
                });
            }
            for (i, hosts) in assignments.iter().enumerate() {
                if hosts.is_empty() {
                    return Err(ScenarioError::BadExplicitPlacement {
                        detail: format!("object {i} has no hosts"),
                    });
                }
                if let Some(&bad) = hosts.iter().find(|&&h| h as usize >= s.topology.len()) {
                    return Err(ScenarioError::BadExplicitPlacement {
                        detail: format!("object {i} assigned to unknown node {bad}"),
                    });
                }
            }
        }
        if let Some(limit) = s.storage_limit {
            if limit == 0 {
                return Err(ScenarioError::NonPositive {
                    field: "storage_limit",
                    value: 0.0,
                });
            }
        }
        if s.num_redirectors == 0 {
            return Err(ScenarioError::NonPositive {
                field: "num_redirectors",
                value: 0.0,
            });
        }
        if !(s.update_rate.is_finite() && s.update_rate >= 0.0) {
            return Err(ScenarioError::Negative {
                field: "update_rate",
                value: s.update_rate,
            });
        }
        for (field, values) in [
            ("node_capacities", &s.node_capacities),
            ("node_request_rates", &s.node_request_rates),
        ] {
            let Some(values) = values else { continue };
            if values.len() != s.topology.len() {
                return Err(ScenarioError::PerNodeLength {
                    field,
                    len: values.len(),
                    nodes: s.topology.len(),
                });
            }
            if let Some(&bad) = values.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
                return Err(ScenarioError::NonPositive { field, value: bad });
            }
        }
        if s.catalog.len() != s.num_objects as usize {
            return Err(ScenarioError::CatalogMismatch {
                catalog: s.catalog.len(),
                scenario: s.num_objects,
            });
        }
        let links: Vec<(u16, u16)> = s
            .topology
            .links()
            .iter()
            .map(|&(a, b)| (a.index() as u16, b.index() as u16))
            .collect();
        s.faults.validate(s.topology.len(), &links)?;
        s.params.check()?;
        // Every span the loop adds to the clock, in seconds. Routes have
        // fewer hops than the topology has nodes.
        let hops = s.topology.len() as f64;
        let update_period = (s.update_rate > 0.0).then(|| 1.0 / s.update_rate);
        let periods: Vec<(&'static str, f64)> =
            std::iter::once(("1/node_request_rate", 1.0 / s.node_request_rate))
                .chain(update_period.map(|period| ("1/update_rate", period)))
                .chain(
                    s.node_request_rates
                        .iter()
                        .flatten()
                        .map(|r| ("1/node_request_rates", 1.0 / r)),
                )
                .chain(
                    s.node_capacities
                        .iter()
                        .flatten()
                        .map(|c| ("1/node_capacities", 1.0 / c)),
                )
                .collect();
        // `SimDuration::from_secs` rounds to the nearest microsecond.
        if let Some(&(field, value)) = periods.iter().find(|(_, period)| period * 1e6 < 0.5) {
            return Err(ScenarioError::BelowClock { field, value });
        }
        let spans = [
            ("duration", s.duration),
            ("placement_period", s.params.placement_period),
            ("measurement_interval", s.params.measurement_interval),
            (
                "object_size/link_bandwidth across the topology",
                hops * s.catalog.object_size() as f64 / NetworkParams::paper().link_bandwidth,
            ),
            ("declare-dead-after", s.faults.declare_dead_after()),
        ]
        .into_iter()
        .chain(periods)
        .chain(s.faults.faults().iter().flat_map(|fault| {
            let (from, until) = fault.window();
            std::iter::once(("fault window start", from))
                .chain(until.map(|until| ("fault window end", until)))
        }));
        for (field, value) in spans {
            if value > MAX_CLOCK_SECS {
                return Err(ScenarioError::BeyondClock { field, value });
            }
        }
        s.tracked_host = s.tracked_host.min(s.topology.len() as u16 - 1);
        s.num_redirectors = s.num_redirectors.min(s.topology.len() as u16);
        s.metric_bin = match self.metric_bin {
            Some(b) if !(b.is_finite() && b > 0.0) => {
                return Err(ScenarioError::NonPositive {
                    field: "metric_bin",
                    value: b,
                })
            }
            Some(b) => b,
            None => s.params.placement_period,
        };
        Ok(s)
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultErrorKind;

    #[test]
    fn defaults_match_table_1() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.num_objects, 10_000);
        assert_eq!(s.catalog.object_size(), 12 * 1024);
        assert_eq!(s.catalog, Catalog::uniform(10_000, 12 * 1024, 53));
        assert_eq!(s.node_request_rate, 40.0);
        assert_eq!(SERVER_CAPACITY, 200.0);
        assert_eq!(s.capacity_of(0), 200.0);
        assert_eq!(NetworkParams::paper().hop_delay, 0.010);
        assert_eq!(NetworkParams::paper().link_bandwidth, 350_000.0);
        assert_eq!(s.num_nodes(), 53);
        assert_eq!(s.placement, PlacementMode::Dynamic);
        assert_eq!(s.metric_bin, 100.0);
    }

    #[test]
    fn transfer_time_model() {
        let n = NetworkParams::paper();
        // 12 KB over 1 hop: 10 ms + 12288/350000 s ≈ 45.1 ms.
        let t = n.transfer_time(12 * 1024, 1);
        assert!((t - (0.010 + 12288.0 / 350_000.0)).abs() < 1e-12);
        assert_eq!(n.transfer_time(1, 0), 0.0);
        assert_eq!(n.propagation_time(3), 0.030);
    }

    #[test]
    fn zero_objects_rejected() {
        assert_eq!(
            Scenario::builder().num_objects(0).build().unwrap_err(),
            ScenarioError::NoObjects
        );
    }

    #[test]
    fn object_counts_beyond_the_limit_rejected() {
        assert_eq!(check_object_count(MAX_OBJECTS), Ok(()));
        for objects in [MAX_OBJECTS + 1, 4_000_000_000, u32::MAX] {
            assert_eq!(
                Scenario::builder()
                    .num_objects(objects)
                    .build()
                    .unwrap_err(),
                ScenarioError::TooManyObjects { objects }
            );
        }
    }

    #[test]
    fn non_positive_rate_rejected() {
        let err = Scenario::builder()
            .node_request_rate(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NonPositive {
                field: "node_request_rate",
                ..
            }
        ));
    }

    #[test]
    fn spans_beyond_the_clock_rejected_by_name() {
        let beyond = |builder: ScenarioBuilder| match builder.build().unwrap_err() {
            ScenarioError::BeyondClock { field, .. } => field,
            other => panic!("expected BeyondClock, got {other}"),
        };
        let b = Scenario::builder;
        assert_eq!(beyond(b().duration(1e19)), "duration");
        assert_eq!(beyond(b().duration(MAX_CLOCK_SECS * 1.01)), "duration");
        assert!(b().duration(MAX_CLOCK_SECS).build().is_ok());
        assert_eq!(beyond(b().node_request_rate(1e-300)), "1/node_request_rate");
        let mut rates = vec![40.0; 53];
        rates[7] = 1e-11;
        assert_eq!(
            beyond(b().node_request_rates(rates.clone())),
            "1/node_request_rates"
        );
        assert_eq!(beyond(b().node_capacities(rates)), "1/node_capacities");
        assert_eq!(beyond(b().update_rate(1e-10)), "1/update_rate");
        // A custom catalog still sets the size each hop's transfer takes.
        assert_eq!(
            beyond(b().catalog(Catalog::uniform(10_000, 1 << 60, 53))),
            "object_size/link_bandwidth across the topology"
        );
        assert!(b().update_rate(0.0).build().is_ok());
        let params = |period, interval| Params {
            placement_period: period,
            measurement_interval: interval,
            ..Params::paper()
        };
        assert_eq!(beyond(b().params(params(1e10, 20.0))), "placement_period");
        assert_eq!(
            beyond(b().params(params(100.0, 1e10))),
            "measurement_interval"
        );
        let faults = FaultSpec::new;
        assert_eq!(
            beyond(b().faults(faults().with_declare_dead_after(1e10))),
            "declare-dead-after"
        );
        assert_eq!(
            beyond(b().faults(faults().host_down(3, 1e10, None))),
            "fault window start"
        );
        assert_eq!(
            beyond(b().faults(faults().host_down(3, 1.0, Some(1e10)))),
            "fault window end"
        );
        let err = b().duration(1e19).build().unwrap_err().to_string();
        assert!(
            err.contains("duration is 1e19 s") && err.contains("9007199254.740992 s (2^53 µs"),
            "{err}"
        );
    }

    #[test]
    fn invalid_params_are_rejected_by_name() {
        use radar_core::ParamsError as E;
        type Edit = fn(&mut Params);
        let build = |set: Edit| {
            let mut params = Params::paper();
            set(&mut params);
            Scenario::builder().params(params).build().unwrap_err()
        };
        let cases: [(Edit, E); 6] = [
            (
                |p| p.low_watermark = 95.0,
                E::WatermarksInverted {
                    low: 95.0,
                    high: 90.0,
                },
            ),
            (
                |p| p.low_watermark = 90.0,
                E::WatermarksInverted {
                    low: 90.0,
                    high: 90.0,
                },
            ),
            (
                |p| p.replication_threshold = 0.12,
                E::ThresholdsUnstable {
                    deletion: 0.03,
                    replication: 0.12,
                },
            ),
            (
                |p| p.replication_threshold = 0.1,
                E::ThresholdsUnstable {
                    deletion: 0.03,
                    replication: 0.1,
                },
            ),
            (
                |p| p.distribution_constant = 1.0,
                E::DistributionConstantTooLow(1.0),
            ),
            (
                |p| p.placement_period = 0.0,
                E::NonPositive {
                    field: "placement_period",
                    value: 0.0,
                },
            ),
        ];
        for (set, expected) in cases {
            assert_eq!(build(set), ScenarioError::Params(expected));
        }
        // NaN never compares equal, so the interval is matched by name.
        let err = build(|p| p.measurement_interval = f64::NAN);
        assert!(
            matches!(
                err,
                ScenarioError::Params(E::NonPositive { field: "measurement_interval", value })
                    if value.is_nan()
            ),
            "{err}"
        );
        assert!(err
            .to_string()
            .starts_with("invalid protocol parameters: measurement_interval"));
    }

    #[test]
    fn periods_that_round_to_zero_microseconds_rejected_by_name() {
        let below = |builder: ScenarioBuilder| match builder.build().unwrap_err() {
            ScenarioError::BelowClock { field, .. } => field,
            other => panic!("expected BelowClock, got {other}"),
        };
        let b = Scenario::builder;
        assert_eq!(below(b().node_request_rate(3e6)), "1/node_request_rate");
        let mut rates = vec![40.0; 53];
        rates[7] = 2.1e6;
        assert_eq!(
            below(b().node_request_rates(rates.clone())),
            "1/node_request_rates"
        );
        assert_eq!(below(b().node_capacities(rates)), "1/node_capacities");
        assert_eq!(below(b().update_rate(1e7)), "1/update_rate");
        // 0.5 µs rounds up to one tick.
        assert!(b().node_request_rate(2e6).build().is_ok());
        let err = b().node_request_rate(4e6).build().unwrap_err().to_string();
        assert!(
            err.contains("1/node_request_rate is 2.5e-7 s") && err.contains("1 µs"),
            "{err}"
        );
    }

    #[test]
    fn explicit_placement_validated() {
        let err = Scenario::builder()
            .num_objects(2)
            .initial_placement(InitialPlacement::Explicit(vec![vec![0]]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadExplicitPlacement { .. }));

        let err = Scenario::builder()
            .num_objects(1)
            .initial_placement(InitialPlacement::Explicit(vec![vec![]]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadExplicitPlacement { .. }));

        let err = Scenario::builder()
            .num_objects(1)
            .initial_placement(InitialPlacement::Explicit(vec![vec![200]]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadExplicitPlacement { .. }));

        let ok = Scenario::builder()
            .num_objects(1)
            .initial_placement(InitialPlacement::Explicit(vec![vec![0, 1]]))
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn storage_limit_validated() {
        assert!(matches!(
            Scenario::builder().storage_limit(0).build().unwrap_err(),
            ScenarioError::NonPositive {
                field: "storage_limit",
                ..
            }
        ));
        let s = Scenario::builder().storage_limit(250).build().unwrap();
        assert_eq!(s.storage_limit, Some(250));
    }

    #[test]
    fn redirector_and_update_knobs_validated() {
        assert!(matches!(
            Scenario::builder().num_redirectors(0).build().unwrap_err(),
            ScenarioError::NonPositive {
                field: "num_redirectors",
                ..
            }
        ));
        for rate in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Scenario::builder().update_rate(rate).build().unwrap_err(),
                ScenarioError::Negative {
                    field: "update_rate",
                    ..
                }
            ));
        }
        let s = Scenario::builder()
            .num_redirectors(4)
            .update_rate(2.0)
            .build()
            .unwrap();
        assert_eq!(s.num_redirectors, 4);
        assert_eq!(s.update_rate, 2.0);
        // Clamped to the node count.
        let s = Scenario::builder().num_redirectors(500).build().unwrap();
        assert_eq!(s.num_redirectors, 53);
    }

    #[test]
    fn per_node_capacities_scale_watermarks() {
        let mut caps = vec![200.0; 53];
        caps[7] = 400.0;
        let s = Scenario::builder().node_capacities(caps).build().unwrap();
        assert_eq!(s.capacity_of(0), 200.0);
        assert_eq!(s.capacity_of(7), 400.0);
        assert_eq!(s.params_of(0).high_watermark, 90.0);
        assert_eq!(s.params_of(7).high_watermark, 180.0);
        assert_eq!(s.params_of(7).low_watermark, 160.0);
        assert_eq!(s.params_of(7).deletion_threshold, 0.03);
    }

    #[test]
    fn wrong_length_per_node_lists_name_the_field() {
        let err = Scenario::builder()
            .node_capacities(vec![1.0; 3])
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "node_capacities has 3 entries but the topology has 53 nodes"
        );
        let err = Scenario::builder()
            .node_request_rates(vec![1.0; 54])
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "node_request_rates has 54 entries but the topology has 53 nodes"
        );
    }

    #[test]
    fn bad_capacities_rejected() {
        let err = Scenario::builder()
            .node_capacities(vec![1.0; 3])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::PerNodeLength {
                field: "node_capacities",
                len: 3,
                nodes: 53
            }
        ));
        let err = Scenario::builder()
            .node_capacities(vec![-1.0; 53])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NonPositive {
                field: "node_capacities",
                ..
            }
        ));
    }

    #[test]
    fn per_node_rates_validated() {
        let err = Scenario::builder()
            .node_request_rates(vec![1.0; 3])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::PerNodeLength {
                field: "node_request_rates",
                ..
            }
        ));
        let err = Scenario::builder()
            .node_request_rates(vec![0.0; 53])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::NonPositive {
                field: "node_request_rates",
                ..
            }
        ));
        assert!(Scenario::builder()
            .node_request_rates(vec![2.0; 53])
            .build()
            .is_ok());
    }

    #[test]
    fn catalog_length_validated() {
        let catalog = Catalog::uniform(5, 1024, 2);
        let err = Scenario::builder()
            .num_objects(6)
            .catalog(catalog.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::CatalogMismatch { .. }));
        assert!(Scenario::builder()
            .num_objects(5)
            .catalog(catalog)
            .build()
            .is_ok());
    }

    #[test]
    fn tracked_host_clamped() {
        let s = Scenario::builder().tracked_host(9999).build().unwrap();
        assert_eq!(s.tracked_host, 52);
    }

    #[test]
    fn fault_schedule_validated_against_topology() {
        // Host index past the 53-node UUNET testbed.
        let err = Scenario::builder()
            .faults(FaultSpec::new().host_down(99, 10.0, None))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Faults(FaultError {
                line: 3,
                kind: FaultErrorKind::UnknownHost(99)
            })
        ));
        // Link that is not a UUNET edge.
        let err = Scenario::builder()
            .faults(FaultSpec::new().link_down(0, 52, 10.0, None))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Faults(FaultError {
                line: 3,
                kind: FaultErrorKind::UnknownLink(0, 52)
            })
        ));
        // A valid schedule builds.
        let s = Scenario::builder()
            .faults(FaultSpec::new().host_down(7, 100.0, Some(400.0)))
            .build()
            .unwrap();
        assert_eq!(s.faults.faults().len(), 1);
        // Default is fault-free.
        assert!(Scenario::builder().build().unwrap().faults.is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            ScenarioError::NoObjects,
            ScenarioError::TooManyObjects { objects: u32::MAX },
            ScenarioError::NonPositive {
                field: "x",
                value: 0.0,
            },
            ScenarioError::BadExplicitPlacement { detail: "d".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
