//! Event-driven simulation of a RaDaR hosting platform.
//!
//! This crate reproduces the paper's evaluation environment (§6.1): a
//! backbone of router+host nodes (the UUNET-like testbed from
//! `radar-simnet`), every node a gateway generating client requests at a
//! constant rate, one redirector co-located with the network centroid,
//! FIFO servers, 12 KB objects, 10 ms hop delay, 350 KBps links.
//!
//! The request lifecycle follows the paper's system model (§2):
//!
//! 1. a client request enters at its gateway and travels to the
//!    redirector (propagation delay only — "the request size is
//!    negligible compared to the page size");
//! 2. the redirector picks a live, reachable replica via the protocol's
//!    distribution algorithm (Fig. 2), or via a baseline
//!    [`SelectionPolicy`] plugged in beside it, and forwards the request
//!    to that host;
//! 3. the host queues the request FIFO, records the preference path
//!    (host → gateway) for the placement algorithm, and serves it;
//! 4. the response travels back along the shortest path, paying
//!    per-hop propagation plus transmission time and consuming
//!    `bytes × hops` of backbone bandwidth — the paper's bandwidth
//!    metric.
//!
//! Periodically each host runs the placement algorithm
//! ([`radar_core::placement::run_placement`]); object copies made by
//! accepted `CreateObj` requests consume *overhead* bandwidth, tracked
//! separately (Fig. 7).
//!
//! One deliberate simplification, documented in DESIGN.md: relocation
//! control handshakes and data transfers complete within a placement run
//! (their real latency of a few hundred milliseconds is three orders of
//! magnitude below the 100 s placement period), while their bandwidth is
//! fully accounted. The paper's own replica-set invariant ("the
//! redirector is notified of copy creation after the fact and of
//! deletion before the fact") is preserved because the state changes are
//! applied in exactly that order.
//!
//! # Quick start
//!
//! ```
//! use radar_sim::{Scenario, Simulation};
//! use radar_workload::ZipfReeds;
//!
//! // A short Zipf run on a small object population.
//! let scenario = Scenario::builder()
//!     .num_objects(200)
//!     .duration(120.0)
//!     .seed(7)
//!     .build()?;
//! let workload = Box::new(ZipfReeds::new(200));
//! let report = Simulation::new(scenario, workload).run();
//! assert!(report.total_requests > 0);
//! # Ok::<(), radar_sim::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod env;
mod faults;
mod health;
mod json;
mod lifecycle;
mod metrics;
mod observer;
mod placement_policy;
mod platform;
mod redirect;
mod report;
mod selection;
mod sink;
mod trace;

pub use config::{
    check_object_count, InitialPlacement, NetworkParams, PlacementMode, Scenario, ScenarioBuilder,
    ScenarioError, MAX_OBJECTS, SERVER_CAPACITY,
};
pub use faults::{Fault, FaultError, FaultErrorKind, FaultSpec};
pub use json::protocol_health_json;
pub use metrics::{LoadEstimateSample, Metrics, RelocationEvent, RelocationIter, RelocationLog};
pub use observer::{Observer, RequestRecord};
pub use placement_policy::PlacementPolicy;
pub use platform::Simulation;
pub use report::{FinalReplicas, FinalReplicasIter, ReplicaCensus, RunReport};
pub use selection::SelectionPolicy;
pub use trace::{Trace, TraceEntry, TraceError, TraceErrorKind};

/// The flight-recorder crate, re-exported so observers can name its
/// event types without a separate dependency declaration.
pub use radar_obs as obs;
