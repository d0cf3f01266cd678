//! # RaDaR — dynamic object replication and migration
//!
//! A from-scratch Rust reproduction of *"A Dynamic Object Replication
//! and Migration Protocol for an Internet Hosting Service"* (Rabinovich,
//! Rabinovich, Rajaraman, Aggarwal; ICDCS 1999): the protocol, every
//! substrate it needs, the paper's full evaluation harness, and
//! comparator baselines. This facade crate re-exports the workspace so
//! downstream code can depend on one name.
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `radar-core` | **The protocol**: the redirector's request distribution algorithm (Fig. 2), per-host placement state and the `DecidePlacement`/`CreateObj`/`Offload` algorithms (Figs. 3–5), the Theorem 1–5 load bounds, and the §5 consistency catalog |
//! | [`sim`] | `radar-sim` | Event-driven hosting-platform simulation: request lifecycle, relocation/update traffic accounting, trace capture & replay, observers, metrics and reports |
//! | [`obs`] | `radar-obs` | Flight recorder: typed decision events with causal parents, a recorder that streams them as JSONL, event-loop profiling |
//! | [`simnet`] | `radar-simnet` | Backbone topologies (incl. the 53-node UUNET-like testbed), deterministic shortest-path routing, preference paths, topology spec files |
//! | [`simcore`] | `radar-simcore` | Discrete-event engine: integer clock, event queue, FIFO servers, timers, seeded RNG |
//! | [`workload`] | `radar-workload` | The paper's synthetic workloads plus mixtures, shifts, weighted (trace-derived) popularity, arrival processes |
//! | [`baselines`] | `radar-baselines` | Round-robin / closest-replica / random distribution policies |
//! | [`stats`] | `radar-stats` | Time series, streaming summaries and quantiles, the adjustment-time metric |
//!
//! ## Example
//!
//! Simulate the paper's platform under a Zipf workload and inspect what
//! the protocol did:
//!
//! ```
//! use radar::sim::{Scenario, Simulation};
//! use radar::workload::ZipfReeds;
//!
//! let scenario = Scenario::builder()
//!     .num_objects(200)
//!     .node_request_rate(2.0)
//!     .duration(120.0)
//!     .build()?;
//! let report = Simulation::new(scenario, Box::new(ZipfReeds::new(200))).run();
//! assert!(report.total_requests > 0);
//! println!(
//!     "replicas/object at equilibrium: {:.2}",
//!     report.equilibrium_avg_replicas()
//! );
//! # Ok::<(), radar::sim::ScenarioError>(())
//! ```
//!
//! The protocol state machines in [`core`] are sans-I/O and can be
//! driven without the simulator; see `radar_core::placement::PlacementEnv`.
//!
//! See README.md for the experiment harness that regenerates every
//! table and figure of the paper, and EXPERIMENTS.md for the measured
//! results.

#![forbid(unsafe_code)]

pub use radar_baselines as baselines;
pub use radar_core as core;
pub use radar_obs as obs;
pub use radar_sim as sim;
pub use radar_simcore as simcore;
pub use radar_simnet as simnet;
pub use radar_stats as stats;
pub use radar_workload as workload;
