//! The RaDaR dynamic object replication and migration protocol.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"A Dynamic Object Replication and Migration Protocol for an Internet
//! Hosting Service"* (Rabinovich, Rabinovich, Rajaraman, Aggarwal;
//! ICDCS 1999): a protocol suite that decides **how many replicas of each
//! Web object to keep, where to keep them, and which replica serves each
//! request** — with every decision made *autonomously* by individual
//! hosts, using only locally observable information.
//!
//! The two interlocking algorithms:
//!
//! * **Request distribution** ([`Redirector::choose_replica`], paper
//!   Fig. 2). For each request the redirector considers just two replicas:
//!   the one *closest* to the requesting gateway and the one with the
//!   smallest *unit request count* (`rcnt/aff`). The closest wins unless
//!   its unit count exceeds the minimum by more than the distribution
//!   constant (2). This single rule blends proximity and load *without
//!   ever measuring server load*, and — crucially — makes the load shift
//!   caused by any replica-set change **predictable** (Theorems 1–5,
//!   [`bounds`]).
//! * **Replica placement** ([`placement`], paper Figs. 3–5). Each host
//!   periodically walks its objects: drops affinity units whose unit
//!   access rate fell below the deletion threshold `u`, geo-migrates
//!   objects whose requests mostly pass through another node, and
//!   geo-replicates hot objects (unit access rate > `m`) toward nodes on
//!   many preference paths. A host whose load exceeds the high watermark
//!   enters *offloading* mode and sheds objects in bulk, steering by the
//!   theorem bounds instead of waiting for fresh load measurements after
//!   every move.
//!
//! The protocol is written sans-I/O: hosts and redirectors are plain
//! state machines, and all interaction with "the network" goes through
//! the [`placement::PlacementEnv`] trait. The `radar-sim` crate wires
//! these state machines into a discrete-event simulation; unit tests
//! drive them directly.
//!
//! # Quick tour
//!
//! ```
//! use radar_core::{Catalog, ObjectId, Params, Redirector};
//! use radar_simnet::{builders, NodeId};
//!
//! let topo = builders::two_continents();
//! let routes = topo.routes();
//! let params = Params::paper();
//!
//! // One object, initially replicated on both continents.
//! let mut redirector = Redirector::new(1, params.distribution_constant);
//! let x = ObjectId::new(0);
//! let america = NodeId::new(0);
//! let europe = NodeId::new(1);
//! redirector.install(x, america);
//! redirector.install(x, europe);
//!
//! // Balanced demand: every request is served by its local replica.
//! let from_us = redirector.choose_replica(x, america, &routes).unwrap();
//! let from_eu = redirector.choose_replica(x, europe, &routes).unwrap();
//! assert_eq!(from_us, america);
//! assert_eq!(from_eu, europe);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bounds;
mod catalog;
mod directory;
pub mod guide;
mod host;
mod load;
mod one_or_many;
mod params;
pub mod placement;
mod redirector;
mod types;

pub use catalog::{Catalog, ConsistencyMix, ObjectKind};
pub use directory::Directory;
pub use host::{HostState, ObjectState, SlotHint};
pub use load::LoadEstimator;
pub use params::{Params, ParamsError, MIGR_RATIO, OBJECT_SIZE, REPL_RATIO};
pub use redirector::{Fig2Pass, Redirector, ReplicaInfo};
pub use types::{CreateObjRequest, CreateObjResponse, ObjectId, RelocationKind};
