//! Backbone network topology and routing for the RaDaR reproduction.
//!
//! The paper's protocol consumes exactly two pieces of network
//! information, both "available in databases maintained by Internet
//! routers" (§1, §2):
//!
//! 1. the **distance** (in router hops) between any two platform nodes,
//!    used by the redirector to find the replica closest to a gateway and
//!    by hosts to order placement candidates; and
//! 2. the **preference path** of a request — the sequence of platform
//!    nodes a response traverses from the serving host to the client's
//!    gateway, on which every node is a candidate replica location.
//!
//! This crate provides those two services over an explicit graph:
//!
//! * [`Topology`] — an undirected, connected backbone graph with named,
//!   region-tagged nodes;
//! * [`RoutingTable`] — destination-based shortest-path routing (BFS per
//!   destination, deterministic lowest-id tie-break), mirroring the
//!   paper's simulation rule that "when there are equidistant paths
//!   between nodes i and j, one path is chosen for all requests from i to
//!   j";
//! * [`builders`] — topology constructors, including [`builders::uunet`],
//!   a 53-node, four-region stand-in for the 1998 UUNET backbone used as
//!   the paper's testbed (the original map is no longer published; see
//!   DESIGN.md for the substitution argument);
//! * [`text`] — the line reader under the topology spec, the fault
//!   schedule and the request trace.
//!
//! # Examples
//!
//! ```
//! use radar_simnet::{builders, NodeId};
//!
//! let topo = builders::uunet();
//! let routes = topo.routes();
//! assert_eq!(topo.len(), 53);
//! let a = NodeId::new(0);
//! let b = NodeId::new(52);
//! let path = routes.path(a, b);
//! assert_eq!(path.first(), Some(&a));
//! assert_eq!(path.last(), Some(&b));
//! assert_eq!(path.len() as u32 - 1, routes.distance(a, b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod builders;
mod graph;
mod routing;
mod spec;
pub mod text;
mod view;

pub use graph::{NodeId, Region, Topology, TopologyBuilder, TopologyError};
pub use routing::RoutingTable;
pub use spec::{SpecError, SpecErrorKind};
pub use view::RoutingView;
