//! Routing state over the live links: distances, paths, and link
//! liveness.
//!
//! [`RoutingView`] is the routing layer of the simulator's layered
//! engine: it owns a [`Topology`], its link liveness, and the live
//! [`RoutingTable`] over the currently-up links — the one store of
//! distances, preference paths and component labels. A link up/down
//! transition ([`set_link`](RoutingView::set_link)) flips the link's bit
//! and rebuilds the table over the surviving links, the same way
//! [`RoutingView::new`] builds it.

use crate::{NodeId, RoutingTable, Topology};

/// Routing state over a [`Topology`] with per-link liveness.
///
/// # Examples
///
/// ```
/// use radar_simnet::{builders, NodeId, RoutingView};
///
/// let mut view = RoutingView::new(builders::ring(4));
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// assert_eq!(view.distance(a, b), 1);
/// assert!(view.set_link(a, b, false));
/// assert_eq!(view.distance(a, b), 3); // the long way around
/// ```
#[derive(Debug, Clone)]
pub struct RoutingView {
    topology: Topology,
    table: RoutingTable,
    /// Liveness per link id (parallel to `topology.links()`).
    link_up: Vec<bool>,
    /// Row-major `n × n` link ids (both orientations filled);
    /// [`NO_LINK`] for non-adjacent pairs.
    link_index: Vec<u32>,
}

/// `link_index` entry of a node pair with no link between them.
const NO_LINK: u32 = u32::MAX;

impl RoutingView {
    /// Builds the view over `topology` with every link up.
    pub fn new(topology: Topology) -> Self {
        let table = topology.routes();
        let n = topology.len();
        let mut link_index = vec![NO_LINK; n * n];
        for (i, &(a, b)) in topology.links().iter().enumerate() {
            link_index[a.index() * n + b.index()] = i as u32;
            link_index[b.index() * n + a.index()] = i as u32;
        }
        Self {
            link_up: vec![true; topology.links().len()],
            topology,
            table,
            link_index,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The live routing table over the currently-up links.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Hop distance between two nodes over the currently-up links
    /// ([`RoutingTable::UNREACHABLE`] when partitioned).
    pub fn distance(&self, from: NodeId, to: NodeId) -> u32 {
        self.table.distance(from, to)
    }

    /// `true` when a path currently exists between the two nodes (their
    /// component labels are equal).
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.table.reachable(from, to)
    }

    /// The path from `from` to `to` over the currently-up links (the
    /// paper's preference path), or an empty slice when unreachable. No
    /// allocation — a slice of the table's path arena.
    pub fn path(&self, from: NodeId, to: NodeId) -> &[NodeId] {
        self.table.path(from, to)
    }

    /// Current liveness of the link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if no such link exists in the topology.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.link_up[self.link_id(a, b).expect("unknown link")]
    }

    /// The dense link id of the `a`–`b` link (its index in
    /// [`Topology::links`]), or `None` when the nodes are not adjacent.
    pub fn link_id(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let n = self.topology.len();
        debug_assert!(a.index() < n && b.index() < n, "node outside the topology");
        let id = self.link_index[a.index() * n + b.index()];
        (id != NO_LINK).then_some(id as usize)
    }

    /// Applies a link up/down transition and rebuilds the table over the
    /// links now up. Returns `true` when the transition changed anything.
    ///
    /// # Panics
    ///
    /// Panics if no `a`–`b` link exists in the topology.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let id = self.link_id(a, b).expect("unknown link");
        if self.link_up[id] == up {
            return false;
        }
        self.link_up[id] = up;
        self.table =
            RoutingTable::for_topology_masked(&self.topology, &|x, y| self.link_is_up(x, y));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    /// Full rebuild over the view's current link state, for equivalence
    /// checks.
    fn scratch(view: &RoutingView) -> RoutingTable {
        RoutingTable::for_topology_masked(view.topology(), &|a, b| view.link_is_up(a, b))
    }

    #[test]
    fn fresh_view_matches_plain_routes() {
        let topo = builders::uunet();
        let view = RoutingView::new(topo.clone());
        assert_eq!(*view.table(), topo.routes());
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(view.path(a, b), topo.routes().path(a, b));
            }
        }
    }

    #[test]
    fn link_down_reroutes() {
        let mut view = RoutingView::new(builders::ring(4));
        assert!(view.set_link(node(0), node(1), false));
        assert_eq!(view.distance(node(0), node(1)), 3);
        assert_eq!(
            view.path(node(0), node(1)),
            &[node(0), node(3), node(2), node(1)]
        );
        assert_eq!(*view.table(), scratch(&view));
    }

    #[test]
    fn redundant_transition_is_a_no_op() {
        let mut view = RoutingView::new(builders::ring(4));
        assert!(!view.set_link(node(0), node(1), true), "already up");
        assert!(view.set_link(node(0), node(1), false));
        assert!(!view.set_link(node(0), node(1), false), "already down");
    }

    #[test]
    fn partition_reported_unreachable_and_heals() {
        // Line 0-1-2: killing 1-2 strands node 2.
        let mut view = RoutingView::new(builders::line(3));
        view.set_link(node(1), node(2), false);
        assert!(!view.reachable(node(0), node(2)));
        assert!(view.path(node(0), node(2)).is_empty());
        assert_eq!(*view.table(), scratch(&view));
        view.set_link(node(1), node(2), true);
        assert!(view.reachable(node(0), node(2)));
        assert_eq!(view.path(node(0), node(2)), &[node(0), node(1), node(2)]);
        assert_eq!(
            *view.table(),
            RoutingView::new(builders::line(3)).table().clone()
        );
    }

    #[test]
    fn metadata_tracks_the_masked_rebuild() {
        let mut view = RoutingView::new(builders::uunet());
        view.set_link(node(0), node(1), false);
        let full = scratch(&view);
        assert_eq!(view.table().centroid(), full.centroid());
        assert_eq!(view.table().diameter(), full.diameter());
    }

    #[test]
    fn link_id_matches_topology_order() {
        let topo = builders::uunet();
        let view = RoutingView::new(topo.clone());
        for (i, &(a, b)) in topo.links().iter().enumerate() {
            assert_eq!(view.link_id(a, b), Some(i));
            assert_eq!(view.link_id(b, a), Some(i), "lookup is symmetric");
        }
        assert_eq!(view.link_id(node(0), node(0)), None);
    }
}
