//! Destination-based shortest-path routing with deterministic tie-breaks.

use std::collections::VecDeque;

use crate::{NodeId, Topology};

/// All-pairs hop-count distances and next-hop forwarding state.
///
/// For each destination `d`, a breadth-first search assigns every node `u`
/// its hop distance to `d` and a *next hop*: the lowest-id neighbor of `u`
/// that is one hop closer to `d`. This mimics destination-based IP
/// forwarding and satisfies the paper's simulation rule that "when there
/// are equidistant paths between nodes i and j, one path is chosen for all
/// requests from i to j" — the chosen path is a function of `(u, d)` only.
///
/// Distances are symmetric (the graph is undirected); the chosen *paths*
/// need not be (just as real forward/reverse IP routes need not be), and
/// the protocol only ever uses host→gateway paths, so this is faithful.
///
/// # Examples
///
/// ```
/// use radar_simnet::{builders, NodeId};
/// let topo = builders::line(4); // 0 — 1 — 2 — 3
/// let routes = topo.routes();
/// assert_eq!(routes.distance(NodeId::new(0), NodeId::new(3)), 3);
/// assert_eq!(
///     routes.path(NodeId::new(0), NodeId::new(2)),
///     vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// `dist[d][u]` = hops from `u` to destination `d`.
    dist: Vec<Vec<u32>>,
    /// `next_hop[d][u]` = the neighbor `u` forwards to when sending to
    /// `d`; `u == d` maps to itself.
    next_hop: Vec<Vec<NodeId>>,
    /// Eccentricity-minimal node (lowest id among ties): the paper
    /// co-locates the redirector with "a node whose average distance in
    /// hops to other nodes is minimum".
    centroid: NodeId,
    diameter: u32,
}

impl RoutingTable {
    /// Builds the routing table for `topology` (one BFS per destination).
    pub fn for_topology(topology: &Topology) -> Self {
        Self::for_topology_masked(topology, &|_, _| true)
    }

    /// Builds the routing table over the subgraph of links for which
    /// `link_up(a, b)` is `true` — the fault-injection path: when links
    /// partition, reachability is recomputed over the survivors.
    ///
    /// Unlike [`for_topology`](Self::for_topology), the masked subgraph
    /// may be disconnected: unreachable pairs report
    /// [`UNREACHABLE`](Self::UNREACHABLE) distance and must be screened
    /// with [`reachable`](Self::reachable) before asking for a path.
    /// The predicate is queried once per directed link traversal; it must
    /// be symmetric (links are undirected).
    pub fn for_topology_masked(
        topology: &Topology,
        link_up: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        let n = topology.len();
        let mut dist = Vec::with_capacity(n);
        let mut next_hop = Vec::with_capacity(n);
        for d in topology.nodes() {
            let (dv, nv) = bfs_to_destination(topology, d, link_up);
            dist.push(dv);
            next_hop.push(nv);
        }
        let mut table = Self {
            n,
            dist,
            next_hop,
            centroid: NodeId::new(0),
            diameter: 0,
        };
        table.refresh_metadata();
        table
    }

    /// Computes the centroid and diameter from the distance matrix.
    ///
    /// Centroid: minimal total distance to all other nodes, lowest id
    /// breaking ties. Unreachable pairs saturate so a partitioned node
    /// never wins. Diameter ignores unreachable pairs.
    fn refresh_metadata(&mut self) {
        let mut centroid = NodeId::new(0);
        let mut best: u64 = u64::MAX;
        for u in 0..self.n {
            let total: u64 = (0..self.n)
                .map(|d| {
                    let x = self.dist[d][u];
                    if x == u32::MAX {
                        u32::MAX as u64
                    } else {
                        x as u64
                    }
                })
                .sum();
            if total < best {
                best = total;
                centroid = NodeId::new(u as u16);
            }
        }
        self.centroid = centroid;
        self.diameter = self
            .dist
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|&x| x != u32::MAX)
            .max()
            .unwrap_or(0);
    }

    /// Sentinel distance for pairs with no surviving path.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// `true` when a path currently exists between the two nodes.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.dist[to.index()][from.index()] != Self::UNREACHABLE
    }

    /// Number of nodes covered by the table.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the table covers no nodes (not produced in practice —
    /// topologies validate non-emptiness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Hop distance between two nodes (0 for a node to itself).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, from: NodeId, to: NodeId) -> u32 {
        self.dist[to.index()][from.index()]
    }

    /// Every node's hop distance to `to`, by node index: `distance(u, to)`
    /// is `distances_to(to)[u.index()]`, one row read for many sources.
    pub fn distances_to(&self, to: NodeId) -> &[u32] {
        &self.dist[to.index()]
    }

    /// The neighbor `from` forwards to when sending toward `to`
    /// (`to` itself if `from == to`).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        self.next_hop[to.index()][from.index()]
    }

    /// The full path from `from` to `to`, inclusive of both endpoints.
    /// A node's path to itself is `[from]`.
    ///
    /// This is the paper's *preference path*: every node on it is a
    /// candidate location that would have shortened the response route.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, or if `to` is unreachable
    /// from `from` (possible only on masked tables — check
    /// [`reachable`](Self::reachable) first, or use
    /// [`try_path`](Self::try_path)).
    pub fn path(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        self.try_path(from, to)
            .unwrap_or_else(|| panic!("no path from {from} to {to}"))
    }

    /// The full path from `from` to `to`, or `None` when the (masked)
    /// table has no surviving route between them.
    pub fn try_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(from, to) {
            return None;
        }
        let mut path = Vec::with_capacity(self.distance(from, to) as usize + 1);
        let mut cur = from;
        path.push(cur);
        while cur != to {
            cur = self.next_hop(cur, to);
            path.push(cur);
        }
        Some(path)
    }

    /// The node with minimal average distance to all nodes (lowest id on
    /// ties) — where the paper's simulation places the redirector.
    pub fn centroid(&self) -> NodeId {
        self.centroid
    }

    /// All nodes ordered by increasing total distance to every other
    /// node (most central first; lowest id breaks ties). The first `k`
    /// entries are the natural homes for `k` hash-partitioned
    /// redirectors.
    pub fn nodes_by_centrality(&self) -> Vec<NodeId> {
        let mut scored: Vec<(u64, NodeId)> = (0..self.n)
            .map(|u| {
                let total: u64 = (0..self.n).map(|d| self.dist[d][u] as u64).sum();
                (total, NodeId::new(u as u16))
            })
            .collect();
        scored.sort_unstable();
        scored.into_iter().map(|(_, n)| n).collect()
    }

    /// The graph diameter in hops.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Among `candidates`, the one closest to `target`, breaking distance
    /// ties by lowest node id. Returns `None` for an empty candidate set.
    pub fn closest_to<I>(&self, target: NodeId, candidates: I) -> Option<NodeId>
    where
        I: IntoIterator<Item = NodeId>,
    {
        candidates
            .into_iter()
            .min_by_key(|&c| (self.distance(c, target), c))
    }
}

/// BFS from destination `d` over links passing the `link_up` mask; for
/// each node, record distance to `d` and the lowest-id neighbor one hop
/// closer. Nodes cut off by the mask keep `u32::MAX`.
fn bfs_to_destination(
    topology: &Topology,
    d: NodeId,
    link_up: &dyn Fn(NodeId, NodeId) -> bool,
) -> (Vec<u32>, Vec<NodeId>) {
    let n = topology.len();
    let mut dist = vec![u32::MAX; n];
    let mut next = vec![d; n];
    dist[d.index()] = 0;
    let mut queue = VecDeque::from([d]);
    while let Some(u) = queue.pop_front() {
        for &v in topology.neighbors(u) {
            if dist[v.index()] == u32::MAX && link_up(u, v) {
                dist[v.index()] = dist[u.index()] + 1;
                // `u` is one hop closer to d than v. Because BFS dequeues
                // nodes of equal distance in ascending discovery order and
                // neighbor lists are sorted, the first assignment is the
                // lowest-id closer neighbor.
                next[v.index()] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::Region;

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn line_distances_and_paths() {
        let topo = builders::line(5);
        let r = topo.routes();
        assert_eq!(r.distance(node(0), node(4)), 4);
        assert_eq!(r.distance(node(2), node(2)), 0);
        assert_eq!(r.path(node(2), node(2)), vec![node(2)]);
        assert_eq!(
            r.path(node(4), node(1)),
            vec![node(4), node(3), node(2), node(1)]
        );
        assert_eq!(r.diameter(), 4);
        assert_eq!(r.centroid(), node(2));
    }

    #[test]
    fn distances_symmetric() {
        let topo = builders::uunet();
        let r = topo.routes();
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(r.distance(a, b), r.distance(b, a));
            }
        }
    }

    #[test]
    fn paths_consistent_with_distance() {
        let topo = builders::uunet();
        let r = topo.routes();
        for a in topo.nodes() {
            for b in topo.nodes() {
                let p = r.path(a, b);
                assert_eq!(p.len() as u32, r.distance(a, b) + 1);
                assert_eq!(*p.first().unwrap(), a);
                assert_eq!(*p.last().unwrap(), b);
                // Every consecutive pair is an actual link.
                for w in p.windows(2) {
                    assert!(topo.neighbors(w[0]).contains(&w[1]));
                }
            }
        }
    }

    #[test]
    fn same_destination_same_subpath() {
        // Destination-based forwarding: if v is on u's path to d, then
        // v's path to d is the corresponding suffix.
        let topo = builders::uunet();
        let r = topo.routes();
        let d = node(40);
        for u in topo.nodes() {
            let p = r.path(u, d);
            for (i, &v) in p.iter().enumerate() {
                assert_eq!(r.path(v, d), p[i..].to_vec());
            }
        }
    }

    #[test]
    fn tie_break_prefers_lowest_id() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Paths 0->3 via 1 or 2; must pick 1.
        let mut b = Topology::builder();
        let n0 = b.add_node("0", Region::Europe);
        let n1 = b.add_node("1", Region::Europe);
        let n2 = b.add_node("2", Region::Europe);
        let n3 = b.add_node("3", Region::Europe);
        b.add_link(n0, n1);
        b.add_link(n0, n2);
        b.add_link(n1, n3);
        b.add_link(n2, n3);
        let topo = b.build().unwrap();
        let r = topo.routes();
        assert_eq!(r.path(n0, n3), vec![n0, n1, n3]);
        assert_eq!(r.path(n3, n0), vec![n3, n1, n0]);
    }

    #[test]
    fn closest_to_picks_nearest_then_lowest_id() {
        let topo = builders::line(5);
        let r = topo.routes();
        assert_eq!(r.closest_to(node(0), [node(3), node(1)]), Some(node(1)));
        // Equidistant: 1 and 3 are both 1 hop from 2; lowest id wins.
        assert_eq!(r.closest_to(node(2), [node(3), node(1)]), Some(node(1)));
        assert_eq!(r.closest_to(node(0), std::iter::empty()), None);
    }

    #[test]
    fn centrality_ranking_starts_at_centroid() {
        let topo = builders::star(6);
        let r = topo.routes();
        let ranked = r.nodes_by_centrality();
        assert_eq!(ranked.len(), 6);
        assert_eq!(ranked[0], r.centroid());
        // Star leaves are all tied; ids break ties ascending.
        assert_eq!(ranked[1..], [node(1), node(2), node(3), node(4), node(5)]);
    }

    #[test]
    fn ring_distances_wrap() {
        let topo = builders::ring(6);
        let r = topo.routes();
        assert_eq!(r.distance(node(0), node(3)), 3);
        assert_eq!(r.distance(node(0), node(5)), 1);
        assert_eq!(r.diameter(), 3);
    }

    #[test]
    fn masked_table_reroutes_around_dead_link() {
        // Ring of 4: killing 0-1 forces 0→1 the long way around.
        let topo = builders::ring(4);
        let full = topo.routes();
        assert_eq!(full.distance(node(0), node(1)), 1);
        let masked = RoutingTable::for_topology_masked(&topo, &|a, b| {
            !matches!((a.index(), b.index()), (0, 1) | (1, 0))
        });
        assert_eq!(masked.distance(node(0), node(1)), 3);
        assert!(masked.reachable(node(0), node(1)));
        assert_eq!(
            masked.path(node(0), node(1)),
            vec![node(0), node(3), node(2), node(1)]
        );
    }

    #[test]
    fn masked_table_reports_unreachable_partitions() {
        // Line 0-1-2: killing 1-2 strands node 2.
        let topo = builders::line(3);
        let masked = RoutingTable::for_topology_masked(&topo, &|a, b| {
            !matches!((a.index(), b.index()), (1, 2) | (2, 1))
        });
        assert!(!masked.reachable(node(0), node(2)));
        assert!(!masked.reachable(node(2), node(1)));
        assert!(masked.reachable(node(0), node(1)));
        assert_eq!(masked.distance(node(0), node(2)), RoutingTable::UNREACHABLE);
        assert_eq!(masked.try_path(node(0), node(2)), None);
        // A node always reaches itself, even when fully cut off.
        assert!(masked.reachable(node(2), node(2)));
        // Diameter ignores unreachable pairs; centroid stays connected.
        assert_eq!(masked.diameter(), 1);
        assert!(masked.centroid() == node(0) || masked.centroid() == node(1));
    }

    #[test]
    #[should_panic(expected = "no path")]
    fn path_panics_when_unreachable() {
        let topo = builders::line(2);
        let masked = RoutingTable::for_topology_masked(&topo, &|_, _| false);
        let _ = masked.path(node(0), node(1));
    }

    #[test]
    fn unmasked_equals_fully_up_mask() {
        let topo = builders::uunet();
        let a = topo.routes();
        let b = RoutingTable::for_topology_masked(&topo, &|_, _| true);
        assert_eq!(a, b);
    }

    #[test]
    fn star_centroid_is_hub() {
        let topo = builders::star(9);
        let r = topo.routes();
        assert_eq!(r.centroid(), node(0));
        assert_eq!(r.diameter(), 2);
    }
}
