//! Destination-based shortest-path routing with deterministic tie-breaks.

use std::collections::VecDeque;

use crate::{NodeId, Topology};

/// All-pairs hop-count distances, the chosen path of every node pair, and
/// a connected-component label per node.
///
/// For each destination `d`, a breadth-first search assigns every node `u`
/// its hop distance to `d` and a *next hop*: the lowest-id neighbor of `u`
/// that is one hop closer to `d`. Following next hops from `u` gives the
/// path to `d`. This mimics destination-based IP forwarding and satisfies
/// the paper's simulation rule that "when there are equidistant paths
/// between nodes i and j, one path is chosen for all requests from i to
/// j" — the chosen path is a function of `(u, d)` only.
///
/// Distances are symmetric (the graph is undirected); the chosen *paths*
/// need not be (just as real forward/reverse IP routes need not be), and
/// the protocol only ever uses host→gateway paths, so this is faithful.
///
/// Storage is flat: an `n × n` distance matrix and one path arena with
/// an offset per node pair, both indexed by `d · n + u`, so a table is a
/// handful of heap blocks whatever the node count.
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
///     [NodeId::new(0), NodeId::new(1), NodeId::new(2)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// `dist[d * n + u]` = hops from `u` to destination `d`.
    dist: Vec<u32>,
    /// Every pair's path, back to back: the path from `u` to `d` is
    /// `nodes[spans[d * n + u]..spans[d * n + u + 1]]`, empty when `d` is
    /// unreachable from `u`.
    nodes: Vec<NodeId>,
    spans: Vec<u32>,
    /// `component[u]` = the lowest node id in `u`'s connected component.
    component: Vec<NodeId>,
    /// All nodes by increasing total distance to every node, lowest id
    /// breaking ties.
    by_centrality: Vec<NodeId>,
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
    /// [`UNREACHABLE`](Self::UNREACHABLE) distance and an empty path.
    /// The predicate is queried once per directed link traversal; it must
    /// be symmetric (links are undirected).
    pub fn for_topology_masked(
        topology: &Topology,
        link_up: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        let n = topology.len();
        let mut dist = vec![Self::UNREACHABLE; n * n];
        let mut nodes = Vec::new();
        let mut spans = Vec::with_capacity(n * n + 1);
        spans.push(0);
        let mut component: Vec<NodeId> = topology.nodes().collect();
        let mut next = vec![NodeId::new(0); n];
        let mut queue = VecDeque::with_capacity(n);
        for (d, row) in topology.nodes().zip(dist.chunks_exact_mut(n)) {
            bfs_to_destination(topology, d, link_up, row, &mut next, &mut queue);
            for (u, &hops) in topology.nodes().zip(row.iter()) {
                if hops != Self::UNREACHABLE {
                    // `d` reaches `u` exactly when they share a
                    // component, so the least such `d` is its label.
                    component[u.index()] = component[u.index()].min(d);
                    let mut cur = u;
                    nodes.push(cur);
                    while cur != d {
                        cur = next[cur.index()];
                        nodes.push(cur);
                    }
                }
                spans.push(u32::try_from(nodes.len()).expect("path arena within u32"));
            }
        }
        // A node's total distance to every node, unreachable pairs
        // counting u32::MAX, so a partitioned node ranks behind every
        // connected one.
        let mut totals = vec![0u64; n];
        for row in dist.chunks_exact(n) {
            for (total, &hops) in totals.iter_mut().zip(row) {
                *total += u64::from(hops);
            }
        }
        let mut by_centrality: Vec<NodeId> = topology.nodes().collect();
        by_centrality.sort_unstable_by_key(|u| (totals[u.index()], *u));
        let diameter = dist
            .iter()
            .copied()
            .filter(|&x| x != Self::UNREACHABLE)
            .max()
            .unwrap_or(0);
        Self {
            n,
            dist,
            nodes,
            spans,
            component,
            by_centrality,
            diameter,
        }
    }

    /// Sentinel distance for pairs with no surviving path.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// `true` when a path currently exists between the two nodes: both lie
    /// in the same connected component.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.component[from.index()] == self.component[to.index()]
    }

    /// The lowest node id in `node`'s connected component: two nodes
    /// reach each other exactly when their labels are equal.
    pub fn component(&self, node: NodeId) -> NodeId {
        self.component[node.index()]
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

    /// Hop distance between two nodes (0 for a node to itself,
    /// [`UNREACHABLE`](Self::UNREACHABLE) across a partition).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, from: NodeId, to: NodeId) -> u32 {
        self.dist[to.index() * self.n + from.index()]
    }

    /// Every node's hop distance to `to`, by node index: `distance(u, to)`
    /// is `distances_to(to)[u.index()]`, one row read for many sources.
    pub fn distances_to(&self, to: NodeId) -> &[u32] {
        &self.dist[to.index() * self.n..][..self.n]
    }

    /// The path from `from` to `to`, inclusive of both endpoints, or an
    /// empty slice when `to` is unreachable (possible only on masked
    /// tables). A node's path to itself is `[from]`; the second node is
    /// `from`'s next hop toward `to`.
    ///
    /// This is the paper's *preference path*: every node on it is a
    /// candidate location that would have shortened the response route.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn path(&self, from: NodeId, to: NodeId) -> &[NodeId] {
        let pair = to.index() * self.n + from.index();
        &self.nodes[self.spans[pair] as usize..self.spans[pair + 1] as usize]
    }

    /// The node with minimal average distance to all nodes (lowest id on
    /// ties) — where the paper's simulation places the redirector.
    pub fn centroid(&self) -> NodeId {
        self.by_centrality[0]
    }

    /// All nodes ordered by increasing total distance to every other
    /// node (most central first; lowest id breaks ties). The first `k`
    /// entries are the natural homes for `k` hash-partitioned
    /// redirectors.
    pub fn nodes_by_centrality(&self) -> &[NodeId] {
        &self.by_centrality
    }

    /// The graph diameter in hops (unreachable pairs ignored).
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

/// BFS from destination `d` over links passing the `link_up` mask into
/// `dist` (all [`RoutingTable::UNREACHABLE`] on entry): each reached node
/// gets its distance to `d` and, in `next`, the lowest-id neighbor one hop
/// closer (`next` is written only for reached nodes).
fn bfs_to_destination(
    topology: &Topology,
    d: NodeId,
    link_up: &dyn Fn(NodeId, NodeId) -> bool,
    dist: &mut [u32],
    next: &mut [NodeId],
    queue: &mut VecDeque<NodeId>,
) {
    dist[d.index()] = 0;
    queue.push_back(d);
    while let Some(u) = queue.pop_front() {
        for &v in topology.neighbors(u) {
            if dist[v.index()] == RoutingTable::UNREACHABLE && link_up(u, v) {
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
        assert!(masked.path(node(0), node(2)).is_empty());
        assert_eq!(
            [0, 1, 2].map(|i| masked.component(node(i))),
            [node(0), node(0), node(2)]
        );
        // A node always reaches itself, even when fully cut off.
        assert!(masked.reachable(node(2), node(2)));
        // Diameter ignores unreachable pairs; centroid stays connected.
        assert_eq!(masked.diameter(), 1);
        assert!(masked.centroid() == node(0) || masked.centroid() == node(1));
    }

    #[test]
    fn path_is_empty_when_unreachable() {
        let topo = builders::line(2);
        let masked = RoutingTable::for_topology_masked(&topo, &|_, _| false);
        assert!(masked.path(node(0), node(1)).is_empty());
        assert_eq!(masked.path(node(1), node(1)), [node(1)]);
        assert_ne!(masked.component(node(0)), masked.component(node(1)));
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
