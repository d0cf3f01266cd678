//! The backbone graph.

use std::fmt;

/// Identifier of a backbone node (router + co-located hosting server, per
/// the paper's system model, Fig. 1).
///
/// Node ids are dense indices assigned in insertion order, so they double
/// as vector indices throughout the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a dense index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Geographic region of a backbone node.
///
/// The paper's *regional* workload partitions the 53 UUNET nodes into
/// exactly these four regions (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Western North America.
    WesternNorthAmerica,
    /// Eastern North America.
    EasternNorthAmerica,
    /// Europe.
    Europe,
    /// Pacific Rim and Australia.
    PacificAustralia,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 4] = [
        Region::WesternNorthAmerica,
        Region::EasternNorthAmerica,
        Region::Europe,
        Region::PacificAustralia,
    ];

    /// Dense index of the region in [`Region::ALL`].
    pub fn index(self) -> usize {
        match self {
            Region::WesternNorthAmerica => 0,
            Region::EasternNorthAmerica => 1,
            Region::Europe => 2,
            Region::PacificAustralia => 3,
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Region::WesternNorthAmerica => "Western NA",
            Region::EasternNorthAmerica => "Eastern NA",
            Region::Europe => "Europe",
            Region::PacificAustralia => "Pacific/Australia",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from topology construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link endpoint referred to a node that does not exist.
    UnknownNode(NodeId),
    /// A link connected a node to itself.
    SelfLoop(NodeId),
    /// The same link was added twice.
    DuplicateLink(NodeId, NodeId),
    /// The graph is not connected (some node pair has no path).
    Disconnected {
        /// A node unreachable from node 0.
        unreachable: NodeId,
    },
    /// The topology has no nodes.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "link references unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}–{b}"),
            TopologyError::Disconnected { unreachable } => {
                write!(
                    f,
                    "topology is disconnected: {unreachable} unreachable from n0"
                )
            }
            TopologyError::Empty => write!(f, "topology has no nodes"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected backbone graph of routers/hosts.
///
/// Build one with [`Topology::builder`] (or a ready-made constructor from
/// [`crate::builders`]), then derive a [`crate::RoutingTable`] via
/// [`routes`](Topology::routes). Construction validates that the graph is
/// non-empty, free of self-loops and duplicate links, and connected —
/// the protocol assumes any host can reach any gateway.
///
/// # Examples
///
/// ```
/// use radar_simnet::{Region, Topology};
///
/// let mut b = Topology::builder();
/// let a = b.add_node("a", Region::Europe);
/// let c = b.add_node("c", Region::Europe);
/// b.add_link(a, c);
/// let topo = b.build()?;
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.neighbors(a), &[c]);
/// # Ok::<(), radar_simnet::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    names: Vec<String>,
    regions: Vec<Region>,
    /// Sorted adjacency lists (ascending id) — sorted order is what makes
    /// routing tie-breaks deterministic.
    adjacency: Vec<Vec<NodeId>>,
    links: Vec<(NodeId, NodeId)>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the topology has no nodes (never true for a built
    /// topology, which validates non-emptiness; provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u16).map(NodeId::new)
    }

    /// The node's human-readable name.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// The node's region.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn region(&self, node: NodeId) -> Region {
        self.regions[node.index()]
    }

    /// All nodes in `region`, ascending.
    pub fn nodes_in_region(&self, region: Region) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.region(n) == region).collect()
    }

    /// Neighbors of `node`, sorted ascending by id.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// All undirected links as `(lower, higher)` pairs in insertion order.
    pub fn links(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    /// Computes the all-pairs routing table for this topology.
    ///
    /// This is `O(nodes × links)` and is meant to be done once per
    /// experiment, mirroring the paper's premise that routes are extracted
    /// from router databases "asynchronously with client requests".
    pub fn routes(&self) -> crate::RoutingTable {
        crate::RoutingTable::for_topology(self)
    }
}

/// Incremental builder for [`Topology`]. See [`Topology::builder`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    names: Vec<String>,
    regions: Vec<Region>,
    links: Vec<(NodeId, NodeId)>,
}

impl TopologyBuilder {
    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if more than 65 536 nodes are added (ids are `u16`).
    /// [`Topology::from_spec`] checks the bound first and returns an
    /// error instead.
    pub fn add_node(&mut self, name: impl Into<String>, region: Region) -> NodeId {
        let id = u16::try_from(self.names.len()).expect("too many nodes for u16 ids");
        self.names.push(name.into());
        self.regions.push(region);
        NodeId::new(id)
    }

    /// Adds an undirected link between `a` and `b`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.links.push((a.min(b), a.max(b)));
        self
    }

    /// Validates and builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the graph is empty, references unknown
    /// nodes, contains self-loops or duplicate links, or is disconnected.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let n = self.names.len();
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &self.links {
            if a.index() >= n {
                return Err(TopologyError::UnknownNode(a));
            }
            if b.index() >= n {
                return Err(TopologyError::UnknownNode(b));
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if !seen.insert((a, b)) {
                return Err(TopologyError::DuplicateLink(a, b));
            }
            adjacency[a.index()].push(b);
            adjacency[b.index()].push(a);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        // Connectivity check: BFS from node 0.
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::from([NodeId::new(0)]);
        visited[0] = true;
        while let Some(u) = queue.pop_front() {
            for &v in &adjacency[u.index()] {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        if let Some(i) = visited.iter().position(|&v| !v) {
            return Err(TopologyError::Disconnected {
                unreachable: NodeId::new(i as u16),
            });
        }
        Ok(Topology {
            names: self.names.clone(),
            regions: self.regions.clone(),
            adjacency,
            links: self.links.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> TopologyBuilder {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("b", Region::Europe);
        b.add_link(a, c);
        b
    }

    #[test]
    fn builds_valid_topology() {
        let topo = two_nodes().build().unwrap();
        assert_eq!(topo.len(), 2);
        assert!(!topo.is_empty());
        assert_eq!(topo.name(NodeId::new(0)), "a");
        assert_eq!(topo.region(NodeId::new(1)), Region::Europe);
        assert_eq!(topo.links().len(), 1);
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(
            Topology::builder().build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        b.add_link(a, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(a));
    }

    #[test]
    fn duplicate_link_rejected_either_direction() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("b", Region::Europe);
        b.add_link(a, c);
        b.add_link(c, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::DuplicateLink(a, c));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        b.add_link(a, NodeId::new(9));
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::UnknownNode(NodeId::new(9))
        );
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = Topology::builder();
        let _a = b.add_node("a", Region::Europe);
        let _c = b.add_node("b", Region::Europe);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::Disconnected {
                unreachable: NodeId::new(1)
            }
        );
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = Topology::builder();
        let n0 = b.add_node("0", Region::Europe);
        let n1 = b.add_node("1", Region::Europe);
        let n2 = b.add_node("2", Region::Europe);
        b.add_link(n0, n2);
        b.add_link(n0, n1);
        let topo = b.build().unwrap();
        assert_eq!(topo.neighbors(n0), &[n1, n2]);
    }

    #[test]
    fn nodes_in_region_filters() {
        let mut b = Topology::builder();
        let e = b.add_node("e", Region::Europe);
        let w = b.add_node("w", Region::WesternNorthAmerica);
        b.add_link(e, w);
        let topo = b.build().unwrap();
        assert_eq!(topo.nodes_in_region(Region::Europe), vec![e]);
        assert_eq!(topo.nodes_in_region(Region::PacificAustralia), vec![]);
    }

    #[test]
    fn region_labels_and_indices_consistent() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.label().is_empty());
        }
        assert_eq!(Region::Europe.to_string(), "Europe");
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<TopologyError> = vec![
            TopologyError::Empty,
            TopologyError::SelfLoop(NodeId::new(1)),
            TopologyError::UnknownNode(NodeId::new(2)),
            TopologyError::DuplicateLink(NodeId::new(0), NodeId::new(1)),
            TopologyError::Disconnected {
                unreachable: NodeId::new(3),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
