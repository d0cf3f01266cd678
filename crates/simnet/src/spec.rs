//! Topology interchange: a line-oriented text format and Graphviz
//! export.
//!
//! The paper's system extracts its view of the backbone from "routing
//! databases maintained by Internet routers". This module is the
//! repository's stand-in for that ingestion path: operators describe
//! their backbone in a plain text format and load it with
//! [`Topology::from_spec`]; [`to_spec`](Topology::to_spec) round-trips
//! it and [`to_dot`](Topology::to_dot) renders it for Graphviz.
//!
//! # Format
//!
//! ```text
//! node <name> <region>     # region ∈ {wna, ena, eu, pac}
//! link <name-a> <name-b>
//! ```
//!
//! Lines are read by [`crate::text::lines`] (comments, blank lines and
//! line numbers as `docs/simulation-manual.md`, "Text inputs", states).
//! Nodes must be declared before links that use them. Node ids are
//! assigned in declaration order.

use std::collections::HashMap;
use std::fmt;

use crate::text::{self, LineError};
use crate::{NodeId, Region, Topology, TopologyError};

/// What is wrong with a line of a topology spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The line is not `node <name> <region>` or `link <a> <b>`; holds
    /// it without its comment.
    Malformed(String),
    /// An unknown region keyword.
    UnknownRegion(String),
    /// A link names a node that no earlier line declares.
    UnknownNode(String),
    /// A node name declared a second time.
    DuplicateNode(String),
    /// A node declared after the 65 536th, which no 16-bit node id can
    /// name.
    TooManyNodes,
    /// A link joins the named node to itself.
    SelfLoop(String),
    /// A link joins the two nodes the link on this earlier line joins.
    DuplicateLink(usize),
}

impl fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecErrorKind::Malformed(content) => write!(f, "malformed entry {content:?}"),
            SpecErrorKind::UnknownRegion(region) => {
                write!(f, "unknown region {region:?} (use wna/ena/eu/pac)")
            }
            SpecErrorKind::UnknownNode(name) => {
                write!(f, "link references undeclared node {name:?}")
            }
            SpecErrorKind::DuplicateNode(name) => write!(f, "node {name:?} declared twice"),
            SpecErrorKind::TooManyNodes => {
                f.write_str("more than 65536 nodes (node ids are 16-bit)")
            }
            SpecErrorKind::SelfLoop(name) => write!(f, "self-loop on node {name:?}"),
            SpecErrorKind::DuplicateLink(first) => {
                write!(f, "duplicate of the link on line {first}")
            }
        }
    }
}

/// Errors from parsing a topology spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line is wrong on its own or against the lines before it.
    Line(LineError<SpecErrorKind>),
    /// The whole graph is invalid: it has no nodes or is disconnected.
    Topology(TopologyError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Line(e) => e.fmt(f),
            SpecError::Topology(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Topology(e) => Some(e),
            SpecError::Line(_) => None,
        }
    }
}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Topology(e)
    }
}

fn region_keyword(region: Region) -> &'static str {
    match region {
        Region::WesternNorthAmerica => "wna",
        Region::EasternNorthAmerica => "ena",
        Region::Europe => "eu",
        Region::PacificAustralia => "pac",
    }
}

fn parse_region(word: &str) -> Option<Region> {
    match word {
        "wna" => Some(Region::WesternNorthAmerica),
        "ena" => Some(Region::EasternNorthAmerica),
        "eu" => Some(Region::Europe),
        "pac" => Some(Region::PacificAustralia),
        _ => None,
    }
}

impl Topology {
    /// Parses a topology from the spec format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the line of a malformed entry, an
    /// unknown name or region, a duplicate node or link, a self-loop or
    /// the 65 537th node, or, for the whole file, a graph that is empty
    /// or disconnected.
    ///
    /// # Examples
    ///
    /// ```
    /// use radar_simnet::Topology;
    /// let topo = Topology::from_spec(
    ///     "node a eu\n\
    ///      node b eu\n\
    ///      link a b\n",
    /// )?;
    /// assert_eq!(topo.len(), 2);
    /// # Ok::<(), radar_simnet::SpecError>(())
    /// ```
    pub fn from_spec(spec: &str) -> Result<Topology, SpecError> {
        let mut builder = Topology::builder();
        let mut ids: HashMap<&str, NodeId> = HashMap::new();
        // Each link, lower id first, with the line that declared it.
        let mut links: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for entry in text::lines(spec) {
            let fail = |kind| Err(SpecError::Line(entry.error(kind)));
            match entry.words().collect::<Vec<_>>().as_slice() {
                ["node", name, region] => {
                    let Some(region) = parse_region(region) else {
                        return fail(SpecErrorKind::UnknownRegion(region.to_string()));
                    };
                    if ids.contains_key(name) {
                        return fail(SpecErrorKind::DuplicateNode(name.to_string()));
                    }
                    if ids.len() > usize::from(u16::MAX) {
                        return fail(SpecErrorKind::TooManyNodes);
                    }
                    ids.insert(*name, builder.add_node(*name, region));
                }
                ["link", a, b] => {
                    let (Some(&x), Some(&y)) = (ids.get(a), ids.get(b)) else {
                        let unknown = if ids.contains_key(a) { b } else { a };
                        return fail(SpecErrorKind::UnknownNode(unknown.to_string()));
                    };
                    if x == y {
                        return fail(SpecErrorKind::SelfLoop(a.to_string()));
                    }
                    if let Some(first) = links.insert((x.min(y), x.max(y)), entry.number) {
                        return fail(SpecErrorKind::DuplicateLink(first));
                    }
                    builder.add_link(x, y);
                }
                _ => return fail(SpecErrorKind::Malformed(entry.content.to_string())),
            }
        }
        Ok(builder.build()?)
    }

    /// Serializes this topology to the spec format; feeding the output
    /// back to [`from_spec`](Topology::from_spec) reproduces the
    /// topology (same ids, names, regions, links).
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for node in self.nodes() {
            out.push_str(&format!(
                "node {} {}\n",
                self.name(node).replace(' ', "_"),
                region_keyword(self.region(node))
            ));
        }
        for &(a, b) in self.links() {
            out.push_str(&format!(
                "link {} {}\n",
                self.name(a).replace(' ', "_"),
                self.name(b).replace(' ', "_")
            ));
        }
        out
    }

    /// Renders the topology as a Graphviz `graph`, one cluster per
    /// region — handy for eyeballing generated backbones
    /// (`dot -Tsvg`).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph backbone {\n  node [shape=ellipse];\n");
        for (i, region) in Region::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  subgraph cluster_{i} {{\n    label=\"{}\";\n",
                region.label()
            ));
            for node in self.nodes_in_region(*region) {
                out.push_str(&format!(
                    "    n{} [label=\"{}\"];\n",
                    node.index(),
                    self.name(node)
                ));
            }
            out.push_str("  }\n");
        }
        for &(a, b) in self.links() {
            out.push_str(&format!("  n{} -- n{};\n", a.index(), b.index()));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn parse_simple_spec() {
        let topo = Topology::from_spec(
            "# backbone\n\
             node seattle wna\n\
             node boston ena   # east coast\n\
             node london eu\n\
             \n\
             link seattle boston\n\
             link boston london\n",
        )
        .unwrap();
        assert_eq!(topo.len(), 3);
        assert_eq!(topo.name(NodeId::new(0)), "seattle");
        assert_eq!(topo.region(NodeId::new(2)), Region::Europe);
        assert_eq!(topo.links().len(), 2);
    }

    #[test]
    fn uunet_round_trips_through_spec() {
        let original = builders::uunet();
        let reparsed = Topology::from_spec(&original.to_spec()).unwrap();
        assert_eq!(reparsed.len(), original.len());
        for node in original.nodes() {
            assert_eq!(reparsed.region(node), original.region(node));
            assert_eq!(reparsed.neighbors(node), original.neighbors(node));
        }
        // Routing derived from the reparsed topology is identical.
        let (r1, r2) = (original.routes(), reparsed.routes());
        for a in original.nodes() {
            for b in original.nodes() {
                assert_eq!(r1.distance(a, b), r2.distance(a, b));
            }
        }
    }

    #[test]
    fn malformed_line_rejected() {
        let err = Topology::from_spec("node a eu\nbogus line here\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: malformed entry \"bogus line here\""
        );
    }

    #[test]
    fn unknown_region_rejected() {
        let err = Topology::from_spec("node a mars\n").unwrap_err();
        assert!(err
            .to_string()
            .starts_with("line 1: unknown region \"mars\""));
    }

    #[test]
    fn unknown_node_in_link_rejected() {
        let err = Topology::from_spec("node a eu\nlink a ghost\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: link references undeclared node \"ghost\""
        );
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = Topology::from_spec("node a eu\nnode a eu\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: node \"a\" declared twice");
        let spec = "node a eu\nnode b eu\nlink a b\n# again\nlink b a\n";
        let err = Topology::from_spec(spec).unwrap_err();
        let kind = SpecErrorKind::DuplicateLink(3);
        assert_eq!(err, SpecError::Line(LineError { line: 5, kind }));
        assert_eq!(err.to_string(), "line 5: duplicate of the link on line 3");
        let err = Topology::from_spec("node a eu\nlink a a\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: self-loop on node \"a\"");
    }

    #[test]
    fn node_beyond_16_bit_ids_rejected() {
        let spec: String = (0..=65_536).map(|i| format!("node n{i} eu\n")).collect();
        let err = Topology::from_spec(&spec).unwrap_err();
        let kind = SpecErrorKind::TooManyNodes;
        assert_eq!(err, SpecError::Line(LineError { line: 65_537, kind }));
        assert!(err.to_string().starts_with("line 65537: "), "{err}");
    }

    #[test]
    fn disconnected_spec_rejected() {
        let err = Topology::from_spec("node a eu\nnode b eu\n").unwrap_err();
        assert!(matches!(
            err,
            SpecError::Topology(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let topo = builders::two_continents();
        let dot = topo.to_dot();
        assert!(dot.starts_with("graph backbone {"));
        assert!(dot.contains("n0 [label=\"America\"]"));
        assert!(dot.contains("n0 -- n1;"));
        assert!(dot.contains("cluster_"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            Topology::from_spec("x\n").unwrap_err(),
            Topology::from_spec("node a mars\n").unwrap_err(),
            Topology::from_spec("node a eu\nlink a z\n").unwrap_err(),
            Topology::from_spec("node a eu\nnode a eu\n").unwrap_err(),
            Topology::from_spec("node a eu\nnode b eu\n").unwrap_err(),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
