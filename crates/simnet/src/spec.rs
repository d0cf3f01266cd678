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
//! # comment lines and blank lines are ignored
//! node <name> <region>     # region ∈ {wna, ena, eu, pac}
//! link <name-a> <name-b>
//! ```
//!
//! Nodes must be declared before links that use them. Node ids are
//! assigned in declaration order.

use std::collections::HashMap;
use std::fmt;

use crate::{NodeId, Region, Topology, TopologyError};

/// Errors from parsing a topology spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line did not match `node <name> <region>` or `link <a> <b>`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An unknown region keyword.
    UnknownRegion {
        /// 1-based line number.
        line: usize,
        /// The offending keyword.
        region: String,
    },
    /// A link referenced an undeclared node name.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The undeclared name.
        name: String,
    },
    /// A node name was declared twice.
    DuplicateNode {
        /// 1-based line number.
        line: usize,
        /// The duplicated name.
        name: String,
    },
    /// A node declared after the 65 536th, which no 16-bit node id can
    /// name.
    TooManyNodes {
        /// 1-based line number.
        line: usize,
    },
    /// The assembled graph failed topology validation.
    Topology(TopologyError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed { line, content } => {
                write!(f, "line {line}: malformed entry {content:?}")
            }
            SpecError::UnknownRegion { line, region } => {
                write!(
                    f,
                    "line {line}: unknown region {region:?} (use wna/ena/eu/pac)"
                )
            }
            SpecError::UnknownNode { line, name } => {
                write!(f, "line {line}: link references undeclared node {name:?}")
            }
            SpecError::DuplicateNode { line, name } => {
                write!(f, "line {line}: node {name:?} declared twice")
            }
            SpecError::TooManyNodes { line } => {
                write!(
                    f,
                    "line {line}: more than 65536 nodes (node ids are 16-bit)"
                )
            }
            SpecError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Topology(e) => Some(e),
            _ => None,
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
    /// Returns [`SpecError`] on malformed lines, unknown names/regions,
    /// duplicates, more than 65 536 nodes, or an invalid graph
    /// (disconnected, self-loops, …).
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
        let mut ids: HashMap<String, NodeId> = HashMap::new();
        for (i, raw) in spec.lines().enumerate() {
            let line = i + 1;
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let words: Vec<&str> = text.split_whitespace().collect();
            match words.as_slice() {
                ["node", name, region] => {
                    let region = parse_region(region).ok_or_else(|| SpecError::UnknownRegion {
                        line,
                        region: region.to_string(),
                    })?;
                    if ids.contains_key(*name) {
                        return Err(SpecError::DuplicateNode {
                            line,
                            name: name.to_string(),
                        });
                    }
                    if ids.len() > usize::from(u16::MAX) {
                        return Err(SpecError::TooManyNodes { line });
                    }
                    let id = builder.add_node(*name, region);
                    ids.insert(name.to_string(), id);
                }
                ["link", a, b] => {
                    let resolve = |name: &str| {
                        ids.get(name)
                            .copied()
                            .ok_or_else(|| SpecError::UnknownNode {
                                line,
                                name: name.to_string(),
                            })
                    };
                    let (a, b) = (resolve(a)?, resolve(b)?);
                    builder.add_link(a, b);
                }
                _ => {
                    return Err(SpecError::Malformed {
                        line,
                        content: text.to_string(),
                    })
                }
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
        assert!(matches!(err, SpecError::Malformed { line: 2, .. }));
    }

    #[test]
    fn unknown_region_rejected() {
        let err = Topology::from_spec("node a mars\n").unwrap_err();
        assert!(matches!(err, SpecError::UnknownRegion { line: 1, .. }));
    }

    #[test]
    fn unknown_node_in_link_rejected() {
        let err = Topology::from_spec("node a eu\nlink a ghost\n").unwrap_err();
        assert!(matches!(err, SpecError::UnknownNode { line: 2, .. }));
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = Topology::from_spec("node a eu\nnode a eu\n").unwrap_err();
        assert!(matches!(err, SpecError::DuplicateNode { line: 2, .. }));
    }

    #[test]
    fn node_beyond_16_bit_ids_rejected() {
        let spec: String = (0..=65_536).map(|i| format!("node n{i} eu\n")).collect();
        let err = Topology::from_spec(&spec).unwrap_err();
        assert_eq!(err, SpecError::TooManyNodes { line: 65_537 });
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
