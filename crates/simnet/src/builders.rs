//! Ready-made topology constructors.
//!
//! [`uunet`] is the evaluation testbed: a 53-node, four-region stand-in
//! for the 1998 UUNET commercial backbone the paper simulated. The
//! original map (`www.uu.net`, paper reference 34) is no longer published, so
//! we reconstruct a topology with the same node count, the paper's
//! regional partition (Western NA / Eastern NA / Europe / Pacific &
//! Australia), ring-plus-chord regional meshes, and a small number of
//! transoceanic trunk links — the structure UUNET's published maps of the
//! era showed. The protocol consumes only hop distances and shortest
//! paths, so any graph with this shape exercises identical code paths
//! (see DESIGN.md §2).
//!
//! The remaining builders are small parametric graphs used by tests,
//! examples, and property suites.

use crate::{NodeId, Region, Topology};

/// Builds the 53-node UUNET-like evaluation backbone.
///
/// Region sizes: Western North America 16, Eastern North America 17,
/// Europe 12, Pacific/Australia 8. Each region is a ring with chords to
/// two regional hubs; regions connect via trunk links (6 transcontinental
/// US, 5 transatlantic, 5 transpacific). Europe and the Pacific
/// interconnect only through North America, as UUNET's 1998 backbone
/// did. The mesh density approximates the published maps of the era —
/// density matters, because the protocol's placement candidates are the
/// nodes that concentrate preference paths (see DESIGN.md §2).
///
/// # Examples
///
/// ```
/// use radar_simnet::{builders, Region};
/// let topo = builders::uunet();
/// assert_eq!(topo.len(), 53);
/// assert_eq!(topo.nodes_in_region(Region::EasternNorthAmerica).len(), 17);
/// assert!(topo.routes().diameter() <= 12);
/// ```
pub fn uunet() -> Topology {
    let mut b = Topology::builder();

    use Region::*;
    let western = [
        "Seattle",
        "Portland",
        "San Francisco",
        "San Jose",
        "Sacramento",
        "Los Angeles",
        "San Diego",
        "Las Vegas",
        "Phoenix",
        "Tucson",
        "Salt Lake City",
        "Denver",
        "Albuquerque",
        "Boise",
        "Vancouver",
        "Calgary",
    ];
    let eastern = [
        "New York",
        "Newark",
        "Boston",
        "Philadelphia",
        "Washington DC",
        "Baltimore",
        "Atlanta",
        "Miami",
        "Orlando",
        "Charlotte",
        "Pittsburgh",
        "Cleveland",
        "Detroit",
        "Chicago",
        "St. Louis",
        "Toronto",
        "Montreal",
    ];
    let europe = [
        "London",
        "Amsterdam",
        "Paris",
        "Frankfurt",
        "Brussels",
        "Stockholm",
        "Copenhagen",
        "Zurich",
        "Milan",
        "Madrid",
        "Dublin",
        "Vienna",
    ];
    let pacific = [
        "Tokyo",
        "Osaka",
        "Seoul",
        "Hong Kong",
        "Taipei",
        "Singapore",
        "Sydney",
        "Melbourne",
    ];

    let w: Vec<NodeId> = western
        .iter()
        .map(|&n| b.add_node(n, WesternNorthAmerica))
        .collect();
    let e: Vec<NodeId> = eastern
        .iter()
        .map(|&n| b.add_node(n, EasternNorthAmerica))
        .collect();
    let eu: Vec<NodeId> = europe.iter().map(|&n| b.add_node(n, Europe)).collect();
    let p: Vec<NodeId> = pacific
        .iter()
        .map(|&n| b.add_node(n, PacificAustralia))
        .collect();

    // Each region: a ring plus chords to two regional hubs (the region's
    // first node and its midpoint node). The doubled hub structure gives
    // preference paths the fan-out the real 1998 backbone had; with a
    // single hub per region, placement candidate sets (the paper's
    // `> REPL_RATIO` path-share rule) collapse to one or two nodes and
    // replication spreads measurably less than the paper reports.
    for region in [&w, &e, &eu, &p] {
        let n = region.len();
        for i in 0..n {
            b.add_link(region[i], region[(i + 1) % n]);
        }
        let h2 = n / 2;
        for i in (2..n - 1).step_by(3) {
            b.add_link(region[0], region[i]);
        }
        for i in (1..n).step_by(3) {
            if i != h2 && i != h2 + 1 && i != (h2 + n - 1) % n {
                b.add_link(region[h2], region[i]);
            }
        }
    }

    // Transcontinental US trunks.
    b.add_link(w[2], e[0]); // San Francisco — New York
    b.add_link(w[11], e[13]); // Denver — Chicago
    b.add_link(w[5], e[6]); // Los Angeles — Atlanta
    b.add_link(w[0], e[12]); // Seattle — Detroit
    b.add_link(w[10], e[14]); // Salt Lake City — St. Louis
    b.add_link(w[8], e[7]); // Phoenix — Miami
                            // Transatlantic trunks.
    b.add_link(e[0], eu[0]); // New York — London
    b.add_link(e[4], eu[2]); // Washington DC — Paris
    b.add_link(e[2], eu[10]); // Boston — Dublin
    b.add_link(e[1], eu[1]); // Newark — Amsterdam
    b.add_link(e[16], eu[5]); // Montreal — Stockholm
                              // Transpacific trunks.
    b.add_link(w[2], p[0]); // San Francisco — Tokyo
    b.add_link(w[0], p[2]); // Seattle — Seoul
    b.add_link(w[5], p[6]); // Los Angeles — Sydney
    b.add_link(w[1], p[1]); // Portland — Osaka
    b.add_link(w[6], p[3]); // San Diego — Hong Kong

    b.build().expect("uunet topology is valid by construction")
}

/// A path graph `0 — 1 — … — (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: u16) -> Topology {
    let mut b = Topology::builder();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(format!("line-{i}"), Region::EasternNorthAmerica))
        .collect();
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1]);
    }
    b.build().expect("line topology is valid for n >= 1")
}

/// A cycle graph of `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: u16) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes, got {n}");
    let mut b = Topology::builder();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(format!("ring-{i}"), Region::EasternNorthAmerica))
        .collect();
    for i in 0..nodes.len() {
        b.add_link(nodes[i], nodes[(i + 1) % nodes.len()]);
    }
    b.build().expect("ring topology is valid for n >= 3")
}

/// A star: node 0 is the hub, nodes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: u16) -> Topology {
    assert!(n >= 2, "a star needs at least 2 nodes, got {n}");
    let mut b = Topology::builder();
    let hub = b.add_node("hub", Region::EasternNorthAmerica);
    for i in 1..n {
        let leaf = b.add_node(format!("leaf-{i}"), Region::EasternNorthAmerica);
        b.add_link(hub, leaf);
    }
    b.build().expect("star topology is valid for n >= 2")
}

/// A `w × h` grid with 4-neighbor links; nodes indexed row-major.
///
/// # Panics
///
/// Panics if `w == 0` or `h == 0`.
pub fn grid(w: u16, h: u16) -> Topology {
    assert!(
        w > 0 && h > 0,
        "grid dimensions must be positive, got {w}x{h}"
    );
    let mut b = Topology::builder();
    let mut ids = Vec::with_capacity((w as usize) * (h as usize));
    for y in 0..h {
        for x in 0..w {
            ids.push(b.add_node(format!("g{x},{y}"), Region::EasternNorthAmerica));
        }
    }
    let at = |x: u16, y: u16| ids[(y as usize) * (w as usize) + x as usize];
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_link(at(x, y), at(x + 1, y));
            }
            if y + 1 < h {
                b.add_link(at(x, y), at(x, y + 1));
            }
        }
    }
    b.build().expect("grid topology is valid for positive dims")
}

/// The paper's §3 motivating scenario: two hosts, "one in America and the
/// other in Europe", joined by a single transatlantic link. Node 0 is the
/// American host, node 1 the European one.
pub fn two_continents() -> Topology {
    let mut b = Topology::builder();
    let us = b.add_node("America", Region::EasternNorthAmerica);
    let eu = b.add_node("Europe", Region::Europe);
    b.add_link(us, eu);
    b.build().expect("two-node topology is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunet_has_53_nodes_with_paper_region_split() {
        let t = uunet();
        assert_eq!(t.len(), 53);
        assert_eq!(t.nodes_in_region(Region::WesternNorthAmerica).len(), 16);
        assert_eq!(t.nodes_in_region(Region::EasternNorthAmerica).len(), 17);
        assert_eq!(t.nodes_in_region(Region::Europe).len(), 12);
        assert_eq!(t.nodes_in_region(Region::PacificAustralia).len(), 8);
    }

    #[test]
    fn uunet_is_connected_with_realistic_diameter() {
        let t = uunet();
        let r = t.routes();
        // 1998 backbone scale: a handful of hops coast-to-coast, more
        // for Europe <-> Pacific (which transits North America).
        assert!(r.diameter() >= 5, "diameter {} too small", r.diameter());
        assert!(r.diameter() <= 12, "diameter {} too large", r.diameter());
    }

    #[test]
    fn uunet_europe_to_pacific_transits_north_america() {
        let t = uunet();
        let r = t.routes();
        let london = t
            .nodes()
            .find(|&n| t.name(n) == "London")
            .expect("London exists");
        let tokyo = t
            .nodes()
            .find(|&n| t.name(n) == "Tokyo")
            .expect("Tokyo exists");
        let path = r.path(london, tokyo);
        assert!(path.iter().any(|&n| matches!(
            t.region(n),
            Region::EasternNorthAmerica | Region::WesternNorthAmerica
        )));
    }

    #[test]
    fn uunet_node_names_unique() {
        let t = uunet();
        let mut names: Vec<&str> = t.nodes().map(|n| t.name(n)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 53);
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let t = grid(4, 3);
        let r = t.routes();
        assert_eq!(t.len(), 12);
        // (0,0) to (3,2): 3 + 2 hops.
        assert_eq!(r.distance(NodeId::new(0), NodeId::new(11)), 5);
    }

    #[test]
    fn two_continents_shape() {
        let t = two_continents();
        assert_eq!(t.len(), 2);
        assert_eq!(t.routes().distance(NodeId::new(0), NodeId::new(1)), 1);
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_ring_rejected() {
        let _ = ring(2);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_star_rejected() {
        let _ = star(1);
    }
}
