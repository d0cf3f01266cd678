//! Property test: after any sequence of link-down/link-up events, the
//! [`RoutingView`] answers every routing question as a plain
//! breadth-first search over its live links does.
//!
//! The oracle ([`live_hops`]) is written here, independent of
//! `RoutingTable`'s builder: for every pair it gives the hop count over
//! the links `link_is_up` reports, or `None` across a partition. The view
//! must agree on reachability and component labels, on distance, and on
//! paths (a chain of live links of `distance + 1` nodes from source to
//! destination, empty when unreachable). The view's table must also
//! equal `RoutingTable::for_topology_masked` over the same links, so a
//! rebuild after a link change lands on the table a fresh build gives,
//! centroid and diameter included.
//!
//! Sequences are drawn from a seeded [`SimRng`] stream, so every case is
//! deterministic and a failing seed reproduces exactly.

use std::collections::VecDeque;

use radar_simcore::SimRng;
use radar_simnet::{builders, NodeId, RoutingTable, RoutingView, Topology};

/// Hop counts from `from` to every node over the view's live links,
/// by node index (`None` when unreachable).
fn live_hops(view: &RoutingView, from: NodeId) -> Vec<Option<u32>> {
    let topo = view.topology();
    let mut hops = vec![None; topo.len()];
    hops[from.index()] = Some(0);
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for &v in topo.neighbors(u) {
            if hops[v.index()].is_none() && view.link_is_up(u, v) {
                hops[v.index()] = hops[u.index()].map(|h| h + 1);
                queue.push_back(v);
            }
        }
    }
    hops
}

/// Asserts the view against the BFS oracle and against a from-scratch
/// masked rebuild over the view's current link state.
fn assert_matches_scratch(view: &RoutingView, context: &str) {
    let scratch = RoutingTable::for_topology_masked(view.topology(), &|a, b| view.link_is_up(a, b));
    assert_eq!(
        *view.table(),
        scratch,
        "view table diverged from scratch rebuild ({context})"
    );
    let table = view.table();
    let mut diameter = 0;
    for from in view.topology().nodes() {
        let hops = live_hops(view, from);
        for to in view.topology().nodes() {
            let expect = hops[to.index()];
            let pair = format!("{from}->{to} ({context})");
            assert_eq!(view.reachable(from, to), expect.is_some(), "reach {pair}");
            assert_eq!(
                table.component(from) == table.component(to),
                expect.is_some(),
                "labels {pair}"
            );
            assert_eq!(
                view.distance(from, to),
                expect.unwrap_or(RoutingTable::UNREACHABLE),
                "distance {pair}"
            );
            let path = view.path(from, to);
            match expect {
                None => assert!(path.is_empty(), "path {pair}"),
                Some(h) => {
                    diameter = diameter.max(h);
                    assert_eq!(path.len() as u32, h + 1, "path length {pair}");
                    assert_eq!((path[0], path[path.len() - 1]), (from, to), "ends {pair}");
                    assert!(
                        path.windows(2)
                            .all(|w| view.link_id(w[0], w[1]).is_some()
                                && view.link_is_up(w[0], w[1])),
                        "path {path:?} not a chain of live links {pair}"
                    );
                }
            }
        }
    }
    assert_eq!(table.diameter(), diameter, "{context}");
}

/// Drives `steps` random link flips over `topo`, checking equivalence
/// after every step. Each step picks a random link and a random
/// direction (down, up, or redundant re-assertion of the current state —
/// redundant transitions must be no-ops).
fn run_random_sequence(topo: Topology, seed: u64, steps: usize) {
    let links: Vec<(NodeId, NodeId)> = topo.links().to_vec();
    let mut rng = SimRng::seed_from(seed);
    let mut view = RoutingView::new(topo);
    for step in 0..steps {
        let (a, b) = links[rng.index(links.len())];
        let up = rng.chance(0.5);
        let was_up = view.link_is_up(a, b);
        let changed = view.set_link(a, b, up);
        assert_eq!(
            changed,
            was_up != up,
            "change report (seed {seed} step {step})"
        );
        assert_matches_scratch(&view, &format!("seed {seed} step {step} {a}-{b} up={up}"));
    }
}

#[test]
fn incremental_equals_scratch_on_uunet() {
    // The 53-node testbed the simulations run on: long random walks
    // through partial partitions and heals.
    for seed in 0..4u64 {
        run_random_sequence(builders::uunet(), 0xA11CE + seed, 40);
    }
}

#[test]
fn incremental_equals_scratch_on_small_shapes() {
    // Rings and lines hit the degenerate cases: single alternate route,
    // stranded tails, fully-severed segments.
    for seed in 0..8u64 {
        run_random_sequence(builders::ring(6), 0xB0B + seed, 30);
        run_random_sequence(builders::line(5), 0xCAFE + seed, 30);
        run_random_sequence(builders::star(7), 0xD00D + seed, 30);
    }
}

#[test]
fn total_partition_and_full_heal_round_trip() {
    // Down every link (total blackout), then heal every link: the view
    // must land exactly back on the all-up table.
    let topo = builders::uunet();
    let pristine = RoutingView::new(topo.clone());
    let mut view = RoutingView::new(topo.clone());
    let links: Vec<(NodeId, NodeId)> = topo.links().to_vec();
    for &(a, b) in &links {
        view.set_link(a, b, false);
    }
    assert_matches_scratch(&view, "total blackout");
    for from in topo.nodes() {
        for to in topo.nodes() {
            assert_eq!(view.reachable(from, to), from == to);
        }
    }
    for &(a, b) in &links {
        view.set_link(a, b, true);
    }
    assert_matches_scratch(&view, "full heal");
    assert_eq!(*view.table(), *pristine.table());
}
