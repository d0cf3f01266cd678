//! Property test: after any sequence of link-down/link-up events, the
//! [`RoutingView`] equals a from-scratch masked table over the same
//! surviving links.
//!
//! `set_link` rebuilds the view on every transition, so the check here
//! is strict equality of distances, next-hop-derived paths,
//! reachability, and the centroid/diameter metadata, against
//! `RoutingTable::for_topology_masked` built independently from the
//! view's link state.
//!
//! Sequences are drawn from a seeded [`SimRng`] stream, so every case is
//! deterministic and a failing seed reproduces exactly.

use radar_simcore::SimRng;
use radar_simnet::{builders, NodeId, RoutingTable, RoutingView, Topology};

/// Asserts full equivalence between the view and a from-scratch masked
/// rebuild over the view's current link state.
fn assert_matches_scratch(view: &RoutingView, context: &str) {
    let scratch = RoutingTable::for_topology_masked(view.topology(), &|a, b| view.link_is_up(a, b));
    assert_eq!(
        *view.table(),
        scratch,
        "view table diverged from scratch rebuild ({context})"
    );
    assert_eq!(view.table().centroid(), scratch.centroid(), "{context}");
    assert_eq!(view.table().diameter(), scratch.diameter(), "{context}");
    for from in view.topology().nodes() {
        for to in view.topology().nodes() {
            assert_eq!(
                view.reachable(from, to),
                scratch.reachable(from, to),
                "reachability {from}->{to} ({context})"
            );
            let expect = scratch.try_path(from, to).unwrap_or_default();
            assert_eq!(
                view.path(from, to),
                expect.as_slice(),
                "path {from}->{to} ({context})"
            );
        }
    }
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
