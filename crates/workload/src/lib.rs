//! Synthetic workload generators for the RaDaR evaluation (paper §6.1).
//!
//! The paper drives its simulation with four object-popularity models,
//! all reproduced here behind the [`Workload`] trait:
//!
//! * [`ZipfReeds`] — Zipf's law via Jim Reeds' closed-form approximation
//!   (`⌊e^{u·ln n}⌉`), "within 15% of the actual Zipf's law";
//! * [`HotSites`] — 10% of *sites* are hot and draw 90% of requests,
//!   modeling whole Web sites varying in popularity (requests address the
//!   objects initially assigned to those sites);
//! * [`HotPages`] — 10% of *pages* are hot and draw 90% of requests;
//! * [`Regional`] — each of the four backbone regions prefers its own
//!   contiguous 1% slice of the object space with probability 90%.
//!
//! Plus what the evaluation harness needs beside them: [`Uniform`],
//! [`Weighted`] (an explicit popularity table, e.g. measured from an
//! access log), and [`DemandShift`] (switch workloads at a point in
//! simulated time, for responsiveness experiments).
//!
//! [`by_name`] builds any of the four, or [`Uniform`], from the name the
//! CLI and the experiments use, with its structure drawn from the run's
//! seed.
//!
//! [`ArrivalProcess`] models when requests enter a gateway: the paper
//! uses constant-rate arrivals ("each backbone node generates client
//! requests at a constant rate"), which is all a scenario uses; no
//! scenario selects its Poisson variant.
//!
//! # Examples
//!
//! ```
//! use radar_simcore::SimRng;
//! use radar_simnet::NodeId;
//! use radar_workload::{Workload, ZipfReeds};
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut zipf = ZipfReeds::new(10_000);
//! let object = zipf.choose(0.0, NodeId::new(3), &mut rng);
//! assert!(object.index() < 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod arrival;
mod popularity;
mod weighted;

pub use arrival::ArrivalProcess;
pub use popularity::{DemandShift, HotPages, HotSites, Regional, Uniform, ZipfReeds};
pub use weighted::{Weighted, WeightedError};

use radar_core::ObjectId;
use radar_simcore::SimRng;
use radar_simnet::{NodeId, Topology};

/// A source of object-popularity decisions: given the current time and
/// the gateway a request enters through, pick the requested object.
///
/// Implementations must be deterministic functions of `(now, gateway)`
/// and the bits drawn from `rng`, so experiments replay exactly from a
/// seed.
pub trait Workload {
    /// Chooses the object requested by a client entering at `gateway` at
    /// simulation time `now` (seconds).
    fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId;

    /// A short human-readable name for reports ("zipf", "hot-sites", …).
    fn name(&self) -> &str;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        (**self).choose(now, gateway, rng)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The generator a paper workload draws its structure from (which sites
/// or pages are hot): a stream of its own per run seed, so the structure
/// is identical across the policy and placement variants of one seed.
fn structure_rng(seed: u64) -> SimRng {
    SimRng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15)
}

/// The paper's hot-sites workload for run seed `seed`: 10% of the
/// `nodes` sites, drawn from the seed's structure stream, draw 90% of
/// requests.
pub fn hot_sites(objects: u32, nodes: u16, seed: u64) -> HotSites {
    HotSites::new(objects, nodes, 0.1, 0.9, &mut structure_rng(seed))
}

/// Builds a workload by name — `zipf`, `hot-sites`, `hot-pages`,
/// `regional` or `uniform` — over `objects` objects on `topology`, in
/// the paper's configuration for run seed `seed`.
///
/// # Errors
///
/// Returns a message naming an unknown workload, or a catalogue or
/// topology smaller than the workload's constructor accepts. Messages
/// are phrased for the `--workload` flag, where names come from.
pub fn by_name(
    name: &str,
    objects: u32,
    topology: &Topology,
    seed: u64,
) -> Result<Box<dyn Workload + Send>, String> {
    let at_least = |min: usize, count: usize, what: &str| match count >= min {
        true => Ok(()),
        false => Err(format!(
            "--workload {name} needs at least {min} {what}, got {count}"
        )),
    };
    match name {
        "zipf" => Ok(Box::new(ZipfReeds::new(objects))),
        "hot-sites" => at_least(2, topology.len(), "topology nodes")
            .map(|()| Box::new(hot_sites(objects, topology.len() as u16, seed)) as _),
        "hot-pages" => at_least(2, objects as usize, "objects")
            .map(|()| Box::new(HotPages::new(objects, 0.1, 0.9, &mut structure_rng(seed))) as _),
        "regional" => at_least(4, objects as usize, "objects")
            .map(|()| Box::new(Regional::new(objects, topology, 0.01, 0.9)) as _),
        "uniform" => Ok(Box::new(Uniform::new(objects))),
        _ => Err(format!(
            "unknown workload {name:?} (zipf, hot-sites, hot-pages, regional, uniform)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::{builders, Region};

    #[test]
    fn every_name_builds_the_workload_it_names() {
        let topology = builders::uunet();
        for name in ["zipf", "hot-sites", "hot-pages", "regional", "uniform"] {
            let workload = by_name(name, 500, &topology, 3).unwrap();
            assert_eq!(workload.name(), name);
        }
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_known_ones() {
        let err = by_name("martian", 500, &builders::uunet(), 3)
            .err()
            .unwrap();
        assert_eq!(
            err,
            "unknown workload \"martian\" (zipf, hot-sites, hot-pages, regional, uniform)"
        );
    }

    #[test]
    fn too_small_inputs_are_errors_not_panics() {
        let uunet = builders::uunet();
        let mut one_node = Topology::builder();
        one_node.add_node("a", Region::Europe);
        let one_node = one_node.build().unwrap();
        for (name, objects, topology, wanted) in [
            (
                "hot-pages",
                1,
                &uunet,
                "--workload hot-pages needs at least 2 objects, got 1",
            ),
            (
                "hot-sites",
                100,
                &one_node,
                "--workload hot-sites needs at least 2 topology nodes, got 1",
            ),
            (
                "regional",
                3,
                &uunet,
                "--workload regional needs at least 4 objects, got 3",
            ),
        ] {
            let err = by_name(name, objects, topology, 1).err().unwrap();
            assert_eq!(err, wanted);
        }
        // The smallest accepted sizes build.
        assert!(by_name("hot-pages", 2, &uunet, 1).is_ok());
        assert!(by_name("regional", 4, &uunet, 1).is_ok());
    }

    #[test]
    fn hot_sites_structure_follows_the_seed() {
        let a = hot_sites(1_000, 53, 7);
        assert_eq!(a.hot_objects(), hot_sites(1_000, 53, 7).hot_objects());
        assert_ne!(a.hot_objects(), hot_sites(1_000, 53, 8).hot_objects());
    }
}
