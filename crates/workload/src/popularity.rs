//! Object-popularity models (paper §6.1).

use radar_core::ObjectId;
use radar_simcore::SimRng;
use radar_simnet::{NodeId, Region, Topology};

use crate::Workload;

/// Zipf-distributed popularity via Jim Reeds' closed-form approximation
/// (paper §6.1, footnote 3): the requested page number is
/// `round(e^{u(0,1)·ln n})`, clamped to `[1, n]`, where page 1 is the
/// most popular. The paper reports this matches Zipf within 15%.
///
/// Object ids are page numbers minus one, so `ObjectId::new(0)` is the
/// hottest object.
#[derive(Debug, Clone)]
pub struct ZipfReeds {
    num_objects: u32,
    ln_n: f64,
}

impl ZipfReeds {
    /// Creates a Zipf workload over `num_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if `num_objects` is zero.
    pub fn new(num_objects: u32) -> Self {
        assert!(num_objects > 0, "workload needs at least one object");
        Self {
            num_objects,
            ln_n: (num_objects as f64).ln(),
        }
    }
}

impl Workload for ZipfReeds {
    fn choose(&mut self, _now: f64, _gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        let page = (rng.unit() * self.ln_n).exp().round() as u32;
        ObjectId::new(page.clamp(1, self.num_objects) - 1)
    }

    fn name(&self) -> &str {
        "zipf"
    }
}

/// Hot-sites workload: sites (nodes) are split randomly into hot and
/// cold; a request picks a random object *initially assigned to* a hot
/// site with probability `hot_prob`, otherwise a random object of a cold
/// site. The paper uses a 10%/90% site split with `hot_prob` = 0.9,
/// concentrating demand on the objects of a few sites — the flash-crowd /
/// popular-site scenario.
#[derive(Debug, Clone)]
pub struct HotSites {
    hot_objects: Vec<ObjectId>,
    cold_objects: Vec<ObjectId>,
    hot_prob: f64,
}

impl HotSites {
    /// Builds the paper's configuration: `hot_fraction` (0.1) of the
    /// `num_nodes` sites are drawn as hot using `rng`; objects map to
    /// sites by the initial round-robin rule (`object i` on
    /// `node i mod num_nodes`); hot objects draw `hot_prob` (0.9) of
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if there are no objects, fewer than two nodes (one hot and
    /// one cold site), if `hot_fraction` is not in `(0, 1)`, or if
    /// `hot_prob` is not in `(0, 1)`.
    pub fn new(
        num_objects: u32,
        num_nodes: u16,
        hot_fraction: f64,
        hot_prob: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(num_objects > 0, "workload needs at least one object");
        assert!(num_nodes > 0, "workload needs at least one node");
        assert!(
            hot_fraction > 0.0 && hot_fraction < 1.0,
            "hot fraction must be in (0,1), got {hot_fraction}"
        );
        assert!(
            hot_prob > 0.0 && hot_prob < 1.0,
            "hot probability must be in (0,1), got {hot_prob}"
        );
        // Draw hot sites: a random subset of ceil(fraction × nodes),
        // at least 1 and at most nodes-1.
        let hot_count =
            ((num_nodes as f64 * hot_fraction).ceil() as usize).clamp(1, num_nodes as usize - 1);
        let mut site_ids: Vec<u16> = (0..num_nodes).collect();
        // Partial Fisher–Yates for the hot prefix.
        for i in 0..hot_count {
            let j = i + rng.index(site_ids.len() - i);
            site_ids.swap(i, j);
        }
        let hot_sites: std::collections::BTreeSet<u16> =
            site_ids[..hot_count].iter().copied().collect();
        let mut hot_objects = Vec::new();
        let mut cold_objects = Vec::new();
        for i in 0..num_objects {
            let site = (i % num_nodes as u32) as u16;
            if hot_sites.contains(&site) {
                hot_objects.push(ObjectId::new(i));
            } else {
                cold_objects.push(ObjectId::new(i));
            }
        }
        Self {
            hot_objects,
            cold_objects,
            hot_prob,
        }
    }

    /// The objects belonging to hot sites.
    pub fn hot_objects(&self) -> &[ObjectId] {
        &self.hot_objects
    }
}

impl Workload for HotSites {
    fn choose(&mut self, _now: f64, _gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        // Sparse object spaces can leave one bucket empty (e.g. fewer
        // objects than sites, none landing on a hot site); fall back to
        // the other bucket rather than panicking.
        let hot = (rng.chance(self.hot_prob) && !self.hot_objects.is_empty())
            || self.cold_objects.is_empty();
        if hot {
            self.hot_objects[rng.index(self.hot_objects.len())]
        } else {
            self.cold_objects[rng.index(self.cold_objects.len())]
        }
    }

    fn name(&self) -> &str {
        "hot-sites"
    }
}

/// Hot-pages workload: pages are split into hot and cold buckets in the
/// ratio 1:9; a hot page is requested with probability 0.9. Unlike
/// [`HotSites`], the hot objects are drawn uniformly over the object
/// space, so the initial round-robin placement spreads them across all
/// nodes.
#[derive(Debug, Clone)]
pub struct HotPages {
    hot: Vec<ObjectId>,
    cold: Vec<ObjectId>,
    hot_prob: f64,
}

impl HotPages {
    /// Builds the paper's configuration: `hot_fraction` (0.1) of pages
    /// drawn uniformly at random are hot and receive `hot_prob` (0.9) of
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two objects (one hot and one cold
    /// page), or if `hot_fraction` or `hot_prob` is not in `(0, 1)`.
    pub fn new(num_objects: u32, hot_fraction: f64, hot_prob: f64, rng: &mut SimRng) -> Self {
        assert!(num_objects > 0, "workload needs at least one object");
        assert!(
            hot_fraction > 0.0 && hot_fraction < 1.0,
            "hot fraction must be in (0,1), got {hot_fraction}"
        );
        assert!(
            hot_prob > 0.0 && hot_prob < 1.0,
            "hot probability must be in (0,1), got {hot_prob}"
        );
        let hot_count = ((num_objects as f64 * hot_fraction).ceil() as usize)
            .clamp(1, num_objects as usize - 1);
        let mut ids: Vec<u32> = (0..num_objects).collect();
        for i in 0..hot_count {
            let j = i + rng.index(ids.len() - i);
            ids.swap(i, j);
        }
        let hot: Vec<ObjectId> = ids[..hot_count].iter().map(|&i| ObjectId::new(i)).collect();
        let cold: Vec<ObjectId> = ids[hot_count..].iter().map(|&i| ObjectId::new(i)).collect();
        Self {
            hot,
            cold,
            hot_prob,
        }
    }

    /// The hot pages.
    pub fn hot_objects(&self) -> &[ObjectId] {
        &self.hot
    }
}

impl Workload for HotPages {
    fn choose(&mut self, _now: f64, _gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        if rng.chance(self.hot_prob) || self.cold.is_empty() {
            self.hot[rng.index(self.hot.len())]
        } else {
            self.cold[rng.index(self.cold.len())]
        }
    }

    fn name(&self) -> &str {
        "hot-pages"
    }
}

/// Regional workload: each backbone region is assigned a contiguous slice
/// of the object space (1% of all objects in the paper) as its
/// *preferred set*; a node requests a random object from its region's
/// preferred set with probability 0.9, and a uniformly random object
/// otherwise.
#[derive(Debug, Clone)]
pub struct Regional {
    num_objects: u32,
    /// Preferred (start, len) slice per region, indexed by `Region::index`.
    preferred: [(u32, u32); 4],
    /// Region of each node, indexed by node id.
    node_regions: Vec<Region>,
    preferred_prob: f64,
}

impl Regional {
    /// Builds the paper's configuration over `topology`: four contiguous
    /// slices of `slice_fraction` (0.01) of the object space, preferred
    /// with probability `preferred_prob` (0.9).
    ///
    /// # Panics
    ///
    /// Panics if `slice_fraction` is not in `(0, 0.25]`, if
    /// `preferred_prob` is not in `(0, 1)`, or if four slices of
    /// `max(1, round(num_objects × slice_fraction))` objects do not fit
    /// in `num_objects` — so always below 4 objects.
    pub fn new(
        num_objects: u32,
        topology: &Topology,
        slice_fraction: f64,
        preferred_prob: f64,
    ) -> Self {
        assert!(
            slice_fraction > 0.0 && slice_fraction <= 0.25,
            "slice fraction must be in (0, 0.25], got {slice_fraction}"
        );
        assert!(
            preferred_prob > 0.0 && preferred_prob < 1.0,
            "preferred probability must be in (0,1), got {preferred_prob}"
        );
        let slice_len = ((num_objects as f64 * slice_fraction).round() as u32).max(1);
        assert!(
            slice_len * 4 <= num_objects,
            "object space too small for four preferred slices of {slice_len}"
        );
        let preferred = [
            (0, slice_len),
            (slice_len, slice_len),
            (2 * slice_len, slice_len),
            (3 * slice_len, slice_len),
        ];
        let node_regions = topology.nodes().map(|n| topology.region(n)).collect();
        Self {
            num_objects,
            preferred,
            node_regions,
            preferred_prob,
        }
    }

    /// The preferred object slice `(start, len)` of `region`.
    pub fn preferred_slice(&self, region: Region) -> (u32, u32) {
        self.preferred[region.index()]
    }
}

impl Workload for Regional {
    fn choose(&mut self, _now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        let region = self.node_regions[gateway.index()];
        if rng.chance(self.preferred_prob) {
            let (start, len) = self.preferred[region.index()];
            ObjectId::new(start + rng.index(len as usize) as u32)
        } else {
            ObjectId::new(rng.index(self.num_objects as usize) as u32)
        }
    }

    fn name(&self) -> &str {
        "regional"
    }
}

/// Uniformly random object choice — the no-structure baseline.
#[derive(Debug, Clone)]
pub struct Uniform {
    num_objects: u32,
}

impl Uniform {
    /// Creates a uniform workload over `num_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if `num_objects` is zero.
    pub fn new(num_objects: u32) -> Self {
        assert!(num_objects > 0, "workload needs at least one object");
        Self { num_objects }
    }
}

impl Workload for Uniform {
    fn choose(&mut self, _now: f64, _gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        ObjectId::new(rng.index(self.num_objects as usize) as u32)
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Switches from one workload to another at a fixed simulation time —
/// the demand-shift scenario used to measure protocol responsiveness
/// after the system has already adapted once.
pub struct DemandShift {
    before: Box<dyn Workload + Send>,
    after: Box<dyn Workload + Send>,
    at: f64,
    name: String,
}

impl DemandShift {
    /// Uses `before` until simulated time `at` (seconds), then `after`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not finite and non-negative.
    pub fn new(before: Box<dyn Workload + Send>, after: Box<dyn Workload + Send>, at: f64) -> Self {
        assert!(
            at.is_finite() && at >= 0.0,
            "shift time must be finite and non-negative, got {at}"
        );
        let name = format!("shift({}->{}@{at})", before.name(), after.name());
        Self {
            before,
            after,
            at,
            name,
        }
    }
}

impl std::fmt::Debug for DemandShift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandShift")
            .field("name", &self.name)
            .field("at", &self.at)
            .finish_non_exhaustive()
    }
}

impl Workload for DemandShift {
    fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        if now < self.at {
            self.before.choose(now, gateway, rng)
        } else {
            self.after.choose(now, gateway, rng)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::builders;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    fn draw_many(w: &mut dyn Workload, n: usize, rng: &mut SimRng) -> Vec<ObjectId> {
        (0..n).map(|_| w.choose(0.0, NodeId::new(0), rng)).collect()
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let mut rng = rng();
        let mut z = ZipfReeds::new(1000);
        let draws = draw_many(&mut z, 40_000, &mut rng);
        // For density ∝ 1/v, P(v ≤ 10) = ln 10 / ln 1000 = 1/3.
        let low = draws.iter().filter(|o| o.index() < 10).count() as f64;
        let frac = low / draws.len() as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.03, "P(rank<=10) = {frac}");
        // All draws in range.
        assert!(draws.iter().all(|o| o.index() < 1000));
    }

    #[test]
    fn zipf_rank_one_is_most_popular() {
        let mut rng = rng();
        let mut z = ZipfReeds::new(100);
        let draws = draw_many(&mut z, 50_000, &mut rng);
        let count = |r: usize| draws.iter().filter(|o| o.index() == r).count();
        assert!(count(0) > count(10));
        assert!(count(0) > count(50));
    }

    #[test]
    fn hot_sites_split_follows_round_robin_assignment() {
        let mut rng = rng();
        let hs = HotSites::new(100, 10, 0.1, 0.9, &mut rng);
        // 1 hot site out of 10 => 10 hot objects, all ≡ same node mod 10.
        assert_eq!(hs.hot_objects().len(), 10);
        let site = hs.hot_objects()[0].index() % 10;
        assert!(hs.hot_objects().iter().all(|o| o.index() % 10 == site));
    }

    #[test]
    fn hot_sites_draws_mostly_hot() {
        let mut rng = rng();
        let mut hs = HotSites::new(1000, 10, 0.1, 0.9, &mut rng);
        let hot: std::collections::HashSet<_> = hs.hot_objects().iter().copied().collect();
        let draws = draw_many(&mut hs, 20_000, &mut rng);
        let hot_frac = draws.iter().filter(|o| hot.contains(o)).count() as f64 / draws.len() as f64;
        assert!((hot_frac - 0.9).abs() < 0.02, "hot fraction {hot_frac}");
    }

    #[test]
    fn hot_sites_with_empty_hot_bucket_serves_cold() {
        // 2 objects over 53 sites: the randomly drawn hot sites may miss
        // every object-bearing site; draws must fall back to cold.
        for seed in 0..50 {
            let mut rng = SimRng::seed_from(seed);
            let mut hs = HotSites::new(2, 53, 0.1, 0.9, &mut rng);
            for _ in 0..20 {
                let o = hs.choose(0.0, NodeId::new(0), &mut rng);
                assert!(o.index() < 2);
            }
        }
    }

    #[test]
    fn hot_pages_ratio_and_draw_probability() {
        let mut rng = rng();
        let mut hp = HotPages::new(1000, 0.1, 0.9, &mut rng);
        assert_eq!(hp.hot_objects().len(), 100);
        let hot: std::collections::HashSet<_> = hp.hot_objects().iter().copied().collect();
        let draws = draw_many(&mut hp, 20_000, &mut rng);
        let hot_frac = draws.iter().filter(|o| hot.contains(o)).count() as f64 / draws.len() as f64;
        assert!((hot_frac - 0.9).abs() < 0.02, "hot fraction {hot_frac}");
    }

    #[test]
    fn regional_prefers_own_slice() {
        let topo = builders::uunet();
        let mut rng = rng();
        let mut w = Regional::new(10_000, &topo, 0.01, 0.9);
        // A Europe gateway should draw from Europe's slice ~90% of the
        // time (plus ~0.1% incidental uniform hits).
        let europe_gateway = topo
            .nodes()
            .find(|&n| topo.region(n) == Region::Europe)
            .unwrap();
        let (start, len) = w.preferred_slice(Region::Europe);
        assert_eq!(len, 100);
        let draws: Vec<ObjectId> = (0..20_000)
            .map(|_| w.choose(0.0, europe_gateway, &mut rng))
            .collect();
        let in_slice = draws
            .iter()
            .filter(|o| (o.index() as u32) >= start && (o.index() as u32) < start + len)
            .count() as f64
            / draws.len() as f64;
        assert!(
            (in_slice - 0.9).abs() < 0.02,
            "in-slice fraction {in_slice}"
        );
    }

    #[test]
    fn regional_slices_disjoint() {
        let topo = builders::uunet();
        let w = Regional::new(10_000, &topo, 0.01, 0.9);
        let mut seen = std::collections::HashSet::new();
        for r in Region::ALL {
            let (start, len) = w.preferred_slice(r);
            for o in start..start + len {
                assert!(seen.insert(o), "object {o} in two slices");
            }
        }
    }

    #[test]
    fn uniform_covers_space() {
        let mut rng = rng();
        let mut u = Uniform::new(50);
        let draws = draw_many(&mut u, 5_000, &mut rng);
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn demand_shift_switches_at_time() {
        let mut rng = rng();
        let mut w = DemandShift::new(
            Box::new(Uniform::new(1)),   // always object 0
            Box::new(ZipfReeds::new(2)), // objects {0, 1}
            100.0,
        );
        for _ in 0..100 {
            assert_eq!(w.choose(99.9, NodeId::new(0), &mut rng).index(), 0);
        }
        let after: Vec<_> = (0..2000)
            .map(|_| w.choose(100.0, NodeId::new(0), &mut rng))
            .collect();
        assert!(
            after.iter().any(|o| o.index() == 1),
            "shifted workload active"
        );
        assert!(w.name().contains("shift"));
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_zipf_rejected() {
        let _ = ZipfReeds::new(0);
    }

    #[test]
    #[should_panic(expected = "hot fraction")]
    fn bad_hot_fraction_rejected() {
        let mut rng = rng();
        let _ = HotPages::new(10, 1.5, 0.9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "too small for four preferred slices")]
    fn tiny_regional_space_rejected() {
        let topo = builders::uunet();
        let _ = Regional::new(3, &topo, 0.25, 0.9);
    }
}
