//! The redirector: the request distribution algorithm (paper Fig. 2)
//! over a replica [`Directory`].

use radar_obs::{CandidateSnapshot, DecisionBranch, DecisionEvent};
use radar_simnet::{NodeId, RoutingTable};

use crate::directory::Directory;
use crate::ObjectId;

/// Per-replica bookkeeping the redirector keeps (paper §3): the request
/// count `rcnt(x_s)` and the replica affinity `aff_r(x_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// The hosting node.
    pub host: NodeId,
    /// How many times the redirector has chosen this replica since the
    /// last replica-set change.
    pub rcnt: u64,
    /// Replica affinity: "a compact way of representing multiple replicas
    /// of the same object on the same host".
    pub aff: u32,
}

impl ReplicaInfo {
    /// The *unit request count* `rcnt/aff` — the load-balance score used
    /// by the distribution algorithm.
    pub fn unit_rcnt(&self) -> f64 {
        self.rcnt as f64 / self.aff as f64
    }
}

/// The redirector responsible for a set of objects.
///
/// A RaDaR deployment hash-partitions the URL namespace over many
/// redirectors; each object has exactly one responsible redirector, so a
/// single `Redirector` value faithfully models the protocol (the paper's
/// simulation likewise uses one redirector co-located with the network
/// centroid).
///
/// The redirector is Fig. 2's distribution rule
/// ([`choose_replica`](Self::choose_replica),
/// [`choose_among_into`](Self::choose_among_into), both one
/// [`Fig2Pass`] and [`serve`](Self::serve)) over a replica
/// [`Directory`], which owns the per-object replica sets, request
/// counts, and affinities. Membership changes go to the directory
/// itself ([`directory_mut`](Self::directory_mut)); see that type for
/// the notification protocol.
///
/// # A note on the published pseudocode
///
/// Fig. 2 of the paper labels its two branch arms inconsistently with the
/// prose and with the worked America/Europe example. We implement the
/// semantics the prose defines: *serve from the closest replica `p`
/// unless `unit_rcnt(p) / constant > unit_rcnt(q)` for the least-requested
/// replica `q`, in which case serve from `q`*.
#[derive(Debug, Clone, PartialEq)]
pub struct Redirector {
    directory: Directory,
    constant: f64,
}

impl Redirector {
    /// Creates a redirector responsible for objects `0..num_objects`,
    /// with the given distribution constant (2.0 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `constant` is not finite and greater than 1.
    pub fn new(num_objects: u32, constant: f64) -> Self {
        assert!(
            constant.is_finite() && constant > 1.0,
            "distribution constant must be finite and > 1, got {constant}"
        );
        Self {
            directory: Directory::new(num_objects),
            constant,
        }
    }

    /// The replica directory behind this redirector.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The replica directory behind this redirector, for membership
    /// changes (replica creation, drops, affinity, purges).
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.directory
    }

    /// [`Directory::install`]; kept because `benchmark/src/layers.rs` calls it.
    pub fn install(&mut self, object: ObjectId, host: NodeId) {
        self.directory.install(object, host);
    }

    /// [`Directory::replicas`]; kept because `benchmark/src/layers.rs` calls it.
    pub fn replicas(&self, object: ObjectId) -> &[ReplicaInfo] {
        self.directory.replicas(object)
    }

    /// [`Directory::notify_affinity`]; kept because `benchmark/src/layers.rs` calls it.
    pub fn notify_affinity(&mut self, object: ObjectId, host: NodeId, new_aff: u32) {
        self.directory.notify_affinity(object, host, new_aff);
    }

    /// [`Directory::purge_host`]; kept because `benchmark/src/layers.rs` calls it.
    pub fn purge_host(&mut self, host: NodeId) -> Vec<ObjectId> {
        self.directory.purge_host(host)
    }

    /// The request distribution algorithm (paper Fig. 2).
    ///
    /// Chooses the replica of `object` to serve a request entering at
    /// `gateway`, increments its request count, and returns its host.
    /// Returns `None` if the object currently has no replicas (a protocol
    /// invariant violation in a full system; reachable in unit tests).
    ///
    /// Ties: the closest replica breaks distance ties by lowest host id;
    /// the least-requested replica breaks unit-count ties by lowest host
    /// id. Both rules are deterministic.
    pub fn choose_replica(
        &mut self,
        object: ObjectId,
        gateway: NodeId,
        routes: &RoutingTable,
    ) -> Option<NodeId> {
        let row = routes.distances_to(gateway);
        let mut pass = Fig2Pass::new(None);
        for (i, e) in self.directory.replicas(object).iter().enumerate() {
            pass.offer(i, e, row[e.host.index()]);
        }
        self.serve(object, pass)
    }

    /// Fig. 2 over a pre-filtered candidate list, for callers that build
    /// the list themselves. Each candidate is `(entry_index, distance)`:
    /// the replica's index in [`Directory::replicas`] and its hop
    /// distance to the requesting gateway, in ascending index order. The
    /// caller guarantees the list matches the object's *current* replica
    /// set; usability filtering has already happened.
    ///
    /// A [`Fig2Pass`] over the list, then [`serve`](Self::serve). `closest`
    /// may name the entry index of `p` (minimum `(distance, host)`); the
    /// pass finds `p` itself, so the hint is only checked in debug builds.
    ///
    /// Returns `None` for an empty candidate list.
    ///
    /// # Panics
    ///
    /// Panics if an entry index is out of range for the replica set —
    /// the symptom of a list built for another replica set.
    pub fn choose_among_into(
        &mut self,
        object: ObjectId,
        candidates: &[(u32, u32)],
        closest: Option<u32>,
        record: Option<&mut DecisionEvent>,
    ) -> Option<NodeId> {
        debug_assert!(
            candidates.windows(2).all(|w| w[0].0 < w[1].0),
            "candidates out of replica-set order"
        );
        let entries = self.directory.replicas(object);
        let mut pass = Fig2Pass::new(record);
        for &(i, dist) in candidates {
            pass.offer(i as usize, &entries[i as usize], dist);
        }
        debug_assert!(
            candidates.is_empty() || closest.is_none_or(|c| c as usize == pass.p),
            "closest hint {closest:?} is not the closest candidate"
        );
        self.serve(object, pass)
    }

    /// Fig. 2's branch over a finished [`Fig2Pass`] of `object`'s
    /// replicas: serve from the closest candidate `p` unless
    /// `unit_rcnt(p) / constant > unit_rcnt(q)`, else from the least
    /// requested `q`; increment the winner's request count and return its
    /// host. When the pass carries a decision record, the outcome is
    /// written into it (the candidates are already there); `object` and
    /// `gateway` are the caller's to set. Returns `None`, touching no
    /// count and no record field but the candidate list, when the pass
    /// saw no candidate.
    ///
    /// # Panics
    ///
    /// Panics if the pass's indices are out of range for `object`'s
    /// replica set — the symptom of a pass over another object.
    pub fn serve(&mut self, object: ObjectId, pass: Fig2Pass<'_>) -> Option<NodeId> {
        if pass.p == Fig2Pass::NONE {
            return None;
        }
        let constant = self.constant;
        // The test is false whenever p = q (x/constant ≤ x for finite
        // x ≥ 0 and constant > 1), so a sole candidate is served as the
        // closest without a division.
        let (chosen, branch) = if pass.p != pass.q && pass.p_unit / constant > pass.q_unit {
            (pass.q, DecisionBranch::LeastRequested)
        } else {
            (pass.p, DecisionBranch::Closest)
        };
        let entry = &mut self.directory.replicas_mut(object)[chosen];
        if let Some(out) = pass.record {
            out.chosen = entry.host.index() as u16;
            out.branch = branch;
            out.constant = constant;
            out.closest = Some(pass.p_host.index() as u16);
            out.least = Some(pass.q_host.index() as u16);
            out.unit_closest = Some(pass.p_unit);
            out.unit_least = Some(pass.q_unit);
        }
        entry.rcnt += 1;
        Some(entry.host)
    }
}

/// One pass of Fig. 2 over an object's candidate replicas, offered in
/// replica-set order (ascending host): it keeps the closest candidate
/// `p`, minimum `(distance, host)`, and the least requested `q`, minimum
/// `(unit_rcnt, host)`, dividing once per candidate. Hosts ascend, so a
/// strict `<` keeps the lowest host among equals. With a decision record
/// it snapshots each candidate as it is offered, before any count moves.
/// [`Redirector::serve`] then takes the branch.
#[derive(Debug)]
pub struct Fig2Pass<'r> {
    record: Option<&'r mut DecisionEvent>,
    /// Entry index, distance, host and unit count of `p`; `p` is
    /// [`NONE`](Self::NONE) until a candidate is offered.
    p: usize,
    p_dist: u64,
    p_host: NodeId,
    p_unit: f64,
    /// Entry index, host and unit count of `q`.
    q: usize,
    q_host: NodeId,
    q_unit: f64,
}

impl<'r> Fig2Pass<'r> {
    const NONE: usize = usize::MAX;

    /// An empty pass; `record`'s candidate list is cleared for refilling.
    pub fn new(mut record: Option<&'r mut DecisionEvent>) -> Self {
        if let Some(out) = record.as_deref_mut() {
            out.candidates.clear();
        }
        Self {
            record,
            p: Self::NONE,
            p_dist: u64::MAX,
            p_host: NodeId::new(0),
            p_unit: 0.0,
            q: Self::NONE,
            q_host: NodeId::new(0),
            q_unit: f64::INFINITY,
        }
    }

    /// Offers replica entry `index`, `entry`, at hop distance `distance`
    /// from the requesting gateway.
    #[inline]
    pub fn offer(&mut self, index: usize, entry: &ReplicaInfo, distance: u32) {
        let unit = entry.unit_rcnt();
        if u64::from(distance) < self.p_dist {
            (self.p, self.p_dist, self.p_host, self.p_unit) =
                (index, u64::from(distance), entry.host, unit);
        }
        if unit < self.q_unit {
            (self.q, self.q_host, self.q_unit) = (index, entry.host, unit);
        }
        if let Some(out) = self.record.as_deref_mut() {
            out.candidates.push(CandidateSnapshot {
                host: entry.host.index() as u16,
                rcnt: entry.rcnt,
                aff: entry.aff,
                unit,
                distance,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::builders;

    fn x() -> ObjectId {
        ObjectId::new(0)
    }

    /// Two-continents fixture: node 0 = America, node 1 = Europe.
    fn setup() -> (Redirector, radar_simnet::RoutingTable) {
        let topo = builders::two_continents();
        let routes = topo.routes();
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(0));
        r.install(x(), NodeId::new(1));
        (r, routes)
    }

    #[test]
    fn balanced_demand_served_locally() {
        // Paper §3, first case: requests split evenly => every request
        // goes to its closest replica.
        let (mut r, routes) = setup();
        for _ in 0..100 {
            assert_eq!(
                r.choose_replica(x(), NodeId::new(0), &routes),
                Some(NodeId::new(0))
            );
            assert_eq!(
                r.choose_replica(x(), NodeId::new(1), &routes),
                Some(NodeId::new(1))
            );
        }
    }

    #[test]
    fn one_sided_demand_sheds_a_third() {
        // Paper §3, second case: all requests local to America => "the
        // load on the American site will be reduced by one-third on
        // average" (America serves ~2/3, Europe ~1/3).
        let (mut r, routes) = setup();
        let mut to_europe = 0;
        let n = 3000;
        for _ in 0..n {
            if r.choose_replica(x(), NodeId::new(0), &routes) == Some(NodeId::new(1)) {
                to_europe += 1;
            }
        }
        let frac = to_europe as f64 / n as f64;
        assert!(
            (frac - 1.0 / 3.0).abs() < 0.02,
            "expected ~1/3 shed to Europe, got {frac}"
        );
    }

    #[test]
    fn n_replicas_bound_closest_to_2_over_n_plus_1() {
        // Paper §3: with n replicas and all demand closest to one of
        // them, that replica serves 2N/(n+1) of N requests.
        let topo = builders::star(6); // hub 0, leaves 1..=5
        let routes = topo.routes();
        for n_replicas in 2..=5u16 {
            let mut r = Redirector::new(1, 2.0);
            // Replica on leaf 1 (closest to gateway at leaf 1) and on
            // other leaves.
            for i in 1..=n_replicas {
                r.install(x(), NodeId::new(i));
            }
            let mut local = 0;
            let n = 6000;
            for _ in 0..n {
                if r.choose_replica(x(), NodeId::new(1), &routes) == Some(NodeId::new(1)) {
                    local += 1;
                }
            }
            let frac = local as f64 / n as f64;
            let expect = 2.0 / (n_replicas as f64 + 1.0);
            assert!(
                (frac - expect).abs() < 0.02,
                "n={n_replicas}: expected {expect}, got {frac}"
            );
        }
    }

    #[test]
    fn affinity_shifts_distribution() {
        // Paper §3: affinity 4 on the American replica with a 90/10
        // request mix sends ~1/9 of requests to Europe. We check the
        // coarser claim: higher affinity attracts a larger share.
        let (mut r, routes) = setup();
        r.notify_affinity(x(), NodeId::new(0), 4);
        let n = 9000;
        let mut to_europe = 0;
        for i in 0..n {
            // Regular inter-spacing: one European request after every
            // nine American ones.
            let gw = if i % 10 == 9 { 1 } else { 0 };
            if r.choose_replica(x(), NodeId::new(gw), &routes) == Some(NodeId::new(1)) {
                to_europe += 1;
            }
        }
        let frac = to_europe as f64 / n as f64;
        assert!(
            (frac - 1.0 / 9.0).abs() < 0.03,
            "expected ~1/9 to Europe, got {frac}"
        );
    }

    #[test]
    fn counts_reset_on_set_change() {
        let (mut r, routes) = setup();
        for _ in 0..50 {
            r.choose_replica(x(), NodeId::new(0), &routes);
        }
        assert!(r.replicas(x()).iter().any(|e| e.rcnt > 1));
        r.directory_mut().notify_created(x(), NodeId::new(0));
        assert!(r.replicas(x()).iter().all(|e| e.rcnt == 1));
    }

    #[test]
    fn choose_replica_empty_set_is_none() {
        let topo = builders::two_continents();
        let routes = topo.routes();
        let mut r = Redirector::new(1, 2.0);
        assert_eq!(r.choose_replica(x(), NodeId::new(0), &routes), None);
    }

    #[test]
    #[should_panic(expected = "unknown replica")]
    fn affinity_notification_for_unknown_replica_panics() {
        let mut r = Redirector::new(1, 2.0);
        r.notify_affinity(x(), NodeId::new(0), 2);
    }

    #[test]
    #[should_panic(expected = "must use request_drop")]
    fn affinity_zero_panics() {
        let mut r = Redirector::new(1, 2.0);
        r.install(x(), NodeId::new(0));
        r.notify_affinity(x(), NodeId::new(0), 0);
    }

    #[test]
    fn filtered_choice_skips_unusable_hosts() {
        let (mut r, routes) = setup();
        // Node 0 is closest to gateway 0, but marked down: every request
        // must go to node 1.
        for _ in 0..20 {
            let cands = candidates(&r, NodeId::new(0), &routes, &|h| h != NodeId::new(0));
            assert_eq!(
                r.choose_among_into(x(), &cands, None, None),
                Some(NodeId::new(1))
            );
        }
        // Nothing usable: None, even though replicas exist.
        let none = candidates(&r, NodeId::new(0), &routes, &|_| false);
        assert_eq!(r.choose_among_into(x(), &none, None, None), None);
        assert_eq!(
            r.directory().replica_count(x()),
            2,
            "filtering never mutates the set"
        );
    }

    /// The `(entry_index, distance)` list of the replicas passing
    /// `usable`, as a redirect engine builds it, for feeding the
    /// pre-filtered entry point.
    fn candidates(
        r: &Redirector,
        gw: NodeId,
        routes: &RoutingTable,
        usable: &dyn Fn(NodeId) -> bool,
    ) -> Vec<(u32, u32)> {
        r.replicas(x())
            .iter()
            .enumerate()
            .filter(|(_, e)| usable(e.host))
            .map(|(j, e)| (j as u32, routes.distance(e.host, gw)))
            .collect()
    }

    #[test]
    fn explained_choice_matches_plain_choice() {
        // The explained call must make the identical decision (same
        // increments, same winner) and report the inputs it compared.
        let (mut r1, routes) = setup();
        let mut r2 = r1.clone();
        let mut expl = DecisionEvent::default();
        for i in 0..200 {
            let gw = NodeId::new(if i % 3 == 0 { 1 } else { 0 });
            let plain = r1.choose_replica(x(), gw, &routes);
            let cands = candidates(&r2, gw, &routes, &|_| true);
            // Counts before the decision, to check the snapshot against.
            let before = r2.replicas(x()).to_vec();
            let host = r2
                .choose_among_into(x(), &cands, None, Some(&mut expl))
                .expect("replicas exist");
            assert_eq!(plain, Some(host));
            assert_eq!(expl.chosen, host.index() as u16);
            assert_eq!(expl.candidates.len(), 2);
            // The snapshot is pre-increment and self-consistent.
            for c in &expl.candidates {
                let e = before
                    .iter()
                    .find(|e| e.host.index() as u16 == c.host)
                    .expect("candidate is a replica");
                assert_eq!((c.rcnt, c.aff, c.unit), (e.rcnt, e.aff, e.unit_rcnt()));
            }
            let unit_of = |h: Option<u16>| {
                expl.candidates
                    .iter()
                    .find(|c| Some(c.host) == h)
                    .expect("p and q are candidates")
                    .unit
            };
            let (unit_closest, unit_least) = (unit_of(expl.closest), unit_of(expl.least));
            assert_eq!(expl.unit_closest, Some(unit_closest));
            assert_eq!(expl.unit_least, Some(unit_least));
            // The branch tag matches the arithmetic.
            let shed = unit_closest / expl.constant > unit_least;
            assert_eq!(expl.branch == DecisionBranch::LeastRequested, shed);
            assert_eq!(
                Some(expl.chosen),
                if shed { expl.least } else { expl.closest }
            );
        }
        assert_eq!(r1, r2, "identical state after identical decisions");
    }

    #[test]
    fn explained_choice_respects_filter() {
        let (mut r, routes) = setup();
        let mut expl = DecisionEvent::default();
        let not_0 = |h: NodeId| h != NodeId::new(0);
        let cands = candidates(&r, NodeId::new(0), &routes, &not_0);
        let host = r
            .choose_among_into(x(), &cands, None, Some(&mut expl))
            .expect("one usable replica");
        assert_eq!(host, NodeId::new(1));
        assert_eq!(expl.candidates.len(), 1);
        assert_eq!(expl.branch.as_str(), "closest");
        let none = candidates(&r, NodeId::new(0), &routes, &|_| false);
        assert!(r
            .choose_among_into(x(), &none, None, Some(&mut expl))
            .is_none());
    }

    #[test]
    fn choose_among_matches_choose_inner() {
        // Feeding the pre-filtered entry point the same (index,
        // distance) pairs choose_replica builds must reproduce
        // the decision stream exactly — the correctness contract the
        // simulator's redirect engine relies on.
        let (mut r1, routes) = setup();
        let mut r2 = r1.clone();
        for i in 0..200 {
            let gw = NodeId::new(if i % 3 == 0 { 1 } else { 0 });
            let cands = candidates(&r2, gw, &routes, &|_| true);
            // Alternate between passing p, scanned for here, and not:
            // the hint must not change the decision.
            let closest = (i % 2 == 0).then(|| {
                cands
                    .iter()
                    .min_by_key(|&&(j, d)| (d, r2.replicas(x())[j as usize].host))
                    .expect("non-empty")
                    .0
            });
            let plain = r1.choose_replica(x(), gw, &routes);
            let host = r2
                .choose_among_into(x(), &cands, closest, None)
                .expect("replicas exist");
            assert_eq!(plain, Some(host));
        }
        assert_eq!(r1, r2, "identical state after identical decisions");
        let mut expl = DecisionEvent::default();
        assert_eq!(r2.choose_among_into(x(), &[], None, Some(&mut expl)), None);
    }

    /// Fig. 2 as published, both scans and the division on every list:
    /// `(chosen, branch, p, q)` as entry indices.
    fn fig2(r: &Redirector, cands: &[(u32, u32)]) -> (u32, DecisionBranch, u32, u32) {
        let e = |i: u32| r.replicas(x())[i as usize];
        let p = cands
            .iter()
            .min_by_key(|&&(i, d)| (d, e(i).host))
            .unwrap()
            .0;
        let q = cands
            .iter()
            .min_by(|a, b| {
                let (ea, eb) = (e(a.0), e(b.0));
                ea.unit_rcnt()
                    .partial_cmp(&eb.unit_rcnt())
                    .unwrap()
                    .then(ea.host.cmp(&eb.host))
            })
            .unwrap()
            .0;
        if e(p).unit_rcnt() / r.constant > e(q).unit_rcnt() {
            (q, DecisionBranch::LeastRequested, p, q)
        } else {
            (p, DecisionBranch::Closest, p, q)
        }
    }

    #[test]
    fn a_sole_candidate_decides_as_the_published_rule() {
        // Every replica but one filtered out, at growing request counts,
        // traced and untraced: the shortcut must choose, record and bump
        // exactly what the published rule does.
        let (mut r, routes) = setup();
        r.install(x(), NodeId::new(1)); // aff 2 on Europe
        for (i, gw) in (0..40).map(|i| (i, NodeId::new(i % 2))) {
            let only = |h: NodeId| h == NodeId::new(i / 2 % 2);
            let cands = candidates(&r, gw, &routes, &only);
            assert_eq!(cands.len(), 1);
            let (chosen, branch, p, q) = fig2(&r, &cands);
            let entry = |j: u32| r.replicas(x())[j as usize];
            let (host, unit) = (entry(chosen).host, entry(chosen).unit_rcnt());
            let before = entry(chosen).rcnt;
            let closest = (i % 3 == 0).then_some(cands[0].0);
            let mut record = DecisionEvent::default();
            let traced = i % 4 < 2;
            let got = r.choose_among_into(x(), &cands, closest, traced.then_some(&mut record));
            assert_eq!(got, Some(host), "request {i}");
            assert_eq!(r.replicas(x())[chosen as usize].rcnt, before + 1);
            if traced {
                let id = |j: u32| Some(r.replicas(x())[j as usize].host.index() as u16);
                assert_eq!(record.chosen, host.index() as u16);
                assert_eq!(record.branch, branch);
                assert_eq!(record.constant, 2.0);
                assert_eq!((record.closest, record.least), (id(p), id(q)));
                assert_eq!(
                    (record.unit_closest, record.unit_least),
                    (Some(unit), Some(unit))
                );
                assert_eq!(record.candidates.len(), 1);
                assert_eq!(record.candidates[0].unit, unit);
                assert_eq!(record.candidates[0].distance, cands[0].1);
            }
        }
    }

    #[test]
    fn decisions_follow_the_published_rule() {
        // Both replicas usable, uneven demand: every decision equals the
        // published rule's on the state it was made in.
        let (mut r, routes) = setup();
        let mut least_requested = 0;
        for i in 0..300 {
            let gw = NodeId::new(u16::from(i % 5 == 0));
            let cands = candidates(&r, gw, &routes, &|_| true);
            let (chosen, branch, ..) = fig2(&r, &cands);
            least_requested += usize::from(branch == DecisionBranch::LeastRequested);
            let want = r.replicas(x())[chosen as usize].host;
            assert_eq!(r.choose_among_into(x(), &cands, None, None), Some(want));
        }
        assert!(least_requested > 20, "{least_requested}");
    }

    #[test]
    fn purge_host_removes_even_last_replicas() {
        let mut r = Redirector::new(3, 2.0);
        r.install(ObjectId::new(0), NodeId::new(0)); // only replica
        r.install(ObjectId::new(1), NodeId::new(0));
        r.install(ObjectId::new(1), NodeId::new(1));
        r.install(ObjectId::new(2), NodeId::new(1));
        let affected = r.purge_host(NodeId::new(0));
        assert_eq!(affected, vec![ObjectId::new(0), ObjectId::new(1)]);
        assert_eq!(
            r.directory().replica_count(ObjectId::new(0)),
            0,
            "last replica purged"
        );
        assert_eq!(r.directory().replica_count(ObjectId::new(1)), 1);
        assert_eq!(r.directory().replica_count(ObjectId::new(2)), 1);
        // Surviving sets had their counts reset.
        assert!(r.replicas(ObjectId::new(1)).iter().all(|e| e.rcnt == 1));
    }

    #[test]
    #[should_panic(expected = "distribution constant")]
    fn constant_of_one_rejected() {
        let _ = Redirector::new(1, 1.0);
    }
}
