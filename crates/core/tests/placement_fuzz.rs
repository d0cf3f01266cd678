//! Protocol fuzzing: a miniature multi-host platform built directly on
//! `radar-core` (no simulator), driven by random demand for many
//! placement epochs. After every epoch the protocol's structural
//! invariants must hold:
//!
//! * the redirector's replica set of every object is exactly the set of
//!   hosts physically holding it (the subset invariant, strengthened to
//!   equality because this harness applies actions synchronously);
//! * every object retains at least one replica;
//! * affinities recorded by hosts and the redirector agree;
//! * every surviving replica has affinity ≥ 1.
//!
//! Demand scripts are drawn from a seeded [`SimRng`] stream so every
//! fuzz case is deterministic and reproducible.

use radar_core::placement::{
    handle_create_obj, run_placement, PlacementActionEvent, PlacementActionKind as A, PlacementEnv,
    PlacementOutcome,
};
use radar_core::{
    bounds, CreateObjRequest, CreateObjResponse, Directory, HostState, ObjectId, Params,
    Redirector, RelocationKind, MIGR_RATIO, REPL_RATIO,
};
use radar_simcore::SimRng;
use radar_simnet::{builders, NodeId, RoutingTable, Topology};

#[derive(Clone)]
struct MiniPlatform {
    routes: RoutingTable,
    hosts: Vec<HostState>,
    redirector: Redirector,
    params: Params,
    now: f64,
    refusal_mask: u64,
}

impl MiniPlatform {
    fn new(topology: Topology, num_objects: u32, params: Params) -> Self {
        let routes = topology.routes();
        let hosts = topology
            .nodes()
            .map(|n| HostState::new(n, params))
            .collect::<Vec<_>>();
        let mut platform = Self {
            routes,
            hosts,
            redirector: Redirector::new(num_objects, params.distribution_constant),
            params,
            now: 0.0,
            refusal_mask: 0,
        };
        let n = platform.hosts.len() as u32;
        for i in 0..num_objects {
            let node = NodeId::new((i % n) as u16);
            platform.redirector.install(ObjectId::new(i), node);
            platform.hosts[node.index()].install_object(ObjectId::new(i));
        }
        platform
    }

    /// Routes `count` requests for `object` entering at `gateway`
    /// through the distribution algorithm, spread over the current
    /// placement period.
    fn drive_requests(&mut self, object: ObjectId, gateway: NodeId, count: u32) {
        for k in 0..count {
            let t = self.now + self.params.placement_period * (k as f64 + 0.5) / count as f64;
            let Some(host) = self
                .redirector
                .choose_replica(object, gateway, &self.routes)
            else {
                panic!("{object} lost all replicas");
            };
            let path = self.routes.path(host, gateway);
            let h = &mut self.hosts[host.index()];
            h.record_access(object, path);
            h.record_serviced(t, object);
        }
    }

    /// Runs one placement epoch (each host once, in node order).
    fn placement_epoch(&mut self) {
        self.placement_epoch_with(run_placement);
    }

    /// [`placement_epoch`](Self::placement_epoch) with the placement
    /// pass given by the caller; returns every host's outcome.
    fn placement_epoch_with(
        &mut self,
        pass: fn(&mut HostState, f64, &mut dyn PlacementEnv) -> PlacementOutcome,
    ) -> Vec<PlacementOutcome> {
        let mut outcomes = Vec::new();
        self.now += self.params.placement_period;
        for i in 0..self.hosts.len() {
            let node = NodeId::new(i as u16);
            let mut host = std::mem::replace(&mut self.hosts[i], HostState::new(node, self.params));
            {
                let mut env = FuzzEnv {
                    self_index: i,
                    hosts: &mut self.hosts,
                    directory: self.redirector.directory_mut(),
                    routes: &self.routes,
                    now: self.now,
                    refusal_mask: self.refusal_mask,
                    calls: 0,
                };
                outcomes.push(pass(&mut host, self.now, &mut env));
            }
            self.hosts[i] = host;
        }
        outcomes
    }

    /// The structural invariants that must hold between epochs.
    fn check_invariants(&self) {
        for i in 0..self.redirector.directory().num_objects() {
            let object = ObjectId::new(i as u32);
            let replicas = self.redirector.replicas(object);
            assert!(!replicas.is_empty(), "{object} lost its last replica");
            // Redirector set == hosts actually holding the object, with
            // matching affinities.
            for info in replicas {
                let host = &self.hosts[info.host.index()];
                let state = host.object(object);
                assert!(
                    state.is_some(),
                    "redirector lists {object}@{} but the host lacks it",
                    info.host
                );
                let state = state.expect("checked above");
                assert!(state.aff() >= 1);
                assert_eq!(
                    state.aff(),
                    info.aff,
                    "affinity mismatch for {object}@{}",
                    info.host
                );
            }
            for host in &self.hosts {
                if host.has_object(object) {
                    assert!(
                        replicas.iter().any(|r| r.host == host.node()),
                        "{} holds {} unknown to the redirector",
                        host.node(),
                        object
                    );
                }
            }
        }
    }
}

struct FuzzEnv<'a> {
    self_index: usize,
    hosts: &'a mut [HostState],
    directory: &'a mut Directory,
    routes: &'a RoutingTable,
    now: f64,
    /// Failure injection: refuse every CreateObj whose sequence number
    /// hits this mask (0 = never), and hide offload recipients when odd.
    refusal_mask: u64,
    calls: u64,
}

impl PlacementEnv for FuzzEnv<'_> {
    fn create_obj(&mut self, target: NodeId, req: CreateObjRequest) -> CreateObjResponse {
        assert_ne!(target.index(), self.self_index);
        self.calls += 1;
        // Injected failure: the candidate refuses (network partition,
        // overload race, …) — always legal per the protocol.
        if self.refusal_mask != 0 && self.calls.is_multiple_of(self.refusal_mask) {
            return CreateObjResponse::Refused;
        }
        let resp = handle_create_obj(&mut self.hosts[target.index()], self.now, &req);
        if resp.is_accepted() {
            self.directory.notify_created(req.object, target);
        }
        resp
    }

    fn request_drop(&mut self, object: ObjectId, host: NodeId) -> bool {
        self.directory.request_drop(object, host)
    }

    fn notify_affinity(&mut self, object: ObjectId, host: NodeId, aff: u32) {
        self.directory.notify_affinity(object, host, aff);
    }

    fn find_offload_recipient(&mut self, requester: NodeId) -> Option<(NodeId, f64)> {
        self.calls += 1;
        if self.refusal_mask != 0 && self.calls % self.refusal_mask == 1 {
            return None; // injected failure: no load reports available
        }
        let lw = self.hosts[0].params().low_watermark;
        self.hosts
            .iter_mut()
            .enumerate()
            .filter(|(j, _)| *j != self.self_index && *j != requester.index())
            .map(|(_, h)| {
                h.advance(self.now);
                (h.node(), h.load_upper())
            })
            .filter(|&(_, load)| load < lw)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.routes.distance(a, b)
    }

    fn may_replicate(&self, _object: ObjectId) -> bool {
        true
    }

    fn replica_count(&self, object: ObjectId) -> usize {
        self.directory.replica_count(object)
    }
}

/// One epoch's demand script: `(object, gateway, count)` triples.
fn demand(rng: &mut SimRng, objects: u32, nodes: u16) -> Vec<(u32, u16, u32)> {
    (0..rng.index(40))
        .map(|_| {
            (
                rng.index(objects as usize) as u32,
                rng.index(nodes as usize) as u16,
                rng.index(60) as u32,
            )
        })
        .collect()
}

/// Between 1 and `max_epochs - 1` epochs of random demand.
fn epochs(
    rng: &mut SimRng,
    objects: u32,
    nodes: u16,
    max_epochs: usize,
) -> Vec<Vec<(u32, u16, u32)>> {
    (0..1 + rng.index(max_epochs - 1))
        .map(|_| demand(rng, objects, nodes))
        .collect()
}

#[test]
fn random_demand_preserves_invariants() {
    let mut rng = SimRng::seed_from(0xF022_0001);
    for _ in 0..32 {
        let mut platform = MiniPlatform::new(builders::grid(3, 3), 12, Params::paper());
        for script in &epochs(&mut rng, 12, 9, 8) {
            for &(obj, gw, count) in script {
                platform.drive_requests(ObjectId::new(obj), NodeId::new(gw), count);
            }
            platform.placement_epoch();
            platform.check_invariants();
        }
    }
}

#[test]
fn hostile_demand_with_tight_watermarks() {
    // Tighter watermarks make admission scarce and offloading
    // frequent; the invariants must still hold.
    let mut rng = SimRng::seed_from(0xF022_0002);
    let params = Params {
        low_watermark: 0.2,
        high_watermark: 0.5,
        ..Params::paper()
    };
    params.check().expect("valid params");
    for _ in 0..32 {
        let mut platform = MiniPlatform::new(builders::ring(6), 8, params);
        for script in &epochs(&mut rng, 8, 6, 6) {
            for &(obj, gw, count) in script {
                platform.drive_requests(ObjectId::new(obj), NodeId::new(gw), count);
            }
            platform.placement_epoch();
            platform.check_invariants();
        }
    }
}

#[test]
fn injected_refusals_preserve_invariants() {
    // Candidates refuse unpredictably and load reports vanish; the
    // protocol may make less progress but must never corrupt state.
    let mut rng = SimRng::seed_from(0xF022_0003);
    for _ in 0..32 {
        let mask = 1 + rng.index(4) as u64;
        let mut platform = MiniPlatform::new(builders::ring(8), 10, Params::paper());
        platform.refusal_mask = mask;
        for script in &epochs(&mut rng, 10, 8, 6) {
            for &(obj, gw, count) in script {
                platform.drive_requests(ObjectId::new(obj), NodeId::new(gw), count);
            }
            platform.placement_epoch();
            platform.check_invariants();
        }
    }
}

#[test]
fn idle_epochs_converge_to_single_replicas() {
    // Demand, then silence: the deletion threshold must strip every
    // redundant replica but the last.
    for warm_epochs in 1usize..4 {
        let mut platform = MiniPlatform::new(builders::line(5), 6, Params::paper());
        for _ in 0..warm_epochs {
            for obj in 0..6u32 {
                for gw in 0..5u16 {
                    platform.drive_requests(ObjectId::new(obj), NodeId::new(gw), 20);
                }
            }
            platform.placement_epoch();
            platform.check_invariants();
        }
        for _ in 0..4 {
            platform.placement_epoch();
            platform.check_invariants();
        }
        for i in 0..6u32 {
            let object = ObjectId::new(i);
            assert_eq!(
                platform.redirector.directory().replica_count(object),
                1,
                "{object} kept redundant cold replicas"
            );
            assert_eq!(platform.redirector.directory().total_affinity(object), 1);
        }
    }
}

/// `ReduceAffinity` of the snapshot walk: looks the affinity up itself.
fn snapshot_reduce(host: &mut HostState, x: ObjectId, env: &mut dyn PlacementEnv) -> Option<bool> {
    if host.object(x).expect("hosted").aff() > 1 {
        let aff = host.reduce_affinity(x);
        env.notify_affinity(x, host.node(), aff);
        Some(false)
    } else if env.request_drop(x, host.node()) {
        host.drop_object(x);
        Some(true)
    } else {
        None
    }
}

/// Candidates `p ≠ s` with a count share above `ratio`, farthest first.
fn snapshot_candidates(
    host: &HostState,
    x: ObjectId,
    cnt_s: u64,
    ratio: f64,
    env: &dyn PlacementEnv,
) -> Vec<(NodeId, f64)> {
    let s = host.node();
    let mut counts = Vec::new();
    host.counts(host.object(x).expect("hosted"), &mut counts);
    let mut out: Vec<(u32, NodeId, f64)> = counts
        .into_iter()
        .map(|(p, c)| (p, c as f64 / cnt_s as f64))
        .filter(|&(p, share)| p != s && share > ratio)
        .map(|(p, share)| (env.distance(s, p), p, share))
        .collect();
    out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.into_iter().map(|(_, p, share)| (p, share)).collect()
}

/// Figs. 3 and 5 as they were walked before the cursor scan: snapshot
/// the hosted ids, then look every object up by id — once to judge it,
/// again after each mutation. Kept as the oracle for
/// [`run_placement`]; it shares only `HostState`'s public methods and
/// the Theorem bounds with it.
fn snapshot_walk_placement(
    host: &mut HostState,
    now: f64,
    env: &mut dyn PlacementEnv,
) -> PlacementOutcome {
    let mut out = PlacementOutcome::default();
    host.advance(now);
    let params = *host.params();
    let s = host.node();
    let load = host.load_lower();
    if load > params.high_watermark {
        host.set_offloading(true);
    }
    if load < params.low_watermark {
        host.set_offloading(false);
    }
    let decision = |object: ObjectId, action, target: Option<NodeId>, unit_rate, share, ratio| {
        PlacementActionEvent {
            host: s.index() as u16,
            object: object.index() as u32,
            action,
            target: target.map(|p| p.index() as u16),
            unit_rate,
            share,
            ratio,
            deletion_threshold: params.deletion_threshold,
            replication_threshold: params.replication_threshold,
        }
    };

    for x in host.object_ids() {
        let o = host.object(x).expect("snapshot ids are hosted");
        let (aff, cnt_s, unit_load) = (o.aff(), host.count(o, s), o.unit_load());
        if o.acquired_at() > host.last_placement_run() {
            continue;
        }
        let unit_rate = cnt_s as f64 / aff as f64 / params.placement_period;
        if unit_rate < params.deletion_threshold {
            let action = match snapshot_reduce(host, x, env) {
                Some(true) => A::Drop,
                Some(false) => A::AffinityReduce,
                None => A::DropRefused,
            };
            out.decisions
                .push(decision(x, action, None, unit_rate, None, None));
            continue;
        }
        let mut migrated = false;
        if cnt_s > 0 {
            for (p, share) in snapshot_candidates(host, x, cnt_s, MIGR_RATIO, env) {
                let req = CreateObjRequest {
                    kind: RelocationKind::Migrate,
                    object: x,
                    source: s,
                    unit_load,
                };
                if env.create_obj(p, req).is_accepted() {
                    snapshot_reduce(host, x, env).expect("the recipient holds a copy");
                    out.decisions.push(decision(
                        x,
                        A::GeoMigrate,
                        Some(p),
                        unit_rate,
                        Some(share),
                        Some(MIGR_RATIO),
                    ));
                    migrated = true;
                    break;
                }
            }
        }
        if !migrated && unit_rate > params.replication_threshold && env.may_replicate(x) {
            for (p, share) in snapshot_candidates(host, x, cnt_s, REPL_RATIO, env) {
                let req = CreateObjRequest {
                    kind: RelocationKind::Replicate,
                    object: x,
                    source: s,
                    unit_load,
                };
                if env.create_obj(p, req).is_accepted() {
                    out.decisions.push(decision(
                        x,
                        A::GeoReplicate,
                        Some(p),
                        unit_rate,
                        Some(share),
                        Some(REPL_RATIO),
                    ));
                    break;
                }
            }
        }
    }

    if host.is_offloading() {
        if let Some((recipient, mut recipient_load)) = env.find_offload_recipient(s) {
            let moved: Vec<ObjectId> = out
                .decisions
                .iter()
                .filter(|d| matches!(d.action, A::GeoMigrate | A::GeoReplicate))
                .map(|d| ObjectId::new(d.object))
                .collect();
            let mut order: Vec<(ObjectId, f64)> = Vec::new();
            for x in host.object_ids() {
                let o = host.object(x).expect("hosted");
                if moved.contains(&x) || o.acquired_at() > host.last_placement_run() {
                    continue;
                }
                let cnt_s = host.count(o, s);
                let mut counts = Vec::new();
                host.counts(o, &mut counts);
                let foreign = counts
                    .into_iter()
                    .filter(|&(p, _)| p != s && cnt_s > 0)
                    .map(|(_, c)| c as f64 / cnt_s as f64)
                    .fold(0.0, f64::max);
                order.push((x, foreign));
            }
            order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            for (x, foreign) in order {
                if host.load_lower() <= params.low_watermark
                    || recipient_load >= params.low_watermark
                {
                    break;
                }
                let o = host.object(x).expect("hosted");
                let (aff, rate, unit_load, cnt_s) =
                    (o.aff(), o.rate(), o.unit_load(), host.count(o, s));
                let unit_rate = cnt_s as f64 / aff as f64 / params.placement_period;
                let hot = unit_rate > params.replication_threshold;
                if hot && !env.may_replicate(x) {
                    continue;
                }
                let req = CreateObjRequest {
                    kind: if hot {
                        RelocationKind::Replicate
                    } else {
                        RelocationKind::Migrate
                    },
                    object: x,
                    source: s,
                    unit_load,
                };
                if !env.create_obj(recipient, req).is_accepted() {
                    break;
                }
                recipient_load += bounds::target_increase(rate, aff);
                let action = if hot {
                    host.note_shed(now, bounds::replication_source_decrease(rate));
                    A::LoadReplicate
                } else {
                    host.note_shed(now, bounds::migration_source_decrease(rate, aff));
                    snapshot_reduce(host, x, env).expect("the recipient holds a copy");
                    A::LoadMigrate
                };
                out.decisions.push(decision(
                    x,
                    action,
                    Some(recipient),
                    unit_rate,
                    Some(foreign),
                    None,
                ));
            }
        }
    }
    host.reset_access_counts();
    host.mark_placement_run(now);
    out
}

#[test]
fn cursor_walk_matches_the_snapshot_walk() {
    // Two copies of one platform under the same demand: one runs the
    // cursor scan, the other the snapshot walk above. Outcomes, host
    // tables and the redirector must agree after every epoch — and the
    // scripts must reach single placement runs that drop, geo-migrate
    // and offload at once, where the table shrinks under the cursor.
    let mut rng = SimRng::seed_from(0xF022_0005);
    let (mut all_three, mut drops, mut reductions) = (0, 0, 0);
    let params = Params {
        low_watermark: 0.6,
        high_watermark: 1.2,
        ..Params::paper()
    };
    params.check().expect("valid params");
    for case in 0..48 {
        let mut cursor = MiniPlatform::new(builders::grid(3, 3), 40, params);
        cursor.refusal_mask = [0, 0, 3, 5][case % 4];
        let mut snapshot = cursor.clone();
        for script in &epochs(&mut rng, 40, 9, 10) {
            for &(obj, gw, count) in script {
                cursor.drive_requests(ObjectId::new(obj), NodeId::new(gw), count);
                snapshot.drive_requests(ObjectId::new(obj), NodeId::new(gw), count);
            }
            let got = cursor.placement_epoch_with(run_placement);
            let want = snapshot.placement_epoch_with(snapshot_walk_placement);
            assert_eq!(got, want, "case {case}");
            assert_eq!(cursor.hosts, snapshot.hosts, "case {case}");
            assert_eq!(cursor.redirector, snapshot.redirector, "case {case}");
            cursor.check_invariants();
            for o in &got {
                let count = |actions: &[A]| {
                    o.decisions
                        .iter()
                        .filter(|d| actions.contains(&d.action))
                        .count()
                };
                drops += count(&[A::Drop]);
                reductions += count(&[A::AffinityReduce]);
                let offloaded = count(&[A::LoadMigrate, A::LoadReplicate]);
                if count(&[A::Drop]) > 0 && count(&[A::GeoMigrate]) > 0 && offloaded > 0 {
                    all_three += 1;
                }
            }
        }
    }
    assert!(
        drops > 100 && reductions > 0,
        "{drops} drops, {reductions} reductions"
    );
    assert!(
        all_three > 0,
        "no run dropped, migrated and offloaded at once"
    );
}
