//! Per-host protocol state: hosted objects, access counts, affinities,
//! and windowed load measurement.

use radar_simnet::NodeId;

use crate::one_or_many::OneOrMany;
use crate::{LoadEstimator, ObjectId, Params};

/// State a host keeps for one of its object replicas (paper §4.1):
/// the replica affinity `aff(x_s)`, the requests since the last
/// placement run per preference path (from which
/// [`HostState::counts`] expands `cnt(p, x_s)`), and the replica's
/// measured request rate `load(x_s)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectState {
    aff: u32,
    /// `cnt(x_s)`: how often this host's own node lay on the preference
    /// paths of the requests counted in `route_counts` (once per
    /// request in a simulation, where every path starts at the host).
    /// This and the route counts are `u32`: wrapping would take 2^32
    /// requests to one replica within one placement period.
    own_count: u32,
    /// `(route id, requests)` since the last placement run, one pair per
    /// distinct preference path, sorted by route id (a binary search
    /// beats a linear probe once a hot object has been requested from
    /// dozens of gateways). Route ids index the host's `Routes`. A
    /// replica requested over one route keeps its pair inline.
    route_counts: OneOrMany<(u32, u32)>,
    /// Requests for this object serviced in the current (incomplete)
    /// measurement window.
    window_serviced: u64,
    /// `load(x_s)`: this replica's serviced-request rate over the last
    /// completed measurement window (requests/second).
    rate: f64,
    /// When this replica was last acquired (created or affinity-bumped)
    /// via `CreateObj`. Zero for bootstrap installs.
    acquired_at: f64,
}

impl ObjectState {
    /// The replica's affinity.
    pub fn aff(&self) -> u32 {
        self.aff
    }

    /// The replica's measured request rate `load(x_s)` (requests/second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The replica's *unit load* `load(x_s)/aff(x_s)`.
    pub fn unit_load(&self) -> f64 {
        self.rate / self.aff as f64
    }

    /// `cnt(x_s)`, the hosting node's own `cnt(s, x_s)`: its occurrences
    /// on the preference paths of the requests since the last placement
    /// run.
    pub fn own_count(&self) -> u64 {
        u64::from(self.own_count)
    }

    /// When this replica was last acquired via `CreateObj` (0 for
    /// bootstrap installs).
    pub fn acquired_at(&self) -> f64 {
        self.acquired_at
    }
}

/// The preference paths a host was handed since its last placement
/// run, each stored once. Under one routing view a path is a function
/// of (host, gateway), so a host sees one route per gateway until a
/// link change reroutes it; the new path gets a new id, so counts
/// recorded under the old one keep their meaning without a flush.
#[derive(Debug, Clone, Default, PartialEq)]
struct Routes {
    /// The paths, back to back.
    nodes: Vec<NodeId>,
    /// Route `r` is `nodes[spans[r].start..spans[r].end]`.
    spans: Vec<Route>,
    /// The latest route id per gateway (`path.last()`). Only a hint:
    /// an id is used only if its route equals the path at hand, so a
    /// stale or out-of-range entry just interns the path anew.
    by_gateway: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Route {
    start: u32,
    end: u32,
    /// How often the host's own node occurs on the route.
    own: u32,
}

impl Routes {
    /// The id of `path` and its multiplicity of `node`, interning the
    /// path unless it is its gateway's latest route. `None` for an empty
    /// path.
    fn intern(&mut self, node: NodeId, path: &[NodeId]) -> Option<(u32, u32)> {
        let gateway = path.last()?.index();
        if gateway >= self.by_gateway.len() {
            self.by_gateway.resize(gateway + 1, u32::MAX);
        }
        let id = self.by_gateway[gateway];
        if (id as usize) < self.spans.len() && self.path(id) == path {
            return Some((id, self.spans[id as usize].own));
        }
        let id = self.spans.len() as u32;
        let start = self.nodes.len() as u32;
        self.nodes.extend_from_slice(path);
        let own = path.iter().filter(|&&p| p == node).count() as u32;
        self.spans.push(Route {
            start,
            end: self.nodes.len() as u32,
            own,
        });
        self.by_gateway[gateway] = id;
        Some((id, own))
    }

    fn path(&self, id: u32) -> &[NodeId] {
        let route = self.spans[id as usize];
        &self.nodes[route.start as usize..route.end as usize]
    }

    /// Forgets every route; valid once no count refers to one.
    fn clear(&mut self) {
        self.nodes.clear();
        self.spans.clear();
    }
}

/// The protocol state of a single hosting server.
///
/// `HostState` is a pure state machine: the surrounding simulator (or
/// test) calls [`record_access`](Self::record_access) when a request
/// arrives, [`record_serviced`](Self::record_serviced) when its response
/// leaves, and [`advance`](Self::advance) to move the measurement clock.
/// The placement algorithms in [`crate::placement`] then read and mutate
/// this state through its public methods.
///
/// # Examples
///
/// ```
/// use radar_core::{HostState, ObjectId, Params};
/// use radar_simnet::NodeId;
///
/// let mut host = HostState::new(NodeId::new(0), Params::paper());
/// let x = ObjectId::new(7);
/// host.install_object(x);
/// host.record_access(x, &[NodeId::new(0), NodeId::new(3)]);
/// let o = host.object(x).unwrap();
/// assert_eq!(host.count(o, NodeId::new(3)), 1);
/// assert_eq!(o.own_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HostState {
    node: NodeId,
    params: Params,
    offloading: bool,
    load: LoadEstimator,
    window_start: f64,
    window_total: u64,
    /// Time of the most recently completed placement run.
    last_placement_run: f64,
    /// Maximum number of distinct objects this host can store
    /// (`None` = unbounded). The paper's §2.1 storage-load component,
    /// reduced to its admission effect: a full host refuses new copies.
    storage_limit: Option<usize>,
    /// Hosted object ids, ascending (the deterministic placement
    /// iteration order); `states[i]` is the state of `ids[i]`. Lookup is
    /// a binary search over contiguous `u32`s.
    ids: Vec<ObjectId>,
    states: Vec<ObjectState>,
    routes: Routes,
    active: ActivityLists,
}

/// Which objects were requested lately, so [`HostState::advance`] and
/// [`HostState::reset_access_counts`] touch those instead of every
/// hosted object. The lists hold ids, never indices, and may name an id
/// twice or one that was since dropped (or dropped and re-accepted with
/// fresh state): consumers skip ids no longer hosted and act only where
/// the state still asks for it.
#[derive(Debug, Clone, Default)]
struct ActivityLists {
    /// Objects serviced in the current window (`window_serviced > 0`).
    serviced: Vec<ObjectId>,
    /// Objects whose `rate` the last completed window set non-zero.
    rated: Vec<ObjectId>,
    /// Objects with non-empty `route_counts` since the last reset.
    counted: Vec<ObjectId>,
}

/// Always equal: the lists are bookkeeping whose order and duplicates
/// depend on the request interleaving, not on what the host holds, so
/// comparing two hosts compares protocol state only.
impl PartialEq for ActivityLists {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Where a host's table held an object when a request for it arrived,
/// handed back by [`HostState::record_access`] so that
/// [`HostState::record_serviced_hinted`] can skip the search. Only a
/// hint: placement may drop, insert or re-accept objects while the
/// request is queued, so the slot is used only if it still holds the
/// object, and slots beyond `u16::MAX − 1` are not hinted at all. Two
/// bytes, so that a request's completion event stays 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHint(u16);

impl SlotHint {
    /// A hint naming no slot.
    pub const NONE: SlotHint = SlotHint(u16::MAX);

    fn of(slot: usize) -> SlotHint {
        SlotHint(u16::try_from(slot).unwrap_or(u16::MAX))
    }
}

/// The state of `object` in the parallel `ids`/`states` table. A free
/// function over the two fields so callers can hold an activity list
/// borrowed at the same time.
fn state_mut<'a>(
    ids: &[ObjectId],
    states: &'a mut [ObjectState],
    object: ObjectId,
) -> Option<&'a mut ObjectState> {
    ids.binary_search(&object).ok().map(|i| &mut states[i])
}

impl HostState {
    /// Creates an empty host.
    pub fn new(node: NodeId, params: Params) -> Self {
        Self {
            node,
            params,
            offloading: false,
            load: LoadEstimator::new(),
            window_start: 0.0,
            window_total: 0,
            last_placement_run: 0.0,
            storage_limit: None,
            ids: Vec::new(),
            states: Vec::new(),
            routes: Routes::default(),
            active: ActivityLists::default(),
        }
    }

    /// Limits this host to at most `max_objects` distinct objects;
    /// `CreateObj` requests needing a new physical copy are refused once
    /// the limit is reached (affinity increments still succeed).
    ///
    /// # Panics
    ///
    /// Panics if `max_objects` is zero.
    pub fn set_storage_limit(&mut self, max_objects: usize) {
        assert!(
            max_objects > 0,
            "a host must be able to store at least one object"
        );
        self.storage_limit = Some(max_objects);
    }

    /// The storage limit, if any.
    pub fn storage_limit(&self) -> Option<usize> {
        self.storage_limit
    }

    /// `true` if a new physical copy would exceed the storage limit.
    pub fn storage_full(&self) -> bool {
        self.storage_limit
            .is_some_and(|limit| self.ids.len() >= limit)
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The protocol parameters this host runs with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Whether the host is in offloading mode (§4.2.2).
    pub fn is_offloading(&self) -> bool {
        self.offloading
    }

    /// Sets offloading mode (used by the placement driver).
    pub fn set_offloading(&mut self, offloading: bool) {
        self.offloading = offloading;
    }

    /// Number of distinct objects hosted.
    pub fn object_count(&self) -> usize {
        self.ids.len()
    }

    /// Sum of affinities over all hosted objects (logical replicas held).
    pub fn total_affinity(&self) -> u64 {
        self.states.iter().map(|o| o.aff as u64).sum()
    }

    /// `true` if this host has a replica of `object`.
    pub fn has_object(&self, object: ObjectId) -> bool {
        self.ids.binary_search(&object).is_ok()
    }

    /// The state of `object` on this host, if present.
    pub fn object(&self, object: ObjectId) -> Option<&ObjectState> {
        self.ids
            .binary_search(&object)
            .ok()
            .map(|i| &self.states[i])
    }

    /// The `index`-th hosted object in ascending id order — the placement
    /// scan's cursor access.
    ///
    /// # Panics
    ///
    /// Panics if `index >= object_count()`.
    pub fn object_at(&self, index: usize) -> (ObjectId, &ObjectState) {
        (self.ids[index], &self.states[index])
    }

    /// Iterates the hosted objects in ascending id order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectState)> + '_ {
        self.ids.iter().copied().zip(&self.states)
    }

    /// Ids of all hosted objects, ascending (deterministic placement
    /// iteration order).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.ids.clone()
    }

    /// Snapshots the hosted object ids (ascending) into a caller-owned
    /// buffer, so hot placement paths reuse one allocation across runs.
    pub fn collect_object_ids(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.ids);
    }

    // ---- measurement ----------------------------------------------------

    /// Rolls the measurement clock forward to `now`, completing any
    /// measurement intervals that have fully elapsed. Each completed
    /// interval installs per-object rates and the host-level measured
    /// load. Only objects serviced in the completed window or rated by
    /// the one before it are touched.
    pub fn advance(&mut self, now: f64) {
        let interval = self.params.measurement_interval;
        while now >= self.window_start + interval {
            let total_rate = self.window_total as f64 / interval;
            for id in self.active.rated.drain(..) {
                if let Some(obj) = state_mut(&self.ids, &mut self.states, id) {
                    obj.rate = 0.0;
                }
            }
            for id in self.active.serviced.drain(..) {
                // A duplicate, or an id dropped and re-accepted since it
                // was listed, finds nothing serviced and is skipped.
                if let Some(obj) = state_mut(&self.ids, &mut self.states, id) {
                    if obj.window_serviced > 0 {
                        obj.rate = obj.window_serviced as f64 / interval;
                        obj.window_serviced = 0;
                        self.active.rated.push(id);
                    }
                }
            }
            self.load.complete_window(total_rate, self.window_start);
            self.window_total = 0;
            self.window_start += interval;
        }
    }

    /// Records that a request for `object` passed through this host with
    /// the given preference path (host → gateway, inclusive): one more
    /// request over that route, from which `cnt(p, x_s)` counts every
    /// node `p` on the path (paper §4.1; see [`counts`](Self::counts)).
    ///
    /// Silently ignores objects this host does not hold — in the real
    /// system a request can race with a migration; the replica-set subset
    /// invariant makes this window tiny but not empty.
    ///
    /// Returns where the object sits in the host's table, for
    /// [`record_serviced_hinted`](Self::record_serviced_hinted) when the
    /// request completes ([`SlotHint::NONE`] for an object not held).
    pub fn record_access(&mut self, object: ObjectId, preference_path: &[NodeId]) -> SlotHint {
        let Ok(slot) = self.ids.binary_search(&object) else {
            return SlotHint::NONE;
        };
        let hint = SlotHint::of(slot);
        let obj = &mut self.states[slot];
        let Some((route, own)) = self.routes.intern(self.node, preference_path) else {
            return hint;
        };
        if obj.route_counts.is_empty() {
            self.active.counted.push(object);
        }
        obj.own_count += own;
        match obj.route_counts.binary_search_by_key(&route, |&(r, _)| r) {
            Ok(i) => obj.route_counts[i].1 += 1,
            Err(i) => obj.route_counts.insert(i, (route, 1)),
        }
        hint
    }

    /// `cnt(p, x_s)` of replica `o` of this host: how many requests
    /// since the last placement run had node `p` on their preference
    /// path, once per occurrence.
    pub fn count(&self, o: &ObjectState, p: NodeId) -> u64 {
        o.route_counts
            .iter()
            .map(|&(route, c)| {
                let on_path = self.routes.path(route).iter().filter(|&&q| q == p);
                u64::from(c) * on_path.count() as u64
            })
            .sum()
    }

    /// Writes `(p, cnt(p, x_s))` for every node `p` with a non-zero count
    /// of replica `o` into `out`, replacing its contents, in ascending
    /// node order. `out` is indexed by node while the routes are summed,
    /// so the cost is the routes' length plus the highest node id.
    pub fn counts(&self, o: &ObjectState, out: &mut Vec<(NodeId, u64)>) {
        out.clear();
        for &(route, c) in o.route_counts.iter() {
            for &p in self.routes.path(route) {
                if p.index() >= out.len() {
                    out.extend((out.len()..=p.index()).map(|i| (NodeId::new(i as u16), 0)));
                }
                out[p.index()].1 += u64::from(c);
            }
        }
        out.retain(|&(_, c)| c > 0);
    }

    /// Records that a request for `object` finished service at time
    /// `now` (drives the load measurement).
    pub fn record_serviced(&mut self, now: f64, object: ObjectId) {
        self.record_serviced_hinted(now, object, SlotHint::NONE);
    }

    /// [`record_serviced`](Self::record_serviced), looking in `hint`'s
    /// slot (from the request's [`record_access`](Self::record_access))
    /// first and searching only if it no longer holds `object`.
    pub fn record_serviced_hinted(&mut self, now: f64, object: ObjectId, hint: SlotHint) {
        self.advance(now);
        self.window_total += 1;
        let slot = usize::from(hint.0);
        let state = if self.ids.get(slot) == Some(&object) {
            Some(&mut self.states[slot])
        } else {
            state_mut(&self.ids, &mut self.states, object)
        };
        if let Some(obj) = state {
            if obj.window_serviced == 0 {
                self.active.serviced.push(object);
            }
            obj.window_serviced += 1;
        }
    }

    /// Clears all per-candidate access counts — done at the end of every
    /// placement run ("since the last execution of the replica placement
    /// algorithm") — and then the routes, which no count refers to any
    /// more.
    pub fn reset_access_counts(&mut self) {
        for id in self.active.counted.drain(..) {
            if let Some(obj) = state_mut(&self.ids, &mut self.states, id) {
                // A spilled list keeps its capacity and an inline pair
                // needs none: the next window's `record_access` refills
                // in place, so the per-epoch reset/refill cycle
                // performs no heap traffic.
                obj.route_counts.clear();
                obj.own_count = 0;
            }
        }
        self.routes.clear();
    }

    // ---- load views ------------------------------------------------------

    /// Measured load of the last completed interval (requests/second).
    pub fn measured_load(&self) -> f64 {
        self.load.measured()
    }

    /// Upper-limit load estimate, used for admission (CreateObj) checks.
    pub fn load_upper(&self) -> f64 {
        self.load.upper()
    }

    /// Lower-limit load estimate, used for offloading decisions.
    pub fn load_lower(&self) -> f64 {
        self.load.lower()
    }

    /// `true` while relocation load-estimate deltas are outstanding.
    pub fn in_estimate_mode(&self) -> bool {
        self.load.in_estimate_mode()
    }

    /// Time of this host's most recently completed placement run.
    ///
    /// A replica acquired *after* this instant has not yet lived through
    /// a full decision period, so its access counts cover only a partial
    /// window; the placement algorithm defers judging it until the next
    /// run. Without this rule a replica created at epoch T would be
    /// dropped by its recipient at the same epoch (empty counts ⇒ below
    /// the deletion threshold) — exactly the replicate/delete vicious
    /// cycle the paper's Theorem 5 is designed to exclude.
    pub fn last_placement_run(&self) -> f64 {
        self.last_placement_run
    }

    /// Marks a completed placement run at time `now`.
    pub fn mark_placement_run(&mut self, now: f64) {
        self.last_placement_run = now;
    }

    /// Records shedding load (Theorem 1/3 bound) at `now` — called by the
    /// offloading algorithm after a successful migration/replication away.
    pub fn note_shed(&mut self, now: f64, bound: f64) {
        self.load.note_shed(now, bound);
    }

    // ---- replica set mutations -------------------------------------------

    /// Installs an initial replica with affinity 1 (bootstrap placement;
    /// no load-estimate effects). If the object is already present its
    /// affinity is incremented.
    pub fn install_object(&mut self, object: ObjectId) {
        self.entry(object).0.aff += 1;
    }

    /// The state of `object`, inserted with defaults (affinity 0) at its
    /// sorted position when absent; the flag says whether it was.
    fn entry(&mut self, object: ObjectId) -> (&mut ObjectState, bool) {
        match self.ids.binary_search(&object) {
            Ok(i) => (&mut self.states[i], false),
            Err(i) => {
                self.ids.insert(i, object);
                self.states.insert(i, ObjectState::default());
                (&mut self.states[i], true)
            }
        }
    }

    /// Accepts an object via `CreateObj` at time `now`, applying the
    /// Theorem 2/4 upper-bound load delta (`4 × unit_load`). Returns
    /// `true` if a new physical copy was created (data transfer needed),
    /// `false` if this was an affinity increment.
    pub fn accept_object(&mut self, now: f64, object: ObjectId, unit_load: f64) -> bool {
        let (obj, new_copy) = self.entry(object);
        obj.aff += 1;
        obj.acquired_at = now;
        self.load.note_acquired(now, 4.0 * unit_load);
        new_copy
    }

    /// Decrements the affinity of `object`, which must be present with
    /// affinity ≥ 2 (a reduction to zero is a drop and goes through
    /// [`drop_object`](Self::drop_object) after redirector approval).
    /// Returns the new affinity.
    ///
    /// # Panics
    ///
    /// Panics if the object is missing or its affinity is 1.
    pub fn reduce_affinity(&mut self, object: ObjectId) -> u32 {
        let obj = state_mut(&self.ids, &mut self.states, object)
            .unwrap_or_else(|| panic!("reduce_affinity: {object} not hosted"));
        assert!(
            obj.aff >= 2,
            "reduce_affinity would drop the replica; use drop_object"
        );
        obj.aff -= 1;
        obj.aff
    }

    /// Removes the replica of `object` entirely (after redirector
    /// approval).
    ///
    /// # Panics
    ///
    /// Panics if the object is not hosted.
    pub fn drop_object(&mut self, object: ObjectId) {
        let i = self
            .ids
            .binary_search(&object)
            .unwrap_or_else(|_| panic!("drop_object: {object} not hosted"));
        self.ids.remove(i);
        self.states.remove(i);
        release_slack(&mut self.ids);
        release_slack(&mut self.states);
    }
}

/// Below this capacity a table keeps whatever it grew to.
const SLACK_FLOOR: usize = 64;

/// Gives back a table's capacity once drops leave it under a quarter
/// full, keeping twice its length (or the floor). Re-replication can
/// flood one host with thousands of copies that its placement runs
/// drop again; without this the host would keep the flood's capacity
/// for the rest of the run. Halving the length between two shrinks
/// keeps the copying amortised O(1) per drop.
fn release_slack<T>(v: &mut Vec<T>) {
    if v.capacity() > SLACK_FLOOR && v.len() * 4 < v.capacity() {
        v.shrink_to((2 * v.len()).max(SLACK_FLOOR));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostState {
        HostState::new(NodeId::new(0), Params::paper())
    }

    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn install_and_query() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1));
        h.install_object(x(2));
        assert!(h.has_object(x(1)));
        assert_eq!(h.object(x(1)).unwrap().aff(), 2);
        assert_eq!(h.object_count(), 2);
        assert_eq!(h.total_affinity(), 3);
        assert_eq!(h.object_ids(), vec![x(1), x(2)]);
        assert!(h.object(x(9)).is_none());
    }

    #[test]
    fn access_counts_accumulate_along_path() {
        let mut h = host();
        h.install_object(x(1));
        let path = [NodeId::new(0), NodeId::new(4), NodeId::new(7)];
        h.record_access(x(1), &path);
        h.record_access(x(1), &path[..2]);
        let obj = h.object(x(1)).unwrap();
        assert_eq!(h.count(obj, NodeId::new(0)), 2);
        assert_eq!(h.count(obj, NodeId::new(4)), 2);
        assert_eq!(h.count(obj, NodeId::new(7)), 1);
        assert_eq!(h.count(obj, NodeId::new(9)), 0);
        assert_eq!(obj.own_count(), 2);
        let mut counts = Vec::new();
        h.counts(obj, &mut counts);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn a_single_route_count_is_inline_and_equality_ignores_history() {
        assert!(
            std::mem::size_of::<ObjectState>() <= 56,
            "a replica's state grew"
        );
        let path = |gateway: u16| [NodeId::new(0), NodeId::new(gateway)];
        // Both hosts see gateways 4 and 5, but only `spilled` requests
        // x1 over two routes.
        let mut inline = host();
        let mut spilled = host();
        for h in [&mut inline, &mut spilled] {
            h.install_object(x(1));
            h.install_object(x(2));
            h.record_access(x(1), &path(4));
        }
        inline.record_access(x(2), &path(5));
        spilled.record_access(x(1), &path(5));
        spilled.record_access(x(2), &path(5));
        assert!(matches!(
            inline.object(x(1)).unwrap().route_counts,
            OneOrMany::One(_)
        ));
        assert!(matches!(
            spilled.object(x(1)).unwrap().route_counts,
            OneOrMany::Many(_)
        ));
        inline.reset_access_counts();
        spilled.reset_access_counts();
        assert_eq!(inline, spilled);
    }

    #[test]
    fn drops_give_a_flood_s_capacity_back() {
        let mut h = host();
        for i in 0..10_000 {
            h.accept_object(1.0, x(i), 0.1);
        }
        let path = [NodeId::new(0), NodeId::new(5)];
        h.record_access(x(1_000), &path);
        let kept: Vec<ObjectId> = (0..10_000).step_by(1_000).map(x).collect();
        let states: Vec<_> = kept.iter().map(|&o| h.object(o).cloned()).collect();
        let counts = |h: &HostState| {
            let o = h.object(x(1_000)).unwrap();
            path.map(|p| h.count(o, p))
        };
        let before = counts(&h);
        for i in (0..10_000).filter(|i| i % 1_000 != 0) {
            h.drop_object(x(i));
        }
        assert_eq!(h.object_count(), 10);
        for cap in [h.ids.capacity(), h.states.capacity()] {
            assert!(cap <= 4 * 10 + SLACK_FLOOR, "capacity {cap} for 10 objects");
        }
        assert_eq!(h.object_ids(), kept);
        for (&o, state) in kept.iter().zip(&states) {
            assert_eq!(h.object(o).cloned(), *state);
        }
        assert_eq!(counts(&h), before);
        assert_eq!(before, [1, 1]);
        assert_eq!(h.object(x(1)), None);
    }

    #[test]
    fn access_to_missing_object_ignored() {
        let mut h = host();
        h.record_access(x(5), &[NodeId::new(0)]);
        assert!(!h.has_object(x(5)));
    }

    #[test]
    fn reset_access_counts_clears_all() {
        let mut h = host();
        h.install_object(x(1));
        h.record_access(x(1), &[NodeId::new(0)]);
        h.reset_access_counts();
        let obj = h.object(x(1)).unwrap();
        assert_eq!(h.count(obj, NodeId::new(0)), 0);
        assert_eq!(obj.own_count(), 0);
    }

    #[test]
    fn measurement_windows_produce_rates() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(2));
        // 40 services of x1 and 20 of x2 over [0, 20).
        for i in 0..40 {
            h.record_serviced(i as f64 * 0.5, x(1));
        }
        for i in 0..20 {
            h.record_serviced(i as f64 * 0.5, x(2));
        }
        h.advance(20.0);
        assert_eq!(h.measured_load(), 3.0);
        assert_eq!(h.object(x(1)).unwrap().rate(), 2.0);
        assert_eq!(h.object(x(2)).unwrap().rate(), 1.0);
        // Idle interval zeroes rates.
        h.advance(60.0);
        assert_eq!(h.measured_load(), 0.0);
        assert_eq!(h.object(x(1)).unwrap().rate(), 0.0);
    }

    #[test]
    fn unit_load_divides_by_affinity() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1)); // aff = 2
        for i in 0..40 {
            h.record_serviced(i as f64 * 0.5, x(1));
        }
        h.advance(20.0);
        let obj = h.object(x(1)).unwrap();
        assert_eq!(obj.rate(), 2.0);
        assert_eq!(obj.unit_load(), 1.0);
    }

    #[test]
    fn accept_object_applies_upper_bound() {
        let mut h = host();
        let new_copy = h.accept_object(5.0, x(1), 2.5);
        assert!(new_copy);
        assert_eq!(h.object(x(1)).unwrap().aff(), 1);
        assert_eq!(h.load_upper(), 10.0);
        assert!(h.in_estimate_mode());
        // Accepting again increments affinity, no new copy.
        let new_copy = h.accept_object(6.0, x(1), 2.5);
        assert!(!new_copy);
        assert_eq!(h.object(x(1)).unwrap().aff(), 2);
        assert_eq!(h.load_upper(), 20.0);
    }

    #[test]
    fn estimate_mode_clears_after_clean_window() {
        let mut h = host();
        h.accept_object(5.0, x(1), 1.0);
        h.advance(20.0); // window [0,20) contains the relocation: dirty
        assert!(h.in_estimate_mode());
        h.advance(40.0); // window [20,40) is clean
        assert!(!h.in_estimate_mode());
    }

    #[test]
    fn shed_lowers_lower_estimate() {
        let mut h = host();
        for i in 0..100 {
            h.record_serviced(i as f64 * 0.2, x(1));
        }
        h.advance(20.0);
        assert_eq!(h.measured_load(), 5.0);
        h.note_shed(21.0, 2.0);
        assert_eq!(h.load_lower(), 3.0);
        assert_eq!(h.load_upper(), 5.0);
    }

    #[test]
    fn reduce_and_drop() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1));
        assert_eq!(h.reduce_affinity(x(1)), 1);
        h.drop_object(x(1));
        assert!(!h.has_object(x(1)));
    }

    #[test]
    #[should_panic(expected = "use drop_object")]
    fn reduce_affinity_at_one_panics() {
        let mut h = host();
        h.install_object(x(1));
        h.reduce_affinity(x(1));
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn drop_missing_panics() {
        let mut h = host();
        h.drop_object(x(1));
    }

    #[test]
    fn storage_limit_reported() {
        let mut h = host();
        assert!(h.storage_limit().is_none());
        assert!(!h.storage_full());
        h.set_storage_limit(2);
        h.install_object(x(1));
        assert!(!h.storage_full());
        h.install_object(x(2));
        assert!(h.storage_full());
        // Affinity on an existing object is not new storage.
        h.install_object(x(1));
        assert_eq!(h.object_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_storage_limit_rejected() {
        let mut h = host();
        h.set_storage_limit(0);
    }

    /// One replica as the earlier `HostState` kept it: `cnt(p, x_s)`
    /// stored per node, every node of every request's path probed.
    #[derive(Default)]
    struct ModelObject {
        aff: u32,
        access_counts: Vec<(NodeId, u64)>,
        window_serviced: u64,
        rate: f64,
        acquired_at: f64,
    }

    impl ModelObject {
        fn count(&self, p: NodeId) -> u64 {
            self.access_counts
                .iter()
                .find(|&&(q, _)| q == p)
                .map_or(0, |&(_, c)| c)
        }
    }

    /// The earlier `HostState`: a `BTreeMap` of objects, every one of
    /// them visited by `advance` and `reset_access_counts`, with
    /// per-node access counts. Kept as the oracle for the dense table,
    /// its activity lists and the per-route counts.
    struct ModelHost {
        interval: f64,
        load: LoadEstimator,
        window_start: f64,
        window_total: u64,
        objects: std::collections::BTreeMap<ObjectId, ModelObject>,
    }

    impl ModelHost {
        fn advance(&mut self, now: f64) {
            while now >= self.window_start + self.interval {
                let total_rate = self.window_total as f64 / self.interval;
                for obj in self.objects.values_mut() {
                    obj.rate = obj.window_serviced as f64 / self.interval;
                    obj.window_serviced = 0;
                }
                self.load.complete_window(total_rate, self.window_start);
                self.window_total = 0;
                self.window_start += self.interval;
            }
        }

        fn record_access(&mut self, object: ObjectId, path: &[NodeId]) {
            if let Some(obj) = self.objects.get_mut(&object) {
                for &p in path {
                    match obj.access_counts.iter_mut().find(|&&mut (q, _)| q == p) {
                        Some(&mut (_, ref mut c)) => *c += 1,
                        None => obj.access_counts.push((p, 1)),
                    }
                }
            }
        }

        fn record_serviced(&mut self, now: f64, object: ObjectId) {
            self.advance(now);
            self.window_total += 1;
            if let Some(obj) = self.objects.get_mut(&object) {
                obj.window_serviced += 1;
            }
        }

        fn accept_object(&mut self, now: f64, object: ObjectId, unit_load: f64) -> bool {
            let new_copy = !self.objects.contains_key(&object);
            let obj = self.objects.entry(object).or_default();
            obj.aff += 1;
            obj.acquired_at = now;
            self.load.note_acquired(now, 4.0 * unit_load);
            new_copy
        }
    }

    /// Every observable of `host` against the model's.
    fn assert_matches_model(host: &HostState, model: &ModelHost, nodes: u16, step: usize) {
        assert_eq!(
            host.object_ids(),
            model.objects.keys().copied().collect::<Vec<_>>(),
            "step {step}"
        );
        let mut counts = Vec::new();
        for (id, want) in &model.objects {
            let got = host.object(*id).expect("hosted in both");
            assert_eq!(got.aff(), want.aff, "step {step}: aff of {id}");
            assert_eq!(got.rate(), want.rate, "step {step}: rate of {id}");
            assert_eq!(
                got.unit_load(),
                want.rate / want.aff as f64,
                "step {step}: {id}"
            );
            assert_eq!(got.acquired_at(), want.acquired_at, "step {step}: {id}");
            for p in (0..nodes).map(NodeId::new) {
                assert_eq!(
                    host.count(got, p),
                    want.count(p),
                    "step {step}: cnt({p}, {id})"
                );
            }
            assert_eq!(got.own_count(), want.count(host.node()), "step {step}");
            host.counts(got, &mut counts);
            counts.sort_unstable();
            let mut wanted = want.access_counts.clone();
            wanted.sort_unstable();
            assert_eq!(counts, wanted, "step {step}: counts of {id}");
        }
        assert_eq!(host.measured_load(), model.load.measured(), "step {step}");
        assert_eq!(host.load_upper(), model.load.upper(), "step {step}");
        assert_eq!(host.load_lower(), model.load.lower(), "step {step}");
    }

    #[test]
    fn dense_table_matches_the_tree_map_model() {
        use radar_simcore::SimRng;
        const IDS: usize = 24;
        const NODES: u16 = 6;
        const STEPS: usize = 12_000;
        let mut steps_run = 0;
        let mut reaccepted_in_window = 0;
        let mut rerouted_in_window = 0;
        // Completions through hints that no longer name the object's slot.
        let (mut shifted, mut reaccepted, mut out_of_range) = (0, 0, 0);
        for seed in 0..10u64 {
            let mut rng = SimRng::seed_from(0xD3_5E00 + seed);
            let mut host = host();
            let mut model = ModelHost {
                interval: host.params().measurement_interval,
                load: LoadEstimator::new(),
                window_start: 0.0,
                window_total: 0,
                objects: Default::default(),
            };
            // The routing view: one path from the host (node 0) to each
            // gateway, rerouted now and then as a link change would.
            let reroute = |rng: &mut SimRng, gateway: u16| -> Vec<NodeId> {
                let mut path = vec![NodeId::new(0)];
                if gateway > 0 {
                    path.extend((0..rng.index(3)).map(|_| NodeId::new(1 + rng.index(5) as u16)));
                    path.push(NodeId::new(gateway));
                }
                path
            };
            let mut view: Vec<Vec<NodeId>> = (0..NODES).map(|g| reroute(&mut rng, g)).collect();
            // The path each gateway's requests took since the last reset.
            let mut taken: Vec<Option<Vec<NodeId>>> = vec![None; NODES as usize];
            // Each id's hint from its latest `record_access`, and whether
            // the id was dropped and re-accepted since.
            let mut hints: Vec<Option<(SlotHint, bool)>> = vec![None; IDS];
            let mut now = 0.0f64;
            for step in 0..STEPS {
                let id = x(rng.index(IDS) as u32);
                match rng.index(18) {
                    0 => {
                        host.install_object(id);
                        model.objects.entry(id).or_default().aff += 1;
                    }
                    1 | 2 => {
                        let unit_load = rng.index(4) as f64 * 0.25;
                        assert_eq!(
                            host.accept_object(now, id, unit_load),
                            model.accept_object(now, id, unit_load)
                        );
                    }
                    3 => {
                        if model.objects.get(&id).is_some_and(|o| o.aff >= 2) {
                            host.reduce_affinity(id);
                            model.objects.get_mut(&id).expect("checked").aff -= 1;
                        }
                    }
                    4 | 5 => {
                        if model.objects.remove(&id).is_some() {
                            host.drop_object(id);
                            if let Some((_, moved)) = &mut hints[id.index()] {
                                *moved = true;
                            }
                            // Half of the drops come straight back, inside
                            // the window that listed the old replica.
                            if rng.chance(0.5) {
                                host.accept_object(now, id, 0.5);
                                model.accept_object(now, id, 0.5);
                                reaccepted_in_window += 1;
                            }
                        }
                    }
                    6..=9 => {
                        // Mostly the view's route; otherwise an arbitrary
                        // path (empty, without the host, or with repeats).
                        let path: Vec<NodeId> = if rng.chance(0.7) {
                            view[rng.index(NODES as usize)].clone()
                        } else {
                            (0..rng.index(4))
                                .map(|_| NodeId::new(rng.index(NODES as usize) as u16))
                                .collect()
                        };
                        if let (Some(g), true) = (path.last(), model.objects.contains_key(&id)) {
                            let before = taken[g.index()].replace(path.clone());
                            rerouted_in_window += usize::from(before.is_some_and(|b| b != path));
                        }
                        let hint = host.record_access(id, &path);
                        hints[id.index()] = Some((hint, false));
                        model.record_access(id, &path);
                    }
                    10..=13 => {
                        // No hint, the id's latest (stale once placement
                        // moved it), another slot, or beyond the table.
                        let hint = match rng.index(4) {
                            0 => None,
                            1 => hints[id.index()].map(|(hint, moved)| {
                                let held = host.ids.get(usize::from(hint.0));
                                if moved && model.objects.contains_key(&id) {
                                    reaccepted += 1;
                                } else if held.is_some_and(|&o| o != id) {
                                    shifted += 1;
                                }
                                hint
                            }),
                            2 => Some(SlotHint(rng.index(IDS) as u16)),
                            _ => {
                                out_of_range += 1;
                                Some(SlotHint::of(host.object_count() + rng.index(3)))
                            }
                        };
                        match hint {
                            Some(hint) => host.record_serviced_hinted(now, id, hint),
                            None => host.record_serviced(now, id),
                        }
                        model.record_serviced(now, id);
                    }
                    14 => {
                        // Stay in the window, finish it, or skip several.
                        now += [0.0, 0.5, 7.0, 20.0, 45.0, 130.0][rng.index(6)];
                        host.advance(now);
                        model.advance(now);
                    }
                    15 | 16 => {
                        let gateway = rng.index(NODES as usize);
                        view[gateway] = reroute(&mut rng, gateway as u16);
                    }
                    _ => {
                        host.reset_access_counts();
                        for obj in model.objects.values_mut() {
                            obj.access_counts.clear();
                        }
                        taken.iter_mut().for_each(|t| *t = None);
                    }
                }
                assert_matches_model(&host, &model, NODES, step);
                steps_run += 1;
            }
        }
        assert!(
            steps_run >= 100_000 && reaccepted_in_window > 1_000 && rerouted_in_window > 1_000,
            "{reaccepted_in_window} re-accepted, {rerouted_in_window} rerouted"
        );
        assert!(
            shifted > 500 && reaccepted > 500 && out_of_range > 2_000,
            "stale hints: {shifted} shifted, {reaccepted} re-accepted, {out_of_range} out of range"
        );
    }

    #[test]
    fn route_flaps_do_not_grow_the_route_arena_across_epochs() {
        // Gateway 3 flaps between two routes on every request: each flap
        // interns a route, and the reset at the end of the epoch frees
        // them all, so the arena's size and capacity settle after the
        // first epoch.
        let n = NodeId::new;
        let (a, b) = ([n(0), n(1), n(3)], [n(0), n(2), n(3)]);
        let mut h = host();
        h.install_object(x(1));
        let mut capacity = None;
        for epoch in 0..50 {
            for flap in 0..10 {
                h.record_access(x(1), if flap % 2 == 0 { &a } else { &b });
            }
            let o = h.object(x(1)).unwrap();
            assert_eq!((h.count(o, n(0)), h.count(o, n(3))), (10, 10));
            assert_eq!((h.count(o, n(1)), h.count(o, n(2))), (5, 5));
            assert_eq!(h.routes.spans.len(), 10, "epoch {epoch}");
            assert_eq!(h.routes.nodes.len(), 30, "epoch {epoch}");
            let now = (h.routes.spans.capacity(), h.routes.nodes.capacity());
            assert_eq!(*capacity.get_or_insert(now), now, "epoch {epoch}");
            h.reset_access_counts();
            assert!(h.routes.spans.is_empty() && h.routes.nodes.is_empty());
            assert_eq!(h.object(x(1)).unwrap().own_count(), 0);
        }
    }

    #[test]
    fn equality_ignores_activity_list_order() {
        let path = [NodeId::new(0), NodeId::new(2)];
        let build = |order: [u32; 3]| {
            let mut h = host();
            for i in 1..=3 {
                h.install_object(x(i));
            }
            for i in order {
                h.record_access(x(i), &path);
                h.record_serviced(1.0, x(i));
            }
            // A stale listing: served, dropped, re-accepted.
            h.drop_object(x(order[0]));
            h.accept_object(2.0, x(order[0]), 0.0);
            h.record_access(x(order[0]), &path);
            h.record_serviced(3.0, x(order[0]));
            h
        };
        let (a, mut b) = (build([1, 2, 3]), build([1, 3, 2]));
        assert_ne!(a.active.serviced, b.active.serviced, "the lists do differ");
        assert_eq!(a, b);
        b.record_serviced(4.0, x(2));
        assert_ne!(a, b, "protocol state is still compared");
    }

    #[test]
    fn offloading_flag() {
        let mut h = host();
        assert!(!h.is_offloading());
        h.set_offloading(true);
        assert!(h.is_offloading());
    }
}
