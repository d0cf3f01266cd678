//! The replica directory: ownership of replica sets, affinities, and
//! request counts, with batched application of placement-epoch updates.
//!
//! The paper splits the platform into a redirector (the Fig. 2 decision
//! rule) and a *distributed directory* of replica locations the
//! redirector consults (§2, §5). [`Directory`] is that second half:
//! it owns the per-object [`ReplicaInfo`] sets and processes the
//! membership protocol — creation notifications *after* the copy
//! exists, drop arbitration *before* deletion, affinity updates, crash
//! purges — while [`crate::Redirector`] holds only the decision rule.
//!
//! # Batched updates
//!
//! Every replica-set change resets the object's request counts to 1
//! (Fig. 2's accompanying rule; the precondition of Theorem 5). Within
//! one placement epoch a host may touch the same object several times —
//! drop one replica, create another, adjust affinity — and resetting
//! after each mutation is wasted work: counts are only ever *read* by
//! redirect decisions, and no decision runs in the middle of a
//! placement epoch. [`begin_batch`](Directory::begin_batch) therefore
//! defers the resets: membership and affinity changes still apply
//! immediately (drop arbitration and replication caps must see live
//! membership), but each touched object is reset exactly once at
//! [`commit_batch`](Directory::commit_batch). Because a reset-to-1 is
//! idempotent and no reader runs between the mutations, the observable
//! state at the first post-commit read is identical to the unbatched
//! protocol — seeded simulations stay byte-identical.

use radar_simnet::NodeId;

use crate::one_or_many::OneOrMany;
use crate::redirector::ReplicaInfo;
use crate::ObjectId;

/// Replica set of a single object. Entries are kept sorted by host id so
/// all scans are deterministic. A sole replica, the common case of a
/// cold object, is held inline: no heap block per object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ReplicaSet {
    entries: OneOrMany<ReplicaInfo>,
}

impl ReplicaSet {
    fn find(&self, host: NodeId) -> Option<usize> {
        self.entries.iter().position(|e| e.host == host)
    }

    /// One more affinity unit at `host`: a new replica in host order, or
    /// the existing one's affinity bumped. Returns `true` for a new
    /// replica.
    fn add(&mut self, host: NodeId) -> bool {
        match self.entries.binary_search_by_key(&host, |e| e.host) {
            Ok(i) => {
                self.entries[i].aff += 1;
                false
            }
            Err(i) => {
                let replica = ReplicaInfo {
                    host,
                    rcnt: 1,
                    aff: 1,
                };
                self.entries.insert(i, replica);
                true
            }
        }
    }

    /// Resets all request counts to 1 — the paper's rule on any replica
    /// set change, preventing a new replica from soaking up every request
    /// while its count catches up.
    fn reset_counts(&mut self) {
        for e in self.entries.iter_mut() {
            e.rcnt = 1;
        }
    }
}

/// The distributed directory of replica locations: per-object replica
/// sets with request counts and affinities, membership notifications,
/// and batched placement-epoch updates.
///
/// See the module docs for the layering rationale; [`crate::Redirector`]
/// wraps a `Directory` and adds the Fig. 2 decision rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    sets: Vec<ReplicaSet>,
    /// Count of replica-set change notifications processed, exposed for
    /// overhead accounting.
    notifications: u64,
    /// Objects touched by the active batch (unsorted, may repeat);
    /// `None` when updates apply immediately.
    batch: Option<Vec<ObjectId>>,
    /// Retired batch buffer, reused by the next `begin_batch` so
    /// steady-state epochs allocate nothing.
    batch_spare: Vec<ObjectId>,
    /// Total object-level count resets applied, for tests asserting the
    /// exactly-once batching contract.
    resets_applied: u64,
    /// Running count of physical replicas across all objects (one per
    /// `(object, host)` entry, regardless of affinity). Maintained
    /// incrementally so platform-wide censuses never rescan every
    /// object's set.
    total_replicas: u64,
    /// Per-object provider-update version (§5): bumped once per provider
    /// update issued against the object's primary copy; replica churn
    /// never touches it.
    update_versions: Vec<u64>,
}

impl Directory {
    /// Creates an empty directory for objects `0..num_objects`.
    pub fn new(num_objects: u32) -> Self {
        Self {
            sets: vec![ReplicaSet::default(); num_objects as usize],
            notifications: 0,
            batch: None,
            batch_spare: Vec::new(),
            resets_applied: 0,
            total_replicas: 0,
            update_versions: vec![0; num_objects as usize],
        }
    }

    /// Number of objects the directory tracks.
    pub fn num_objects(&self) -> usize {
        self.sets.len()
    }

    /// The current replicas of `object` (sorted by host id).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn replicas(&self, object: ObjectId) -> &[ReplicaInfo] {
        &self.sets[object.index()].entries
    }

    /// Number of distinct hosts holding `object`.
    pub fn replica_count(&self, object: ObjectId) -> usize {
        self.sets[object.index()].entries.len()
    }

    /// Total physical replicas across every object — the platform-wide
    /// census `Σ replica_count(o)`, maintained incrementally on every
    /// create / drop / purge so callers never rescan all objects.
    pub fn total_replicas(&self) -> u64 {
        self.total_replicas
    }

    /// Sum of affinities across all replicas of `object` — the number of
    /// *logical* replicas.
    pub fn total_affinity(&self, object: ObjectId) -> u32 {
        self.sets[object.index()]
            .entries
            .iter()
            .map(|e| e.aff)
            .sum()
    }

    /// Total number of replica-set change notifications processed.
    pub fn notifications(&self) -> u64 {
        self.notifications
    }

    /// The object's provider-update version (§5): how many provider
    /// updates have been issued against its primary copy. Replica churn
    /// never bumps it.
    pub fn update_version(&self, object: ObjectId) -> u64 {
        self.update_versions[object.index()]
    }

    /// Records one provider update against `object`'s primary copy and
    /// returns the new update version. The caller (the platform's §5
    /// propagation machinery) schedules per-replica delivery of this
    /// version asynchronously.
    pub fn bump_update_version(&mut self, object: ObjectId) -> u64 {
        self.update_versions[object.index()] += 1;
        self.update_versions[object.index()]
    }

    /// Total object-level count resets applied since construction. A
    /// batched epoch contributes exactly one per touched object.
    pub fn resets_applied(&self) -> u64 {
        self.resets_applied
    }

    /// Starts a placement-epoch batch: membership and affinity changes
    /// keep applying immediately, but count resets are deferred until
    /// [`commit_batch`](Self::commit_batch) and coalesced to one per
    /// touched object.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already active (epochs never nest).
    pub fn begin_batch(&mut self) {
        assert!(self.batch.is_none(), "placement-epoch batches never nest");
        self.batch = Some(std::mem::take(&mut self.batch_spare));
    }

    /// `true` while a placement-epoch batch is active.
    pub fn batching(&self) -> bool {
        self.batch.is_some()
    }

    /// Commits the active batch: every object touched since
    /// [`begin_batch`](Self::begin_batch) has its request counts reset
    /// to 1 exactly once (ascending object order, for determinism).
    /// Returns the number of objects reset.
    ///
    /// # Panics
    ///
    /// Panics if no batch is active.
    pub fn commit_batch(&mut self) -> usize {
        let mut touched = self.batch.take().expect("no active batch to commit");
        touched.sort_unstable();
        touched.dedup();
        for &object in &touched {
            self.sets[object.index()].reset_counts();
            self.resets_applied += 1;
        }
        let n = touched.len();
        touched.clear();
        self.batch_spare = touched;
        n
    }

    /// Routes one object's count reset: immediate outside a batch,
    /// deferred (once per object) inside one.
    fn touch(&mut self, object: ObjectId) {
        match &mut self.batch {
            Some(touched) => touched.push(object),
            None => {
                self.sets[object.index()].reset_counts();
                self.resets_applied += 1;
            }
        }
    }

    /// Installs an initial replica (bootstrap placement). Equivalent to a
    /// creation notification but does not reset request counts, so it can
    /// seed many objects cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn install(&mut self, object: ObjectId, host: NodeId) {
        if self.sets[object.index()].add(host) {
            self.total_replicas += 1;
        }
    }

    /// Notification that `host` created a new copy of `object` (or
    /// incremented its affinity). Sent *after* the copy exists, so the
    /// redirector never directs requests at a replica that is not there.
    /// Resets all request counts of the object to 1 per Fig. 2's
    /// accompanying rule (deferred under an active batch).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn notify_created(&mut self, object: ObjectId, host: NodeId) {
        self.notifications += 1;
        if self.sets[object.index()].add(host) {
            self.total_replicas += 1;
        }
        self.touch(object);
    }

    /// Notification that `host` reduced the affinity of its replica of
    /// `object` to `new_aff` (which must remain ≥ 1; a reduction to zero
    /// goes through [`request_drop`](Self::request_drop) instead).
    /// Resets request counts (deferred under an active batch).
    ///
    /// # Panics
    ///
    /// Panics if the replica is unknown or `new_aff` is zero.
    pub fn notify_affinity(&mut self, object: ObjectId, host: NodeId, new_aff: u32) {
        assert!(
            new_aff >= 1,
            "affinity reductions to zero must use request_drop"
        );
        self.notifications += 1;
        let set = &mut self.sets[object.index()];
        let i = set
            .find(host)
            .unwrap_or_else(|| panic!("affinity notification for unknown replica {object}@{host}"));
        set.entries[i].aff = new_aff;
        self.touch(object);
    }

    /// A host's *intention to drop* its replica of `object` (the
    /// `ReduceAffinity` handshake, Fig. 3). The directory arbitrates:
    /// the last remaining replica may never be dropped. On approval the
    /// replica is removed from the set *before* the host deletes it,
    /// preserving the subset invariant; request counts reset (deferred
    /// under an active batch).
    ///
    /// Returns `true` if the drop was approved.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn request_drop(&mut self, object: ObjectId, host: NodeId) -> bool {
        let set = &mut self.sets[object.index()];
        let Some(i) = set.find(host) else {
            return false;
        };
        if set.entries.len() == 1 {
            return false; // never drop the last replica
        }
        self.notifications += 1;
        set.entries.remove(i);
        self.total_replicas -= 1;
        self.touch(object);
        true
    }

    /// Force-removes every replica hosted on `host` — crash recovery,
    /// *not* the drop handshake: a host declared dead cannot negotiate,
    /// and even a last replica is removed (the data is gone with the
    /// host). Returns the affected objects, for the caller's
    /// re-replication sweep. Request counts of affected sets reset, like
    /// any other replica-set change.
    pub fn purge_host(&mut self, host: NodeId) -> Vec<ObjectId> {
        let mut affected = Vec::new();
        for (i, set) in self.sets.iter_mut().enumerate() {
            if let Some(pos) = set.find(host) {
                set.entries.remove(pos);
                self.total_replicas -= 1;
                self.notifications += 1;
                affected.push(ObjectId::new(i as u32));
            }
        }
        for &object in &affected {
            self.touch(object);
        }
        affected
    }

    /// Crate-internal mutable access for the decision rule (the winner's
    /// request count increments).
    pub(crate) fn replicas_mut(&mut self, object: ObjectId) -> &mut [ReplicaInfo] {
        &mut self.sets[object.index()].entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> ObjectId {
        ObjectId::new(0)
    }

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn install_and_create_merge_affinity() {
        let mut d = Directory::new(1);
        d.install(x(), node(3));
        d.notify_created(x(), node(3));
        assert_eq!(d.replica_count(x()), 1);
        assert_eq!(d.total_affinity(x()), 2);
    }

    #[test]
    fn last_replica_protected() {
        let mut d = Directory::new(1);
        d.install(x(), node(0));
        assert!(!d.request_drop(x(), node(0)));
        d.install(x(), node(1));
        assert!(d.request_drop(x(), node(0)));
        assert!(!d.request_drop(x(), node(1)));
        assert_eq!(d.replica_count(x()), 1);
    }

    #[test]
    fn drop_of_unknown_replica_refused() {
        let mut d = Directory::new(1);
        d.install(x(), node(0));
        d.install(x(), node(1));
        assert!(!d.request_drop(x(), node(7)));
    }

    #[test]
    fn batch_defers_resets_until_commit() {
        let mut d = Directory::new(1);
        d.install(x(), node(0));
        d.install(x(), node(1));
        d.replicas_mut(x())[0].rcnt = 50;
        d.begin_batch();
        d.notify_created(x(), node(2));
        assert_eq!(d.replicas(x())[0].rcnt, 50, "reset deferred while batching");
        assert_eq!(d.resets_applied(), 0);
        assert_eq!(d.commit_batch(), 1);
        assert!(d.replicas(x()).iter().all(|e| e.rcnt == 1));
        assert_eq!(d.resets_applied(), 1);
    }

    #[test]
    fn unbatched_resets_apply_immediately() {
        let mut d = Directory::new(1);
        d.install(x(), node(0));
        d.install(x(), node(1));
        d.replicas_mut(x())[0].rcnt = 50;
        d.notify_created(x(), node(2));
        assert!(d.replicas(x()).iter().all(|e| e.rcnt == 1));
        assert_eq!(d.resets_applied(), 1);
    }

    #[test]
    fn drop_and_create_same_epoch_reset_exactly_once() {
        // The Theorem 5 precondition: one placement epoch that both
        // drops and creates replicas of the same object applies the
        // membership atomically and resets counts to 1 exactly once.
        let mut d = Directory::new(1);
        d.install(x(), node(0));
        d.install(x(), node(1));
        d.replicas_mut(x())[0].rcnt = 40;
        d.replicas_mut(x())[1].rcnt = 7;

        d.begin_batch();
        assert!(d.request_drop(x(), node(0)));
        d.notify_created(x(), node(2));
        // Membership applied immediately — arbitration and replica caps
        // see live state mid-epoch.
        let hosts: Vec<NodeId> = d.replicas(x()).iter().map(|e| e.host).collect();
        assert_eq!(hosts, vec![node(1), node(2)]);
        assert_eq!(d.resets_applied(), 0, "no reset before commit");
        assert_eq!(d.commit_batch(), 1, "one object touched twice, reset once");
        assert_eq!(d.resets_applied(), 1);
        assert!(d.replicas(x()).iter().all(|e| e.rcnt == 1));
    }

    #[test]
    fn commit_resets_in_ascending_object_order() {
        let mut d = Directory::new(3);
        for i in 0..3 {
            d.install(ObjectId::new(i), node(0));
            d.install(ObjectId::new(i), node(1));
        }
        d.begin_batch();
        // Touch out of order, with a repeat.
        d.notify_created(ObjectId::new(2), node(2));
        d.notify_created(ObjectId::new(0), node(2));
        d.notify_created(ObjectId::new(2), node(3));
        assert_eq!(d.commit_batch(), 2);
        assert_eq!(d.resets_applied(), 2);
    }

    #[test]
    #[should_panic(expected = "never nest")]
    fn nested_batches_panic() {
        let mut d = Directory::new(1);
        d.begin_batch();
        d.begin_batch();
    }

    #[test]
    #[should_panic(expected = "no active batch")]
    fn commit_without_batch_panics() {
        let mut d = Directory::new(1);
        d.commit_batch();
    }

    #[test]
    fn purge_inside_and_outside_batches() {
        let mut d = Directory::new(2);
        d.install(x(), node(0));
        d.install(x(), node(1));
        d.install(ObjectId::new(1), node(0));
        d.replicas_mut(x())[1].rcnt = 9;
        let affected = d.purge_host(node(0));
        assert_eq!(affected, vec![x(), ObjectId::new(1)]);
        assert_eq!(d.replicas(x())[0].rcnt, 1, "survivors reset immediately");
        assert_eq!(d.replica_count(ObjectId::new(1)), 0, "last replica purged");
    }

    #[test]
    fn total_replica_counter_matches_per_object_sum() {
        // Randomized create/drop/purge/batch sequences: after every
        // mutation the incremental census equals the per-object rescan
        // it replaces.
        use radar_simcore::SimRng;
        let num_objects = 12u32;
        let num_hosts = 6u16;
        let check = |d: &Directory| {
            let rescan: u64 = (0..num_objects)
                .map(|i| d.replica_count(ObjectId::new(i)) as u64)
                .sum();
            assert_eq!(d.total_replicas(), rescan);
        };
        for seed in 0..4u64 {
            let mut rng = SimRng::seed_from(0xD1CE_0000 + seed);
            let mut d = Directory::new(num_objects);
            for i in 0..num_objects {
                d.install(ObjectId::new(i), node(rng.index(num_hosts as usize) as u16));
            }
            check(&d);
            for step in 0..400 {
                let object = ObjectId::new(rng.index(num_objects as usize) as u32);
                let host = node(rng.index(num_hosts as usize) as u16);
                match rng.index(5) {
                    0 => d.install(object, host),
                    1 => d.notify_created(object, host),
                    2 => {
                        // Drops may be refused (unknown replica / last
                        // copy); the counter must be untouched then.
                        let _ = d.request_drop(object, host);
                    }
                    3 => {
                        let purged = d.purge_host(host);
                        // Re-seed purged-empty objects so the run keeps
                        // exercising drops.
                        for object in purged {
                            if d.replica_count(object) == 0 {
                                d.install(object, host);
                            }
                        }
                    }
                    _ => {
                        d.begin_batch();
                        d.notify_created(object, host);
                        let victim = node(rng.index(num_hosts as usize) as u16);
                        let _ = d.request_drop(object, victim);
                        check(&d);
                        d.commit_batch();
                    }
                }
                check(&d);
                let _ = step;
            }
        }
    }

    #[test]
    fn update_versions_independent_of_membership() {
        let mut d = Directory::new(2);
        d.install(x(), node(0));
        assert_eq!(d.update_version(x()), 0);
        assert_eq!(d.bump_update_version(x()), 1);
        assert_eq!(d.bump_update_version(x()), 2);
        assert_eq!(d.update_version(x()), 2);
        // Membership churn leaves the update version alone.
        d.notify_created(x(), node(1));
        assert_eq!(d.update_version(x()), 2);
        assert_eq!(d.bump_update_version(ObjectId::new(1)), 1);
    }

    #[test]
    fn batched_state_equals_unbatched_state() {
        // The byte-identity argument in miniature: the same mutation
        // sequence applied batched and unbatched converges to identical
        // directory state at commit (nothing reads counts in between).
        let script = |d: &mut Directory| {
            assert!(d.request_drop(x(), node(0)));
            d.notify_created(x(), node(3));
            d.notify_affinity(x(), node(3), 2);
        };
        let setup = || {
            let mut d = Directory::new(1);
            for h in 0..3 {
                d.install(x(), node(h));
            }
            d.replicas_mut(x())[1].rcnt = 17;
            d
        };
        let mut batched = setup();
        let mut unbatched = setup();
        batched.begin_batch();
        script(&mut batched);
        batched.commit_batch();
        script(&mut unbatched);
        assert_eq!(batched.replicas(x()), unbatched.replicas(x()));
        assert_eq!(batched.notifications(), unbatched.notifications());
    }

    #[test]
    fn a_sole_replica_is_inline_and_equality_ignores_history() {
        assert!(
            std::mem::size_of::<ReplicaSet>() <= 24,
            "a replica set grew"
        );
        // Both end with one replica at host 3 after two notifications:
        // `inline` never held a second host, `spilled` did.
        let mut inline = Directory::new(1);
        inline.install(x(), node(3));
        inline.notify_created(x(), node(3));
        inline.notify_affinity(x(), node(3), 1);
        let mut spilled = Directory::new(1);
        spilled.install(x(), node(3));
        spilled.notify_created(x(), node(1));
        assert!(spilled.request_drop(x(), node(1)));
        assert!(matches!(inline.sets[0].entries, OneOrMany::One(_)));
        assert!(matches!(spilled.sets[0].entries, OneOrMany::Many(_)));
        assert_eq!(inline, spilled);
    }
}
