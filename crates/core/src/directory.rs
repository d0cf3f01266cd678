//! The replica directory: ownership of replica sets, affinities, and
//! request counts.
//!
//! The paper splits the platform into a redirector (the Fig. 2 decision
//! rule) and a *distributed directory* of replica locations the
//! redirector consults (§2, §5). [`Directory`] is that second half:
//! it owns the per-object [`ReplicaInfo`] sets and processes the
//! membership protocol — creation notifications *after* the copy
//! exists, drop arbitration *before* deletion, affinity updates, crash
//! purges — while [`crate::Redirector`] holds only the decision rule.
//! Every replica-set change resets the object's request counts to 1
//! where it happens (Fig. 2's accompanying rule; the precondition of
//! Theorem 5).

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
/// sets with request counts and affinities, and membership
/// notifications.
///
/// See the module docs for the layering rationale; [`crate::Redirector`]
/// wraps a `Directory` and adds the Fig. 2 decision rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    sets: Vec<ReplicaSet>,
    /// Count of replica-set change notifications processed, exposed for
    /// overhead accounting.
    notifications: u64,
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

    /// Records one provider update against `object`'s primary copy and
    /// returns the new update version (§5): how many provider updates
    /// have been issued against it. Replica churn never bumps it. The caller (the platform's §5
    /// propagation machinery) schedules per-replica delivery of this
    /// version asynchronously.
    pub fn bump_update_version(&mut self, object: ObjectId) -> u64 {
        self.update_versions[object.index()] += 1;
        self.update_versions[object.index()]
    }

    /// Does nothing: every change resets its object's counts at once.
    /// Kept because `benchmark/src/layers.rs` calls it.
    pub fn begin_batch(&mut self) {}

    /// Does nothing and returns 0: no reset is ever deferred. Kept
    /// because `benchmark/src/layers.rs` calls it.
    pub fn commit_batch(&mut self) -> usize {
        0
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
    /// accompanying rule.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn notify_created(&mut self, object: ObjectId, host: NodeId) {
        self.notifications += 1;
        let set = &mut self.sets[object.index()];
        if set.add(host) {
            self.total_replicas += 1;
        }
        set.reset_counts();
    }

    /// Notification that `host` reduced the affinity of its replica of
    /// `object` to `new_aff` (which must remain ≥ 1; a reduction to zero
    /// goes through [`request_drop`](Self::request_drop) instead).
    /// Resets the object's request counts.
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
        set.reset_counts();
    }

    /// A host's *intention to drop* its replica of `object` (the
    /// `ReduceAffinity` handshake, Fig. 3). The directory arbitrates:
    /// the last remaining replica may never be dropped. On approval the
    /// replica is removed from the set *before* the host deletes it,
    /// preserving the subset invariant; request counts reset.
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
        set.reset_counts();
        self.total_replicas -= 1;
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
                set.reset_counts();
                self.total_replicas -= 1;
                self.notifications += 1;
                affected.push(ObjectId::new(i as u32));
            }
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
    fn every_change_resets_counts_immediately() {
        // Each membership or affinity change resets the object's counts
        // on the spot; no reset waits for a later call.
        let mut d = Directory::new(1);
        for h in 0..3 {
            d.install(x(), node(h));
        }
        let all_one = |d: &Directory| d.replicas(x()).iter().all(|e| e.rcnt == 1);
        d.replicas_mut(x())[0].rcnt = 50;
        d.notify_created(x(), node(3));
        assert!(all_one(&d), "after a creation");
        d.replicas_mut(x())[1].rcnt = 40;
        d.notify_affinity(x(), node(3), 2);
        assert!(all_one(&d), "after an affinity change");
        d.replicas_mut(x())[2].rcnt = 30;
        assert!(d.request_drop(x(), node(0)));
        assert!(all_one(&d), "after a drop");
        let hosts: Vec<NodeId> = d.replicas(x()).iter().map(|e| e.host).collect();
        assert_eq!(hosts, vec![node(1), node(2), node(3)]);
        d.replicas_mut(x())[0].rcnt = 20;
        assert_eq!(d.purge_host(node(3)), vec![x()]);
        assert!(all_one(&d), "after a purge");
        assert_eq!(d.notifications(), 4);
    }

    #[test]
    fn purge_resets_survivors_and_removes_last_replicas() {
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
        // Randomized create/drop/purge sequences: after every
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
            for _ in 0..400 {
                let object = ObjectId::new(rng.index(num_objects as usize) as u32);
                let host = node(rng.index(num_hosts as usize) as u16);
                match rng.index(4) {
                    0 => d.install(object, host),
                    1 => d.notify_created(object, host),
                    2 => {
                        // Drops may be refused (unknown replica / last
                        // copy); the counter must be untouched then.
                        let _ = d.request_drop(object, host);
                    }
                    _ => {
                        let purged = d.purge_host(host);
                        // Re-seed purged-empty objects so the run keeps
                        // exercising drops.
                        for object in purged {
                            if d.replica_count(object) == 0 {
                                d.install(object, host);
                            }
                        }
                    }
                }
                check(&d);
            }
        }
    }

    #[test]
    fn update_versions_independent_of_membership() {
        let mut d = Directory::new(2);
        d.install(x(), node(0));
        assert_eq!(d.bump_update_version(x()), 1);
        assert_eq!(d.bump_update_version(x()), 2);
        // Membership churn leaves the update version alone.
        d.notify_created(x(), node(1));
        assert_eq!(d.bump_update_version(x()), 3);
        assert_eq!(d.bump_update_version(ObjectId::new(1)), 1);
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
