//! Online replica-set invariant auditing over the event stream.
//!
//! The paper's correctness contract for replica management is the
//! replica-set invariant: a host notifies the directory *after*
//! creating a copy and *before* deleting one, so the directory's
//! replica set is always a subset of the copies that physically exist
//! (§3). [`InvariantAuditor`] checks that contract from the outside,
//! using only the flight-recorder stream: it reconstructs each
//! object's replica set from placement actions, counts-reset
//! notifications, re-replications and redirect decisions, and flags
//! any event that contradicts the reconstruction.
//!
//! Checks performed, in stream order:
//!
//! - **drop-before-notify** — a `drop` placement action with no
//!   matching `counts-reset(dropped)` notification in the same
//!   placement epoch: the host deleted its copy without telling the
//!   directory first.
//! - **orphaned-replica** — a replicate/migrate placement action with
//!   no matching `counts-reset(created)` notification: a physical copy
//!   exists that the directory was never told about, so it can never
//!   serve.
//! - **use-after-drop** — a redirect decision whose chosen host or
//!   candidate list includes a host whose replica was previously
//!   dropped (and never recreated): the directory redirected traffic
//!   at a copy that no longer exists.
//! - **disagreement** — bookkeeping mismatches that are neither of the
//!   above, e.g. a migration source that neither dropped its copy nor
//!   reported an affinity reduction.
//!
//! The auditor is deliberately lenient about what it cannot know:
//! initial placement emits no events, so a host first seen serving or
//! listed as a candidate is admitted as an inferred initial replica;
//! purges after a crash name no host, so every currently-down host's
//! copy is demoted to *unknown* (not absent) — a recovered host that
//! kept its replicas never trips a false positive. Requests already
//! redirected when a replica was dropped may legitimately complete
//! afterwards, so `served` events are never flagged — only decisions,
//! which read live directory state, are. A `primary-fallback`
//! decision means the platform found no usable replica and re-fetched
//! the object from the provider origin, installing a copy at the live
//! primary without a placement event; the decision itself is the only
//! trace of that install, so the chosen host is marked present rather
//! than checked.

use crate::event::{tags, Event, EventKind, PlacementActionKind, ResetCause};
use crate::idtable::{at, IdTable};
use std::fmt;
use ViolationKind as V;

/// What the directory/host reconstruction knows about one `(object,
/// host)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Presence {
    /// Never mentioned, or demoted after a purge the stream cannot
    /// attribute to a single host.
    #[default]
    Unknown,
    /// The host holds a copy (created in-stream or inferred from use).
    Present,
    /// The host's copy was dropped and not recreated since.
    Absent,
}

/// The category of an audited inconsistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A replica was deleted without a directory notification.
    DropBeforeNotify,
    /// A replica was created without a directory notification.
    OrphanedReplica,
    /// The directory referenced a replica that was already dropped.
    UseAfterDrop,
    /// Directory and host bookkeeping disagree in some other way.
    Disagreement,
}

tags!(ViolationKind {
    DropBeforeNotify => "drop-before-notify",
    OrphanedReplica => "orphaned-replica",
    UseAfterDrop => "use-after-drop",
    Disagreement => "disagreement",
});

/// One replica-set-invariant violation, anchored to the offending
/// event's sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Sequence number of the event that exposed the inconsistency.
    pub seq: u64,
    /// Simulated time of that event (seconds).
    pub t: f64,
    /// The object whose replica set is inconsistent.
    pub object: u32,
    /// The host involved, when one is identifiable.
    pub host: Option<u16>,
    /// The category of the inconsistency.
    pub kind: ViolationKind,
    /// Human-readable description of what contradicted what.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {} (t={:.3}s) {}: {}",
            self.seq, self.t, self.kind, self.detail
        )
    }
}

/// The replica-set change one folded event implied, reported back to
/// callers (the [`crate::ObjectLedger`]) so churn accounting shares the
/// auditor's reconstruction instead of duplicating it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditDelta {
    /// A copy appeared on this host; `true` when it is a new physical
    /// copy (data actually moved), `false` when the target already held
    /// one and only its affinity grew.
    pub created: Option<(u16, bool)>,
    /// A copy disappeared from this host.
    pub removed: Option<u16>,
    /// The event was a migration `(source, target)`.
    pub migration: Option<(u16, u16)>,
}

/// Streaming replica-set invariant auditor.
///
/// Fold events in sequence order via [`fold`](Self::fold) — the order
/// every observer and every written JSONL log already has — and read
/// accumulated [`violations`](Self::violations) at any point. The fold
/// is an online check: each violation is detected at the event that
/// exposes it.
///
/// ```
/// use radar_obs::{Event, EventKind, InvariantAuditor, PlacementActionEvent,
///                 PlacementActionKind};
///
/// let mut audit = InvariantAuditor::new();
/// // A drop with no counts-reset notification in the same epoch:
/// audit.fold(&Event {
///     seq: 1,
///     parent: None,
///     t: 60.0,
///     queue_depth: 0,
///     kind: EventKind::PlacementAction(PlacementActionEvent {
///         host: 3,
///         object: 7,
///         action: PlacementActionKind::Drop,
///         target: None,
///         unit_rate: 0.001,
///         share: None,
///         ratio: None,
///         deletion_threshold: 0.01,
///         replication_threshold: 0.18,
///     }),
/// });
/// assert_eq!(audit.violations().len(), 1);
/// assert_eq!(audit.violations()[0].seq, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvariantAuditor {
    /// Reconstructed replica presence, `state[object][host]`; a row is
    /// as long as the highest host id mentioned for its object.
    state: IdTable<Vec<Presence>>,
    /// Directory notifications (counts-resets) of the latest reset
    /// timestamp not yet paired with their placement action.
    pending: Resets,
    /// `down[host]`: hosts currently crashed, from fault-transition
    /// descriptions.
    down: Vec<bool>,
    violations: Vec<Violation>,
    /// Running count of pairs in `state` that are `Present`.
    present_count: u64,
    events_seen: u64,
}

impl InvariantAuditor {
    /// Creates an empty auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// All violations detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total events folded.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Replicas currently reconstructed as present, across all objects.
    /// Inferred initial replicas count once first observed in use.
    pub fn active_replicas(&self) -> u64 {
        self.present_count
    }

    /// Whether the reconstruction currently believes `host` holds a
    /// copy of `object`.
    pub fn is_present(&self, object: u32, host: u16) -> bool {
        self.presence(object, host) == Presence::Present
    }

    /// Every host the reconstruction currently believes holds a copy
    /// of `object`, ascending.
    pub fn present_hosts(&self, object: u32) -> Vec<u16> {
        let hosts = self.state.get(object).map_or(&[][..], Vec::as_slice);
        let present = (0u16..).zip(hosts).filter(|(_, &p)| p == Presence::Present);
        present.map(|(host, _)| host).collect()
    }

    fn presence(&self, object: u32, host: u16) -> Presence {
        self.state
            .get(object)
            .and_then(|hosts| hosts.get(usize::from(host)))
            .copied()
            .unwrap_or(Presence::Unknown)
    }

    /// The `(object, host)` slot, `Unknown` until first mentioned.
    fn slot(&mut self, object: u32, host: u16) -> &mut Presence {
        at(self.state.entry(object), host.into())
    }

    fn set_presence(&mut self, object: u32, host: u16, next: Presence) {
        let slot = self.slot(object, host);
        let was = std::mem::replace(slot, next);
        match (was, next) {
            (Presence::Present, Presence::Present) => {}
            (Presence::Present, _) => self.present_count -= 1,
            (_, Presence::Present) => self.present_count += 1,
            _ => {}
        }
    }

    /// Records a `kind` violation of `object` on `host`, exposed by `event`.
    fn flag(&mut self, event: &Event, object: u32, host: u16, kind: ViolationKind, detail: String) {
        self.violations.push(Violation {
            seq: event.seq,
            t: event.t,
            object,
            host: Some(host),
            kind,
            detail,
        });
    }

    /// Folds one event into the reconstruction, returning the replica
    /// change it implied (for churn accounting layered on top).
    pub fn fold(&mut self, event: &Event) -> AuditDelta {
        let mut pending = std::mem::take(&mut self.pending);
        let delta = self.fold_with(event, &mut pending);
        self.pending = pending;
        delta
    }

    /// [`fold`](Self::fold), pairing notifications through `pending`.
    fn fold_with(&mut self, event: &Event, pending: &mut impl PairResets) -> AuditDelta {
        self.events_seen += 1;
        let mut delta = AuditDelta::default();
        match &event.kind {
            EventKind::CountsReset { object, cause } => match cause {
                // A purge names no host; the purged host is one of the
                // currently-crashed ones. Demote (never condemn) every
                // down host's copy so a host that recovers before being
                // declared dead cannot trip a false use-after-drop.
                ResetCause::Purge => {
                    for host in self.present_hosts(*object) {
                        if self.down.get(usize::from(host)) == Some(&true) {
                            self.set_presence(*object, host, Presence::Unknown);
                        }
                    }
                }
                _ => pending.record(*object, event.t, *cause),
            },
            EventKind::PlacementAction(p) => {
                self.fold_placement(event, p.clone(), pending, &mut delta)
            }
            EventKind::Decision(d) => {
                for c in &d.candidates {
                    self.check_directory_reference(event, d.object, c.host, "candidate");
                }
                if d.branch == crate::event::DecisionBranch::PrimaryFallback {
                    // Graceful degradation: no usable replica remained,
                    // so the platform fetched from the provider origin
                    // and re-installed the object at the (live) primary
                    // — directory and copy in one step, with no
                    // counts-reset to pair. The chosen host therefore
                    // holds a copy again, even if it was dropped before.
                    self.set_presence(d.object, d.chosen, Presence::Present);
                } else {
                    self.check_directory_reference(event, d.object, d.chosen, "chosen host");
                }
            }
            EventKind::RequestServed { object, host, .. } => {
                // A request redirected before a drop may complete after
                // it, so an absent host here is not a violation; only
                // infer presence for hosts never seen before.
                self.admit_if_unknown(*object, *host);
            }
            EventKind::ReReplication { object, target, .. } => {
                // The sweep installs directly (directory and host in one
                // step), so there is no counts-reset to pair with.
                let new_copy = self.presence(*object, *target) != Presence::Present;
                self.set_presence(*object, *target, Presence::Present);
                delta.created = Some((*target, new_copy));
            }
            EventKind::Fault { desc } => {
                if let Some(host) = parse_host_transition(desc, "host-crash ") {
                    *at(&mut self.down, host.into()) = true;
                } else if let Some(host) = parse_host_transition(desc, "host-recover ") {
                    *at(&mut self.down, host.into()) = false;
                }
            }
            EventKind::ProviderUpdate(u) => {
                // The platform reassigns the primary before issuing when
                // the old one is unreachable, so the primary named here
                // must still hold a copy the directory knows about.
                self.check_directory_reference(event, u.object, u.primary, "update primary");
            }
            EventKind::UpdateDelivered(u) => {
                // A delivery the simulator applied (not wasted) found the
                // target in the replica set at delivery time; one landing
                // on a dropped copy means update routing and the
                // directory disagree. Wasted deliveries are the expected
                // drop-raced case and imply nothing.
                if !u.wasted {
                    self.check_directory_reference(event, u.object, u.host, "update delivery");
                }
            }
            EventKind::RequestArrived { .. } | EventKind::RequestFailed { .. } => {}
        }
        delta
    }

    /// A redirect decision listed `host` for `object`: flag it if the
    /// reconstruction knows that copy was dropped, otherwise admit it
    /// as an (inferred) replica.
    fn check_directory_reference(&mut self, event: &Event, object: u32, host: u16, role: &str) {
        match self.admit_if_unknown(object, host) {
            Presence::Absent => {
                let detail = format!(
                    "directory offered host {host} as {role} for object {object} \
                     after its replica was dropped"
                );
                self.flag(event, object, host, V::UseAfterDrop, detail);
            }
            Presence::Unknown | Presence::Present => {}
        }
    }

    /// Marks a never-mentioned `(object, host)` pair present (an
    /// inferred initial replica) and returns what was known before.
    fn admit_if_unknown(&mut self, object: u32, host: u16) -> Presence {
        let slot = self.slot(object, host);
        let was = *slot;
        if was == Presence::Unknown {
            *slot = Presence::Present;
            self.present_count += 1;
        }
        was
    }

    fn fold_placement(
        &mut self,
        event: &Event,
        p: crate::event::PlacementActionEvent,
        pending: &mut impl PairResets,
        delta: &mut AuditDelta,
    ) {
        let object = p.object;
        let source = p.host;
        match p.action {
            PlacementActionKind::Drop => {
                if !pending.take(object, event.t, ResetCause::Dropped) {
                    let detail = format!(
                        "host {source} dropped its copy of object {object} without a \
                         directory notification in the same epoch"
                    );
                    self.flag(event, object, source, V::DropBeforeNotify, detail);
                }
                self.set_presence(object, source, Presence::Absent);
                delta.removed = Some(source);
            }
            PlacementActionKind::AffinityReduce => {
                if !pending.take(object, event.t, ResetCause::Affinity) {
                    let detail = format!(
                        "host {source} reduced affinity for object {object} without a \
                         directory notification"
                    );
                    self.flag(event, object, source, V::Disagreement, detail);
                }
                self.set_presence(object, source, Presence::Present);
            }
            PlacementActionKind::DropRefused => {
                // The replica floor vetoed the drop; nothing changed.
                self.set_presence(object, source, Presence::Present);
            }
            PlacementActionKind::GeoReplicate | PlacementActionKind::LoadReplicate => {
                self.set_presence(object, source, Presence::Present);
                if let Some(target) = p.target {
                    self.admit_create(event, object, target, pending, delta);
                }
            }
            PlacementActionKind::GeoMigrate | PlacementActionKind::LoadMigrate => {
                if let Some(target) = p.target {
                    self.admit_create(event, object, target, pending, delta);
                    delta.migration = Some((source, target));
                }
                // The source sheds one affinity unit: a drop when it was
                // the last, otherwise just a reduction. The paired
                // notification says which.
                if pending.take(object, event.t, ResetCause::Dropped) {
                    self.set_presence(object, source, Presence::Absent);
                    delta.removed = Some(source);
                } else if pending.take(object, event.t, ResetCause::Affinity) {
                    self.set_presence(object, source, Presence::Present);
                } else {
                    let detail = format!(
                        "migration source host {source} of object {object} neither dropped \
                         its copy nor reported an affinity reduction"
                    );
                    self.flag(event, object, source, V::Disagreement, detail);
                }
            }
        }
    }

    /// A placement action claims a copy now exists on `target`; pair it
    /// with the `created` notification of the same epoch or flag an
    /// orphaned replica.
    fn admit_create(
        &mut self,
        event: &Event,
        object: u32,
        target: u16,
        pending: &mut impl PairResets,
        delta: &mut AuditDelta,
    ) {
        let new_copy = self.presence(object, target) != Presence::Present;
        if !pending.take(object, event.t, ResetCause::Created) {
            let detail = format!(
                "a copy of object {object} was created on host {target} without \
                 notifying the directory (orphaned replica)"
            );
            self.flag(event, object, target, V::OrphanedReplica, detail);
        }
        self.set_presence(object, target, Presence::Present);
        delta.created = Some((target, new_copy));
    }
}

/// Where directory notifications wait for the placement action they
/// announce.
trait PairResets {
    /// Notes a `cause` counts-reset of `object` at time `t`.
    fn record(&mut self, object: u32, t: f64, cause: ResetCause);

    /// Consumes one unpaired `cause` notification of `object` made at
    /// time `t`; `false` when there is none.
    fn take(&mut self, object: u32, t: f64, cause: ResetCause) -> bool;
}

/// The notifications of one timestamp. A host resets counts just
/// before the placement action they announce, in the same epoch and at
/// the same timestamp, and the feed is in time order, so a reset from
/// an earlier timestamp can never pair again: the list is emptied when
/// a later timestamp's first reset arrives, and holds at most one
/// timestamp's resets.
#[derive(Debug, Clone, Default)]
struct Resets {
    /// Time of every entry in `unpaired`.
    t: f64,
    unpaired: Vec<(u32, ResetCause)>,
}

impl PairResets for Resets {
    fn record(&mut self, object: u32, t: f64, cause: ResetCause) {
        if t != self.t {
            self.unpaired.clear();
            self.t = t;
        }
        self.unpaired.push((object, cause));
    }

    fn take(&mut self, object: u32, t: f64, cause: ResetCause) -> bool {
        if t != self.t {
            return false;
        }
        match self.unpaired.iter().position(|&e| e == (object, cause)) {
            Some(i) => {
                self.unpaired.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

/// Parses the host id out of a `host-crash H` / `host-recover H` fault
/// description.
fn parse_host_transition(desc: &str, prefix: &str) -> Option<u16> {
    desc.strip_prefix(prefix)?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CandidateSnapshot, DecisionBranch, DecisionEvent, PlacementActionEvent};

    fn ev(seq: u64, t: f64, kind: EventKind) -> Event {
        Event {
            seq,
            parent: None,
            t,
            queue_depth: 0,
            kind,
        }
    }

    fn reset(seq: u64, t: f64, object: u32, cause: ResetCause) -> Event {
        ev(seq, t, EventKind::CountsReset { object, cause })
    }

    fn action(
        seq: u64,
        t: f64,
        host: u16,
        object: u32,
        kind: PlacementActionKind,
        target: Option<u16>,
    ) -> Event {
        ev(
            seq,
            t,
            EventKind::PlacementAction(PlacementActionEvent {
                host,
                object,
                action: kind,
                target,
                unit_rate: 0.1,
                share: None,
                ratio: None,
                deletion_threshold: 0.01,
                replication_threshold: 0.18,
            }),
        )
    }

    fn decision(seq: u64, t: f64, object: u32, chosen: u16, candidates: &[u16]) -> Event {
        ev(
            seq,
            t,
            EventKind::Decision(DecisionEvent {
                object,
                gateway: 0,
                chosen,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(chosen),
                least: Some(chosen),
                unit_closest: Some(1.0),
                unit_least: Some(1.0),
                candidates: candidates
                    .iter()
                    .map(|&host| CandidateSnapshot {
                        host,
                        rcnt: 1,
                        aff: 1,
                        unit: 1.0,
                        distance: 1,
                    })
                    .collect(),
            }),
        )
    }

    #[test]
    fn notified_drop_and_replicate_are_clean() {
        let mut a = InvariantAuditor::new();
        // Replicate 7 from host 1 to host 2, properly notified.
        a.fold(&reset(1, 60.0, 7, ResetCause::Created));
        let d = a.fold(&action(
            2,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        assert_eq!(d.created, Some((2, true)));
        // Later epoch: drop host 2's copy, properly notified.
        a.fold(&reset(3, 120.0, 7, ResetCause::Dropped));
        let d = a.fold(&action(4, 120.0, 2, 7, PlacementActionKind::Drop, None));
        assert_eq!(d.removed, Some(2));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.is_present(7, 1));
        assert!(!a.is_present(7, 2));
    }

    #[test]
    fn drop_without_notification_is_flagged_with_seq() {
        let mut a = InvariantAuditor::new();
        a.fold(&action(5, 60.0, 3, 9, PlacementActionKind::Drop, None));
        assert_eq!(a.violations().len(), 1);
        let v = &a.violations()[0];
        assert_eq!(v.seq, 5);
        assert_eq!(v.kind, ViolationKind::DropBeforeNotify);
        assert_eq!(v.object, 9);
        assert_eq!(v.host, Some(3));
    }

    #[test]
    fn create_without_notification_is_an_orphan() {
        let mut a = InvariantAuditor::new();
        a.fold(&action(
            8,
            60.0,
            1,
            4,
            PlacementActionKind::GeoReplicate,
            Some(6),
        ));
        assert_eq!(a.violations().len(), 1);
        let v = &a.violations()[0];
        assert_eq!(v.kind, ViolationKind::OrphanedReplica);
        assert_eq!(v.seq, 8);
        assert_eq!(v.host, Some(6));
    }

    #[test]
    fn decision_at_dropped_replica_is_use_after_drop() {
        let mut a = InvariantAuditor::new();
        a.fold(&reset(1, 60.0, 7, ResetCause::Dropped));
        a.fold(&action(2, 60.0, 4, 7, PlacementActionKind::Drop, None));
        a.fold(&decision(3, 61.0, 7, 4, &[4]));
        // Both the candidate listing and the chosen host are flagged.
        assert_eq!(a.violations().len(), 2);
        assert!(a
            .violations()
            .iter()
            .all(|v| v.kind == ViolationKind::UseAfterDrop && v.seq == 3));
    }

    #[test]
    fn served_after_drop_is_tolerated_as_in_flight() {
        let mut a = InvariantAuditor::new();
        a.fold(&reset(1, 60.0, 7, ResetCause::Dropped));
        a.fold(&action(2, 60.0, 4, 7, PlacementActionKind::Drop, None));
        a.fold(&ev(
            3,
            60.2,
            EventKind::RequestServed {
                gateway: 0,
                object: 7,
                host: 4,
                latency: 0.05,
                hops: 2,
            },
        ));
        assert!(a.violations().is_empty());
        // And the tolerated completion does not resurrect the replica.
        assert!(!a.is_present(7, 4));
    }

    #[test]
    fn migration_pairs_created_and_source_outcome() {
        let mut a = InvariantAuditor::new();
        // Migration whose source held affinity > 1: created + affinity.
        a.fold(&reset(1, 60.0, 7, ResetCause::Created));
        a.fold(&reset(2, 60.0, 7, ResetCause::Affinity));
        let d = a.fold(&action(
            3,
            60.0,
            1,
            7,
            PlacementActionKind::GeoMigrate,
            Some(2),
        ));
        assert_eq!(d.migration, Some((1, 2)));
        assert_eq!(d.removed, None, "affinity-reduced source keeps its copy");
        assert!(a.is_present(7, 1));
        // Migration whose source dropped: created + dropped.
        a.fold(&reset(4, 120.0, 7, ResetCause::Created));
        a.fold(&reset(5, 120.0, 7, ResetCause::Dropped));
        let d = a.fold(&action(
            6,
            120.0,
            1,
            7,
            PlacementActionKind::LoadMigrate,
            Some(3),
        ));
        assert_eq!(d.removed, Some(1));
        assert!(!a.is_present(7, 1));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
    }

    #[test]
    fn unaccounted_migration_source_is_a_disagreement() {
        let mut a = InvariantAuditor::new();
        a.fold(&reset(1, 60.0, 7, ResetCause::Created));
        a.fold(&action(
            2,
            60.0,
            1,
            7,
            PlacementActionKind::GeoMigrate,
            Some(2),
        ));
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::Disagreement);
    }

    #[test]
    fn replicate_to_existing_holder_is_affinity_transfer_not_new_copy() {
        let mut a = InvariantAuditor::new();
        a.fold(&decision(1, 10.0, 7, 2, &[2]));
        a.fold(&reset(2, 60.0, 7, ResetCause::Created));
        let d = a.fold(&action(
            3,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        assert_eq!(d.created, Some((2, false)), "no data moved");
        assert!(a.violations().is_empty());
    }

    #[test]
    fn purge_demotes_down_hosts_without_condemning_them() {
        let mut a = InvariantAuditor::new();
        a.fold(&decision(1, 10.0, 7, 2, &[2, 3]));
        assert_eq!(a.active_replicas(), 2);
        a.fold(&ev(
            2,
            20.0,
            EventKind::Fault {
                desc: "host-crash 2".into(),
            },
        ));
        a.fold(&reset(3, 50.0, 7, ResetCause::Purge));
        assert_eq!(a.active_replicas(), 1, "down host demoted to unknown");
        // The host recovers with its replicas intact and serves again:
        // no violation, presence re-inferred.
        a.fold(&ev(
            4,
            60.0,
            EventKind::Fault {
                desc: "host-recover 2".into(),
            },
        ));
        a.fold(&decision(5, 70.0, 7, 2, &[2, 3]));
        assert!(a.violations().is_empty());
        assert_eq!(a.active_replicas(), 2);
    }

    #[test]
    fn re_replication_installs_without_notification_pairing() {
        let mut a = InvariantAuditor::new();
        let d = a.fold(&ev(
            1,
            90.0,
            EventKind::ReReplication {
                object: 7,
                target: 5,
                elapsed: 30.0,
            },
        ));
        assert_eq!(d.created, Some((5, true)));
        assert!(a.violations().is_empty());
        assert!(a.is_present(7, 5));
    }

    #[test]
    fn stale_notifications_from_earlier_epochs_never_pair() {
        let mut a = InvariantAuditor::new();
        a.fold(&reset(1, 60.0, 7, ResetCause::Dropped));
        // The matching action never arrives (e.g. truncated log); a
        // drop in a *later* epoch must not consume the stale entry.
        a.fold(&action(2, 120.0, 4, 7, PlacementActionKind::Drop, None));
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::DropBeforeNotify);
    }

    #[test]
    fn primary_fallback_reinstalls_the_chosen_copy() {
        let mut a = InvariantAuditor::new();
        // Host 4's copy of object 7 is dropped with notification.
        a.fold(&reset(1, 60.0, 7, ResetCause::Dropped));
        a.fold(&action(2, 60.0, 4, 7, PlacementActionKind::Drop, None));
        assert!(!a.is_present(7, 4));
        // No usable replica remains: the platform fetches from the
        // origin and installs at the live primary (host 4) with no
        // placement event — only this fallback decision records it.
        let mut fallback = decision(3, 61.0, 7, 4, &[]);
        if let EventKind::Decision(d) = &mut fallback.kind {
            d.branch = DecisionBranch::PrimaryFallback;
        }
        a.fold(&fallback);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.is_present(7, 4), "fallback install admits the copy");
        // Later ordinary decisions may legitimately offer host 4.
        a.fold(&decision(4, 62.0, 7, 4, &[4]));
        assert!(a.violations().is_empty(), "{:?}", a.violations());
    }

    #[test]
    fn unpaired_resets_are_kept_for_one_timestamp_only() {
        let mut a = InvariantAuditor::new();
        for i in 0..1000u32 {
            let t = f64::from(i) * 100.0;
            a.fold(&reset(u64::from(i) + 1, t, i, ResetCause::Created));
            a.fold(&reset(u64::from(i) + 1, t, i, ResetCause::Dropped));
        }
        assert_eq!(a.pending.t, 99_900.0);
        assert_eq!(
            a.pending.unpaired,
            vec![(999, ResetCause::Created), (999, ResetCause::Dropped)]
        );
        assert!(a.violations().is_empty());
    }

    /// The pairing rule the flat list replaced: one list per object,
    /// whose entries older than the action are discarded when that
    /// object is acted on.
    #[derive(Default)]
    struct PerObjectMap(std::collections::BTreeMap<u32, Vec<(f64, ResetCause)>>);

    impl PairResets for PerObjectMap {
        fn record(&mut self, object: u32, t: f64, cause: ResetCause) {
            self.0.entry(object).or_default().push((t, cause));
        }

        fn take(&mut self, object: u32, t: f64, cause: ResetCause) -> bool {
            let Some(pending) = self.0.get_mut(&object) else {
                return false;
            };
            pending.retain(|&(pt, _)| pt >= t);
            match pending.iter().position(|&(pt, pc)| pt == t && pc == cause) {
                Some(i) => {
                    pending.remove(i);
                    true
                }
                None => false,
            }
        }
    }

    /// A seeded, time-ordered feed over four objects and four hosts:
    /// placement epochs (resets, then the action they announce, at one
    /// timestamp), stray resets and actions, decisions and host faults.
    fn random_feed(seed: u64, len: u64) -> Vec<Event> {
        const CAUSES: [ResetCause; 4] = [
            ResetCause::Created,
            ResetCause::Dropped,
            ResetCause::Affinity,
            ResetCause::Purge,
        ];
        const ACTIONS: [PlacementActionKind; 7] = [
            PlacementActionKind::Drop,
            PlacementActionKind::AffinityReduce,
            PlacementActionKind::DropRefused,
            PlacementActionKind::GeoReplicate,
            PlacementActionKind::LoadReplicate,
            PlacementActionKind::GeoMigrate,
            PlacementActionKind::LoadMigrate,
        ];
        let mut rng = radar_simcore::SimRng::seed_from(seed);
        let (mut t, mut feed) = (0.0, Vec::new());
        let host = |rng: &mut radar_simcore::SimRng| rng.index(4) as u16;
        let mut seq = 0;
        while seq < len {
            seq += 1;
            let object = rng.index(4) as u32;
            let roll = rng.index(10);
            if roll < 3 {
                // An epoch: zero to two resets, then its action.
                for _ in 0..rng.index(3) {
                    let cause = CAUSES[rng.index(3)];
                    feed.push(reset(seq, t, object, cause));
                    seq += 1;
                }
                let kind = ACTIONS[rng.index(ACTIONS.len())];
                let target = rng.chance(0.8).then(|| host(&mut rng));
                feed.push(action(seq, t, host(&mut rng), object, kind, target));
            } else if roll < 5 {
                feed.push(reset(seq, t, object, CAUSES[rng.index(4)]));
            } else if roll < 6 {
                let kind = ACTIONS[rng.index(ACTIONS.len())];
                let target = rng.chance(0.5).then(|| host(&mut rng));
                feed.push(action(seq, t, host(&mut rng), object, kind, target));
            } else if roll < 8 {
                let candidates: Vec<u16> = (0..rng.index(3)).map(|_| host(&mut rng)).collect();
                let mut d = decision(seq, t, object, host(&mut rng), &candidates);
                if rng.chance(0.2) {
                    if let EventKind::Decision(d) = &mut d.kind {
                        d.branch = DecisionBranch::PrimaryFallback;
                    }
                }
                feed.push(d);
            } else if roll < 9 {
                let verb = if rng.chance(0.5) { "crash" } else { "recover" };
                let desc = format!("host-{verb} {}", host(&mut rng));
                feed.push(ev(seq, t, EventKind::Fault { desc }));
            } else {
                seq -= 1;
                t += [1.0, 60.0][rng.index(2)];
            }
        }
        feed
    }

    #[test]
    fn the_flat_list_pairs_as_the_per_object_map_did() {
        let (mut deltas, mut violations) = (0, 0);
        for seed in 0..200 {
            let (mut flat, mut mapped) = (InvariantAuditor::new(), InvariantAuditor::new());
            let mut map = PerObjectMap::default();
            for event in random_feed(seed, 300) {
                let delta = flat.fold(&event);
                assert_eq!(
                    delta,
                    mapped.fold_with(&event, &mut map),
                    "seed {seed}: {event:?}"
                );
                deltas += usize::from(delta != AuditDelta::default());
            }
            assert_eq!(flat.violations(), mapped.violations(), "seed {seed}");
            assert_eq!(flat.active_replicas(), mapped.active_replicas());
            violations += flat.violations().len();
        }
        // Both verdicts occur: many actions pair, many do not.
        assert!(deltas > 5_000, "{deltas} deltas");
        assert!(violations > 5_000, "{violations} violations");
    }

    #[test]
    fn violation_display_names_seq() {
        let mut a = InvariantAuditor::new();
        a.fold(&action(41, 60.0, 3, 9, PlacementActionKind::Drop, None));
        let text = a.violations()[0].to_string();
        assert!(text.contains("seq 41"), "{text}");
        assert!(text.contains("drop-before-notify"), "{text}");
    }
}
