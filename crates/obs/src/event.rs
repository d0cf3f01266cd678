//! The typed event vocabulary of the flight recorder.
//!
//! Every event carries a monotonic sequence number assigned by the
//! emitting platform and an optional *causal parent*: the sequence
//! number of the event that triggered it. A served request therefore
//! forms a chain `request → decision → served`, traceable from gateway
//! through redirector to host.
//!
//! All payload fields are plain integers, floats, and small interned
//! enums (plus a free-form string only where the vocabulary is open,
//! like fault descriptions) — no platform types — so the crate depends
//! on no protocol or simulator crate, event logs parse without the
//! simulator, and the steady-state tracing path allocates nothing per
//! event. [`DecisionEvent`] and [`PlacementActionEvent`] double as the
//! protocol's own record of each Fig. 2 choice and placement action:
//! `radar-core` fills them directly.

use std::fmt;

/// Which Fig. 2 rule picked the serving host. Interned: the tag set is
/// closed, so events carry a copyable enum instead of a heap `String`
/// (the JSONL wire format still writes the lowercase tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecisionBranch {
    /// The closest replica was under the distribution constant.
    Closest,
    /// Load spread to the least unit-requested replica.
    LeastRequested,
    /// Degraded mode: no usable replica, served from the primary copy.
    PrimaryFallback,
    /// Baseline (non-RaDaR) selection policy.
    Policy,
}

impl DecisionBranch {
    /// Stable lowercase tag, as serialized in the JSONL `branch` field.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionBranch::Closest => "closest",
            DecisionBranch::LeastRequested => "least-requested",
            DecisionBranch::PrimaryFallback => "primary-fallback",
            DecisionBranch::Policy => "policy",
        }
    }

    /// Parses the JSONL tag back into the enum.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "closest" => DecisionBranch::Closest,
            "least-requested" => DecisionBranch::LeastRequested,
            "primary-fallback" => DecisionBranch::PrimaryFallback,
            "policy" => DecisionBranch::Policy,
            _ => return None,
        })
    }
}

impl fmt::Display for DecisionBranch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request failed outright. Interned like [`DecisionBranch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailReason {
    /// Every replica host was down.
    AllReplicasDown,
    /// Replicas were up but no route reached any of them.
    Unreachable,
    /// The serving host crashed while the request was in flight.
    CrashedMidService,
}

impl FailReason {
    /// Stable lowercase tag, as serialized in the JSONL `reason` field.
    pub fn as_str(self) -> &'static str {
        match self {
            FailReason::AllReplicasDown => "all-replicas-down",
            FailReason::Unreachable => "unreachable",
            FailReason::CrashedMidService => "crashed-mid-service",
        }
    }

    /// Parses the JSONL tag back into the enum.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "all-replicas-down" => FailReason::AllReplicasDown,
            "unreachable" => FailReason::Unreachable,
            "crashed-mid-service" => FailReason::CrashedMidService,
            _ => return None,
        })
    }
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What changed a replica set and triggered the Fig. 2 companion
/// count reset. Interned like [`DecisionBranch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResetCause {
    /// A new replica was created.
    Created,
    /// A replica's affinity changed.
    Affinity,
    /// A replica was dropped.
    Dropped,
    /// A host purge removed the replica.
    Purge,
}

impl ResetCause {
    /// Stable lowercase tag, as serialized in the JSONL `cause` field.
    pub fn as_str(self) -> &'static str {
        match self {
            ResetCause::Created => "created",
            ResetCause::Affinity => "affinity",
            ResetCause::Dropped => "dropped",
            ResetCause::Purge => "purge",
        }
    }

    /// Parses the JSONL tag back into the enum.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "created" => ResetCause::Created,
            "affinity" => ResetCause::Affinity,
            "dropped" => ResetCause::Dropped,
            "purge" => ResetCause::Purge,
            _ => return None,
        })
    }
}

impl fmt::Display for ResetCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The §5 consistency class of an object, as carried by update events.
/// Interned like [`DecisionBranch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConsistencyClass {
    /// Type-1: updates at a primary copy propagate asynchronously;
    /// replicas may serve slightly stale versions.
    Type1,
    /// Type-2: commuting updates, merged at every replica.
    Type2,
    /// Type-3: non-commuting updates; replication is capped and the
    /// update applies synchronously at every copy.
    Type3,
}

impl ConsistencyClass {
    /// Stable lowercase tag, as serialized in the JSONL `class` field.
    pub fn as_str(self) -> &'static str {
        match self {
            ConsistencyClass::Type1 => "type-1",
            ConsistencyClass::Type2 => "type-2",
            ConsistencyClass::Type3 => "type-3",
        }
    }

    /// Parses the JSONL tag back into the enum.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "type-1" => ConsistencyClass::Type1,
            "type-2" => ConsistencyClass::Type2,
            "type-3" => ConsistencyClass::Type3,
            _ => return None,
        })
    }
}

impl fmt::Display for ConsistencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The action a placement run took on one object (paper Figs. 3–5).
/// Interned like [`DecisionBranch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlacementActionKind {
    /// Deletion test: the replica was dropped.
    Drop,
    /// Deletion test on the last copy: affinity reduced instead.
    AffinityReduce,
    /// Deletion test fired but the directory refused the drop.
    DropRefused,
    /// Geographic migration along a preference path.
    GeoMigrate,
    /// Geographic replication along a preference path.
    GeoReplicate,
    /// Offload migration to a less-loaded host.
    LoadMigrate,
    /// Offload replication to a less-loaded host.
    LoadReplicate,
}

impl PlacementActionKind {
    /// Stable lowercase tag, as serialized in the JSONL `action` field.
    pub fn as_str(self) -> &'static str {
        match self {
            PlacementActionKind::Drop => "drop",
            PlacementActionKind::AffinityReduce => "affinity-reduce",
            PlacementActionKind::DropRefused => "drop-refused",
            PlacementActionKind::GeoMigrate => "geo-migrate",
            PlacementActionKind::GeoReplicate => "geo-replicate",
            PlacementActionKind::LoadMigrate => "load-migrate",
            PlacementActionKind::LoadReplicate => "load-replicate",
        }
    }

    /// Parses the JSONL tag back into the enum.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "drop" => PlacementActionKind::Drop,
            "affinity-reduce" => PlacementActionKind::AffinityReduce,
            "drop-refused" => PlacementActionKind::DropRefused,
            "geo-migrate" => PlacementActionKind::GeoMigrate,
            "geo-replicate" => PlacementActionKind::GeoReplicate,
            "load-migrate" => PlacementActionKind::LoadMigrate,
            "load-replicate" => PlacementActionKind::LoadReplicate,
            _ => return None,
        })
    }
}

impl fmt::Display for PlacementActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded platform event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (1-based; unique within a run).
    pub seq: u64,
    /// Sequence number of the event that caused this one, if any.
    pub parent: Option<u64>,
    /// Simulated time of the event (seconds).
    pub t: f64,
    /// Event-queue depth when the event was emitted (a deterministic
    /// backlog signal — wall-clock profiling stays out of the log so
    /// seeded runs serialize byte-identically).
    pub queue_depth: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The event payload: one variant per traced platform occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A client request entered the platform at its gateway.
    RequestArrived {
        /// The gateway node.
        gateway: u16,
        /// The requested object.
        object: u32,
    },
    /// The redirector chose a replica (paper Fig. 2).
    Decision(DecisionEvent),
    /// A response was delivered to its gateway.
    RequestServed {
        /// The gateway node.
        gateway: u16,
        /// The requested object.
        object: u32,
        /// The host that served it.
        host: u16,
        /// End-to-end latency (seconds).
        latency: f64,
        /// Hops the response traveled.
        hops: u32,
    },
    /// A request failed: no live, reachable replica could serve it.
    RequestFailed {
        /// The gateway node.
        gateway: u16,
        /// The requested object.
        object: u32,
        /// Failure cause.
        reason: FailReason,
    },
    /// A placement run took an action on one object (paper Figs. 3–5),
    /// with the threshold comparison that triggered it.
    PlacementAction(PlacementActionEvent),
    /// A replica-set change reset the object's request counts (the
    /// Fig. 2 companion rule).
    CountsReset {
        /// The affected object.
        object: u32,
        /// What changed the set.
        cause: ResetCause,
    },
    /// A scheduled fault transition was applied.
    Fault {
        /// Human/machine-readable transition description, e.g.
        /// `host-crash 7` or `link-degrade 3-12 x4`.
        desc: String,
    },
    /// The re-replication sweep restored a copy of an object.
    ReReplication {
        /// The restored object.
        object: u32,
        /// The host that received the new copy.
        target: u16,
        /// Seconds the object spent below its replica floor.
        elapsed: f64,
    },
    /// A content provider issued a new version of an object (§5); the
    /// update propagates from the primary copy to every other replica.
    ProviderUpdate(ProviderUpdateEvent),
    /// An asynchronously propagated provider update reached one replica
    /// (or found it already gone).
    UpdateDelivered(UpdateDeliveredEvent),
}

/// A provider update at its primary copy (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderUpdateEvent {
    /// The updated object.
    pub object: u32,
    /// The object's consistency class.
    pub class: ConsistencyClass,
    /// The object's provider-update version after this update.
    pub version: u64,
    /// The primary copy's host.
    pub primary: u16,
    /// Number of secondary replicas the update propagates to.
    pub targets: u16,
    /// Propagation traffic charged at issue (bytes×hops over every
    /// primary→secondary path).
    pub bytes_hops: u64,
    /// Whether the primary copy had to be reassigned first (its host
    /// had shed the object).
    pub reassigned: bool,
}

/// One asynchronous update delivery at a replica (§5, types 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateDeliveredEvent {
    /// The updated object.
    pub object: u32,
    /// The replica host the delivery targeted.
    pub host: u16,
    /// The object's consistency class.
    pub class: ConsistencyClass,
    /// The delivered provider-update version.
    pub version: u64,
    /// Seconds the replica was stale for this version (delivery time
    /// minus issue time).
    pub lag: f64,
    /// Whether the target replica was already dropped or migrated away
    /// when the update arrived.
    pub wasted: bool,
}

/// One candidate replica as the redirector saw it at decision time
/// (counts snapshotted *before* the winner's count increments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSnapshot {
    /// The hosting node.
    pub host: u16,
    /// Request count `rcnt` since the last replica-set change.
    pub rcnt: u64,
    /// Replica affinity.
    pub aff: u32,
    /// Unit request count `rcnt/aff`.
    pub unit: f64,
    /// Hop distance from this replica to the gateway.
    pub distance: u32,
}

/// A redirector decision: the full Fig. 2 input and which branch won.
///
/// `closest`/`least` and the unit counts are `None` when the run used a
/// baseline policy (no Fig. 2 data) or the primary-copy fallback; the
/// `branch` tag tells which.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// The requested object.
    pub object: u32,
    /// The gateway the request entered at.
    pub gateway: u16,
    /// The host chosen to serve the request.
    pub chosen: u16,
    /// Which rule picked the host.
    pub branch: DecisionBranch,
    /// The distribution constant in force (2.0 in the paper).
    pub constant: f64,
    /// The closest usable replica `p`.
    pub closest: Option<u16>,
    /// The usable replica `q` with the least unit request count.
    pub least: Option<u16>,
    /// `unit_rcnt(p)` at decision time.
    pub unit_closest: Option<f64>,
    /// `unit_rcnt(q)` at decision time.
    pub unit_least: Option<f64>,
    /// Every usable candidate replica, sorted by host id.
    pub candidates: Vec<CandidateSnapshot>,
}

impl Default for DecisionEvent {
    /// A placeholder value for reusable scratch decisions; every field
    /// is overwritten before the event is observed.
    fn default() -> Self {
        Self {
            object: 0,
            gateway: 0,
            chosen: 0,
            branch: DecisionBranch::Policy,
            constant: 0.0,
            closest: None,
            least: None,
            unit_closest: None,
            unit_least: None,
            candidates: Vec::new(),
        }
    }
}

/// One placement action with the test values that triggered it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementActionEvent {
    /// The deciding host.
    pub host: u16,
    /// The object acted on.
    pub object: u32,
    /// The action taken.
    pub action: PlacementActionKind,
    /// The recipient host, for migrations and replications.
    pub target: Option<u16>,
    /// The object's unit access rate `cnt_s/aff/period` that the
    /// deletion and replication tests compared.
    pub unit_rate: f64,
    /// The qualifying access-count share: the preference-path share of
    /// the chosen candidate (geo moves) or the foreign-request share
    /// (offload ordering). `None` for deletion-test actions.
    pub share: Option<f64>,
    /// The path-share ratio the geo test required (`MIGR_RATIO` or
    /// `REPL_RATIO`). `None` for load- and deletion-driven actions.
    pub ratio: Option<f64>,
    /// The deletion threshold `u` in force.
    pub deletion_threshold: f64,
    /// The replication threshold `m` in force.
    pub replication_threshold: f64,
}

impl Event {
    /// The event's stable type tag, as used in the JSONL `type` field
    /// and by `radar events filter --type`.
    pub fn type_name(&self) -> &'static str {
        match &self.kind {
            EventKind::RequestArrived { .. } => "request",
            EventKind::Decision(_) => "decision",
            EventKind::RequestServed { .. } => "served",
            EventKind::RequestFailed { .. } => "failed",
            EventKind::PlacementAction(_) => "placement",
            EventKind::CountsReset { .. } => "counts-reset",
            EventKind::Fault { .. } => "fault",
            EventKind::ReReplication { .. } => "re-replication",
            EventKind::ProviderUpdate(_) => "provider-update",
            EventKind::UpdateDelivered(_) => "update-delivered",
        }
    }

    /// The object the event concerns, when it concerns one.
    pub fn object(&self) -> Option<u32> {
        match &self.kind {
            EventKind::RequestArrived { object, .. }
            | EventKind::RequestServed { object, .. }
            | EventKind::RequestFailed { object, .. }
            | EventKind::CountsReset { object, .. }
            | EventKind::ReReplication { object, .. } => Some(*object),
            EventKind::Decision(d) => Some(d.object),
            EventKind::PlacementAction(p) => Some(p.object),
            EventKind::ProviderUpdate(u) => Some(u.object),
            EventKind::UpdateDelivered(u) => Some(u.object),
            EventKind::Fault { .. } => None,
        }
    }

    /// The gateway node involved, when there is one.
    pub fn gateway(&self) -> Option<u16> {
        match &self.kind {
            EventKind::RequestArrived { gateway, .. }
            | EventKind::RequestServed { gateway, .. }
            | EventKind::RequestFailed { gateway, .. } => Some(*gateway),
            EventKind::Decision(d) => Some(d.gateway),
            _ => None,
        }
    }

    /// The host node involved, when there is one: the chosen/serving
    /// host, the deciding placement host, or a re-replication target.
    pub fn host(&self) -> Option<u16> {
        match &self.kind {
            EventKind::RequestServed { host, .. } => Some(*host),
            EventKind::Decision(d) => Some(d.chosen),
            EventKind::PlacementAction(p) => Some(p.host),
            EventKind::ReReplication { target, .. } => Some(*target),
            EventKind::ProviderUpdate(u) => Some(u.primary),
            EventKind::UpdateDelivered(u) => Some(u.host),
            _ => None,
        }
    }

    /// One-line rendering for `radar events tail` / `filter` listings.
    pub fn brief(&self) -> String {
        let head = format!(
            "#{:<6} t={:<10.3} {:<13}",
            self.seq,
            self.t,
            self.type_name()
        );
        let detail = match &self.kind {
            EventKind::RequestArrived { gateway, object } => {
                format!("object {object} enters at gateway {gateway}")
            }
            EventKind::Decision(d) if d.candidates.is_empty() => format!(
                "object {} gw {} -> host {} ({} branch, degraded: {})",
                d.object,
                d.gateway,
                d.chosen,
                d.branch,
                degradation_reason(d.branch)
            ),
            EventKind::Decision(d) => format!(
                "object {} gw {} -> host {} ({} branch, {} candidates)",
                d.object,
                d.gateway,
                d.chosen,
                d.branch,
                d.candidates.len()
            ),
            EventKind::RequestServed {
                gateway,
                object,
                host,
                latency,
                hops,
            } => format!(
                "object {object} served by host {host} to gw {gateway} \
                 ({:.1} ms, {hops} hops)",
                latency * 1e3
            ),
            EventKind::RequestFailed {
                gateway,
                object,
                reason,
            } => format!("object {object} at gw {gateway} failed: {reason}"),
            EventKind::PlacementAction(p) => {
                let target = p
                    .target
                    .map(|h| format!(" -> host {h}"))
                    .unwrap_or_default();
                format!(
                    "host {} {} object {}{} (unit rate {:.4})",
                    p.host, p.action, p.object, target, p.unit_rate
                )
            }
            EventKind::CountsReset { object, cause } => {
                format!("object {object} request counts reset ({cause})")
            }
            EventKind::Fault { desc } => desc.clone(),
            EventKind::ReReplication {
                object,
                target,
                elapsed,
            } => format!("object {object} restored on host {target} after {elapsed:.1}s"),
            EventKind::ProviderUpdate(u) => format!(
                "object {} v{} updated at primary {} ({}, {} targets{})",
                u.object,
                u.version,
                u.primary,
                u.class,
                u.targets,
                if u.reassigned {
                    ", primary reassigned"
                } else {
                    ""
                }
            ),
            EventKind::UpdateDelivered(u) => format!(
                "object {} v{} {} at host {} ({}, lag {:.1} ms)",
                u.object,
                u.version,
                if u.wasted { "wasted" } else { "delivered" },
                u.host,
                u.class,
                u.lag * 1e3
            ),
        };
        format!("{head} {detail}")
    }
}

/// Why a decision carries no candidate snapshot: the degraded-mode
/// explanation shown in place of an empty candidate table.
pub(crate) fn degradation_reason(branch: DecisionBranch) -> &'static str {
    match branch {
        DecisionBranch::PrimaryFallback => {
            "no usable replica was reachable; served from the primary copy"
        }
        DecisionBranch::Policy => "baseline policy decision; no Fig. 2 candidate data",
        _ => "no candidate snapshot recorded",
    }
}

/// All known type tags, in the order `radar events summary` lists them.
pub const EVENT_TYPES: &[&str] = &[
    "request",
    "decision",
    "served",
    "failed",
    "placement",
    "counts-reset",
    "fault",
    "re-replication",
    "provider-update",
    "update-delivered",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            parent: Some(6),
            t: 1.25,
            queue_depth: 3,
            kind: EventKind::RequestServed {
                gateway: 2,
                object: 42,
                host: 5,
                latency: 0.08,
                hops: 3,
            },
        }
    }

    #[test]
    fn type_names_cover_all_variants() {
        assert_eq!(sample().type_name(), "served");
        assert!(EVENT_TYPES.contains(&sample().type_name()));
        assert_eq!(EVENT_TYPES.len(), 10);
    }

    #[test]
    fn accessors() {
        let e = sample();
        assert_eq!(e.object(), Some(42));
        assert_eq!(e.gateway(), Some(2));
        assert_eq!(e.host(), Some(5));
        let fault = Event {
            kind: EventKind::Fault {
                desc: "host-crash 7".into(),
            },
            ..sample()
        };
        assert_eq!(fault.object(), None);
        assert_eq!(fault.host(), None);
    }

    #[test]
    fn degraded_decision_brief_names_the_reason() {
        let e = Event {
            seq: 3,
            parent: Some(2),
            t: 9.0,
            queue_depth: 1,
            kind: EventKind::Decision(DecisionEvent {
                object: 7,
                gateway: 2,
                chosen: 0,
                branch: DecisionBranch::PrimaryFallback,
                constant: 2.0,
                closest: None,
                least: None,
                unit_closest: None,
                unit_least: None,
                candidates: Vec::new(),
            }),
        };
        let line = e.brief();
        assert!(!line.contains("0 candidates"), "{line}");
        assert!(line.contains("degraded"), "{line}");
        assert!(line.contains("no usable replica"), "{line}");
    }

    #[test]
    fn interned_tags_round_trip() {
        use ConsistencyClass as C;
        use DecisionBranch as B;
        use FailReason as F;
        use PlacementActionKind as P;
        use ResetCause as R;
        for c in [C::Type1, C::Type2, C::Type3] {
            assert_eq!(C::from_tag(c.as_str()), Some(c));
        }
        assert_eq!(C::from_tag("type-4"), None);
        for b in [B::Closest, B::LeastRequested, B::PrimaryFallback, B::Policy] {
            assert_eq!(B::from_tag(b.as_str()), Some(b));
        }
        for r in [F::AllReplicasDown, F::Unreachable, F::CrashedMidService] {
            assert_eq!(F::from_tag(r.as_str()), Some(r));
        }
        for c in [R::Created, R::Affinity, R::Dropped, R::Purge] {
            assert_eq!(R::from_tag(c.as_str()), Some(c));
        }
        for a in [
            P::Drop,
            P::AffinityReduce,
            P::DropRefused,
            P::GeoMigrate,
            P::GeoReplicate,
            P::LoadMigrate,
            P::LoadReplicate,
        ] {
            assert_eq!(P::from_tag(a.as_str()), Some(a));
        }
        assert_eq!(B::from_tag("mystery"), None);
        assert_eq!(F::from_tag(""), None);
        assert_eq!(R::from_tag("reset"), None);
        assert_eq!(P::from_tag("replicate"), None);
        assert_eq!(format!("{}", B::LeastRequested), "least-requested");
    }

    #[test]
    fn brief_is_single_line() {
        let line = sample().brief();
        assert!(!line.contains('\n'));
        assert!(line.contains("#7"), "{line}");
        assert!(line.contains("host 5"), "{line}");
    }
}
