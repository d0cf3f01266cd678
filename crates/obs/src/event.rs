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

/// Gives a closed enum its one vocabulary table, `TAGS`: every variant
/// with its stable lowercase tag (the spelling logs and reports use), in
/// discriminant order. `as_str` indexes it by discriminant, `from_tag`
/// scans it, and `Display` writes the tag.
macro_rules! tags {
    ($ty:ident { $($variant:ident => $tag:literal,)+ }) => {
        impl $ty {
            /// Every variant with its stable tag, in discriminant order.
            pub(crate) const TAGS: &'static [(Self, &'static str)] = &[$((Self::$variant, $tag)),+];

            /// The variant's stable tag.
            pub fn as_str(self) -> &'static str {
                Self::TAGS[self as usize].1
            }

            /// The variant a tag names; `None` for an unknown tag.
            pub fn from_tag(tag: &str) -> Option<Self> {
                Self::TAGS.iter().find(|(_, t)| *t == tag).map(|&(v, _)| v)
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}
pub(crate) use tags;

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

tags!(DecisionBranch {
    Closest => "closest",
    LeastRequested => "least-requested",
    PrimaryFallback => "primary-fallback",
    Policy => "policy",
});

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

tags!(FailReason {
    AllReplicasDown => "all-replicas-down",
    Unreachable => "unreachable",
    CrashedMidService => "crashed-mid-service",
});

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

tags!(ResetCause {
    Created => "created",
    Affinity => "affinity",
    Dropped => "dropped",
    Purge => "purge",
});

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

tags!(ConsistencyClass {
    Type1 => "type-1",
    Type2 => "type-2",
    Type3 => "type-3",
});

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

tags!(PlacementActionKind {
    Drop => "drop",
    AffinityReduce => "affinity-reduce",
    DropRefused => "drop-refused",
    GeoMigrate => "geo-migrate",
    GeoReplicate => "geo-replicate",
    LoadMigrate => "load-migrate",
    LoadReplicate => "load-replicate",
});

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
    /// Number of secondary replicas the update propagates to: those the
    /// primary can reach (a partition skips the others).
    pub targets: u16,
    /// Propagation traffic charged at issue (bytes×hops over the path
    /// to each of the `targets`).
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

    /// `tags` lists every variant once, in discriminant order, each
    /// under a tag that parses back to it; `last` is the final variant.
    fn check_table<T: Copy + PartialEq + std::fmt::Debug>(
        tags: &[(T, &str)],
        index: fn(T) -> usize,
        last: T,
        parse: fn(&str) -> Option<T>,
    ) {
        for (i, &(variant, tag)) in tags.iter().enumerate() {
            assert_eq!(index(variant), i, "{variant:?} is out of order");
            assert_eq!(parse(tag), Some(variant), "{tag:?} is not unique");
        }
        assert_eq!(tags.len(), index(last) + 1, "a variant has no tag");
        assert_eq!(parse("mystery"), None);
    }

    #[test]
    fn every_tag_table_lists_each_variant_once_in_discriminant_order() {
        use crate::ViolationKind as V;
        use ConsistencyClass as C;
        use DecisionBranch as B;
        use FailReason as F;
        use PlacementActionKind as P;
        use ResetCause as R;
        check_table(B::TAGS, |v| v as usize, B::Policy, B::from_tag);
        check_table(F::TAGS, |v| v as usize, F::CrashedMidService, F::from_tag);
        check_table(R::TAGS, |v| v as usize, R::Purge, R::from_tag);
        check_table(C::TAGS, |v| v as usize, C::Type3, C::from_tag);
        check_table(P::TAGS, |v| v as usize, P::LoadReplicate, P::from_tag);
        check_table(V::TAGS, |v| v as usize, V::Disagreement, V::from_tag);
        assert_eq!(P::DropRefused.as_str(), "drop-refused");
        assert_eq!(format!("{}", B::LeastRequested), "least-requested");
    }
}
