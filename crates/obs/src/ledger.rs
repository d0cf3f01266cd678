//! Per-object replica lifecycle reconstruction, churn classification,
//! and relocation-cost attribution over the event stream.
//!
//! [`ObjectLedger`] is a streaming fold in the same idiom as
//! [`crate::MetricsObserver`]: feed it the flight-recorder event feed
//! in sequence order (attach it to a simulation as an observer, or
//! replay a JSONL log) and it maintains, per object, oscillation
//! counters and the relocation bytes spent versus the requests usefully
//! served. It keeps no history: its memory follows the objects and the
//! live replicas, not the length of the run, and each
//! [`fold`](ObjectLedger::fold) hands back the [`ReplicaChange`] the
//! event made, for a caller that wants an object's lifecycle (`radar
//! objects timeline` collects it from its own fold of the log). It is
//! the one per-object and per-host table of the feed: the dashboard's
//! top-objects panel and per-host served counts read it too. An
//! embedded [`InvariantAuditor`] performs the replica-set-invariant
//! checks on the same pass, so the ledger's replica accounting and the
//! audit verdicts can never disagree.
//!
//! Churn classification follows the paper's hysteresis rationale: the
//! watermark gap and the deletion/replication threshold gap exist
//! precisely to prevent an object bouncing between hosts
//! (migrate A→B then B→A) or being replicated and immediately dropped.
//! The ledger counts both patterns inside a configurable window
//! ([`LedgerConfig::churn_window`], defaulting to two placement
//! periods) and prices every physical copy moved at
//! [`LedgerConfig::object_size`] bytes.

use crate::audit::InvariantAuditor;
use crate::event::{Event, EventKind, PlacementActionKind, ResetCause};
use crate::idtable::{at, IdTable};
use crate::shared::{Fold, Shared};
use std::cmp::Reverse;

/// Violation sequence numbers retained in a [`ProtocolHealth`]
/// snapshot (the full list stays on the auditor).
const VIOLATION_SEQS_CAP: usize = 16;
/// Objects listed in a [`ProtocolHealth`] snapshot, ranked by bytes
/// moved.
const TOP_OBJECTS_CAP: usize = 8;

/// Tuning knobs for an [`ObjectLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerConfig {
    /// Bytes per physical copy moved (the scenario's object size).
    pub object_size: u64,
    /// Oscillation window, seconds: a migrate-back or a drop after a
    /// create within this window counts as churn. The protocol's
    /// hysteresis (watermark gap, `u`/`m` threshold gap) should make
    /// this rare. The default is two of Table 1's 100 s placement
    /// periods, the window the simulator's own ledger uses.
    pub churn_window: f64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self {
            object_size: 12 * 1024,
            churn_window: 200.0,
        }
    }
}

/// One replica-set change in an object's lifecycle, as
/// [`ObjectLedger::fold`] derives it from an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaChange {
    /// A copy was created on `host` (replication); `new_copy` is false
    /// when the host already held one and only its affinity grew.
    Created {
        /// The replication target.
        host: u16,
        /// Whether data actually moved.
        new_copy: bool,
    },
    /// `host`'s copy was dropped by the deletion test.
    Dropped {
        /// The host that shed its copy.
        host: u16,
    },
    /// The object migrated `from` → `to`; `source_dropped` is false
    /// when the source kept its copy and only reduced affinity.
    Migrated {
        /// Migration source.
        from: u16,
        /// Migration target.
        to: u16,
        /// Whether the source's physical copy went away.
        source_dropped: bool,
    },
    /// `host` shed one affinity unit but kept its copy.
    AffinityReduced {
        /// The host involved.
        host: u16,
    },
    /// The replica floor refused to drop `host`'s last live copy.
    DropRefused {
        /// The host whose drop was vetoed.
        host: u16,
    },
    /// The re-replication sweep restored a copy on `host`.
    ReReplicated {
        /// The install target.
        host: u16,
    },
    /// A declared-dead host's replicas were purged.
    Purged,
}

impl ReplicaChange {
    /// Short human-readable description of the change.
    pub fn describe(&self) -> String {
        match self {
            ReplicaChange::Created {
                host,
                new_copy: true,
            } => {
                format!("replica created on host {host}")
            }
            ReplicaChange::Created {
                host,
                new_copy: false,
            } => {
                format!("affinity added to existing replica on host {host}")
            }
            ReplicaChange::Dropped { host } => format!("replica dropped from host {host}"),
            ReplicaChange::Migrated {
                from,
                to,
                source_dropped,
            } => {
                if *source_dropped {
                    format!("migrated host {from} -> host {to}")
                } else {
                    format!("migrated host {from} -> host {to} (source kept reduced copy)")
                }
            }
            ReplicaChange::AffinityReduced { host } => {
                format!("affinity reduced on host {host}")
            }
            ReplicaChange::DropRefused { host } => {
                format!("drop refused on host {host} (last live copy)")
            }
            ReplicaChange::ReReplicated { host } => {
                format!("re-replicated onto host {host}")
            }
            ReplicaChange::Purged => "replicas purged from a declared-dead host".to_string(),
        }
    }
}

/// Per-object traffic, churn and cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectChurn {
    /// Requests that entered a gateway for this object.
    pub requests: u64,
    /// Responses delivered.
    pub served: u64,
    /// Requests that failed (no live reachable replica).
    pub failed: u64,
    /// Net replica-count change: +1 per replicate action or
    /// re-replication, −1 per drop, 0 for the other actions.
    pub replica_delta: i64,
    /// Relocation actions (replications, migrations, re-replications).
    pub relocations: u64,
    /// Bytes of object data physically moved by relocations.
    pub bytes_moved: u64,
    /// A→B→A migrations completed within the churn window.
    pub ping_pong: u64,
    /// Copies dropped within the churn window of their creation.
    pub replicate_drop: u64,
}

impl ObjectChurn {
    /// Relocation bytes per request usefully served (the churn price).
    /// Objects that moved but never served report the full byte count.
    pub fn bytes_per_served(&self) -> f64 {
        self.bytes_moved as f64 / (self.served.max(1)) as f64
    }

    /// Oscillation events (ping-pong + replicate-then-drop).
    pub fn churn_events(&self) -> u64 {
        self.ping_pong + self.replicate_drop
    }
}

/// Per-node relocation traffic and service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeChurn {
    /// Responses this node served.
    pub served: u64,
    /// Bytes of object data installed onto this node by relocations.
    pub bytes_in: u64,
    /// Bytes of object data this node shipped out as a relocation
    /// source.
    pub bytes_out: u64,
}

impl NodeChurn {
    /// Relocation bytes (in + out) per request this node served.
    pub fn bytes_per_served(&self) -> f64 {
        (self.bytes_in + self.bytes_out) as f64 / (self.served.max(1)) as f64
    }
}

/// Internal per-object state: public counters plus the oscillation
/// detectors' working memory.
#[derive(Debug, Clone, Default)]
struct ObjectState {
    churn: ObjectChurn,
    /// Last migration seen: `(from, to, t)` — a later `to → from`
    /// within the window is a ping-pong.
    last_migration: Option<(u16, u16, f64)>,
    /// `(host, t)`: when each host's current physical copy was created
    /// in-stream — a drop within the window of this time is a
    /// replicate-then-drop cycle. One entry per host, in no order.
    created_at: Vec<(u16, f64)>,
    /// Whether a request, failure, placement action or re-replication
    /// named the object. A row only purges opened stays off the
    /// dashboard.
    counted: bool,
}

/// A point-in-time summary of protocol health: the section surfaced in
/// the run report JSON and the live dashboard panel.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolHealth {
    /// Events folded.
    pub events_seen: u64,
    /// Replicas currently reconstructed as present across all objects.
    pub active_replicas: u64,
    /// Requests that entered gateways.
    pub requests: u64,
    /// Responses delivered.
    pub served: u64,
    /// Relocation actions (replications, migrations, re-replications).
    pub relocations: u64,
    /// Bytes of object data physically moved.
    pub bytes_moved: u64,
    /// A→B→A migrations within the churn window.
    pub ping_pong: u64,
    /// Copies dropped within the churn window of their creation.
    pub replicate_drop: u64,
    /// Replica-set invariant violations detected.
    pub violations: u64,
    /// Sequence numbers of the first violations (capped; the full list
    /// stays on the [`InvariantAuditor`]).
    pub violation_seqs: Vec<u64>,
    /// The churn window in force, seconds.
    pub churn_window: f64,
    /// The most relocation-expensive objects, `(object, counters)`
    /// ranked by bytes moved then churn events (capped).
    pub top_objects: Vec<(u32, ObjectChurn)>,
}

impl ProtocolHealth {
    /// Relocation bytes per request usefully served across the run.
    pub fn bytes_per_served(&self) -> f64 {
        self.bytes_moved as f64 / (self.served.max(1)) as f64
    }

    /// Oscillation events (ping-pong + replicate-then-drop).
    pub fn churn_events(&self) -> u64 {
        self.ping_pong + self.replicate_drop
    }

    /// Multi-line text summary (the `radar simulate --ledger` footer).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("protocol health\n");
        out.push_str(&format!(
            "  active replicas      {:>10}\n",
            self.active_replicas
        ));
        out.push_str(&format!(
            "  relocations          {:>10}   bytes moved {} ({:.1} B/request served)\n",
            self.relocations,
            self.bytes_moved,
            self.bytes_per_served()
        ));
        out.push_str(&format!(
            "  churn (window {:.0}s)   {:>10}   ping-pong {} · replicate-then-drop {}\n",
            self.churn_window,
            self.churn_events(),
            self.ping_pong,
            self.replicate_drop
        ));
        if self.violations == 0 {
            out.push_str("  invariant violations          0   [ok]\n");
        } else {
            let seqs: Vec<String> = self.violation_seqs.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(
                "  invariant violations {:>10}   [VIOLATED] first seqs: {}\n",
                self.violations,
                seqs.join(", ")
            ));
        }
        out
    }
}

/// Streaming per-object protocol-health fold.
///
/// ```
/// use radar_obs::{Event, EventKind, LedgerConfig, ObjectLedger};
///
/// let mut ledger = ObjectLedger::new(LedgerConfig::default());
/// ledger.fold(&Event {
///     seq: 1,
///     parent: None,
///     t: 0.5,
///     queue_depth: 0,
///     kind: EventKind::RequestServed {
///         gateway: 0,
///         object: 7,
///         host: 3,
///         latency: 0.08,
///         hops: 2,
///     },
/// });
/// ledger.finalize(20.0);
/// let health = ledger.health();
/// assert_eq!(health.served, 1);
/// assert_eq!(health.violations, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectLedger {
    cfg: LedgerConfig,
    auditor: InvariantAuditor,
    /// Per-object state; `None` until an event mentions the object.
    objects: IdTable<Option<ObjectState>>,
    /// `nodes[node]`; `None` until the node serves or moves bytes.
    nodes: Vec<Option<NodeChurn>>,
    t_end: f64,
}

impl ObjectLedger {
    /// Creates an empty ledger with the given configuration.
    pub fn new(cfg: LedgerConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LedgerConfig {
        &self.cfg
    }

    /// The embedded invariant auditor (violations live here).
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.auditor
    }

    /// One object's churn counters, if any event mentioned it.
    pub fn object(&self, object: u32) -> Option<ObjectChurn> {
        self.state(object).map(|s| s.churn)
    }

    fn state(&self, object: u32) -> Option<&ObjectState> {
        self.objects.get(object)?.as_ref()
    }

    /// Hosts `object` is currently reconstructed to have replicas on.
    pub fn replicas_of(&self, object: u32) -> Vec<u16> {
        self.auditor.present_hosts(object)
    }

    /// All per-object churn rows, sorted by bytes moved descending,
    /// then churn events, then object id; truncated to `top` rows
    /// (`usize::MAX` for all).
    pub fn churn_table(&self, top: usize) -> Vec<(u32, ObjectChurn)> {
        ranked(self.states(), top, churn_rank)
    }

    /// The `n` objects with the most gateway requests, descending, ties
    /// broken by object id (the dashboard's top-objects panel). Objects
    /// only a purge named are left out.
    pub fn busiest_objects(&self, n: usize) -> Vec<(u32, ObjectChurn)> {
        ranked(self.states().filter(|(_, s)| s.counted), n, |c| c.requests)
    }

    /// Every object's state, in id order.
    fn states(&self) -> impl Iterator<Item = (u32, &ObjectState)> {
        self.objects
            .iter()
            .filter_map(|(o, s)| Some((o, s.as_ref()?)))
    }

    /// One node's relocation/service counters, if it served or moved
    /// bytes.
    pub fn node(&self, node: u16) -> Option<NodeChurn> {
        *self.nodes.get(usize::from(node))?
    }

    /// Per-node relocation/service rows, ascending by node id.
    pub fn node_table(&self) -> Vec<(u16, NodeChurn)> {
        let rows = self.nodes.iter().enumerate();
        // `nodes` is indexed by `u16` ids: the cast is lossless.
        rows.filter_map(|(n, c)| Some((n as u16, (*c)?))).collect()
    }

    /// Folds one event (must arrive in sequence order, as every
    /// observer and every written JSONL log already guarantees) and
    /// returns the change it made to its object's replica set, if any.
    pub fn fold(&mut self, event: &Event) -> Option<ReplicaChange> {
        let delta = self.auditor.fold(event);
        if event.t > self.t_end {
            self.t_end = event.t;
        }
        let object = event.object()?;
        // One lookup per event; the object's state comes into being
        // only where something about it is recorded.
        let slot = self.objects.entry(object);
        match &event.kind {
            EventKind::RequestArrived { .. } => counted(slot).requests += 1,
            EventKind::RequestServed { host, .. } => {
                counted(slot).served += 1;
                node(&mut self.nodes, *host).served += 1;
            }
            EventKind::RequestFailed { .. } => counted(slot).failed += 1,
            EventKind::PlacementAction(p) => {
                counted(slot).replica_delta += match p.action {
                    PlacementActionKind::GeoReplicate | PlacementActionKind::LoadReplicate => 1,
                    PlacementActionKind::Drop => -1,
                    _ => 0,
                };
            }
            EventKind::ReReplication { .. } => counted(slot).replica_delta += 1,
            _ => {}
        }
        let object_size = self.cfg.object_size;
        let churn_window = self.cfg.churn_window;

        // Relocation accounting from the auditor's delta.
        if let Some((target, new_copy)) = delta.created {
            let state = slot.get_or_insert_with(Default::default);
            state.churn.relocations += 1;
            if new_copy {
                state.churn.bytes_moved += object_size;
                match state.created_at.iter_mut().find(|(h, _)| *h == target) {
                    Some(entry) => entry.1 = event.t,
                    None => state.created_at.push((target, event.t)),
                }
                node(&mut self.nodes, target).bytes_in += object_size;
                if let EventKind::PlacementAction(p) = &event.kind {
                    node(&mut self.nodes, p.host).bytes_out += object_size;
                }
            }
        }
        if let Some((from, to)) = delta.migration {
            let state = slot.get_or_insert_with(Default::default);
            if let Some((prev_from, prev_to, prev_t)) = state.last_migration {
                if prev_from == to && prev_to == from && event.t - prev_t <= churn_window {
                    state.churn.ping_pong += 1;
                }
            }
            state.last_migration = Some((from, to, event.t));
        }
        if let Some(host) = delta.removed {
            let state = slot.get_or_insert_with(Default::default);
            if let Some(i) = state.created_at.iter().position(|&(h, _)| h == host) {
                let (_, created) = state.created_at.swap_remove(i);
                if event.t - created <= churn_window {
                    state.churn.replicate_drop += 1;
                }
            }
        }

        // The replica-set change, if the event made one.
        let change = match &event.kind {
            EventKind::PlacementAction(p) => match p.action {
                PlacementActionKind::Drop => Some(ReplicaChange::Dropped { host: p.host }),
                PlacementActionKind::AffinityReduce => {
                    Some(ReplicaChange::AffinityReduced { host: p.host })
                }
                PlacementActionKind::DropRefused => {
                    Some(ReplicaChange::DropRefused { host: p.host })
                }
                PlacementActionKind::GeoMigrate | PlacementActionKind::LoadMigrate => {
                    p.target.map(|to| ReplicaChange::Migrated {
                        from: p.host,
                        to,
                        source_dropped: delta.removed.is_some(),
                    })
                }
                PlacementActionKind::GeoReplicate | PlacementActionKind::LoadReplicate => delta
                    .created
                    .map(|(host, new_copy)| ReplicaChange::Created { host, new_copy }),
            },
            EventKind::ReReplication { target, .. } => {
                Some(ReplicaChange::ReReplicated { host: *target })
            }
            EventKind::CountsReset {
                cause: ResetCause::Purge,
                ..
            } => Some(ReplicaChange::Purged),
            _ => None,
        };
        if change.is_some() {
            // An object only purges named still gets its (zero) row.
            slot.get_or_insert_with(Default::default);
        }
        change
    }

    /// Marks the end of the observed interval (the run duration). The
    /// ledger has no windowed gauges to roll forward; this only pins
    /// the horizon reported by [`last_t`](Self::last_t).
    pub fn finalize(&mut self, t_end: f64) {
        if t_end > self.t_end {
            self.t_end = t_end;
        }
    }

    /// Latest time observed (event time or `finalize` horizon).
    pub fn last_t(&self) -> f64 {
        self.t_end
    }

    /// Snapshots the current protocol-health summary: the totals are
    /// the column sums of the object table. Callable mid-run (the live
    /// dashboard does) or after [`finalize`](Self::finalize).
    pub fn health(&self) -> ProtocolHealth {
        let violations = self.auditor.violations();
        let total =
            |column: fn(&ObjectChurn) -> u64| self.states().map(|(_, s)| column(&s.churn)).sum();
        let moved = |c: &ObjectChurn| c.bytes_moved > 0 || c.churn_events() > 0;
        ProtocolHealth {
            events_seen: self.auditor.events_seen(),
            active_replicas: self.auditor.active_replicas(),
            requests: total(|c| c.requests),
            served: total(|c| c.served),
            relocations: total(|c| c.relocations),
            bytes_moved: total(|c| c.bytes_moved),
            ping_pong: total(|c| c.ping_pong),
            replicate_drop: total(|c| c.replicate_drop),
            violations: violations.len() as u64,
            violation_seqs: violations
                .iter()
                .take(VIOLATION_SEQS_CAP)
                .map(|v| v.seq)
                .collect(),
            churn_window: self.cfg.churn_window,
            top_objects: ranked(
                self.states().filter(|(_, s)| moved(&s.churn)),
                TOP_OBJECTS_CAP,
                churn_rank,
            ),
        }
    }
}

/// An object's counters, its state created on first use and marked as
/// named by a counted event.
fn counted(slot: &mut Option<ObjectState>) -> &mut ObjectChurn {
    let state = slot.get_or_insert_with(Default::default);
    state.counted = true;
    &mut state.churn
}

/// The churn table's rank: bytes moved, then churn events.
fn churn_rank(c: &ObjectChurn) -> (u64, u64) {
    (c.bytes_moved, c.churn_events())
}

/// The counters of the first `n` of `states` by `rank` descending, ties
/// broken by ascending object id.
fn ranked<'a, K: Ord>(
    states: impl Iterator<Item = (u32, &'a ObjectState)>,
    n: usize,
    rank: impl Fn(&ObjectChurn) -> K,
) -> Vec<(u32, ObjectChurn)> {
    let mut rows: Vec<(u32, ObjectChurn)> = states.map(|(o, s)| (o, s.churn)).collect();
    rows.sort_by_key(|(o, c)| (Reverse(rank(c)), *o));
    rows.truncate(n);
    rows
}

/// `nodes[id]`, created zeroed on first use.
fn node(nodes: &mut Vec<Option<NodeChurn>>, id: u16) -> &mut NodeChurn {
    at(nodes, id.into()).get_or_insert_with(Default::default)
}

impl Fold for ObjectLedger {
    fn fold(&mut self, event: &Event) {
        let _ = ObjectLedger::fold(self, event);
    }

    fn finalize(&mut self, t_end: f64) {
        ObjectLedger::finalize(self, t_end);
    }
}

/// An [`ObjectLedger`] behind a [`Shared`] handle: attach one clone to
/// the simulation as an observer and read tables or health snapshots
/// through another (the live dashboard does exactly this).
pub type SharedObjectLedger = Shared<ObjectLedger>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PlacementActionEvent;

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

    fn served(seq: u64, t: f64, object: u32, host: u16) -> Event {
        ev(
            seq,
            t,
            EventKind::RequestServed {
                gateway: 0,
                object,
                host,
                latency: 0.05,
                hops: 2,
            },
        )
    }

    /// A notified migration; returns the change the action made.
    fn migrate(
        ledger: &mut ObjectLedger,
        seq: u64,
        t: f64,
        object: u32,
        from: u16,
        to: u16,
    ) -> Option<ReplicaChange> {
        ledger.fold(&reset(seq, t, object, ResetCause::Created));
        ledger.fold(&reset(seq + 1, t, object, ResetCause::Dropped));
        ledger.fold(&action(
            seq + 2,
            t,
            from,
            object,
            PlacementActionKind::GeoMigrate,
            Some(to),
        ))
    }

    #[test]
    fn ping_pong_within_window_is_counted() {
        let mut l = ObjectLedger::new(LedgerConfig {
            churn_window: 100.0,
            ..LedgerConfig::default()
        });
        migrate(&mut l, 1, 60.0, 7, 1, 2);
        migrate(&mut l, 10, 120.0, 7, 2, 1);
        let c = l.object(7).unwrap();
        assert_eq!(c.ping_pong, 1);
        // A third bounce back is another ping-pong.
        migrate(&mut l, 20, 180.0, 7, 1, 2);
        assert_eq!(l.object(7).unwrap().ping_pong, 2);
        assert_eq!(l.health().ping_pong, 2);
    }

    #[test]
    fn slow_migrate_back_outside_window_is_not_churn() {
        let mut l = ObjectLedger::new(LedgerConfig {
            churn_window: 100.0,
            ..LedgerConfig::default()
        });
        migrate(&mut l, 1, 60.0, 7, 1, 2);
        migrate(&mut l, 10, 600.0, 7, 2, 1);
        assert_eq!(l.object(7).unwrap().ping_pong, 0);
    }

    #[test]
    fn replicate_then_drop_within_window_is_a_cycle() {
        let mut l = ObjectLedger::new(LedgerConfig {
            object_size: 1000,
            churn_window: 100.0,
        });
        l.fold(&reset(1, 60.0, 7, ResetCause::Created));
        l.fold(&action(
            2,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        l.fold(&reset(3, 120.0, 7, ResetCause::Dropped));
        l.fold(&action(4, 120.0, 2, 7, PlacementActionKind::Drop, None));
        let c = l.object(7).unwrap();
        assert_eq!(c.replicate_drop, 1);
        assert_eq!(c.bytes_moved, 1000);
        assert_eq!(c.relocations, 1);
        assert!(l.auditor().violations().is_empty());
    }

    #[test]
    fn affinity_transfer_moves_no_bytes() {
        let mut l = ObjectLedger::new(LedgerConfig {
            object_size: 1000,
            ..LedgerConfig::default()
        });
        // Host 2 already holds a copy (inferred from serving).
        l.fold(&served(1, 10.0, 7, 2));
        l.fold(&reset(2, 60.0, 7, ResetCause::Created));
        l.fold(&action(
            3,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        let c = l.object(7).unwrap();
        assert_eq!(c.relocations, 1);
        assert_eq!(c.bytes_moved, 0, "affinity transfer ships no data");
    }

    #[test]
    fn node_attribution_tracks_bytes_in_and_out() {
        let mut l = ObjectLedger::new(LedgerConfig {
            object_size: 500,
            ..LedgerConfig::default()
        });
        l.fold(&reset(1, 60.0, 7, ResetCause::Created));
        l.fold(&action(
            2,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        l.fold(&served(3, 61.0, 7, 2));
        let nodes = l.node_table();
        let n1 = nodes.iter().find(|(n, _)| *n == 1).unwrap().1;
        let n2 = nodes.iter().find(|(n, _)| *n == 2).unwrap().1;
        assert_eq!(n1.bytes_out, 500);
        assert_eq!(n2.bytes_in, 500);
        assert_eq!(n2.served, 1);
        assert_eq!(n2.bytes_per_served(), 500.0);
    }

    #[test]
    fn fold_hands_back_each_replica_change() {
        let mut l = ObjectLedger::new(LedgerConfig::default());
        assert_eq!(l.fold(&reset(1, 60.0, 7, ResetCause::Created)), None);
        let created = l.fold(&action(
            2,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        assert_eq!(
            created,
            Some(ReplicaChange::Created {
                host: 2,
                new_copy: true
            })
        );
        assert_eq!(
            migrate(&mut l, 3, 120.0, 7, 2, 3),
            Some(ReplicaChange::Migrated {
                from: 2,
                to: 3,
                source_dropped: true
            })
        );
        let restored = l.fold(&ev(
            8,
            200.0,
            EventKind::ReReplication {
                object: 7,
                target: 4,
                elapsed: 12.0,
            },
        ));
        assert_eq!(restored, Some(ReplicaChange::ReReplicated { host: 4 }));
        assert_eq!(l.fold(&served(9, 201.0, 7, 4)), None);
    }

    #[test]
    fn creation_times_are_kept_per_live_copy_only() {
        let mut l = ObjectLedger::new(LedgerConfig {
            churn_window: 100.0,
            ..LedgerConfig::default()
        });
        // A thousand replicate-then-drop cycles onto the same host.
        for i in 0..1000u64 {
            let t = 200.0 * i as f64;
            l.fold(&reset(i * 10 + 1, t, 7, ResetCause::Created));
            l.fold(&action(
                i * 10 + 2,
                t,
                1,
                7,
                PlacementActionKind::GeoReplicate,
                Some(2),
            ));
            assert_eq!(l.state(7).unwrap().created_at.len(), 1);
            l.fold(&reset(i * 10 + 3, t + 50.0, 7, ResetCause::Dropped));
            l.fold(&action(
                i * 10 + 4,
                t + 50.0,
                2,
                7,
                PlacementActionKind::Drop,
                None,
            ));
            assert!(l.state(7).unwrap().created_at.is_empty());
        }
        assert_eq!(l.object(7).unwrap().replicate_drop, 1000);
        assert!(l.auditor().violations().is_empty());
    }

    #[test]
    fn health_snapshot_summarizes_and_ranks() {
        let mut l = ObjectLedger::new(LedgerConfig {
            object_size: 1000,
            churn_window: 100.0,
        });
        l.fold(&served(1, 1.0, 7, 1));
        l.fold(&served(2, 2.0, 8, 1));
        l.fold(&reset(3, 60.0, 7, ResetCause::Created));
        l.fold(&action(
            4,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        l.finalize(150.0);
        let h = l.health();
        assert_eq!(h.served, 2);
        assert_eq!(h.relocations, 1);
        assert_eq!(h.bytes_moved, 1000);
        assert_eq!(h.violations, 0);
        assert_eq!(h.bytes_per_served(), 500.0);
        assert_eq!(h.top_objects.len(), 1, "unmoved object 8 not listed");
        assert_eq!(h.top_objects[0].0, 7);
        assert_eq!(l.last_t(), 150.0);
        let text = h.render();
        assert!(text.contains("[ok]"), "{text}");
    }

    #[test]
    fn requests_failures_and_replica_deltas_are_counted() {
        let mut l = ObjectLedger::new(LedgerConfig::default());
        l.fold(&ev(
            1,
            1.0,
            EventKind::RequestArrived {
                gateway: 0,
                object: 5,
            },
        ));
        l.fold(&ev(
            2,
            1.0,
            EventKind::RequestFailed {
                gateway: 0,
                object: 5,
                reason: crate::event::FailReason::AllReplicasDown,
            },
        ));
        l.fold(&action(
            3,
            30.0,
            1,
            5,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        l.fold(&action(
            4,
            30.0,
            1,
            5,
            PlacementActionKind::GeoMigrate,
            Some(3),
        ));
        l.fold(&action(5, 30.0, 1, 5, PlacementActionKind::Drop, None));
        l.fold(&ev(
            6,
            40.0,
            EventKind::ReReplication {
                object: 5,
                target: 9,
                elapsed: 12.0,
            },
        ));
        let c = l.object(5).unwrap();
        assert_eq!((c.requests, c.served, c.failed), (1, 0, 1));
        assert_eq!(c.replica_delta, 1); // +1 +0 −1 +1
        assert_eq!(l.busiest_objects(8), vec![(5, c)]);
    }

    #[test]
    fn busiest_objects_rank_by_requests_and_skip_purge_only_rows() {
        let mut l = ObjectLedger::new(LedgerConfig::default());
        let arrive = |seq, object| ev(seq, 1.0, EventKind::RequestArrived { gateway: 0, object });
        for (seq, object) in [(1, 4), (2, 9), (3, 9), (4, 2)] {
            l.fold(&arrive(seq, object));
        }
        let purged = l.fold(&reset(5, 60.0, 3, ResetCause::Purge));
        assert_eq!(purged, Some(ReplicaChange::Purged));
        assert_eq!(l.object(3), Some(ObjectChurn::default()), "a zero row");
        let ids: Vec<u32> = l.busiest_objects(8).iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![9, 2, 4], "requests, then id; no purge-only 3");
        assert_eq!(l.busiest_objects(1).len(), 1);
    }

    #[test]
    fn health_render_flags_violations_with_seqs() {
        let mut l = ObjectLedger::new(LedgerConfig::default());
        l.fold(&action(41, 60.0, 3, 9, PlacementActionKind::Drop, None));
        let h = l.health();
        assert_eq!(h.violations, 1);
        assert_eq!(h.violation_seqs, vec![41]);
        let text = h.render();
        assert!(text.contains("VIOLATED"), "{text}");
        assert!(text.contains("41"), "{text}");
    }

    #[test]
    fn replicas_of_reflects_reconstruction() {
        let mut l = ObjectLedger::new(LedgerConfig::default());
        l.fold(&served(1, 1.0, 7, 1));
        l.fold(&reset(2, 60.0, 7, ResetCause::Created));
        l.fold(&action(
            3,
            60.0,
            1,
            7,
            PlacementActionKind::GeoReplicate,
            Some(2),
        ));
        assert_eq!(l.replicas_of(7), vec![1, 2]);
        l.fold(&reset(4, 120.0, 7, ResetCause::Dropped));
        l.fold(&action(5, 120.0, 2, 7, PlacementActionKind::Drop, None));
        assert_eq!(l.replicas_of(7), vec![1]);
    }

    #[test]
    fn shared_ledger_round_trip() {
        let shared = SharedObjectLedger::default();
        let clone = shared.clone();
        clone.fold(&served(1, 1.0, 3, 2));
        clone.finalize(20.0);
        assert_eq!(shared.with(ObjectLedger::health).served, 1);
        assert_eq!(shared.with(|l| l.last_t()), 20.0);
    }
}
