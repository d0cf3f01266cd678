//! Flight recorder for the RaDaR reproduction.
//!
//! This crate is the platform's observability spine: a typed event
//! vocabulary ([`Event`] / [`EventKind`]) covering every redirector
//! decision, placement action, fault transition, re-replication, and
//! count reset; a [`Recorder`] that encodes each event as one JSONL line
//! into a sink or an in-memory log; [`Tally`], the run accounting the
//! simulator's report and the streaming [`MetricsObserver`] both record
//! through (the observer folds the same event feed into one, plus
//! dashboard aggregates); [`ObjectLedger`], the one per-object and
//! per-host table over the feed (request counts, replica changes,
//! churn and relocation cost, and the [`InvariantAuditor`]'s
//! replica-set audit); a structural log differ ([`diff_events`]) for
//! regression diffing of seeded runs; and [`LoopProfile`] counters for
//! event-loop wall time and queue depth.
//!
//! Each piece of vocabulary is stated once: one tag table per interned
//! enum, one renderer behind [`Event::brief`] and [`Event::explain`],
//! and one observer handle, [`Shared`], over every [`Fold`] of the feed.
//!
//! Design rules:
//!
//! - **Depends on no protocol or simulator crate** (only `radar-stats`).
//!   The protocol crate records its decisions in these types, and
//!   [`json`] is the workspace's one JSON value, reader and printer;
//!   [`jsonl`] maps events onto it, so event logs can be read without
//!   the simulator.
//! - **Deterministic.** Events carry sim time, sequence numbers,
//!   causal parents, and queue depth — never wall clock — so two
//!   identical seeded runs serialize byte-identically. Wall-clock
//!   profiling lives in [`LoopProfile`], outside the event stream.
//! - **A stream.** The recorder drops nothing, so a log's sequence
//!   numbers run densely from 1; a gap means it was cut or filtered.
//!
//! ```
//! use radar_obs::{Event, EventKind, Recorder, SharedRecorder, DEFAULT_CAPACITY};
//!
//! let rec = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
//! rec.fold(&Event {
//!     seq: 1,
//!     parent: None,
//!     t: 0.5,
//!     queue_depth: 0,
//!     kind: EventKind::RequestArrived { gateway: 0, object: 7 },
//! });
//! let jsonl = rec.with(Recorder::to_jsonl);
//! let parsed = radar_obs::parse_jsonl(&jsonl).unwrap();
//! assert_eq!(parsed[0].object(), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod diff;
mod event;
mod idtable;
pub mod json;
pub mod jsonl;
mod ledger;
mod metrics;
mod profile;
mod recorder;
mod render;
mod shared;

pub use audit::{AuditDelta, InvariantAuditor, Violation, ViolationKind};
pub use diff::{diff_events, DiffOutcome};
pub use event::{
    CandidateSnapshot, ConsistencyClass, DecisionBranch, DecisionEvent, Event, EventKind,
    FailReason, PlacementActionEvent, PlacementActionKind, ProviderUpdateEvent, ResetCause,
    UpdateDeliveredEvent, EVENT_TYPES,
};
pub use json::ParseError;
pub use jsonl::{for_each_jsonl, parse_jsonl, JsonlError};
pub use ledger::{
    LedgerConfig, NodeChurn, ObjectChurn, ObjectLedger, ProtocolHealth, ReplicaChange,
    SharedObjectLedger,
};
pub use metrics::{MetricsConfig, MetricsObserver, SharedMetrics, Tally};
pub use profile::{HandlerCounter, HandlerStats, LoopProfile};
pub use recorder::{Recorder, SharedRecorder, DEFAULT_CAPACITY};
pub use shared::{Fold, Shared};
