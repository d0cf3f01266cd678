//! Pluggable baseline replica-placement policies.
//!
//! The placement counterpart of
//! [`SelectionPolicy`](crate::SelectionPolicy): the paper's own
//! algorithm (§4, Figs. 3–5) is not a policy — a simulation without one
//! calls [`radar_core::placement::run_placement_into`] directly.
//! Comparator strategies (availability-aware continuous placement,
//! cluster-based load-balancing replication) live in the
//! `radar-baselines` crate and implement [`PlacementPolicy`]. Every
//! policy sees the identical [`PlacementEnv`] surface the paper's
//! algorithm does — `CreateObj` admission, drop arbitration,
//! offload-recipient probing, §5 replica caps — so head-to-head runs
//! differ only in the decision rule, never in the bookkeeping.

use radar_core::placement::{PlacementEnv, PlacementOutcome, PlacementScratch};
use radar_core::HostState;

/// Decides replica placement for one host, once per placement epoch.
///
/// The platform calls [`run_epoch`](Self::run_epoch) for each host on
/// its placement timer, inside a directory batch (count resets coalesce
/// at commit). Implementations interact with the rest of the platform
/// exclusively through the [`PlacementEnv`] they are handed: `create_obj`
/// for migrations/replications (the env performs the transfer accounting
/// and the notify-*after*-create protocol), `request_drop` /
/// `notify_affinity` for shrinking, `find_offload_recipient` for
/// load-report probing, and `may_replicate` / `replica_count` for the §5
/// consistency caps — which every policy **must** respect: never create
/// a new physical copy while `may_replicate(x)` is `false`.
///
/// Contract at the end of an epoch: record every action in `out` (the
/// metrics/observer feed), then reset the host's access counts and mark
/// the run (`host.reset_access_counts()` + `host.mark_placement_run(now)`)
/// so the next epoch judges a fresh window.
/// [`run_placement_into`](radar_core::placement::run_placement_into)
/// does all of this for the paper's algorithm; custom policies must do
/// the same.
pub trait PlacementPolicy: Send {
    /// Runs one placement epoch for `host` at time `now`. `scratch` is
    /// reusable working memory and `out` is cleared and refilled — the
    /// platform owns both so steady-state epochs allocate nothing.
    fn run_epoch(
        &mut self,
        host: &mut HostState,
        now: f64,
        env: &mut dyn PlacementEnv,
        scratch: &mut PlacementScratch,
        out: &mut PlacementOutcome,
    );

    /// Policy name for reports (`availability`, `cluster`, …).
    fn name(&self) -> &str;
}
