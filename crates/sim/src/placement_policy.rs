//! Pluggable replica-placement policies.
//!
//! The placement counterpart of
//! [`SelectionPolicy`](crate::SelectionPolicy), except that here the
//! paper's own algorithm (§4, Figs. 3–5) is a policy too:
//! [`RadarPlacement`], a thin delegation to
//! [`radar_core::placement::run_placement_into`]; comparator strategies
//! (availability-aware continuous placement, cluster-based
//! load-balancing replication) live in the `radar-baselines` crate and
//! implement the same trait. Every policy sees the identical
//! [`PlacementEnv`] surface — `CreateObj` admission, drop arbitration,
//! offload-recipient probing, §5 replica caps — so head-to-head runs
//! differ only in the decision rule, never in the bookkeeping.

use radar_core::placement::{run_placement_into, PlacementEnv, PlacementOutcome, PlacementScratch};
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
/// so the next epoch judges a fresh window. [`run_placement_into`] does
/// all of this for the paper's algorithm; custom policies must do the
/// same.
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

    /// Policy name for reports (`radar`, `availability`, `cluster`, …).
    fn name(&self) -> &str;
}

/// The paper's placement algorithm (deletion threshold, geo-migration /
/// geo-replication by preference-path shares, Fig. 5 offloading),
/// delegating to [`radar_core::placement::run_placement_into`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RadarPlacement;

impl RadarPlacement {
    /// Creates the protocol's own placement policy.
    pub fn new() -> Self {
        RadarPlacement
    }
}

impl PlacementPolicy for RadarPlacement {
    fn run_epoch(
        &mut self,
        host: &mut HostState,
        now: f64,
        env: &mut dyn PlacementEnv,
        scratch: &mut PlacementScratch,
        out: &mut PlacementOutcome,
    ) {
        run_placement_into(host, now, env, scratch, out);
    }

    fn name(&self) -> &str {
        "radar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radar_placement_is_the_default_algorithm() {
        // The trait object must reach the exact same code path as the
        // direct call — spot-checked by name here; the golden-log gate
        // pins byte-identity end to end.
        let mut policy = RadarPlacement::new();
        assert_eq!(PlacementPolicy::name(&policy), "radar");
        let _: &mut dyn PlacementPolicy = &mut policy;
    }
}
