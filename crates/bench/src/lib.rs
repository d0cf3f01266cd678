//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! The `experiments` binary (`cargo run --release -p radar-bench --bin
//! experiments -- all`) drives the functions in [`experiments`]; each
//! reproduces one artifact of the paper's §6 on the UUNET testbed:
//!
//! | Command | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — simulation parameters |
//! | `fig6` | Fig. 6 — bandwidth and latency vs. time, four workloads |
//! | `fig7` | Fig. 7 — relocation overhead as % of total traffic |
//! | `fig8a` | Fig. 8a — maximum host load vs. time |
//! | `fig8b` | Fig. 8b — actual load vs. upper/lower estimates |
//! | `table2` | Table 2 — adjustment time and average replicas |
//! | `fig9` | Fig. 9 — the high-load configuration |
//! | `baselines` | §1/§3 — round-robin / closest / random comparison |
//! | `ablation-constant` | §6.1 — distribution-constant sweep |
//! | `ablation-thresholds` | §6.1 — deletion/replication threshold sweep |
//! | `ablation-period` | §6.1 — placement-period sweep |
//! | `demand-shift` | §1 — responsiveness to a demand change |
//! | `updates` | §5 — update-propagation cost vs replica caps |
//! | `policies` | §4/§5 — placement policies × consistency mixes (`BENCH_policies.json`) |
//! | `redirectors` | §2 — hash-partitioned redirector sweep |
//! | `heterogeneous` | §2 — weighted (heterogeneous) hosts |
//! | `links` | per-link traffic: where the reduction lands |
//! | `storage` | §4 — per-host storage-pressure sweep |
//! | `variance` | Table 2 metrics as mean ± sd over seeds |
//! | `faults` | availability under injected host/link faults |
//!
//! Every experiment is a pure function of an [`ExpConfig`]; the tests run
//! them at [`ExpConfig::tiny`] scale, the binary at [`ExpConfig::full`]
//! (the paper's Table 1 scale) or [`ExpConfig::quick`], each as one
//! [`experiments::Harness::sweep`] of runs built by name through
//! [`radar_workload::by_name`] and [`radar_baselines::selection()`] /
//! [`radar_baselines::placement()`].

// `deny` rather than `forbid`: the counting allocator in [`timing`] is
// the workspace's one sanctioned `unsafe` item (a `GlobalAlloc` impl
// must be `unsafe`), scoped by an explicit `allow` at the impl.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod timing;

/// Run the library's own tests under the counting allocator so the
/// allocation-budget tests in [`timing`] observe real allocator
/// traffic. Delegates to the system allocator, so every other test is
/// unaffected.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: timing::CountingAlloc = timing::CountingAlloc;

use std::fmt::Write as _;
use std::path::PathBuf;

use radar_core::ObjectId;
use radar_sim::{Scenario, ScenarioBuilder};
use radar_simcore::SimRng;
use radar_simnet::NodeId;
use radar_workload::Workload;

/// The four paper workloads, in the order the paper reports them.
pub const WORKLOADS: [&str; 4] = ["hot-sites", "hot-pages", "zipf", "regional"];

/// Scale and output settings shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Number of hosted objects (paper: 10 000).
    pub num_objects: u32,
    /// Per-gateway request rate (paper: 40 req/s).
    pub node_rate: f64,
    /// Simulated duration (seconds).
    pub duration: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Directory for CSV series output (`None` = don't write files).
    pub out_dir: Option<PathBuf>,
}

impl ExpConfig {
    /// The paper's full Table 1 scale.
    pub fn full() -> Self {
        Self {
            num_objects: 10_000,
            node_rate: 40.0,
            duration: 3_000.0,
            seed: 1,
            out_dir: None,
        }
    }

    /// Reduced scale for fast smoke runs (~4× fewer events).
    pub fn quick() -> Self {
        Self {
            num_objects: 2_000,
            node_rate: 40.0,
            duration: 1_600.0,
            seed: 1,
            out_dir: None,
        }
    }

    /// Miniature scale for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_objects: 400,
            node_rate: 4.0,
            duration: 400.0,
            seed: 1,
            out_dir: None,
        }
    }

    /// The baseline scenario for this scale (dynamic placement, normal
    /// watermarks).
    pub fn scenario(&self) -> ScenarioBuilder {
        Scenario::builder()
            .num_objects(self.num_objects)
            .node_request_rate(self.node_rate)
            .duration(self.duration)
            .seed(self.seed)
    }
}

/// Instantiates one of the paper's workloads by name over `num_objects`
/// objects on the 53-node UUNET testbed, through
/// [`radar_workload::by_name`]. The entry point of the repository's
/// `benchmark/` package.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn make_workload(name: &str, num_objects: u32, seed: u64) -> Box<dyn Workload + Send> {
    radar_workload::by_name(name, num_objects, &radar_simnet::builders::uunet(), seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's §3 swamped-server scenario: one gateway's clients hammer
/// a small set of objects co-located with that gateway, while everyone
/// else browses uniformly. Under closest-replica routing the co-located
/// server can never shed this load, "no matter how many additional
/// replicas the server creates"; RaDaR's distribution algorithm sheds it.
#[derive(Debug, Clone)]
pub struct LocalSwamp {
    num_objects: u32,
    hot_gateway: NodeId,
    hot_objects: u32,
    hot_prob: f64,
}

impl LocalSwamp {
    /// Demand from `hot_gateway` goes to objects `0..hot_objects` (which
    /// the swamp scenario places on that same node) with probability
    /// `hot_prob`; all other requests are uniform.
    ///
    /// # Panics
    ///
    /// Panics if `hot_objects` is zero or exceeds `num_objects`.
    pub fn new(num_objects: u32, hot_gateway: NodeId, hot_objects: u32, hot_prob: f64) -> Self {
        assert!(
            hot_objects > 0 && hot_objects <= num_objects,
            "hot set must be a non-empty subset of the object space"
        );
        Self {
            num_objects,
            hot_gateway,
            hot_objects,
            hot_prob,
        }
    }
}

impl Workload for LocalSwamp {
    fn choose(&mut self, _now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        if gateway == self.hot_gateway && rng.chance(self.hot_prob) {
            ObjectId::new(rng.index(self.hot_objects as usize) as u32)
        } else {
            ObjectId::new(rng.index(self.num_objects as usize) as u32)
        }
    }

    fn name(&self) -> &str {
        "local-swamp"
    }
}

/// Formats a fixed-width table: header row plus data rows.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
        }
        out.pop();
        out.pop();
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats bytes×hops/second as MB·hops/s.
pub fn fmt_bw(bytes_hops_per_sec: f64) -> String {
    format!("{:.2}", bytes_hops_per_sec / 1e6)
}

/// Formats seconds as milliseconds.
pub fn fmt_ms(secs: f64) -> String {
    format!("{:.1}", secs * 1e3)
}

/// Percentage reduction from `from` to `to` (positive = improvement).
pub fn reduction_percent(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (from - to) / from * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_factory_covers_paper_names() {
        for name in WORKLOADS {
            let w = make_workload(name, 500, 3);
            assert_eq!(w.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = make_workload("nope", 10, 1);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a", "bbb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bw(2_500_000.0), "2.50");
        assert_eq!(fmt_ms(0.25), "250.0");
        assert_eq!(reduction_percent(100.0, 25.0), 75.0);
        assert_eq!(reduction_percent(0.0, 25.0), 0.0);
    }
}
