//! The paper's tables and figures, regenerated. Every experiment lists
//! its runs as [`Job`]s, runs them side by side with [`Harness::sweep`]
//! (the shared paper runs once, through [`Harness::preload`]), then
//! tabulates the reports with [`Harness::table`].

mod ablations;
mod faults;

pub use ablations::{
    ablation_constant, ablation_period, ablation_thresholds, baselines, demand_shift,
    heterogeneous, links, policies, redirectors, storage, updates, variance,
};
pub use faults::faults;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use radar_sim::{
    NetworkParams, PlacementMode, RunReport, ScenarioBuilder, Simulation, SERVER_CAPACITY,
};
use radar_stats::BinSpec;

use crate::{fmt_bw, fmt_ms, format_table, reduction_percent, ExpConfig, WORKLOADS};

/// One run for [`Harness::sweep`]: the label of its `[sim]` progress line
/// and the simulation.
pub type Job = (String, Simulation);

/// The simulation of `scenario` under the named workload
/// ([`radar_workload::by_name`], for the scenario's objects, topology and
/// seed), selection policy ([`radar_baselines::selection()`]) and placement
/// policy ([`radar_baselines::placement()`]); `"radar"` names the paper's.
///
/// # Panics
///
/// Panics if the scenario is invalid or a name unknown.
pub fn simulation(
    scenario: ScenarioBuilder,
    workload: &str,
    selection: &str,
    placement: &str,
) -> Simulation {
    let scenario = scenario.build().expect("valid scenario");
    let seed = scenario.seed;
    let workload =
        radar_workload::by_name(workload, scenario.num_objects, &scenario.topology, seed)
            .unwrap_or_else(|e| panic!("{e}"));
    let selection = radar_baselines::selection(selection, seed).unwrap_or_else(|e| panic!("{e}"));
    let placement = radar_baselines::placement(placement).unwrap_or_else(|e| panic!("{e}"));
    Simulation::with_policies(scenario, workload, selection, placement)
}

/// Runs the experiments at one scale and caches the paper-configuration
/// runs (dynamic and static per workload) so `all` does not re-simulate
/// them for every figure.
#[derive(Debug)]
pub struct Harness {
    /// Scale/output settings for every experiment.
    pub cfg: ExpConfig,
    /// Paper-configuration runs by workload and dynamic placement.
    paper: HashMap<(String, bool), RunReport>,
}

impl Harness {
    /// Creates an empty harness at the given scale.
    pub fn new(cfg: ExpConfig) -> Self {
        Self {
            cfg,
            paper: HashMap::new(),
        }
    }

    /// Runs independent simulations side by side, at most one per core
    /// of the host at a time, and returns their reports in the order of
    /// `jobs`. Every run is seed-deterministic, so the reports are those
    /// of running the jobs one after another; only the interleaving of
    /// the progress lines differs.
    pub fn sweep(jobs: Vec<Job>) -> Vec<RunReport> {
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..std::thread::available_parallelism().map_or(1, usize::from) {
                scope.spawn(|| loop {
                    let next = queue.lock().expect("no run panics").next();
                    let Some((i, (label, simulation))) = next else {
                        break;
                    };
                    eprintln!("  [sim] {label}");
                    let report = simulation.run();
                    done.lock().expect("no run panics").push((i, report));
                });
            }
        });
        let mut done = done.into_inner().expect("no run panics");
        done.sort_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, report)| report).collect()
    }

    /// Simulates, in one sweep, whichever paper-configuration runs of
    /// `workloads` are not cached yet: the dynamic-placement runs, plus
    /// the static baselines when `statics` is set.
    pub fn preload(&mut self, workloads: &[&str], statics: bool) {
        let missing: Vec<(String, bool)> = workloads
            .iter()
            .flat_map(|w| [(w.to_string(), true), (w.to_string(), false)])
            .filter(|key| (key.1 || statics) && !self.paper.contains_key(key))
            .collect();
        let jobs = missing
            .iter()
            .map(|(workload, dynamic)| {
                let (label, mode) = if *dynamic {
                    ("dynamic ", PlacementMode::Dynamic)
                } else {
                    ("static  ", PlacementMode::Static)
                };
                let scenario = self.cfg.scenario().placement(mode);
                let simulation = simulation(scenario, workload, "radar", "radar");
                (format!("{label} {workload}"), simulation)
            })
            .collect();
        self.paper
            .extend(missing.into_iter().zip(Self::sweep(jobs)));
    }

    /// The dynamic-placement run of `workload`, once
    /// [`preload`](Self::preload) simulated it.
    pub fn dynamic(&self, workload: &str) -> &RunReport {
        &self.paper[&(workload.to_string(), true)]
    }

    /// The static-baseline run of `workload`, once
    /// [`preload`](Self::preload) simulated it.
    pub fn static_run(&self, workload: &str) -> &RunReport {
        &self.paper[&(workload.to_string(), false)]
    }

    /// Formats a fixed-width table and writes it as `{name}.csv` under
    /// the configured output directory, if any. A write error is
    /// reported on stderr, never fatal: a missing results directory must
    /// not kill a 10-minute experiment run.
    pub fn table(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
        if let Some(dir) = &self.cfg.out_dir {
            let path = dir.join(format!("{name}.csv"));
            let lines = std::iter::once(headers.join(",")).chain(rows.iter().map(|r| r.join(",")));
            let body: String = lines.map(|line| line + "\n").collect();
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        format_table(headers, rows)
    }

    /// [`table`](Self::table) of one row per `(label, report)` run: the
    /// label under `key`, then one cell per column of the report.
    fn runs_table<'a, L: std::fmt::Display>(
        &self,
        name: &str,
        key: &str,
        runs: impl IntoIterator<Item = (L, &'a RunReport)>,
        columns: &[Column],
    ) -> String {
        let headers: Vec<&str> = std::iter::once(key)
            .chain(columns.iter().map(|c| c.0))
            .collect();
        let rows: Vec<Vec<String>> = runs
            .into_iter()
            .map(|(label, r)| {
                let cells = columns.iter().map(|(_, cell)| cell(r));
                std::iter::once(label.to_string()).chain(cells).collect()
            })
            .collect();
        self.table(name, &headers, &rows)
    }
}

/// A column of a table of runs: its header and the cell a report fills.
type Column = (&'static str, &'static dyn Fn(&RunReport) -> String);

const EQ_BW: Column = ("eq bw", &|r| fmt_bw(r.equilibrium_bandwidth_rate()));
const EQ_LAT: Column = ("eq lat (ms)", &|r| fmt_ms(r.equilibrium_latency()));
const REPLICAS: Column = ("avg replicas", &|r| {
    format!("{:.2}", r.equilibrium_avg_replicas())
});
const RELOCATIONS: Column = ("relocations", &|r| r.relocations().to_string());
/// The peak host load over the final quarter of the run: the settled
/// regime.
const SETTLED_PEAK: Column = ("peak load (final quarter)", &|r| {
    format!("{:.1}", r.peak_load_after(r.max_load.len() * 3 / 4))
});
/// Minutes until the run settles at its equilibrium.
const ADJUSTMENT: Column = ("adjustment (min)", &|r| {
    r.adjustment().map_or_else(
        || "n/a".into(),
        |a| format!("{:.0}", a.adjustment_time / 60.0),
    )
});
/// Relocation traffic's peak share of all traffic.
const PEAK_OVERHEAD: Column = ("peak overhead", &|r| {
    let peak = r.overhead_fractions().into_iter().fold(0.0f64, f64::max);
    format!("{:.3}%", peak * 100.0)
});

/// Table 1: the simulation parameters in force at this scale.
pub fn table1(h: &mut Harness) -> String {
    let cfg = &h.cfg;
    let scenario = cfg.scenario().build().expect("valid scenario");
    let p = scenario.params;
    let network = NetworkParams::paper();
    let rows = [
        ("Number of objects", scenario.num_objects.to_string()),
        (
            "Size of object",
            format!("{} KB", scenario.catalog.object_size() / 1024),
        ),
        (
            "Placement decision frequency",
            format!("every {} seconds", p.placement_period),
        ),
        (
            "Node request rate",
            format!("{} requests per sec", scenario.node_request_rate),
        ),
        (
            "Server capacity",
            format!("{SERVER_CAPACITY} requests per sec"),
        ),
        (
            "Network delay",
            format!("{} ms per hop", network.hop_delay * 1e3),
        ),
        (
            "Link bandwidth",
            format!("{} KBps", network.link_bandwidth / 1e3),
        ),
        (
            "High watermark",
            format!("{} requests/sec (50 in fig9 runs)", p.high_watermark),
        ),
        (
            "Low watermark",
            format!("{} requests/sec (40 in fig9 runs)", p.low_watermark),
        ),
        (
            "Deletion threshold u",
            format!("{} requests/sec", p.deletion_threshold),
        ),
        (
            "Replication threshold m",
            format!("6u, or {} requests/sec", p.replication_threshold),
        ),
        (
            "Load measurement interval",
            format!("{} seconds", p.measurement_interval),
        ),
        (
            "MIGR_RATIO / REPL_RATIO",
            format!("{} / {:.4}", radar_core::MIGR_RATIO, radar_core::REPL_RATIO),
        ),
        (
            "Distribution constant",
            format!("{}", p.distribution_constant),
        ),
        (
            "Simulated duration",
            format!("{} seconds", scenario.duration),
        ),
    ]
    .map(|(parameter, value)| vec![parameter.to_string(), value]);
    format!(
        "== Table 1: simulation parameters ==\n{}",
        format_table(&["Parameter", "Value"], &rows)
    )
}

/// Fig. 6: bandwidth and mean latency vs. time for the four workloads,
/// dynamic replication against the static baseline.
pub fn fig6(h: &mut Harness) -> String {
    let mut out = String::from("== Figure 6: bandwidth and latency, dynamic vs static ==\n");
    let mut summary = Vec::new();
    h.preload(&WORKLOADS, true);
    for workload in WORKLOADS {
        let dynamic = h.dynamic(workload);
        let static_run = h.static_run(workload);
        let d_bw = dynamic.total_bandwidth_rates();
        let s_bw = static_run.total_bandwidth_rates();
        let d_lat = dynamic.latency_series.means_filled();
        let s_lat = static_run.latency_series.means_filled();
        let bins = d_bw.len().min(s_bw.len());
        let spec = dynamic.client_bandwidth.spec();
        let mut rows = Vec::with_capacity(bins);
        for i in 0..bins {
            rows.push(vec![
                format!("{:.0}", spec.bin_start(i)),
                fmt_bw(s_bw[i]),
                fmt_bw(d_bw[i]),
                fmt_ms(s_lat[i]),
                fmt_ms(d_lat[i]),
            ]);
        }
        let headers = [
            "t(s)",
            "static bw (MB·hops/s)",
            "dynamic bw",
            "static lat (ms)",
            "dynamic lat",
        ];
        let _ = writeln!(out, "\n-- workload: {workload} --");
        out.push_str(&h.table(&format!("fig6_{workload}"), &headers, &rows));

        let bw_red = reduction_percent(
            static_run.equilibrium_bandwidth_rate(),
            dynamic.equilibrium_bandwidth_rate(),
        );
        // The paper's headline numbers compare the dynamic run's own
        // initial (unadjusted) bins against its equilibrium.
        let bw_red_initial = reduction_percent(
            dynamic.initial_bandwidth_rate(),
            dynamic.equilibrium_bandwidth_rate(),
        );
        let lat_red = reduction_percent(
            static_run.equilibrium_latency(),
            dynamic.equilibrium_latency(),
        );
        summary.push(vec![
            workload.to_string(),
            fmt_bw(static_run.equilibrium_bandwidth_rate()),
            fmt_bw(dynamic.equilibrium_bandwidth_rate()),
            format!("{bw_red:.1}%"),
            format!("{bw_red_initial:.1}%"),
            fmt_ms(static_run.equilibrium_latency()),
            fmt_ms(dynamic.equilibrium_latency()),
            format!("{lat_red:.1}%"),
        ]);
    }
    out.push_str("\n-- equilibrium summary (paper: bw reductions 68.3% hot-sites, 62.9% hot-pages, 60.1% zipf, 90.1% regional; latency ~20%, 28% regional) --\n");
    let headers = [
        "workload",
        "static bw",
        "dynamic bw",
        "red vs static",
        "red vs initial",
        "static lat(ms)",
        "dynamic lat(ms)",
        "lat reduction",
    ];
    out.push_str(&h.table("fig6_summary", &headers, &summary));
    out
}

/// One row per `step`-th time bin of `spec`: the bin's start, then each
/// series' value there (zero past its end) through `cell`.
fn time_rows(
    spec: BinSpec,
    series: &[Vec<f64>],
    step: usize,
    cell: impl Fn(f64) -> String,
) -> Vec<Vec<String>> {
    let bins = series.iter().map(Vec::len).max().unwrap_or(0);
    let row = |i| {
        let values = series
            .iter()
            .map(|s| cell(s.get(i).copied().unwrap_or(0.0)));
        std::iter::once(format!("{:.0}", spec.bin_start(i)))
            .chain(values)
            .collect()
    };
    (0..bins).step_by(step).map(row).collect()
}

/// Fig. 7: relocation overhead as a percentage of total traffic.
pub fn fig7(h: &mut Harness) -> String {
    let mut out = String::from(
        "== Figure 7: network overhead (relocation traffic, % of total; paper: always < 2.5%) ==\n",
    );
    h.preload(&WORKLOADS, false);
    let columns = WORKLOADS.map(|w| h.dynamic(w).overhead_fractions());
    let spec = h.dynamic(WORKLOADS[0]).client_bandwidth.spec();
    let rows = time_rows(spec, &columns, 1, |v| format!("{:.3}", v * 100.0));
    let headers = ["t(s)", "hot-sites %", "hot-pages %", "zipf %", "regional %"];
    out.push_str(&h.table("fig7", &headers, &rows));
    let peaks = WORKLOADS.map(|w| vec![w.to_string(), PEAK_OVERHEAD.1(h.dynamic(w))]);
    out.push_str("\npeak overhead per workload:\n");
    out.push_str(&format_table(&["workload", "peak overhead"], &peaks));
    out
}

/// Fig. 8a: maximum host load over time (must stay under the high
/// watermark once the initial hot spots are dissolved).
pub fn fig8a(h: &mut Harness) -> String {
    let mut out = String::from("== Figure 8a: maximum host load (paper: stays below hw) ==\n");
    let scenario = h.cfg.scenario().build().expect("valid scenario");
    let hw = scenario.params.high_watermark;
    h.preload(&WORKLOADS, false);
    let columns = WORKLOADS.map(|w| h.dynamic(w).max_load.means_filled());
    let spec = h.dynamic(WORKLOADS[0]).max_load.spec();
    let rows = time_rows(spec, &columns, 5, |v| format!("{v:.1}"));
    let headers = ["t(s)", "hot-sites", "hot-pages", "zipf", "regional"];
    out.push_str(&h.table("fig8a", &headers, &rows));
    let mut peaks = Vec::new();
    for w in WORKLOADS {
        let report = h.dynamic(w);
        // Skip the first quarter as the hot-spot dissolution transient.
        let warmup = report.max_load.len() / 4;
        peaks.push(vec![
            w.to_string(),
            format!("{:.1}", report.peak_load()),
            format!("{:.1}", report.peak_load_after(warmup)),
            format!("{hw:.0}"),
        ]);
    }
    out.push_str("\npeak loads (requests/sec):\n");
    let headers = ["workload", "peak overall", "peak after warmup", "hw"];
    out.push_str(&format_table(&headers, &peaks));
    out
}

/// Fig. 8b: one host's actual load against the protocol's upper/lower
/// estimates. Uses the hot-sites workload and tracks one of the hot
/// sites — the host whose estimates actually move.
pub fn fig8b(h: &mut Harness) -> String {
    let cfg = &h.cfg;
    // The tracked host is a hot site of the run's own hot-sites workload.
    let hot_sites = radar_workload::hot_sites(cfg.num_objects, 53, cfg.seed);
    let tracked = (hot_sites.hot_objects()[0].index() % 53) as u16;
    let scenario = cfg
        .scenario()
        .tracked_host(tracked)
        .build()
        .expect("valid scenario");
    let label = format!("dynamic  hot-sites (tracking node {tracked})");
    let jobs = vec![(label, Simulation::new(scenario, Box::new(hot_sites)))];
    let report = Harness::sweep(jobs).remove(0);

    let mut out = format!(
        "== Figure 8b: load estimates vs actual (hot-sites, node {tracked}; paper: actual lies between the estimates) ==\n"
    );
    let mut rows = Vec::new();
    for s in report.load_estimates.iter().step_by(3) {
        rows.push(vec![
            format!("{:.0}", s.t),
            format!("{:.2}", s.lower),
            format!("{:.2}", s.actual),
            format!("{:.2}", s.upper),
        ]);
    }
    let headers = ["t(s)", "low estimate", "actual", "high estimate"];
    out.push_str(&h.table("fig8b", &headers, &rows));
    let violations = report
        .load_estimates
        .iter()
        .filter(|s| s.actual < s.lower - 1e-9 || s.actual > s.upper + 1e-9)
        .count();
    let _ = writeln!(
        out,
        "\nsamples where actual escapes [low, high]: {violations} of {}",
        report.load_estimates.len()
    );
    out
}

/// Table 2: adjustment time and average number of replicas per workload.
pub fn table2(h: &mut Harness) -> String {
    h.preload(&WORKLOADS, false);
    let runs = WORKLOADS.map(|w| (w, h.dynamic(w)));
    let columns = [
        ("Adjustment Time (min)", ADJUSTMENT.1),
        ("Average Number of Replicas", REPLICAS.1),
    ];
    format!(
        "== Table 2: adjustment time and replica counts (paper: 20-23 min; 2.62 / 2.59 / 1.86 / 1.49 replicas) ==\n{}",
        h.runs_table("table2", "Workload", runs, &columns)
    )
}

/// Fig. 9: the high-load configuration (hw=50, lw=40) — reduced gains
/// and responsiveness relative to the normal-load runs.
pub fn fig9(h: &mut Harness) -> String {
    let mut out = String::from(
        "== Figure 9: high load (hw=50, lw=40; paper: bandwidth +2%..+17% vs normal watermarks, slower adjustment) ==\n",
    );
    h.preload(&WORKLOADS, false);
    let jobs = WORKLOADS
        .iter()
        .map(|&workload| {
            let scenario = h
                .cfg
                .scenario()
                .params(radar_core::Params::paper_high_load());
            let simulation = simulation(scenario, workload, "radar", "radar");
            (format!("high-load {workload}"), simulation)
        })
        .collect();
    let mut rows = Vec::new();
    for (workload, high) in WORKLOADS.iter().zip(Harness::sweep(jobs)) {
        let normal = h.dynamic(workload);
        let bw_change = -reduction_percent(
            normal.equilibrium_bandwidth_rate(),
            high.equilibrium_bandwidth_rate(),
        );
        let lat_change =
            -reduction_percent(normal.equilibrium_latency(), high.equilibrium_latency());
        let adj = ADJUSTMENT.1;
        rows.push(vec![
            workload.to_string(),
            fmt_bw(normal.equilibrium_bandwidth_rate()),
            fmt_bw(high.equilibrium_bandwidth_rate()),
            format!("{bw_change:+.1}%"),
            format!("{lat_change:+.1}%"),
            adj(normal),
            adj(&high),
            format!("{:.2}", high.equilibrium_avg_replicas()),
        ]);
    }
    let headers = [
        "workload",
        "normal bw",
        "high-load bw",
        "bw change",
        "lat change",
        "adj normal (min)",
        "adj high (min)",
        "replicas (high)",
    ];
    out.push_str(&h.table("fig9", &headers, &rows));
    out
}
