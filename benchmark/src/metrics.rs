//! The metric tables: every name the benchmark prints, its unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` at the repo root restates them; a test holds the two
//! together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's value by which it may worsen before a
    /// change counts as a regression; also how far two sets of runs of
    /// one commit may disagree.
    pub bound: f64,
    /// Differences up to this (in the metric's unit) never count.
    pub floor: f64,
    /// Host time or simulated outcome, and what it is.
    pub what: &'static str,
}

/// The end-to-end metrics, reported per workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "host time: per-slice-best composite of run_until(duration) + finish() over the repetitions of the run",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
        what: "host time: median over >= 10 fresh-process set-ups of scenario build + workload build + Simulation::new + run_until(0.0)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        what: "host memory: median over repetitions of the child's VmHWM after finish(), in MiB",
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
        floor: 0.0,
        what: "simulated: total_requests / (total_requests + failed_requests), i.e. 1 - failed_share; repeats exactly for a seed",
    },
    EndToEnd {
        name: "eq_bandwidth_mbhops_s",
        unit: "MB.hops/s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "simulated: RunReport::equilibrium_bandwidth_rate() / 1e6, the paper's Fig. 6 quantity; repeats exactly for a seed",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Name, `<crate>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

type Row = (&'static str, &'static str, Better, &'static str);

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> Row {
    (name, unit, Better::Lower, moves)
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> Row {
    (name, unit, Better::Higher, moves)
}

/// Handler labels of the event loop, as `LoopProfile` names them.
pub const HANDLERS: [&str; 10] = [
    "arrival",
    "redirect",
    "arrive-at-host",
    "service-complete",
    "placement",
    "load-sample",
    "provider-update",
    "update-deliver",
    "fault",
    "declare-dead",
];

/// The per-layer metrics other than the per-handler pairs (see
/// [`per_layer`] for the full list).
const FIXED_PER_LAYER: [Row; 51] = [
    lower("simcore.queue_hold_ns_d512", "ns", "wall_s on paper_zipf, traced_zipf, faulted_updates"),
    lower("simcore.queue_hold_ns_d64k", "ns", "wall_s on hot_sites_backlog; no change elsewhere"),
    lower("simcore.fifo_offer_ns", "ns", "wall_s, all (small)"),
    lower("workload.choose_ns.zipf", "ns", "wall_s on paper_zipf"),
    lower("workload.choose_ns.hot_sites", "ns", "wall_s on hot_sites_backlog"),
    lower("workload.interarrival_ns", "ns", "wall_s, all (small)"),
    lower("simnet.view_new_us", "us", "setup_s, all"),
    lower("simnet.distance_ns", "ns", "wall_s on paper_zipf"),
    lower("simnet.path_ns", "ns", "wall_s on paper_zipf"),
    lower("simnet.set_link_us", "us", "wall_s on faulted_updates only"),
    lower("core.choose_among_ns", "ns", "wall_s on paper_zipf (cache-hit path)"),
    lower("core.choose_replica_ns", "ns", "wall_s on faulted_updates, hot_sites_backlog (uncached Fig. 2)"),
    lower("core.record_access_ns", "ns", "wall_s on paper_zipf"),
    lower("core.directory_write_ns", "ns", "wall_s on placement_heavy_100k, faulted_updates"),
    lower("core.purge_host_us", "us", "wall_s on faulted_updates only"),
    lower("core.placement_scan_us_per_kobj", "us/kobj", "wall_s on placement_heavy_100k"),
    lower("core.install_ns", "ns", "setup_s on placement_heavy_100k"),
    lower("stats.timeseries_record_ns", "ns", "wall_s on paper_zipf (service-complete)"),
    lower("stats.p2_record_ns", "ns", "wall_s on paper_zipf (service-complete)"),
    lower("stats.summary_record_ns", "ns", "wall_s on paper_zipf (service-complete)"),
    lower("stats.histogram_record_ns", "ns", "wall_s on traced_zipf (metrics fold)"),
    lower("obs.jsonl_ns_per_event", "ns", "wall_s on traced_zipf only"),
    lower("obs.jsonl_bytes_per_event", "bytes", "wall_s on traced_zipf; disk cost"),
    lower("obs.parse_ns_per_line", "ns", "none end to end; guards the radar events tools"),
    lower("obs.recorder_ns_per_event", "ns", "wall_s on traced_zipf only"),
    lower("obs.metrics_fold_ns_per_event", "ns", "wall_s on traced_zipf only"),
    lower("obs.ledger_fold_ns_per_event", "ns", "wall_s on traced_zipf only"),
    lower("obs.log_bytes_per_sim_s", "B/sim_s", "disk cost of traced_zipf (ROADMAP: 1.2 MB/s); 0 on workloads without --events"),
    lower("obs.cost_x.events", "x", "wall_s on traced_zipf; ROADMAP target 1.5x"),
    lower("obs.cost_x.ledger", "x", "wall_s on traced_zipf; ROADMAP target 1.15x"),
    lower("obs.cost_x.metrics", "x", "wall_s on traced_zipf"),
    higher("sim.requests", "count", "restates the input size; exact"),
    higher("sim.events", "count", "restates the input size; exact"),
    higher("sim.req_per_s", "1/s", "wall_s at a stated input size"),
    lower("sim.ns_per_request", "ns", "wall_s at a stated input size"),
    lower("sim.failed_requests", "count", "served_share; simulated, exact for a seed"),
    lower("sim.latency_p99_ms", "ms", "none: simulated RunReport::latency_p99, exact for a seed; too seed-dependent on the saturated workloads to carry a bound"),
    lower("sim.loop_other_share", "ratio", "wall_s, all: run time not inside any handler (queue pop, dispatch)"),
    lower("sim.queue_depth_mean", "count", "explains hot_sites_backlog vs paper_zipf; exact"),
    lower("sim.queue_depth_max", "count", "explains hot_sites_backlog vs paper_zipf; exact"),
    lower("sim.slice_ms_p50", "ms", "wall_s"),
    lower("sim.slice_ms_max", "ms", "wall_s: placement spikes on placement_heavy_100k"),
    lower("sim.new_ms", "ms", "setup_s"),
    lower("sim.bootstrap_ms", "ms", "setup_s"),
    lower("sim.finish_ms", "ms", "tail of wall_s"),
    lower("sim.report_json_ms", "ms", "none: cost of --json after the run"),
    lower("sim.report_json_bytes", "bytes", "none: size of --json; exact"),
    lower("sim.allocs_per_kreq", "count", "peak_rss_mb, wall_s; exact"),
    lower("sim.alloc_bytes_per_req", "bytes", "peak_rss_mb, wall_s; exact"),
    lower("sim.trace_overhead_pct", "%", "the cost of looking: traced run span vs untraced wall_s"),
    lower("cli.overhead_pct", "%", "shows the API path measured is what radar simulate users get"),
];

/// Every per-layer metric, in printing order: the fixed ones plus
/// `sim.handler_ns.<h>` and `sim.handler_share.<h>` per handler.
pub fn per_layer() -> Vec<PerLayer> {
    const HANDLER_MOVES: &str = "wall_s on the workload where this handler's share is largest";
    let fixed = FIXED_PER_LAYER
        .iter()
        .map(|&(name, unit, better, moves)| PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
        });
    let handlers = HANDLERS.iter().flat_map(|h| {
        [("ns", "ns"), ("share", "ratio")].map(|(kind, unit)| PerLayer {
            name: format!("sim.handler_{kind}.{h}"),
            unit,
            better: Better::Lower,
            moves: HANDLER_MOVES,
        })
    });
    fixed.chain(handlers).collect()
}

/// The two metric tables as JSON. The contract's shape has exactly
/// name, unit, better (and bound); `glossary` adds what each metric is
/// and which end-to-end metric a layer metric should move, for result
/// files.
pub fn tables_json(glossary: bool) -> [(&'static str, radar_cli::json::Value); 2] {
    use crate::record::{n, obj, s};
    use radar_cli::json::Value;
    let row = |name: &str, unit: &str, better: Better, bound: Option<f64>, note: (&str, &str)| {
        let mut members = vec![
            ("name", s(name)),
            ("unit", s(unit)),
            ("better", s(better.as_str())),
        ];
        members.extend(bound.map(|b| ("bound", n(b))));
        if glossary {
            members.push((note.0, s(note.1)));
        }
        obj(members)
    };
    [
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| row(m.name, m.unit, m.better, Some(m.bound), ("what", m.what)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| row(&m.name, m.unit, m.better, None, ("moves", m.moves)))
                    .collect(),
            ),
        ),
    ]
}

/// `BENCHMARK.json` as the builder's contract shapes it, from the tables
/// above (`benchmark/run.sh contract-json > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    use crate::record::{n, obj, s};
    use radar_cli::json::Value;
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|&x| s(x)).collect());
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]));
    let mut doc = vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", n(crate::suite::CONTRACT_RUN_SECONDS as f64)),
        ("workloads", Value::Arr(workloads.collect())),
    ];
    doc.extend(tables_json(false));
    crate::record::pretty(&obj(doc))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// `name value unit`, the human-readable line.
pub fn print_line(prefix: &str, m: &Measured) {
    println!("{prefix}{} {} {}", m.name, m.value, m.unit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_cli::json::Value;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name.to_string()));
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` restates these tables; keep them identical.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `benchmark/run.sh contract-json`"
        );
        assert!(text.len() <= 64 * 1024);
        let doc = Value::parse(&text).unwrap();
        let rows = |key: &str| doc[key].as_array().unwrap().to_vec();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().unwrap().into(),
                    w["why"].as_str().unwrap().into(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(row["name"], m.name);
            assert_eq!(row["unit"], m.unit);
            assert_eq!(row["better"], m.better.as_str());
            assert_eq!(row["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = per_layer();
        let rows = rows("per_layer");
        assert_eq!(rows.len(), layers.len());
        for (row, m) in rows.iter().zip(&layers) {
            assert_eq!(row["name"], m.name.as_str());
            assert_eq!(row["unit"], m.unit);
            assert_eq!(row["better"], m.better.as_str());
        }
        assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
        assert_eq!(doc["paths"].as_array().unwrap()[0], "benchmark");
        assert_eq!(
            doc["run_seconds"].as_u64(),
            Some(crate::suite::CONTRACT_RUN_SECONDS)
        );
    }
}
