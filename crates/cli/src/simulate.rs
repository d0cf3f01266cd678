//! `radar simulate` — configure and run one simulation.

use radar_core::{Catalog, ConsistencyMix, OBJECT_SIZE};
use radar_sim::obs::{SharedMetrics, SharedObjectLedger};
use radar_sim::{FaultSpec, PlacementMode, RunReport, Scenario, ScenarioError, Simulation, Trace};

use crate::args::{ArgError, Parsed};
use crate::render;

const OPTIONS: &[&str] = &[
    "workload",
    "policy",
    "placement",
    "consistency",
    "objects",
    "rate",
    "duration",
    "seed",
    "watermarks",
    "topology",
    "redirectors",
    "update-rate",
    "storage-limit",
    "replay",
    "record-trace",
    "faults",
    "events",
    "out",
];
const SWITCHES: &[&str] = &["static", "json", "dashboard", "profile", "ledger", "help"];

/// How many hosts/objects the dashboard panels display.
const DASHBOARD_TOP: usize = 8;

/// Fully resolved `simulate` arguments.
#[derive(Debug)]
pub struct SimulateArgs {
    /// The scenario to run.
    pub scenario: Scenario,
    /// The [`radar_workload::by_name`] name of the workload that drives
    /// it (unused when replaying a trace).
    pub workload: String,
    /// Replica-selection policy name.
    pub policy: String,
    /// Replica-placement policy name.
    pub placement: String,
    /// Replay source, if any.
    pub replay: Option<Trace>,
    /// Capture arrivals and write them here.
    pub record_trace_to: Option<String>,
    /// Stream flight-recorder events (JSONL) here and enable event-loop
    /// profiling.
    pub events_to: Option<String>,
    /// Profile the event loop (per-handler wall time and queue depth)
    /// for the text output, as `--events` also does.
    pub profile: bool,
    /// Enable the protocol-health ledger (per-object replica sets, churn
    /// attribution, invariant audit) for the report's
    /// `protocol_health` section. Implied by `--dashboard`, which
    /// renders the live protocol panel from it.
    pub ledger: bool,
    /// Fold the event stream into live dashboard metrics (repainted on
    /// stderr when it is a terminal; the final frame joins the report).
    pub dashboard: bool,
    /// Emit the full report as JSON instead of the text summary.
    pub json: bool,
    /// Write output here instead of returning it for stdout.
    pub out: Option<String>,
}

impl SimulateArgs {
    /// Parses command-line arguments into a runnable configuration.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed flags, unreadable files, or
    /// invalid scenario combinations.
    pub fn parse(args: &[&str]) -> Result<Self, String> {
        let parsed = Parsed::parse(args, OPTIONS, SWITCHES).map_err(|e| match e {
            ArgError::Unknown(_) => format!("{e}\n\n{}", help()),
            e => e.to_string(),
        })?;
        if parsed.has("help") {
            return Err(help());
        }
        if let Some(extra) = parsed.positionals.first() {
            return Err(format!(
                "simulate takes no positional arguments, got {extra:?}"
            ));
        }
        let objects = parsed
            .get_parsed("objects", 1_000u32, "an object count")
            .map_err(|e| e.to_string())?;
        // Before the catalog below allocates per object.
        radar_sim::check_object_count(objects).map_err(|e| format!("--objects: {e}"))?;
        let rate = parsed
            .get_parsed("rate", 10.0f64, "requests/second")
            .map_err(|e| e.to_string())?;
        let duration = parsed
            .get_parsed("duration", 600.0f64, "seconds")
            .map_err(|e| e.to_string())?;
        let seed = parsed
            .get_parsed("seed", 1u64, "an integer seed")
            .map_err(|e| e.to_string())?;
        let redirectors = parsed
            .get_parsed("redirectors", 1u16, "a redirector count")
            .map_err(|e| e.to_string())?;
        let update_rate = parsed
            .get_parsed("update-rate", 0.0f64, "updates/second")
            .map_err(|e| e.to_string())?;

        let mut builder = Scenario::builder()
            .num_objects(objects)
            .node_request_rate(rate)
            .duration(duration)
            .seed(seed)
            .num_redirectors(redirectors)
            .update_rate(update_rate);
        // The topology is resolved before build() because the §5 catalog
        // below round-robins primaries over its node count.
        let topology = crate::topology::load(parsed.get("topology").unwrap_or("uunet"))?;
        let nodes = topology.len() as u16;
        builder = builder.topology(topology);
        let consistency = match parsed.get("consistency") {
            None => ConsistencyMix::ReadOnly,
            Some(name) => ConsistencyMix::parse(name).ok_or_else(|| {
                format!("unknown consistency mix {name:?} (read-only, mixed, write-heavy)")
            })?,
        };
        if consistency != ConsistencyMix::ReadOnly {
            // The default catalog's object size, so the mixes differ only
            // in §5 kinds.
            builder = builder.catalog(Catalog::with_mix(objects, OBJECT_SIZE, nodes, consistency));
        }
        if let Some(spec) = parsed.get("watermarks") {
            let (lw, hw) = spec
                .split_once(',')
                .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
                .ok_or_else(|| format!("--watermarks expects `low,high`, got {spec:?}"))?;
            builder = builder.params(radar_core::Params {
                low_watermark: lw,
                high_watermark: hw,
                ..radar_core::Params::paper()
            });
        }
        if let Some(limit) = parsed.get("storage-limit") {
            let limit: u32 = limit
                .parse()
                .map_err(|_| format!("--storage-limit expects an integer, got {limit:?}"))?;
            builder = builder.storage_limit(limit);
        }
        if parsed.has("static") {
            builder = builder.placement(PlacementMode::Static);
        }
        let faults = parsed.get("faults");
        if let Some(path) = faults {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault schedule {path}: {e}"))?;
            let spec = FaultSpec::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            builder = builder.faults(spec);
        }
        // The schedule is validated against the topology here.
        let scenario = builder.build().map_err(|e| match (e, faults) {
            (ScenarioError::Faults(e), Some(path)) => format!("{path}: {e}"),
            (e, _) => e.to_string(),
        })?;

        let ids = (scenario.topology.len() as u32, scenario.num_objects);
        let replay = parsed
            .get("replay")
            .map(|path| crate::tracecmd::load(path, Some(ids)))
            .transpose()?;
        let workload = parsed.get("workload");
        let policy = parsed.get("policy").unwrap_or("radar").to_string();
        let placement = parsed.get("placement").unwrap_or("radar").to_string();
        if replay.is_some() && workload.is_some() {
            return Err("--replay and --workload are mutually exclusive".to_string());
        }

        Ok(SimulateArgs {
            scenario,
            workload: workload.unwrap_or("zipf").to_string(),
            policy,
            placement,
            replay,
            record_trace_to: parsed.get("record-trace").map(str::to_string),
            events_to: parsed.get("events").map(str::to_string),
            profile: parsed.has("profile"),
            ledger: parsed.has("ledger"),
            dashboard: parsed.has("dashboard"),
            json: parsed.has("json"),
            out: parsed.get("out").map(str::to_string),
        })
    }

    /// Runs the configured simulation and returns the finished report.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown workload, policy or placement
    /// name, a workload the scenario is too small for, a replay under a
    /// policy other than the paper's, or an events file that cannot be
    /// written.
    pub fn execute(self) -> Result<(RunReport, OutputSettings), String> {
        // Mirror the scenario parameters the simulator's own metrics use,
        // so a dashboard's folded aggregates line up with the report.
        let metrics_cfg = radar_sim::obs::MetricsConfig {
            object_size: self.scenario.catalog.object_size(),
            bandwidth_bin: self.scenario.metric_bin,
            load_interval: self.scenario.params.measurement_interval,
            ..radar_sim::obs::MetricsConfig::default()
        };
        let (seed, duration) = (self.scenario.seed, self.scenario.duration);
        let scenario = self.scenario;
        // Names resolve before the replay limits: an unknown one is reported as such.
        let workload = match &self.replay {
            Some(_) => None,
            None => Some(radar_workload::by_name(
                &self.workload,
                scenario.num_objects,
                &scenario.topology,
                seed,
            )?),
        };
        let selection = radar_baselines::selection(&self.policy, seed)?;
        let placement = radar_baselines::placement(&self.placement)?;
        let mut sim = match (&self.replay, workload) {
            (None, Some(w)) => Simulation::with_policies(scenario, w, selection, placement),
            (Some(_), _) if self.policy != "radar" => {
                return Err("--replay currently supports only the radar policy".to_string())
            }
            (Some(_), _) if self.placement != "radar" => {
                return Err("--replay currently supports only the radar placement".to_string())
            }
            (Some(trace), _) => {
                Simulation::replay(scenario, trace.clone()).map_err(|e| format!("--replay: {e}"))?
            }
            (None, None) => unreachable!("the workload is built unless replaying"),
        };
        if self.record_trace_to.is_some() {
            sim.record_trace();
        }
        let events = match &self.events_to {
            None => None,
            Some(path) => {
                // Stream every event to the file as it happens and
                // profile the loop.
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create events file {path}: {e}"))?;
                let sink = Box::new(std::io::BufWriter::new(file));
                let recorder =
                    radar_sim::obs::Recorder::new(radar_sim::obs::DEFAULT_CAPACITY).with_sink(sink);
                let shared = radar_sim::obs::SharedRecorder::from_recorder(recorder);
                sim.attach_observer(Box::new(shared.clone()));
                sim.enable_loop_profile();
                Some((path.clone(), shared))
            }
        };
        if self.profile {
            sim.enable_loop_profile();
        }
        // The dashboard reads its object rows, per-host served counts
        // and protocol panel off the ledger, so --dashboard implies it.
        let ledger = (self.ledger || self.dashboard).then(|| sim.enable_object_ledger());
        let dashboard = ledger.filter(|_| self.dashboard).map(|ledger| {
            let metrics = SharedMetrics::new(metrics_cfg);
            let dash = crate::dashboard::LiveDashboard::new(
                metrics.clone(),
                ledger.clone(),
                DASHBOARD_TOP,
            );
            sim.attach_observer(Box::new(dash));
            (metrics, ledger)
        });
        let report = sim.run();
        if let Some((path, shared)) = &events {
            if let Some(err) = shared.finish() {
                return Err(format!("error writing events file {path}: {err}"));
            }
        }
        if let Some((metrics, _)) = &dashboard {
            metrics.finalize(duration);
        }
        Ok((
            report,
            OutputSettings {
                record_trace_to: self.record_trace_to,
                events_to: events.map(|(path, _)| path),
                dashboard,
                json: self.json,
                out: self.out,
            },
        ))
    }
}

/// Output settings surviving the run (the scenario is consumed by it).
#[derive(Debug)]
pub struct OutputSettings {
    record_trace_to: Option<String>,
    events_to: Option<String>,
    /// The dashboard's two folds, read for the final frame.
    dashboard: Option<(SharedMetrics, SharedObjectLedger)>,
    json: bool,
    out: Option<String>,
}

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let parsed = SimulateArgs::parse(args)?;
    let (report, output) = parsed.execute()?;
    if let Some(path) = &output.record_trace_to {
        let trace = report
            .trace
            .as_ref()
            .expect("record_trace was enabled before the run");
        std::fs::write(path, trace.to_text())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    let mut body = if output.json {
        report.to_json_pretty()
    } else {
        render::summary(&report)
    };
    if !output.json {
        if let Some((metrics, ledger)) = &output.dashboard {
            body.push('\n');
            let frame = |l: &_| metrics.with(|m| crate::dashboard::render(m, l, DASHBOARD_TOP));
            body.push_str(&ledger.with(frame));
        }
        if let Some(profile) = &report.loop_profile {
            body.push('\n');
            body.push_str(&profile.to_string());
        }
        if let Some(health) = &report.protocol_health {
            body.push('\n');
            body.push_str(&health.render());
        }
        if let Some(path) = &output.events_to {
            body.push_str(&format!(
                "\nevents written to {path} (inspect with `radar events summary {path}`)\n"
            ));
        }
    }
    match &output.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("report written to {path}\n"))
        }
        None => Ok(body),
    }
}

fn help() -> String {
    "radar simulate — run a hosting-platform simulation\n\
     \n\
     OPTIONS:\n\
     \x20 --workload W        zipf | hot-sites | hot-pages | regional | uniform (default zipf)\n\
     \x20 --policy P          radar | round-robin | closest | random (default radar)\n\
     \x20 --placement P       replica-placement policy: radar | availability | cluster\n\
     \x20                     (default radar, the paper's §4 distribution algorithm)\n\
     \x20 --consistency M     §5 consistency mix: read-only | mixed | write-heavy\n\
     \x20                     (default read-only; mixes add type-2/type-3 objects\n\
     \x20                     with merge / replica-cap semantics under --update-rate)\n\
     \x20 --objects N         hosted objects (default 1000)\n\
     \x20 --rate R            requests/second per gateway (default 10)\n\
     \x20 --duration S        simulated seconds (default 600)\n\
     \x20 --seed N            RNG seed (default 1)\n\
     \x20 --watermarks L,H    low/high watermarks in req/s (default 80,90)\n\
     \x20 --topology FILE     backbone spec file, or uunet (built-in 53-node default)\n\
     \x20 --redirectors N     hash-partitioned redirectors (default 1)\n\
     \x20 --update-rate R     provider updates/second across all objects (default 0)\n\
     \x20 --storage-limit N   max objects per host (default unbounded)\n\
     \x20 --static            freeze placement (no protocol decisions)\n\
     \x20 --faults FILE       inject host/link faults from a schedule file\n\
     \x20 --replay FILE       replay a recorded trace instead of a workload\n\
     \x20 --record-trace FILE capture this run's arrivals for later replay\n\
     \x20 --events FILE       stream flight-recorder events (JSONL) to FILE and\n\
     \x20                     profile the event loop (see `radar events --help`)\n\
     \x20 --profile           profile the event loop (per-handler wall time and queue\n\
     \x20                     depth in the text output) without writing an events file\n\
     \x20 --ledger            reconstruct per-object replica sets, churn and\n\
     \x20                     relocation-cost attribution, and run the replica-set\n\
     \x20                     invariant audit: a `protocol_health` report section\n\
     \x20                     plus a text summary (see `radar objects --help`)\n\
     \x20 --dashboard         fold the event stream into live metrics: repaint a\n\
     \x20                     dashboard on stderr while running (TTY only) and\n\
     \x20                     append the final frame to the report; implies\n\
     \x20                     --ledger and adds its live protocol-health panel\n\
     \x20 --json              emit the full report as JSON\n\
     \x20 --out FILE          write output to FILE instead of stdout\n"
        .to_string()
}
