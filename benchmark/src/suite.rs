//! The runner: spawns one child per repetition, one at a time (one
//! load-generating thread; the reference host has two cores), checks the
//! outputs and folds the repetitions into the metrics.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use radar_cli::json::Value;

use crate::estimate::{fastest, median, quartiles, slice_best, slice_composite, slowest};
use crate::metrics::{per_layer, Measured, END_TO_END, HANDLERS};
use crate::record::{n, nums, obj, s};
use crate::rep::{Outcome, RepResult};
use crate::spans::{coverage, seconds_of, self_ns};
use crate::workloads::{Workload, SLICE_SIM_SECONDS, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`: how long a contract run measures.
pub const CONTRACT_RUN_SECONDS: u64 = 24;
/// Repetitions per workload in the full suite.
pub const SUITE_REPETITIONS: usize = 7;
/// Repetitions per workload under `--quick`.
pub const QUICK_REPETITIONS: usize = 2;
/// Set-up-only children per contract run: with the repetitions' own
/// set-ups the median is over at least this many samples.
pub const SETUP_SAMPLES: usize = 9;
/// Share of the traced child's wall its harness spans must cover.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Where the two binaries of this package are.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// `benchmark`: runner, untraced children, layer drivers.
    pub plain: PathBuf,
    /// `benchmark-traced`: the same program under the counting allocator.
    pub traced: PathBuf,
}

impl Binaries {
    /// Both binaries sit in one directory; finds it from this process.
    pub fn locate() -> Result<Self, String> {
        let me = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
        let dir = me.parent().ok_or("executable has no parent directory")?;
        let bins = Self {
            plain: dir.join("benchmark"),
            traced: dir.join("benchmark-traced"),
        };
        for path in [&bins.plain, &bins.traced] {
            if !path.is_file() {
                return Err(format!(
                    "{} not found: build both binaries (benchmark/run.sh does)",
                    path.display()
                ));
            }
        }
        Ok(bins)
    }
}

/// What a child should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// A timed repetition, nothing attached but what the workload names.
    Bare,
    /// Stop after bootstrap.
    SetupOnly,
    /// Loop profile on, under the counting allocator.
    Traced,
}

/// Runs one child to completion and parses the result it prints last.
pub fn spawn_child(
    bins: &Binaries,
    kind: ChildKind,
    w: &Workload,
    seed: u64,
    duration: f64,
) -> Result<RepResult, String> {
    let exe = if kind == ChildKind::Traced {
        &bins.traced
    } else {
        &bins.plain
    };
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--duration", &duration.to_string()]);
    match kind {
        ChildKind::Bare => {}
        ChildKind::SetupOnly => {
            cmd.arg("--setup-only");
        }
        ChildKind::Traced => {
            cmd.arg("--profile");
        }
    }
    let value = run_for_json(&mut cmd)?;
    RepResult::from_json(&value).map_err(|e| format!("{} child: {e}", w.name))
}

/// Runs `cmd`, waits for it, and parses the last line of its standard
/// output as JSON. Its standard error passes through.
pub fn run_for_json(cmd: &mut Command) -> Result<Value, String> {
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{cmd:?} printed nothing"))?;
    Value::parse(last).map_err(|e| format!("{cmd:?} printed malformed JSON: {e}"))
}

/// The end-to-end picture of one workload from its repetitions.
#[derive(Debug, Clone)]
pub struct EndToEndResult {
    /// The end-to-end metrics, in table order.
    pub metrics: Vec<Measured>,
    /// Fastest repetition of each slice, seconds.
    pub slice_best: Vec<f64>,
    /// `run_until(duration)` + `finish()` of each repetition, seconds.
    pub run_totals: Vec<f64>,
    /// Every set-up sample, seconds.
    pub setup_samples: Vec<f64>,
    /// Peak RSS of each repetition, MB.
    pub rss_samples: Vec<f64>,
    /// The simulated outcomes all repetitions agreed on.
    pub outcome: Outcome,
}

impl EndToEndResult {
    /// Value of metric `name`.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

/// Folds repetitions into the end-to-end metrics. `Err` lists every
/// output check that failed.
pub fn fold_end_to_end(
    reps: &[RepResult],
    extra_setups: &[RepResult],
) -> Result<EndToEndResult, Vec<String>> {
    let mut failures: Vec<String> = reps
        .iter()
        .chain(extra_setups)
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let outcomes: Vec<&Outcome> = reps.iter().filter_map(|r| r.outcome.as_ref()).collect();
    let Some(&first) = outcomes.first() else {
        failures.push("no repetition produced an outcome".into());
        return Err(failures);
    };
    if outcomes.len() != reps.len() {
        failures.push("a repetition produced no outcome".into());
    }
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        if *o != first {
            failures.push(format!(
                "repetition {i} disagrees with repetition 0 (digest {:016x} vs {:016x}, requests {} vs {}, log bytes {} vs {})",
                o.digest, first.digest, o.requests, first.requests, o.log_bytes, first.log_bytes
            ));
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }

    let timed: Vec<(&[f64], f64)> = reps
        .iter()
        .map(|r| (r.slices.as_slice(), r.finish_s()))
        .collect();
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slices.as_slice()).collect();
    let slice_best = slice_best(&slices);
    let setup_samples: Vec<f64> = reps
        .iter()
        .chain(extra_setups)
        .map(RepResult::setup_s)
        .collect();
    let rss_samples: Vec<f64> = reps.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    let attempted = first.requests + first.failed;
    let values: [f64; END_TO_END.len()] = [
        slice_composite(&timed),
        median(&setup_samples),
        median(&rss_samples),
        first.requests as f64 / attempted.max(1) as f64,
        first.eq_bandwidth / 1e6,
    ];
    Ok(EndToEndResult {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name.to_string(),
                value,
                unit: m.unit,
            })
            .collect(),
        slice_best,
        run_totals: reps.iter().map(RepResult::total_s).collect(),
        setup_samples,
        rss_samples,
        outcome: first.clone(),
    })
}

/// Runs the layer drivers for `w` in a child of their own.
pub fn spawn_layers(
    bins: &Binaries,
    w: &Workload,
    seed: u64,
    scale: f64,
) -> Result<Vec<crate::layers::LayerValue>, String> {
    let mut cmd = Command::new(&bins.plain);
    cmd.args(["layers", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()]);
    crate::layers::values_from_json(&run_for_json(&mut cmd)?)
}

/// The per-layer metrics of one workload, in table order, from the
/// untraced result, the traced child and the layer drivers. Also checks
/// what only the traced run can show.
pub fn fold_per_layer(
    w: &Workload,
    duration: f64,
    bare: &EndToEndResult,
    traced: &RepResult,
    layer_values: &[crate::layers::LayerValue],
) -> Result<Vec<Measured>, Vec<String>> {
    let mut failures = traced.failures.clone();
    let Some(outcome) = &traced.outcome else {
        failures.push("traced child produced no outcome".into());
        return Err(failures);
    };
    if outcome.digest != bare.outcome.digest {
        failures.push(format!(
            "traced digest {:016x} != untraced digest {:016x}: looking changed the result",
            outcome.digest, bare.outcome.digest
        ));
    }
    for name in ["child", "run"] {
        let id = traced.spans.iter().position(|sp| sp.name == name);
        let covered = id.map_or(0.0, |id| coverage(&traced.spans, id));
        if covered < MIN_SPAN_COVERAGE {
            failures.push(format!(
                "harness spans cover {:.1}% of the traced `{name}` span, need {:.0}%",
                covered * 100.0,
                MIN_SPAN_COVERAGE * 100.0
            ));
        }
    }

    let attempted = (outcome.requests + outcome.failed) as f64;
    let wall_s = bare.value("wall_s");
    let run_ns = seconds_of(&traced.spans, "run") * 1e9;
    let handler_ns: f64 = traced.handlers.iter().map(|h| h.total_ns as f64).sum();
    let events: u64 = traced.handlers.iter().map(|h| h.count).sum();
    let depth_sum: u64 = traced.handlers.iter().map(|h| h.depth_sum).sum();
    let slices = traced.slices.len() as f64;
    // Allocations are counted over the slices after the first; scale the
    // request count to the same share of the run.
    let steady_requests = attempted * (slices - 1.0).max(0.0) / slices.max(1.0);
    let per_steady = |count: u64, per: f64| {
        if steady_requests > 0.0 {
            count as f64 * per / steady_requests
        } else {
            0.0
        }
    };
    let span_ms = |name: &str| seconds_of(&traced.spans, name) * 1e3;
    let traced_total_s = seconds_of(&traced.spans, "run") + traced.finish_s();

    let depth_max = traced.handlers.iter().map(|h| h.depth_max).max();
    let derived = [
        (
            "obs.log_bytes_per_sim_s",
            outcome.log_bytes as f64 / duration,
        ),
        ("sim.requests", attempted),
        ("sim.events", events as f64),
        ("sim.req_per_s", attempted / wall_s),
        ("sim.ns_per_request", wall_s * 1e9 / attempted),
        ("sim.failed_requests", outcome.failed as f64),
        ("sim.latency_p99_ms", outcome.latency_p99 * 1e3),
        ("sim.loop_other_share", 1.0 - handler_ns / run_ns),
        (
            "sim.queue_depth_mean",
            depth_sum as f64 / events.max(1) as f64,
        ),
        ("sim.queue_depth_max", f64::from(depth_max.unwrap_or(0))),
        ("sim.slice_ms_p50", median(&bare.slice_best) * 1e3),
        (
            "sim.slice_ms_max",
            slowest(bare.slice_best.iter().copied()) * 1e3,
        ),
        ("sim.new_ms", span_ms("simulation_new")),
        ("sim.bootstrap_ms", span_ms("bootstrap")),
        ("sim.finish_ms", span_ms("finish")),
        ("sim.report_json_ms", span_ms("report_json")),
        ("sim.report_json_bytes", outcome.report_json_bytes as f64),
        ("sim.allocs_per_kreq", per_steady(traced.steady_allocs, 1e3)),
        (
            "sim.alloc_bytes_per_req",
            per_steady(traced.steady_alloc_bytes, 1.0),
        ),
        (
            "sim.trace_overhead_pct",
            (traced_total_s / wall_s - 1.0) * 100.0,
        ),
    ];
    let mut values: Vec<(String, f64)> = layer_values
        .iter()
        .map(|v| (v.name.clone(), v.value))
        .chain(derived.map(|(name, value)| (name.to_string(), value)))
        .collect();
    for h in HANDLERS {
        let row = traced.handlers.iter().find(|r| r.label == h);
        let (count, total) = row.map_or((0, 0), |r| (r.count, r.total_ns));
        let mean = if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        };
        values.push((format!("sim.handler_ns.{h}"), mean));
        values.push((
            format!("sim.handler_share.{h}"),
            total as f64 / handler_ns.max(1.0),
        ));
    }

    let mut out = Vec::new();
    for m in per_layer() {
        match values.iter().find(|(name, _)| *name == m.name) {
            Some(&(_, value)) if value.is_finite() => out.push(Measured {
                name: m.name,
                value,
                unit: m.unit,
            }),
            _ => failures.push(format!(
                "{}: per-layer metric {} was not measured",
                w.name, m.name
            )),
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(failures)
    }
}

/// Refuses to measure anything but an optimized build.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("this is a debug build; the benchmark measures release builds only (use benchmark/run.sh)".into())
    } else {
        Ok(())
    }
}

/// What every result carries about where it came from.
pub fn provenance(seed: u64, repetitions: usize) -> Vec<(&'static str, Value)> {
    let capture = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|t| !t.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("benchmark_version", s(env!("CARGO_PKG_VERSION"))),
        ("claim", Value::Null),
        ("seed", n(seed as f64)),
        ("git_revision", s(capture("git", &["rev-parse", "HEAD"]))),
        ("rustc", s(capture("rustc", &["--version"]))),
        (
            "nproc",
            n(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
        ),
        ("cpu_model", s(cpu_model)),
        ("build_profile", s("release, debug = true (as the root manifest)")),
        ("repetitions", n(repetitions as f64)),
        ("slice_sim_seconds", n(SLICE_SIM_SECONDS)),
        ("load", s("open loop, constant per-gateway rate in simulated time; one child process at a time, one thread")),
    ]
}

fn print_provenance(fields: &[(&'static str, Value)]) {
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", line.join(" "));
}

fn metrics_json(metrics: &[Measured]) -> Value {
    obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            obj([("value", n(m.value)), ("unit", s(m.unit))]),
        )
    }))
}

/// One contract run: `--workload W --seed N --seconds S --trace 0|1`.
/// Prints every metric as `name value unit`, then — as the last line —
/// the result object. Returns whether every check passed.
pub fn contract_run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    refuse_debug_build()?;
    let bins = Binaries::locate()?;
    let started = Instant::now();
    let duration = w.duration;
    let mut failures = Vec::new();
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut metrics = Vec::new();

    if trace {
        reps.push(spawn_child(&bins, ChildKind::Bare, w, seed, duration)?);
    } else {
        for _ in 0..SETUP_SAMPLES {
            setups.push(spawn_child(&bins, ChildKind::SetupOnly, w, seed, duration)?);
        }
        // As many repetitions as end within `seconds`, at least one.
        loop {
            let before = started.elapsed().as_secs_f64();
            reps.push(spawn_child(&bins, ChildKind::Bare, w, seed, duration)?);
            let after = started.elapsed().as_secs_f64();
            if reps.len() == SUITE_REPETITIONS || after + (after - before) > seconds {
                break;
            }
        }
    }
    print_provenance(&provenance(seed, reps.len()));
    let attempted = reps
        .iter()
        .filter_map(|r| r.outcome.as_ref())
        .map(|o| o.requests + o.failed)
        .sum::<u64>()
        .max(1);

    match fold_end_to_end(&reps, &setups) {
        Err(f) => failures.extend(f),
        Ok(e2e) => {
            println!("{} report_digest {:016x}", w.name, e2e.outcome.digest);
            if trace {
                let traced = spawn_child(&bins, ChildKind::Traced, w, seed, duration)?;
                let layers = spawn_layers(&bins, w, seed, 1.0)?;
                match fold_per_layer(w, duration, &e2e, &traced, &layers) {
                    Ok(m) => metrics = m,
                    Err(f) => failures.extend(f),
                }
            } else {
                metrics = e2e.metrics;
            }
        }
    }
    for m in &metrics {
        crate::metrics::print_line(&format!("{} ", w.name), m);
    }
    for f in &failures {
        eprintln!("CHECK FAILED ({}): {f}", w.name);
    }
    eprintln!(
        "{}: {} repetitions, {:.1} s",
        w.name,
        reps.len(),
        started.elapsed().as_secs_f64()
    );
    let correct = failures.is_empty();
    // A run that fails a check counts all of its operations as failed.
    // Requests the *simulated* platform refuses under injected faults are
    // an outcome the run reports (served_share), not a harness failure.
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", n(attempted as f64)),
        ("failed", n(if correct { 0.0 } else { attempted as f64 })),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}

fn summary_json(values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    obj([
        ("median", n(median(values))),
        ("q1", n(q1)),
        ("q3", n(q3)),
        ("min", n(fastest(values.iter().copied()))),
        ("max", n(slowest(values.iter().copied()))),
        ("n", n(values.len() as f64)),
        ("values", nums(values)),
    ])
}

fn spans_json(traced: &RepResult) -> Value {
    Value::Arr(
        traced
            .spans
            .iter()
            .enumerate()
            // Thirty `slice.k` rows say nothing the slice metrics do not.
            .filter(|(_, sp)| !sp.name.starts_with("slice."))
            .map(|(id, sp)| {
                obj([
                    ("name", s(sp.name.clone())),
                    (
                        "parent",
                        sp.parent
                            .map_or(Value::Null, |p| s(traced.spans[p].name.clone())),
                    ),
                    ("start_ms", n(sp.start_ns as f64 / 1e6)),
                    ("end_ms", n(sp.end_ns as f64 / 1e6)),
                    ("self_ms", n(self_ns(&traced.spans, id) as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

/// The full suite: every workload, repetitions interleaved round-robin,
/// then one traced child and the layer drivers per workload. Prints
/// every metric and writes the result file. Returns whether every check
/// passed.
pub fn suite_run(seed: u64, quick: bool, out: &Path) -> Result<bool, String> {
    refuse_debug_build()?;
    let bins = Binaries::locate()?;
    let repetitions = if quick {
        QUICK_REPETITIONS
    } else {
        SUITE_REPETITIONS
    };
    let scale = if quick { 0.1 } else { 1.0 };
    let mut header = provenance(seed, repetitions);
    header.push(("quick", Value::Bool(quick)));
    print_provenance(&header);
    header.extend(crate::metrics::tables_json(true));

    let mut reps: Vec<Vec<RepResult>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..repetitions {
        for (i, w) in WORKLOADS.iter().enumerate() {
            eprintln!("repetition {}/{repetitions} of {}", round + 1, w.name);
            reps[i].push(spawn_child(
                &bins,
                ChildKind::Bare,
                w,
                seed,
                w.duration(quick),
            )?);
        }
    }

    let mut all_ok = true;
    let mut rows = Vec::new();
    for (w, reps) in WORKLOADS.iter().zip(&reps) {
        let duration = w.duration(quick);
        let mut failures = Vec::new();
        let mut row = vec![
            ("name", s(w.name)),
            ("why", s(w.why)),
            (
                "input",
                obj([
                    ("objects", n(f64::from(w.objects))),
                    ("rate_per_gateway", n(w.rate)),
                    ("simulated_seconds", n(duration)),
                    ("popularity", s(w.popularity)),
                ]),
            ),
        ];
        match fold_end_to_end(reps, &[]) {
            Err(f) => failures.extend(f),
            Ok(e2e) => {
                println!("{} report_digest {:016x}", w.name, e2e.outcome.digest);
                for m in &e2e.metrics {
                    crate::metrics::print_line(&format!("{} ", w.name), m);
                }
                row.extend([
                    ("report_digest", s(format!("{:016x}", e2e.outcome.digest))),
                    ("requests_served", n(e2e.outcome.requests as f64)),
                    ("requests_failed", n(e2e.outcome.failed as f64)),
                    ("end_to_end", metrics_json(&e2e.metrics)),
                    ("run_totals_s", summary_json(&e2e.run_totals)),
                    ("setup_samples_s", summary_json(&e2e.setup_samples)),
                    ("peak_rss_samples_mb", summary_json(&e2e.rss_samples)),
                ]);
                eprintln!("traced run and layer drivers of {}", w.name);
                let traced = spawn_child(&bins, ChildKind::Traced, w, seed, duration)?;
                let layers = spawn_layers(&bins, w, seed, scale)?;
                match fold_per_layer(w, duration, &e2e, &traced, &layers) {
                    Err(f) => failures.extend(f),
                    Ok(metrics) => {
                        for m in &metrics {
                            crate::metrics::print_line(&format!("{} ", w.name), m);
                        }
                        row.push(("per_layer", metrics_json(&metrics)));
                        row.push((
                            "layer_calls",
                            obj(layers.iter().map(|v| (v.name.clone(), n(v.calls as f64)))),
                        ));
                        row.push(("spans", spans_json(&traced)));
                    }
                }
            }
        }
        for f in &failures {
            eprintln!("CHECK FAILED ({}): {f}", w.name);
        }
        all_ok &= failures.is_empty();
        row.push((
            "failures",
            Value::Arr(failures.into_iter().map(s).collect()),
        ));
        rows.push(obj(row));
    }
    header.push(("workloads", Value::Arr(rows)));
    let doc = obj(header);

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, crate::record::pretty(&doc))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    // The faulted_updates schedule beside the results, so the run can be
    // replayed with `radar simulate --faults`.
    let faulted = WORKLOADS
        .iter()
        .find(|w| w.faulted_updates)
        .expect("one faulted workload");
    let schedule = crate::workloads::generate_faults(
        seed,
        faulted.duration(quick),
        &radar_simnet::builders::uunet(),
    );
    let faults_path = out.with_extension("faults");
    std::fs::write(&faults_path, schedule.to_text())
        .map_err(|e| format!("cannot write {}: {e}", faults_path.display()))?;
    println!(
        "results written to {} (fault schedule: {})",
        out.display(),
        faults_path.display()
    );
    Ok(all_ok)
}
