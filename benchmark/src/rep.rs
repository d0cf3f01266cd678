//! One repetition of one workload, run in a child process of its own so
//! that peak RSS and heap layout start clean. Drives the public API
//! only: `Scenario::builder`, `radar_bench::make_workload`,
//! `Simulation::new`, `attach_observer`/`enable_*`, `run_until`,
//! `finish`.

use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

use radar_bench::timing::CountingAlloc;
use radar_cli::json::Value;
use radar_obs::{Event, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar_sim::{RunReport, Simulation};

use crate::record::{arr, n, num, num_arr, nums, obj, s, text};
use crate::spans::{Span, SpanLog};
use crate::workloads::{Observers, Workload, SLICE_SIM_SECONDS};

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every simulated statistic of a run: the JSON report with
/// the two wall-clock-bearing sections removed.
pub fn report_digest(report: &mut RunReport) -> (u64, usize) {
    report.loop_profile = None;
    report.shard_profile = None;
    let json = report.to_json_pretty();
    (fnv1a64(json.as_bytes()), json.len())
}

/// What the byte-counting sink saw.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SinkStats {
    /// Bytes the recorder wrote.
    pub bytes: u64,
    /// Lines parsed back with `Event::from_json_line` and re-encoded.
    pub lines_checked: u64,
    /// First line that did not survive the round trip, if any.
    pub first_bad_line: Option<String>,
    chunks: u64,
}

/// Stands in for the `--events` file: counts bytes instead of writing
/// ~1.2 MB per simulated second to a shared disk, so the number measures
/// the program's formatting and fan-out. From every 16th chunk the
/// `BufWriter` hands over it takes the first whole line — about one line
/// in a thousand — and checks that it parses back to the same bytes.
#[derive(Debug, Clone, Default)]
pub struct CountingSink(Arc<Mutex<SinkStats>>);

impl CountingSink {
    /// A snapshot of the counters.
    pub fn stats(&self) -> SinkStats {
        self.0
            .lock()
            .expect("sink lock never poisoned: no panic while held")
            .clone()
    }
}

fn check_round_trip(stats: &mut SinkStats, chunk: &[u8]) {
    // The chunk starts mid-line; the first whole line sits between the
    // first two newlines.
    let mut newlines = chunk
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i);
    let (Some(a), Some(b)) = (newlines.next(), newlines.next()) else {
        return;
    };
    let Ok(line) = std::str::from_utf8(&chunk[a + 1..b]) else {
        stats
            .first_bad_line
            .get_or_insert_with(|| "<not utf-8>".into());
        return;
    };
    stats.lines_checked += 1;
    let same = Event::from_json_line(line).is_ok_and(|event| event.to_json_line() == line);
    if !same {
        stats.first_bad_line.get_or_insert_with(|| line.to_string());
    }
}

impl Write for CountingSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<usize> {
        let mut stats = self
            .0
            .lock()
            .expect("sink lock never poisoned: no panic while held");
        stats.bytes += chunk.len() as u64;
        stats.chunks += 1;
        if stats.chunks.is_multiple_of(16) {
            check_round_trip(&mut stats, chunk);
        }
        Ok(chunk.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Attaches what `radar simulate --events F --ledger` attaches.
fn attach_events_and_ledger(sim: &mut Simulation) -> (SharedRecorder, CountingSink) {
    let sink = CountingSink::default();
    let recorder =
        Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(BufWriter::new(sink.clone())));
    let shared = SharedRecorder::from_recorder(recorder);
    sim.attach_observer(Box::new(shared.clone()));
    sim.enable_loop_profile();
    sim.enable_object_ledger();
    (shared, sink)
}

/// Peak resident set of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Simulated outcomes of one repetition; every field repeats exactly for
/// a given (workload, seed, duration).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Requests delivered.
    pub requests: u64,
    /// Requests the simulated platform could not serve.
    pub failed: u64,
    /// `RunReport::equilibrium_bandwidth_rate()`, bytes×hops per second.
    pub eq_bandwidth: f64,
    /// `RunReport::latency_p99`, seconds.
    pub latency_p99: f64,
    /// FNV-1a-64 of the report JSON, see [`report_digest`].
    pub digest: u64,
    /// Size of that JSON.
    pub report_json_bytes: usize,
    /// Bytes the JSONL sink counted (0 without `--events`).
    pub log_bytes: u64,
}

/// One handler row of the loop profile.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerRow {
    /// Handler label, e.g. `redirect`.
    pub label: String,
    /// Events dispatched.
    pub count: u64,
    /// Total wall, ns.
    pub total_ns: u64,
    /// Slowest dispatch, ns.
    pub max_ns: u64,
    /// Sum of queue depths at dispatch.
    pub depth_sum: u64,
    /// Deepest queue at dispatch.
    pub depth_max: u32,
}

/// The result of one child.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepResult {
    /// Harness spans: `child` → `setup` (→ four phases) → `run`
    /// (→ `slice.k`) → `finish` → `report_json`.
    pub spans: Vec<Span>,
    /// Seconds per 100-simulated-second slice, in order.
    pub slices: Vec<f64>,
    /// `VmHWM` after `finish()`, KiB.
    pub peak_rss_kb: u64,
    /// Simulated outcomes (absent for a set-up-only child).
    pub outcome: Option<Outcome>,
    /// Loop profile rows (empty unless the loop profile was on).
    pub handlers: Vec<HandlerRow>,
    /// Allocator calls and bytes over the slices after the first
    /// (zero unless the binary installs the counting allocator).
    pub steady_allocs: u64,
    /// See `steady_allocs`.
    pub steady_alloc_bytes: u64,
    /// Output checks this child tripped.
    pub failures: Vec<String>,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed for scenario, workload structure and faults.
    pub seed: u64,
    /// Simulated seconds.
    pub duration: f64,
    /// Turn the loop profile on (the traced run).
    pub profile: bool,
    /// Stop after bootstrap: a set-up sample.
    pub setup_only: bool,
}

/// Runs one repetition in this process.
pub fn run(opts: RepOptions) -> Result<RepResult, String> {
    let w = opts.workload;
    let mut log = SpanLog::new();
    let mut failures = Vec::new();
    log.enter("child");

    log.enter("setup");
    let (scenario, _) = log.span("scenario_build", || w.scenario(opts.seed, opts.duration));
    let scenario = scenario.map_err(|e| format!("{}: {e}", w.name))?;
    let (workload, _) = log.span("workload_build", || {
        radar_bench::make_workload(w.popularity, w.objects, opts.seed)
    });
    let ((mut sim, events), _) = log.span("simulation_new", || {
        let mut sim = Simulation::new(scenario, workload);
        let events = match w.observers {
            Observers::Bare => None,
            Observers::EventsAndLedger => Some(attach_events_and_ledger(&mut sim)),
        };
        if opts.profile {
            sim.enable_loop_profile();
        }
        (sim, events)
    });
    log.span("bootstrap", || sim.run_until(0.0));
    log.exit();

    if opts.setup_only {
        drop(sim);
        log.exit();
        return Ok(RepResult {
            spans: log.into_spans(),
            failures,
            ..RepResult::default()
        });
    }

    log.enter("run");
    let slice_count = (opts.duration / SLICE_SIM_SECONDS).ceil().max(1.0) as usize;
    let mut slices = Vec::with_capacity(slice_count);
    let mut steady_from = (0, 0);
    for k in 1..=slice_count {
        if k == 2 {
            steady_from = (
                CountingAlloc::allocations(),
                CountingAlloc::allocated_bytes(),
            );
        }
        let until = (SLICE_SIM_SECONDS * k as f64).min(opts.duration);
        let ((), secs) = log.span(format!("slice.{k}"), || sim.run_until(until));
        slices.push(secs);
    }
    let (steady_allocs, steady_alloc_bytes) = if slice_count >= 2 {
        (
            CountingAlloc::allocations() - steady_from.0,
            CountingAlloc::allocated_bytes() - steady_from.1,
        )
    } else {
        (0, 0)
    };
    log.exit();

    let (mut report, _) = log.span("finish", || {
        let report = sim.finish();
        if let Some((recorder, _)) = &events {
            if let Some(e) = recorder.finish() {
                failures.push(format!("event sink error: {e}"));
            }
        }
        report
    });
    let peak_rss_kb = peak_rss_kb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let handlers = report
        .loop_profile
        .as_ref()
        .map(|p| {
            p.rows()
                .map(|(label, h)| HandlerRow {
                    label: label.to_string(),
                    count: h.count,
                    total_ns: h.total_ns,
                    max_ns: h.max_ns,
                    depth_sum: h.depth_sum,
                    depth_max: h.depth_max,
                })
                .collect()
        })
        .unwrap_or_default();
    let ((digest, report_json_bytes), _) = log.span("report_json", || report_digest(&mut report));
    log.exit();

    let sink = events.map(|(_, sink)| sink.stats()).unwrap_or_default();
    if let Some(line) = &sink.first_bad_line {
        failures.push(format!("JSONL line does not round-trip: {line}"));
    }
    if w.observers == Observers::EventsAndLedger {
        if sink.lines_checked == 0 {
            failures.push("no JSONL line was sampled for the round-trip check".into());
        }
        match &report.protocol_health {
            Some(h) if h.violations == 0 => {}
            Some(h) => failures.push(format!(
                "protocol_health: {} replica-set-invariant violations (first seqs {:?})",
                h.violations, h.violation_seqs
            )),
            None => failures.push("ledger enabled but no protocol_health in the report".into()),
        }
    }
    if !w.faulted_updates && report.failed_requests != 0 {
        failures.push(format!(
            "{} failed requests on a fault-free workload",
            report.failed_requests
        ));
    }

    Ok(RepResult {
        spans: log.into_spans(),
        slices,
        peak_rss_kb,
        outcome: Some(Outcome {
            requests: report.total_requests,
            failed: report.failed_requests,
            eq_bandwidth: report.equilibrium_bandwidth_rate(),
            latency_p99: report.latency_p99,
            digest,
            report_json_bytes,
            log_bytes: sink.bytes,
        }),
        handlers,
        steady_allocs,
        steady_alloc_bytes,
        failures,
    })
}

impl RepResult {
    /// Set-up time: the `setup` span, seconds.
    pub fn setup_s(&self) -> f64 {
        crate::spans::seconds_of(&self.spans, "setup")
    }

    /// The `finish` span, seconds.
    pub fn finish_s(&self) -> f64 {
        crate::spans::seconds_of(&self.spans, "finish")
    }

    /// `run_until(duration)` + `finish()` of this repetition, seconds.
    pub fn total_s(&self) -> f64 {
        self.slices.iter().sum::<f64>() + self.finish_s()
    }

    /// One-line JSON for the parent.
    pub fn to_json(&self) -> Value {
        let spans = self.spans.iter().map(|sp| {
            obj([
                ("name", s(sp.name.clone())),
                ("start_ns", n(sp.start_ns as f64)),
                ("end_ns", n(sp.end_ns as f64)),
                ("parent", sp.parent.map_or(Value::Null, |p| n(p as f64))),
            ])
        });
        let handlers = self.handlers.iter().map(|h| {
            obj([
                ("label", s(h.label.clone())),
                ("count", n(h.count as f64)),
                ("total_ns", n(h.total_ns as f64)),
                ("max_ns", n(h.max_ns as f64)),
                ("depth_sum", n(h.depth_sum as f64)),
                ("depth_max", n(f64::from(h.depth_max))),
            ])
        });
        let outcome = self.outcome.as_ref().map_or(Value::Null, |o| {
            obj([
                ("requests", n(o.requests as f64)),
                ("failed", n(o.failed as f64)),
                ("eq_bandwidth", n(o.eq_bandwidth)),
                ("latency_p99", n(o.latency_p99)),
                // Hex: a u64 does not fit a JSON number.
                ("digest", s(format!("{:016x}", o.digest))),
                ("report_json_bytes", n(o.report_json_bytes as f64)),
                ("log_bytes", n(o.log_bytes as f64)),
            ])
        });
        obj([
            ("spans", Value::Arr(spans.collect())),
            ("slices", nums(&self.slices)),
            ("peak_rss_kb", n(self.peak_rss_kb as f64)),
            ("outcome", outcome),
            ("handlers", Value::Arr(handlers.collect())),
            ("steady_allocs", n(self.steady_allocs as f64)),
            ("steady_alloc_bytes", n(self.steady_alloc_bytes as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| s(f.clone())).collect()),
            ),
        ])
    }

    /// Reads [`to_json`](Self::to_json) back.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let spans = arr(v, "spans")?
            .iter()
            .map(|sp| {
                Ok(Span {
                    name: text(sp, "name")?.to_string(),
                    start_ns: num(sp, "start_ns")? as u64,
                    end_ns: num(sp, "end_ns")? as u64,
                    parent: sp["parent"].as_u64().map(|p| p as usize),
                })
            })
            .collect::<Result<_, String>>()?;
        let handlers = arr(v, "handlers")?
            .iter()
            .map(|h| {
                Ok(HandlerRow {
                    label: text(h, "label")?.to_string(),
                    count: num(h, "count")? as u64,
                    total_ns: num(h, "total_ns")? as u64,
                    max_ns: num(h, "max_ns")? as u64,
                    depth_sum: num(h, "depth_sum")? as u64,
                    depth_max: num(h, "depth_max")? as u32,
                })
            })
            .collect::<Result<_, String>>()?;
        let outcome = match &v["outcome"] {
            Value::Null => None,
            o => Some(Outcome {
                requests: num(o, "requests")? as u64,
                failed: num(o, "failed")? as u64,
                eq_bandwidth: num(o, "eq_bandwidth")?,
                latency_p99: num(o, "latency_p99")?,
                digest: u64::from_str_radix(text(o, "digest")?, 16)
                    .map_err(|e| format!("bad digest: {e}"))?,
                report_json_bytes: num(o, "report_json_bytes")? as usize,
                log_bytes: num(o, "log_bytes")? as u64,
            }),
        };
        Ok(Self {
            spans,
            slices: num_arr(v, "slices")?,
            peak_rss_kb: num(v, "peak_rss_kb")? as u64,
            outcome,
            handlers,
            steady_allocs: num(v, "steady_allocs")? as u64,
            steady_alloc_bytes: num(v, "steady_alloc_bytes")? as u64,
            failures: arr(v, "failures")?
                .iter()
                .map(|f| f.as_str().unwrap_or("?").to_string())
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a64() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sink_counts_bytes_and_samples_lines() {
        let event = Event {
            seq: 7,
            parent: Some(3),
            t: 1.25,
            queue_depth: 4,
            kind: radar_obs::EventKind::RequestArrived {
                gateway: 2,
                object: 9,
            },
        };
        let line = event.to_json_line();
        let chunk = format!("tail of a line\n{line}\n{line}\nhead of");
        let mut sink = CountingSink::default();
        for _ in 0..32 {
            sink.write_all(chunk.as_bytes()).unwrap();
        }
        let stats = sink.stats();
        assert_eq!(stats.bytes, 32 * chunk.len() as u64);
        assert_eq!(stats.lines_checked, 2);
        assert_eq!(stats.first_bad_line, None);

        let mut sink = CountingSink::default();
        for _ in 0..16 {
            sink.write_all(b"x\n{\"seq\":1}\ny").unwrap();
        }
        assert_eq!(sink.stats().first_bad_line.as_deref(), Some("{\"seq\":1}"));
    }

    #[test]
    fn tiny_rep_round_trips_through_json_and_repeats() {
        let w = crate::workloads::find("traced_zipf").unwrap();
        let opts = RepOptions {
            workload: w,
            seed: 5,
            duration: 2.0,
            profile: true,
            setup_only: false,
        };
        let a = run(opts).unwrap();
        let b = run(opts).unwrap();
        assert_eq!(a.failures, Vec::<String>::new());
        assert_eq!(a.outcome, b.outcome, "simulated outcomes repeat exactly");
        let o = a.outcome.as_ref().unwrap();
        assert!(o.requests > 0 && o.log_bytes > 0);
        assert!(a.handlers.iter().any(|h| h.label == "redirect"));
        let line = a.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = RepResult::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, a);
        assert!(crate::spans::coverage(&a.spans, 0) > 0.5);

        let setup = run(RepOptions {
            setup_only: true,
            ..opts
        })
        .unwrap();
        assert!(setup.outcome.is_none() && setup.setup_s() > 0.0);
    }
}
