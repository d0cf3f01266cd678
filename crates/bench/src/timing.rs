//! A minimal micro-benchmark driver for the `benches/` targets.
//!
//! Each bench target is a plain `harness = false` binary: it builds a
//! [`Bench`] from its command line and registers closures. Run normally
//! (`cargo bench`), each closure is auto-calibrated to a measurable
//! iteration count and its per-iteration time printed; run with `--test`
//! (as `scripts/check.sh` does), every closure executes exactly once so
//! the benches are smoke-tested without paying measurement time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
pub use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Measurement time the calibration loop aims for per benchmark.
const TARGET: Duration = Duration::from_millis(50);
/// Upper bound on the iteration count, for degenerate sub-ns closures.
const MAX_ITERS: u64 = 1 << 24;

/// The benchmark driver: registers and times named closures.
#[derive(Debug)]
pub struct Bench {
    test_only: bool,
}

impl Bench {
    /// Builds a driver from the process arguments; `--test` switches to
    /// single-iteration smoke mode (other flags are ignored).
    pub fn from_args() -> Self {
        Self {
            test_only: std::env::args().any(|a| a == "--test"),
        }
    }

    /// Times `f`, doubling the iteration count until the measurement
    /// window is long enough, and prints ns/iteration.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if self.test_only || elapsed >= TARGET || iters >= MAX_ITERS {
                report(name, elapsed, iters, self.test_only);
                return;
            }
            iters *= 2;
        }
    }

    /// Like [`bench`](Self::bench) but rebuilds fresh state via `setup`
    /// before every iteration, timing only `routine`.
    pub fn bench_batched<S>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S),
    ) {
        let mut iters = 1u64;
        loop {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let state = setup();
                let start = Instant::now();
                routine(state);
                elapsed += start.elapsed();
            }
            if self.test_only || elapsed >= TARGET || iters >= MAX_ITERS {
                report(name, elapsed, iters, self.test_only);
                return;
            }
            iters *= 2;
        }
    }
}

/// Process-wide allocator-call count (allocs plus reallocs) since
/// start, maintained by [`CountingAlloc`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Process-wide bytes requested from the allocator since start.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread mirrors of the global counters, so [`CountingAlloc::measure`]
    // is immune to allocator traffic on other threads (e.g. parallel
    // tests). `const`-initialized Cells: reading or bumping them never
    // allocates, which keeps the allocator hooks re-entrancy-free.
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper over the system allocator, for allocation-budget
/// tests and the `throughput` bench. Install it with
/// `#[global_allocator]`; it delegates every call to [`System`] and
/// only bumps two counters, so instrumented binaries behave identically
/// apart from the bookkeeping.
///
/// This workspace takes no external dependencies, so the counting is
/// hand-rolled here rather than pulled from a crate.
pub struct CountingAlloc;

/// Allocator activity observed across one [`CountingAlloc::measure`]
/// call, on the calling thread only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocator calls that obtained memory (`alloc` + `realloc`).
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl CountingAlloc {
    /// Allocator calls made by the whole process so far. Zero unless
    /// the running binary installed [`CountingAlloc`] as its
    /// `#[global_allocator]`.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes requested from the allocator by the whole process so far.
    pub fn allocated_bytes() -> u64 {
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    }

    /// Runs `f` and reports how much allocator traffic it generated on
    /// this thread (work `f` moves to other threads is not counted).
    pub fn measure<R>(f: impl FnOnce() -> R) -> (AllocDelta, R) {
        let before = (TL_ALLOCATIONS.get(), TL_BYTES.get());
        let result = f();
        let delta = AllocDelta {
            allocations: TL_ALLOCATIONS.get() - before.0,
            bytes: TL_BYTES.get() - before.1,
        };
        (delta, result)
    }
}

// The workspace's one sanctioned `unsafe` site: a `GlobalAlloc` impl
// is an unsafe trait, and this one only counts and delegates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        TL_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size()) as u64;
        ALLOCATED_BYTES.fetch_add(grown, Ordering::Relaxed);
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        TL_BYTES.with(|c| c.set(c.get() + grown));
        System.realloc(ptr, layout, new_size)
    }
}

fn report(name: &str, elapsed: Duration, iters: u64, test_only: bool) {
    if test_only {
        println!("{name:<44} ok (smoke)");
    } else {
        let per_iter = elapsed.as_nanos() as f64 / iters as f64;
        println!("{name:<44} {per_iter:>14.1} ns/iter  ({iters} iters)");
    }
}

/// One per-event-type row of the loop-profile baseline written to
/// `BENCH_loop.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRow {
    /// Event-loop handler label (e.g. `redirect`, `placement`).
    pub label: String,
    /// Events dispatched with this label over the profiled run.
    pub count: u64,
    /// Mean handler wall time per dispatch, in nanoseconds.
    pub mean_ns: f64,
    /// Slowest single dispatch, in nanoseconds.
    pub max_ns: u64,
}

/// Serializes the loop-profile baseline as the `BENCH_loop.json`
/// document: the generating configuration plus one object per handler
/// label with `count`/`mean_ns`/`max_ns`.
///
/// The JSON is hand-rolled (this workspace takes no external
/// dependencies) and emitted with keys in a fixed order so successive
/// baselines diff cleanly.
pub fn loop_baseline_json(config: &[(&str, String)], rows: &[LoopRow]) -> String {
    let mut out = String::from("{\n  \"config\": {");
    for (i, (key, value)) in config.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{key}\": {value}"));
    }
    out.push_str("},\n  \"handlers\": {\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}}}",
            row.label, row.count, row.mean_ns, row.max_ns
        ));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// The whole-run measurement written to `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Flight-recorder events the traced run emitted.
    pub events: u64,
    /// Events emitted per wall-clock second (best of the repetitions).
    pub events_per_sec: f64,
    /// Allocator calls over the whole run (deterministic per seed).
    pub allocations: u64,
    /// Allocator calls per emitted event.
    pub allocations_per_event: f64,
}

/// Serializes the end-to-end throughput baseline as the
/// `BENCH_throughput.json` document, in the same hand-rolled fixed-key
/// style as [`loop_baseline_json`].
pub fn throughput_baseline_json(config: &[(&str, String)], row: &ThroughputRow) -> String {
    let mut out = String::from("{\n  \"config\": {");
    for (i, (key, value)) in config.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{key}\": {value}"));
    }
    out.push_str("},\n  \"throughput\": {\n");
    out.push_str(&format!("    \"events\": {},\n", row.events));
    out.push_str(&format!(
        "    \"events_per_sec\": {:.1},\n",
        row.events_per_sec
    ));
    out.push_str(&format!("    \"allocations\": {},\n", row.allocations));
    out.push_str(&format!(
        "    \"allocations_per_event\": {:.4}\n",
        row.allocations_per_event
    ));
    out.push_str("  }\n}\n");
    out
}

/// Compares a fresh throughput measurement against the committed
/// `BENCH_throughput.json` document. Returns an error message when
/// events/sec regressed by more than `tolerance` (a fraction, e.g. 0.1
/// for 10%) or allocations/event grew by more than it — the regression
/// gate behind the `throughput` bench, `scripts/check.sh`, and CI.
/// A baseline missing either number gates nothing.
pub fn throughput_gate(previous: &str, row: &ThroughputRow, tolerance: f64) -> Result<(), String> {
    if let Some(old_eps) = json_number(previous, "events_per_sec") {
        if row.events_per_sec < old_eps * (1.0 - tolerance) {
            return Err(format!(
                "throughput regression: {:.1} events/sec is more than {:.0}% below \
                 the baseline {:.1}",
                row.events_per_sec,
                tolerance * 100.0,
                old_eps
            ));
        }
    }
    if let Some(old_ape) = json_number(previous, "allocations_per_event") {
        if row.allocations_per_event > old_ape * (1.0 + tolerance) + 1e-9 {
            return Err(format!(
                "allocation regression: {:.4} allocations/event is more than {:.0}% above \
                 the baseline {:.4}",
                row.allocations_per_event,
                tolerance * 100.0,
                old_ape
            ));
        }
    }
    Ok(())
}

/// Extracts the number following `"key":` in a JSON document produced
/// by the baseline serializers above — enough of a parser for the
/// regression gates, which only read back their own output.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_baseline_json_is_well_formed() {
        let rows = vec![
            LoopRow {
                label: "placement".into(),
                count: 26,
                mean_ns: 5220.4,
                max_ns: 51650,
            },
            LoopRow {
                label: "redirect".into(),
                count: 398,
                mean_ns: 3340.0,
                max_ns: 33760,
            },
        ];
        let json = loop_baseline_json(&[("seed", "42".into()), ("objects", "64".into())], &rows);
        assert!(json.contains("\"seed\": 42"), "{json}");
        assert!(json.contains("\"redirect\": {\"count\": 398"), "{json}");
        assert!(json.contains("\"mean_ns\": 5220.4"), "{json}");
        // Balanced braces and a trailing newline keep the file friendly
        // to line-oriented diffing.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn loop_baseline_json_handles_empty_rows() {
        let json = loop_baseline_json(&[], &[]);
        assert!(json.contains("\"handlers\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn throughput_gate_accepts_equal_and_trips_on_regression() {
        let row = ThroughputRow {
            events: 1_000,
            events_per_sec: 900.0,
            allocations: 50,
            allocations_per_event: 0.05,
        };
        let same = throughput_baseline_json(&[], &row);
        assert!(throughput_gate(&same, &row, 0.1).is_ok());
        let mut slower = row.clone();
        slower.events_per_sec = 700.0; // >10% below 900
        assert!(throughput_gate(&same, &slower, 0.1).is_err());
        let mut leakier = row.clone();
        leakier.allocations_per_event = 0.06; // >10% above 0.05
        assert!(throughput_gate(&same, &leakier, 0.1).is_err());
        // Garbage baselines gate nothing.
        assert!(throughput_gate("not json", &slower, 0.1).is_ok());
    }

    #[test]
    fn throughput_baseline_json_round_trips() {
        let row = ThroughputRow {
            events: 16934,
            events_per_sec: 1_234_567.8,
            allocations: 420,
            allocations_per_event: 0.0248,
        };
        let json = throughput_baseline_json(&[("seed", "42".into())], &row);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json_number(&json, "events"), Some(16934.0));
        assert_eq!(json_number(&json, "events_per_sec"), Some(1_234_567.8));
        assert_eq!(json_number(&json, "allocations_per_event"), Some(0.0248));
        assert_eq!(json_number(&json, "missing"), None);
        assert_eq!(json_number("{\"x\": nope}", "x"), None);
    }

    #[test]
    fn counting_allocator_sees_boxed_allocations() {
        let (delta, b) = CountingAlloc::measure(|| Box::new([0u8; 4096]));
        assert!(delta.allocations >= 1, "{delta:?}");
        assert!(delta.bytes >= 4096, "{delta:?}");
        drop(b);
        let (delta, v) = CountingAlloc::measure(|| Vec::<u64>::with_capacity(8));
        assert_eq!(delta.allocations, 1, "{delta:?}");
        drop(v);
        // A no-op closure allocates nothing.
        let (delta, ()) = CountingAlloc::measure(|| {});
        assert_eq!(delta.allocations, 0, "{delta:?}");
    }

    /// Satellite of the allocation-free hot-path work: once the
    /// recorder's ring, candidate pool, and sink line buffer are warm,
    /// tracing a redirect `Decision` event — the hottest event type —
    /// performs zero heap allocations.
    #[test]
    fn traced_decision_event_records_without_allocating() {
        use radar_sim::obs::{
            CandidateSnapshot, DecisionBranch, DecisionEvent, Event, EventKind, Recorder,
        };
        let probe = |seq: u64| Event {
            seq,
            parent: Some(1),
            t: 2.5,
            queue_depth: 3,
            kind: EventKind::Decision(DecisionEvent {
                object: 7,
                gateway: 1,
                chosen: 4,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(4),
                least: Some(5),
                unit_closest: Some(1.0),
                unit_least: Some(3.0),
                candidates: (0..8)
                    .map(|h| CandidateSnapshot {
                        host: h,
                        rcnt: 2,
                        aff: 1,
                        unit: 2.0,
                        distance: 3,
                    })
                    .collect(),
            }),
        };
        let mut recorder = Recorder::new(32).with_sink(Box::new(std::io::sink()));
        // Warm-up: fill the ring past capacity so eviction starts
        // recycling candidate buffers, and size the sink line buffer.
        for seq in 0..100 {
            recorder.record(&probe(seq));
        }
        let event = probe(1_000);
        let (delta, ()) = CountingAlloc::measure(|| {
            for _ in 0..1_000 {
                recorder.record(&event);
            }
        });
        assert_eq!(
            delta.allocations, 0,
            "steady-state decision tracing must not allocate: {delta:?}"
        );
    }

    /// Satellite: a warmed-up seed-42 traced run stays within a fixed
    /// allocation budget per placement epoch — the steady-state request
    /// path (redirects, host arrivals, completions, their events)
    /// contributes none, so total allocator traffic is bounded by the
    /// per-epoch placement work alone.
    #[test]
    fn seed42_steady_state_run_stays_within_allocation_budget() {
        use radar_sim::obs::{Recorder, SharedRecorder};
        use radar_sim::{Scenario, Simulation};
        let scenario = Scenario::builder()
            .num_objects(64)
            .node_request_rate(0.5)
            .duration(600.0)
            .seed(42)
            .build()
            .expect("valid scenario");
        let workload = crate::make_workload("zipf", 64, 42);
        // A ring small enough to fill during warm-up: steady state for
        // the recorder is the evicting regime, where decision candidate
        // buffers recycle instead of being freshly cloned. (Filling a
        // larger ring costs one allocation per slot — bounded by the
        // ring capacity, not by the run length.)
        let recorder = SharedRecorder::from_recorder(Recorder::new(4_096));
        let mut sim = Simulation::new(scenario, workload);
        sim.attach_observer(Box::new(recorder.clone()));
        // Warm-up: two full placement rounds, so every scratch buffer
        // and per-host structure has reached steady state.
        sim.run_until(250.0);
        let before = recorder.with(|r| r.len() as u64 + r.evicted());
        let (delta, ()) = CountingAlloc::measure(|| sim.run_until(450.0));
        let events = recorder.with(|r| r.len() as u64 + r.evicted()) - before;
        // The 200 s window covers two placement rounds (period 100 s)
        // across 53 hosts = 106 placement epochs, and roughly 5 300
        // traced requests. The budget is per-epoch placement work plus
        // slack; the request path must contribute ~nothing, so the
        // ratio stays far below one allocation per event.
        assert!(events > 10_000, "window saw only {events} events");
        let per_epoch = delta.allocations as f64 / 106.0;
        assert!(
            per_epoch <= 25.0,
            "placement epochs exceed their allocation budget: \
             {delta:?} over 106 epochs = {per_epoch:.1} per epoch"
        );
        let per_event = delta.allocations as f64 / events as f64;
        assert!(
            per_event < 0.15,
            "steady state allocates too much: {} allocations over \
             {events} events = {per_event:.3} per event",
            delta.allocations
        );
    }

    /// Set-up memory follows what is hosted (one directory entry and one
    /// host-table row per replica), not catalogue × gateways: 100 000
    /// objects on the 53-node UUNET backbone must bootstrap in well
    /// under 64 MB of allocator requests. A per-(gateway, object) table
    /// of even 8-byte slots would alone ask for 42 MB; the candidate
    /// cache that used to sit here asked for > 250 MB.
    #[test]
    fn set_up_memory_does_not_scale_with_objects_times_gateways() {
        use radar_sim::{Scenario, Simulation};
        const OBJECTS: u32 = 100_000;
        let scenario = Scenario::builder()
            .num_objects(OBJECTS)
            .node_request_rate(2.0)
            .duration(100.0)
            .seed(1)
            .build()
            .expect("valid scenario");
        assert_eq!(scenario.topology.len(), 53, "the UUNET default");
        let workload = crate::make_workload("zipf", OBJECTS, 1);
        let (delta, sim) = CountingAlloc::measure(|| {
            let mut sim = Simulation::new(scenario, workload);
            sim.run_until(0.0); // bootstrap: initial placement, first timers
            sim
        });
        assert_eq!(sim.redirector().total_replicas(), u64::from(OBJECTS));
        assert!(
            delta.bytes < 64 << 20,
            "set-up requested {:.1} MB from the allocator",
            delta.bytes as f64 / (1 << 20) as f64
        );
    }
}
