//! Per-layer drivers: each times one public function of one crate from
//! outside, fed with inputs *captured* from a short run of the named
//! workload — its request trace, its event feed, its served latencies
//! and its final replica sets — never synthetic constants. A driver
//! reports the best of [`BATCHES`] batches per call, and the call count.
//!
//! Everything in the simulator is single-threaded, so a faster layer
//! saves at most its share of wall; the numbers here say where to look,
//! the end-to-end metrics say whether it mattered.

use std::hint::black_box;
use std::io::BufWriter;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use radar_cli::json::Value;
use radar_core::placement::{run_placement_into, PlacementEnv, PlacementOutcome, PlacementScratch};
use radar_core::{
    CreateObjRequest, CreateObjResponse, Directory, HostState, ObjectId, Params, Redirector,
};
use radar_obs::{
    Event, LedgerConfig, MetricsConfig, MetricsObserver, ObjectLedger, Recorder, SharedMetrics,
    SharedRecorder, DEFAULT_CAPACITY,
};
use radar_sim::{Observer, RequestRecord, Scenario, Simulation};
use radar_simcore::{EventQueue, FifoServer, SimDuration, SimRng, SimTime};
use radar_simnet::{NodeId, RoutingView};
use radar_stats::{BinSpec, Histogram, OnlineSummary, P2Quantile, TimeSeries};
use radar_workload::ArrivalProcess;

use crate::estimate::fastest;
use crate::record::{n, num, obj, s, text};
use crate::rep::CountingSink;
use crate::workloads::{find, Workload};

/// Batches per driver; the fastest is reported.
pub const BATCHES: usize = 5;
/// Simulated seconds of the named workload the inputs are captured from
/// (scaled down under `--quick`, never below 30).
pub const CAPTURE_SIM_SECONDS: f64 = 300.0;
/// Simulated seconds of the paper-scale runs behind `obs.cost_x.*` and
/// `cli.overhead_pct`.
pub const COST_SIM_SECONDS: f64 = 60.0;
/// Events and latencies kept from the capture run.
const CAPTURE_CAP: usize = 200_000;
/// Objects on the host the placement scan runs over: 100 000 / 53.
const SCAN_OBJECTS: usize = 1_887;

/// One per-layer value and how many calls each batch made.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    /// Metric name.
    pub name: String,
    /// Value in the metric's unit.
    pub value: f64,
    /// Calls per batch.
    pub calls: u64,
}

/// One-line JSON for the parent.
pub fn values_to_json(values: &[LayerValue]) -> Value {
    Value::Arr(
        values
            .iter()
            .map(|v| {
                obj([
                    ("name", s(v.name.clone())),
                    ("value", n(v.value)),
                    ("calls", n(v.calls as f64)),
                ])
            })
            .collect(),
    )
}

/// Reads [`values_to_json`] back.
pub fn values_from_json(v: &Value) -> Result<Vec<LayerValue>, String> {
    v.as_array()
        .ok_or("layer values are not an array")?
        .iter()
        .map(|x| {
            Ok(LayerValue {
                name: text(x, "name")?.to_string(),
                value: num(x, "value")?,
                calls: num(x, "calls")? as u64,
            })
        })
        .collect()
}

/// Collects the first [`CAPTURE_CAP`] events and served latencies.
#[derive(Debug, Default)]
struct Capture {
    events: Vec<Event>,
    latencies: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Default)]
struct SharedCapture(Arc<Mutex<Capture>>);

impl Observer for SharedCapture {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event) {
        let mut c = self.0.lock().expect("capture lock never poisoned");
        if c.events.len() < CAPTURE_CAP {
            c.events.push(event.clone());
        }
    }

    fn on_request_served(&mut self, r: &RequestRecord) {
        let mut c = self.0.lock().expect("capture lock never poisoned");
        if c.latencies.len() < CAPTURE_CAP {
            c.latencies.push((r.delivered, r.latency));
        }
    }
}

/// Inputs captured from a short run of the named workload.
struct Inputs {
    /// `(time, gateway, object)` arrivals.
    trace: Vec<(f64, NodeId, ObjectId)>,
    events: Vec<Event>,
    latencies: Vec<(f64, f64)>,
    /// Per object, `(host, affinity)` at the end of the capture run.
    final_replicas: Vec<Vec<(NodeId, u32)>>,
    view: RoutingView,
    objects: u32,
    distribution_constant: f64,
}

fn capture(w: &Workload, seed: u64, scale: f64) -> Result<Inputs, String> {
    let scenario = w
        .scenario(seed, (CAPTURE_SIM_SECONDS * scale).max(30.0))
        .map_err(|e| format!("{}: {e}", w.name))?;
    let view = RoutingView::new(scenario.topology.clone());
    let distribution_constant = scenario.params.distribution_constant;
    let mut sim = Simulation::new(
        scenario,
        radar_bench::make_workload(w.popularity, w.objects, seed),
    );
    let shared = SharedCapture::default();
    sim.attach_observer(Box::new(shared.clone()));
    sim.record_trace();
    let report = sim.run();
    let trace: Vec<_> = report
        .trace
        .as_ref()
        .ok_or("record_trace() produced no trace")?
        .entries()
        .iter()
        .map(|e| (e.t, NodeId::new(e.gateway), ObjectId::new(e.object)))
        .collect();
    let captured = std::mem::take(&mut *shared.0.lock().expect("capture lock never poisoned"));
    if trace.is_empty() || captured.events.is_empty() || captured.latencies.is_empty() {
        return Err(format!("{}: capture run produced no inputs", w.name));
    }
    Ok(Inputs {
        trace,
        events: captured.events,
        latencies: captured.latencies,
        final_replicas: report
            .final_replicas
            .iter()
            .map(|r| r.iter().map(|&(h, aff)| (NodeId::new(h), aff)).collect())
            .collect(),
        view,
        objects: w.objects,
        distribution_constant,
    })
}

impl Inputs {
    /// A redirector holding the captured final replica sets.
    fn redirector(&self) -> Redirector {
        let mut r = Redirector::new(self.objects, self.distribution_constant);
        for (i, replicas) in self.final_replicas.iter().enumerate() {
            let object = ObjectId::new(i as u32);
            for &(host, aff) in replicas {
                r.install(object, host);
                if aff > 1 {
                    r.notify_affinity(object, host, aff);
                }
            }
        }
        r
    }

    /// The node holding the most replicas.
    fn busiest_host(&self) -> NodeId {
        let mut counts = vec![0u32; self.view.topology().len()];
        for &(host, _) in self.final_replicas.iter().flatten() {
            counts[host.index()] += 1;
        }
        let (i, _) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .expect("topology has nodes");
        NodeId::new(i as u16)
    }
}

/// Times `batch(calls)` [`BATCHES`] times; best nanoseconds per call.
fn best_ns(calls: usize, mut batch: impl FnMut(usize)) -> f64 {
    fastest((0..BATCHES).map(|_| {
        let t = Instant::now();
        batch(calls);
        t.elapsed().as_nanos() as f64 / calls as f64
    }))
}

/// Like [`best_ns`] for operations that consume their state: `setup` is
/// untimed and runs before each of the `calls` timed operations.
fn best_ns_with_setup<S>(
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    fastest((0..BATCHES).map(|_| {
        let mut ns = 0u128;
        for _ in 0..calls {
            let mut state = setup();
            let t = Instant::now();
            op(&mut state);
            ns += t.elapsed().as_nanos();
            black_box(&state);
        }
        ns as f64 / calls as f64
    }))
}

struct Drivers<'a> {
    inputs: &'a Inputs,
    seed: u64,
    scale: f64,
    out: Vec<LayerValue>,
}

impl Drivers<'_> {
    fn calls(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(1)
    }

    fn push(&mut self, name: &str, value: f64, calls: usize) {
        self.out.push(LayerValue {
            name: name.to_string(),
            value,
            calls: calls as u64,
        });
    }

    /// `simcore`: the hold model — pop the earliest event, schedule one
    /// later — at a steady depth, increments from the traced gaps scaled
    /// so that a re-inserted event lands about `depth` positions later.
    fn queue_hold(&mut self, name: &str, depth: usize) {
        let increments: Vec<SimDuration> = self
            .inputs
            .trace
            .windows(2)
            .take(65_536)
            .map(|p| SimDuration::from_secs((p[1].0 - p[0].0).max(1e-6) * depth as f64))
            .collect();
        let mut queue = EventQueue::new();
        for (i, inc) in increments.iter().cycle().take(depth).enumerate() {
            queue.schedule(SimTime::ZERO + *inc * (i as u64 % 7 + 1), i as u64);
        }
        // ~25 ms a batch at either depth.
        let calls = self.calls(if depth > 1_024 { 200_000 } else { 500_000 });
        let mut next = 0;
        let ns = best_ns(calls, |calls| {
            for _ in 0..calls {
                let (t, payload) = queue.pop().expect("depth stays constant");
                queue.schedule(t + increments[next], payload);
                next = (next + 1) % increments.len();
            }
        });
        assert_eq!(queue.len(), depth);
        self.push(name, ns, calls);
    }

    fn simcore(&mut self) {
        self.queue_hold("simcore.queue_hold_ns_d512", 512);
        self.queue_hold("simcore.queue_hold_ns_d64k", 65_536);

        let arrivals: Vec<SimTime> = self
            .inputs
            .trace
            .iter()
            .map(|e| SimTime::from_secs(e.0))
            .collect();
        let calls = self.calls(2_000_000);
        let ns = best_ns(calls, |calls| {
            let mut server = FifoServer::with_capacity(200.0);
            for i in 0..calls {
                black_box(server.offer(arrivals[i % arrivals.len()]));
            }
        });
        self.push("simcore.fifo_offer_ns", ns, calls);
    }

    fn workload(&mut self) {
        let nodes = self.inputs.view.topology().len();
        for (metric, popularity) in [
            ("workload.choose_ns.zipf", "zipf"),
            ("workload.choose_ns.hot_sites", "hot-sites"),
        ] {
            let mut workload =
                radar_bench::make_workload(popularity, self.inputs.objects, self.seed);
            let mut rng = SimRng::seed_from(self.seed);
            let calls = self.calls(1_000_000);
            let ns = best_ns(calls, |calls| {
                for i in 0..calls {
                    let gateway = NodeId::new((i % nodes) as u16);
                    black_box(workload.choose(i as f64 * 1e-3, gateway, &mut rng));
                }
            });
            self.push(metric, ns, calls);
        }
        let process = ArrivalProcess::Deterministic { rate: 40.0 };
        let mut rng = SimRng::seed_from(self.seed);
        let calls = self.calls(2_000_000);
        let ns = best_ns(calls, |calls| {
            for _ in 0..calls {
                black_box(black_box(&process).next_interarrival(&mut rng));
            }
        });
        self.push("workload.interarrival_ns", ns, calls);
    }

    fn simnet(&mut self) {
        let inputs = self.inputs;
        let calls = self.calls(50);
        let ns = best_ns_with_setup(
            calls,
            || Some(inputs.view.topology().clone()),
            |topology| {
                black_box(RoutingView::new(topology.take().expect("set up per call")));
            },
        );
        self.push("simnet.view_new_us", ns / 1e3, calls);

        // (gateway, serving host) pairs: each traced request against the
        // first replica of its object.
        let pairs: Vec<(NodeId, NodeId)> = inputs
            .trace
            .iter()
            .take(65_536)
            .filter_map(|&(_, gateway, object)| {
                let &(host, _) = inputs.final_replicas[object.index()].first()?;
                Some((gateway, host))
            })
            .collect();
        let view = &inputs.view;
        let calls = self.calls(4_000_000);
        let ns = best_ns(calls, |calls| {
            let mut sum = 0u64;
            for i in 0..calls {
                let (g, h) = pairs[i % pairs.len()];
                sum += u64::from(view.distance(h, g));
            }
            black_box(sum);
        });
        self.push("simnet.distance_ns", ns, calls);
        let ns = best_ns(calls, |calls| {
            let mut sum = 0usize;
            for i in 0..calls {
                let (g, h) = pairs[i % pairs.len()];
                sum += view.path(h, g).len();
            }
            black_box(sum);
        });
        self.push("simnet.path_ns", ns, calls);

        let links = view.topology().links().to_vec();
        let mut live = view.clone();
        let rounds = self.calls(1);
        let calls = rounds * links.len() * 2;
        let ns = best_ns(calls, |_| {
            for _ in 0..rounds {
                for &(a, b) in &links {
                    black_box(live.set_link(a, b, false));
                    black_box(live.set_link(a, b, true));
                }
            }
        });
        self.push("simnet.set_link_us", ns / 1e3, calls);
    }

    fn core(&mut self) {
        let inputs = self.inputs;
        let view = &inputs.view;
        let window: Vec<(f64, NodeId, ObjectId)> =
            inputs.trace.iter().take(65_536).copied().collect();

        // Cache-hit path: candidates and the closest one precomputed per
        // traced request, as the redirect engine's cache holds them.
        let mut redirector = inputs.redirector();
        let mut arena: Vec<(u32, u32)> = Vec::new();
        let cached: Vec<(ObjectId, usize, usize, Option<u32>)> = window
            .iter()
            .map(|&(_, gateway, object)| {
                let start = arena.len();
                let replicas = redirector.replicas(object);
                arena.extend(
                    replicas
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (i as u32, view.distance(r.host, gateway))),
                );
                let closest = arena[start..]
                    .iter()
                    .min_by_key(|&&(i, d)| (d, replicas[i as usize].host))
                    .map(|&(i, _)| i);
                (object, start, arena.len(), closest)
            })
            .collect();
        let calls = self.calls(2_000_000);
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                let (object, start, end, closest) = cached[i % cached.len()];
                black_box(redirector.choose_among_into(object, &arena[start..end], closest, None));
            }
        });
        self.push("core.choose_among_ns", ns, calls);

        let mut redirector = inputs.redirector();
        let calls = self.calls(1_000_000);
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                let (_, gateway, object) = window[i % window.len()];
                black_box(redirector.choose_replica(object, gateway, view.table()));
            }
        });
        self.push("core.choose_replica_ns", ns, calls);

        // One host serving every traced object, preference paths from
        // the routing view.
        let node = NodeId::new(0);
        let mut host = HostState::new(node, Params::paper());
        for &(_, _, object) in &window {
            if !host.has_object(object) {
                host.install_object(object);
            }
        }
        let span = window.last().map_or(1.0, |e| e.0).max(1.0);
        let calls = self.calls(400_000);
        let mut lap = 0.0;
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                let (t, gateway, object) = window[i % window.len()];
                if i % window.len() == 0 {
                    lap += span;
                }
                host.record_access(object, view.path(node, gateway));
                host.record_serviced(lap + t, object);
            }
        });
        black_box(&host);
        self.push("core.record_access_ns", ns, calls);

        // A create + drop pair per traced object inside one placement
        // epoch batch, on a host outside the object's replica set.
        let nodes = view.topology().len() as u16;
        let writes: Vec<(ObjectId, NodeId)> = window
            .iter()
            .map(|&(_, _, object)| {
                let taken = &inputs.final_replicas[object.index()];
                let free = (0..nodes)
                    .map(NodeId::new)
                    .find(|h| taken.iter().all(|&(t, _)| t != *h))
                    .unwrap_or(NodeId::new(0));
                (object, free)
            })
            .collect();
        let mut directory = Directory::new(inputs.objects);
        for (i, replicas) in inputs.final_replicas.iter().enumerate() {
            for &(host, _) in replicas {
                directory.install(ObjectId::new(i as u32), host);
            }
        }
        let calls = self.calls(1_000_000);
        let ns = best_ns(calls, |calls| {
            directory.begin_batch();
            for i in 0..calls {
                let (object, host) = writes[i % writes.len()];
                directory.notify_created(object, host);
                black_box(directory.request_drop(object, host));
            }
            black_box(directory.commit_batch());
        });
        self.push("core.directory_write_ns", ns, calls);

        let loaded = inputs.redirector();
        let victim = inputs.busiest_host();
        let calls = self.calls(10);
        let ns = best_ns_with_setup(
            calls,
            || loaded.clone(),
            |r| {
                black_box(r.purge_host(victim));
            },
        );
        self.push("core.purge_host_us", ns / 1e3, calls);

        self.placement_scan(&window);

        let calls = inputs.objects as usize;
        let ns = best_ns_with_setup(
            1,
            || {
                let hosts: Vec<HostState> = (0..nodes)
                    .map(|i| HostState::new(NodeId::new(i), Params::paper()))
                    .collect();
                (
                    Redirector::new(inputs.objects, inputs.distribution_constant),
                    hosts,
                )
            },
            |(redirector, hosts)| {
                for i in 0..inputs.objects {
                    let node = (i % u32::from(nodes)) as usize;
                    redirector.install(ObjectId::new(i), NodeId::new(node as u16));
                    hosts[node].install_object(ObjectId::new(i));
                }
            },
        ) / calls as f64;
        self.push("core.install_ns", ns, calls);
    }

    /// `run_placement_into` over a host holding [`SCAN_OBJECTS`] objects
    /// warmed with the traced accesses, against an environment that
    /// declines every move: the scan and its threshold tests, not the
    /// relocations.
    fn placement_scan(&mut self, window: &[(f64, NodeId, ObjectId)]) {
        let inputs = self.inputs;
        struct Declines<'a>(&'a RoutingView);
        impl PlacementEnv for Declines<'_> {
            fn create_obj(&mut self, _: NodeId, _: CreateObjRequest) -> CreateObjResponse {
                CreateObjResponse::Refused
            }
            fn request_drop(&mut self, _: ObjectId, _: NodeId) -> bool {
                false
            }
            fn notify_affinity(&mut self, _: ObjectId, _: NodeId, _: u32) {}
            fn find_offload_recipient(&mut self, _: NodeId) -> Option<(NodeId, f64)> {
                None
            }
            fn distance(&self, a: NodeId, b: NodeId) -> u32 {
                self.0.distance(a, b)
            }
            fn may_replicate(&self, _: ObjectId) -> bool {
                true
            }
            fn replica_count(&self, _: ObjectId) -> usize {
                1
            }
        }

        let view = &inputs.view;
        let node = NodeId::new(0);
        let mut fresh = HostState::new(node, Params::paper());
        // The traced objects first, then the coldest ids up to the count.
        for object in window
            .iter()
            .map(|e| e.2)
            .chain((0..inputs.objects).rev().map(ObjectId::new))
        {
            if fresh.object_count() == SCAN_OBJECTS {
                break;
            }
            if !fresh.has_object(object) {
                fresh.install_object(object);
            }
        }
        let held = fresh.object_count();
        let period = fresh.params().placement_period;
        let mut env = Declines(view);
        let mut scratch = PlacementScratch::default();
        let mut outcome = PlacementOutcome::default();
        let calls = self.calls(4);
        let ns = best_ns_with_setup(
            calls,
            || {
                let mut host = fresh.clone();
                for &(t, gateway, object) in window {
                    host.record_access(object, view.path(node, gateway));
                    host.record_serviced(t.min(period), object);
                }
                host
            },
            |host| run_placement_into(host, period, &mut env, &mut scratch, &mut outcome),
        );
        black_box(&outcome);
        self.push(
            "core.placement_scan_us_per_kobj",
            ns / 1e3 / (held as f64 / 1e3),
            calls,
        );
    }

    fn stats(&mut self) {
        let inputs = self.inputs;
        let samples = &inputs.latencies;
        let calls = self.calls(2_000_000);
        let at = |i: usize| samples[i % samples.len()];

        let mut series = TimeSeries::new(BinSpec::new(100.0));
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                let (t, latency) = at(i);
                series.record(t, latency);
            }
        });
        black_box(&series);
        self.push("stats.timeseries_record_ns", ns, calls);

        let mut p99 = P2Quantile::new(0.99);
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                p99.record(at(i).1);
            }
        });
        black_box(&p99);
        self.push("stats.p2_record_ns", ns, calls);

        let mut summary = OnlineSummary::new();
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                summary.record(at(i).1);
            }
        });
        black_box(&summary);
        self.push("stats.summary_record_ns", ns, calls);

        let cfg = MetricsConfig::default();
        let mut histogram = Histogram::new(cfg.latency_bucket, cfg.latency_buckets);
        let ns = best_ns(calls, |calls| {
            for i in 0..calls {
                histogram.record(at(i).1);
            }
        });
        black_box(&histogram);
        self.push("stats.histogram_record_ns", ns, calls);
    }

    /// `obs`: one pass over the captured feed per batch, a fresh consumer
    /// each pass so every pass does the same work.
    fn obs(&mut self) {
        let inputs = self.inputs;
        let events = &inputs.events[..self.calls(inputs.events.len())];
        let calls = events.len();

        let mut line = String::new();
        let mut bytes = 0usize;
        let ns = best_ns(calls, |_| {
            bytes = 0;
            for e in events {
                line.clear();
                e.write_json_line(&mut line);
                bytes += line.len() + 1;
            }
        });
        self.push("obs.jsonl_ns_per_event", ns, calls);
        self.push(
            "obs.jsonl_bytes_per_event",
            bytes as f64 / calls as f64,
            calls,
        );

        // Parsing costs several times writing: a quarter of the feed.
        let lines: Vec<String> = events[..calls.div_ceil(4)]
            .iter()
            .map(Event::to_json_line)
            .collect();
        let parse_ns = best_ns(lines.len(), |_| {
            for l in &lines {
                black_box(Event::from_json_line(l).expect("the writer's own lines parse"));
            }
        });
        self.push("obs.parse_ns_per_line", parse_ns, lines.len());

        let ns = best_ns(calls, |_| {
            let sink = BufWriter::new(CountingSink::default());
            let mut recorder = Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink));
            for e in events {
                recorder.record(e);
            }
            black_box(recorder.finish());
        });
        self.push("obs.recorder_ns_per_event", ns, calls);

        let ns = best_ns(calls, |_| {
            let mut metrics = MetricsObserver::new(MetricsConfig::default());
            for e in events {
                metrics.fold(e);
            }
            black_box(metrics.events_seen());
        });
        self.push("obs.metrics_fold_ns_per_event", ns, calls);

        let ns = best_ns(calls, |_| {
            let mut ledger = ObjectLedger::new(LedgerConfig::default());
            for e in events {
                ledger.fold(e);
            }
            black_box(ledger.last_t());
        });
        self.push("obs.ledger_fold_ns_per_event", ns, calls);
    }

    /// Whole runs of the paper-scale zipf scenario: bare, with exactly
    /// one observer attached, and through the CLI.
    fn whole_runs(&mut self) -> Result<(), String> {
        let duration = (COST_SIM_SECONDS * self.scale).max(10.0);
        let seed = self.seed;
        let paper = find("paper_zipf").expect("paper_zipf is a workload");
        let scenario = || -> Result<Scenario, String> {
            paper.scenario(seed, duration).map_err(|e| e.to_string())
        };
        let sim = |scenario: Scenario| {
            Simulation::new(
                scenario,
                radar_bench::make_workload(paper.popularity, paper.objects, seed),
            )
        };
        // Best of two: these are whole simulations, not micro-batches.
        let best_s = |run: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let t = Instant::now();
                run()?;
                best = best.min(t.elapsed().as_secs_f64());
            }
            Ok(best)
        };

        let bare = best_s(&mut || {
            black_box(sim(scenario()?).run());
            Ok(())
        })?;
        let events = best_s(&mut || {
            let mut sim = sim(scenario()?);
            let sink = BufWriter::new(CountingSink::default());
            let recorder = SharedRecorder::from_recorder(
                Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(sink)),
            );
            sim.attach_observer(Box::new(recorder.clone()));
            black_box(sim.run());
            recorder.finish().map_or(Ok(()), Err)
        })?;
        let ledger = best_s(&mut || {
            let mut sim = sim(scenario()?);
            sim.enable_object_ledger();
            black_box(sim.run());
            Ok(())
        })?;
        let metrics = best_s(&mut || {
            let mut sim = sim(scenario()?);
            sim.attach_observer(Box::new(SharedMetrics::new(MetricsConfig::default())));
            black_box(sim.run());
            Ok(())
        })?;
        self.push("obs.cost_x.events", events / bare, 2);
        self.push("obs.cost_x.ledger", ledger / bare, 2);
        self.push("obs.cost_x.metrics", metrics / bare, 2);

        let api = best_s(&mut || {
            black_box(sim(scenario()?).run().to_json_pretty());
            Ok(())
        })?;
        let args: Vec<String> = [
            "simulate",
            "--workload",
            "zipf",
            "--objects",
            "10000",
            "--rate",
            "40",
            "--json",
            "--duration",
            &duration.to_string(),
            "--seed",
            &seed.to_string(),
        ]
        .map(String::from)
        .to_vec();
        let cli = best_s(&mut || radar_cli::run(&args).map(|report| drop(black_box(report))))?;
        self.push("cli.overhead_pct", (cli / api - 1.0) * 100.0, 2);
        Ok(())
    }
}

/// Captures inputs from `w` and runs every driver. `scale` shrinks the
/// batches (`--quick` passes 0.1).
pub fn run(w: &Workload, seed: u64, scale: f64) -> Result<Vec<LayerValue>, String> {
    let scale = scale.clamp(0.001, 1.0);
    let inputs = capture(w, seed, scale)?;
    let mut drivers = Drivers {
        inputs: &inputs,
        seed,
        scale,
        out: Vec::new(),
    };
    drivers.simcore();
    drivers.workload();
    drivers.simnet();
    drivers.core();
    drivers.stats();
    drivers.obs();
    drivers.whole_runs()?;
    Ok(drivers.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_reports_and_round_trips() {
        let w = crate::workloads::find("faulted_updates").unwrap();
        let values = run(w, 3, 0.002).unwrap();
        let names: Vec<&str> = values.iter().map(|v| v.name.as_str()).collect();
        // Every per-layer metric that is not derived from the traced run.
        for m in crate::metrics::per_layer() {
            let from_drivers = !m.name.starts_with("sim.") && m.name != "obs.log_bytes_per_sim_s";
            assert_eq!(names.contains(&m.name.as_str()), from_drivers, "{}", m.name);
        }
        assert!(values.iter().all(|v| v.value.is_finite() && v.calls > 0));
        let back = values_from_json(&Value::parse(&values_to_json(&values).to_string()).unwrap());
        assert_eq!(back.unwrap().len(), values.len());
    }
}
