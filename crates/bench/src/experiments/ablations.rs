//! Baseline comparisons, parameter ablations, and the demand-shift
//! responsiveness experiment.

use std::fmt::Write as _;

use radar_core::Params;
use radar_sim::{InitialPlacement, RunReport, Simulation};
use radar_simnet::NodeId;
use radar_stats::EquilibriumSpec;
use radar_workload::DemandShift;

use crate::{fmt_bw, LocalSwamp};

use super::{
    simulation, time_rows, Column, Harness, Job, ADJUSTMENT, EQ_BW, EQ_LAT, PEAK_OVERHEAD,
    RELOCATIONS, REPLICAS, SETTLED_PEAK,
};

/// §1/§3 comparison: the protocol's request distribution against
/// round-robin, closest-replica, and random selection — all running the
/// same dynamic placement — plus the fully static configuration.
pub fn baselines(h: &mut Harness) -> String {
    let workload = "hot-sites";
    h.preload(&[workload], true);
    let mut jobs: Vec<Job> = ["round-robin", "closest", "random"]
        .into_iter()
        .map(|name| {
            let simulation = simulation(h.cfg.scenario(), workload, name, "radar");
            (format!("policy   {name}"), simulation)
        })
        .collect();
    jobs.extend(SWAMP_POLICIES.map(|name| swamp_job(h, name)));
    let mut swept = Harness::sweep(jobs);
    let swamp = swept.split_off(3);
    let runs = std::iter::once(h.dynamic(workload))
        .chain(&swept)
        .chain([h.static_run(workload)])
        .map(|r| {
            let static_mark = if r.dynamic_placement { "" } else { " (static)" };
            (format!("{}{static_mark}", r.policy), r)
        });
    let columns = [
        ("eq bw (MB·hops/s)", EQ_BW.1),
        EQ_LAT,
        SETTLED_PEAK,
        REPLICAS,
        RELOCATIONS,
    ];
    format!(
        "== Baselines: request distribution policies under dynamic placement ({workload}) ==\n{}\
         \nExpected shape (paper §3): round-robin/random ignore proximity (high\n\
         bandwidth); the protocol serves nearby while spreading load.\n{}",
        h.runs_table("baselines", "policy", runs, &columns),
        swamp_comparison(h, &swamp)
    )
}

/// The gateway of the §3 swamped-server scenario (Los Angeles).
const SWAMP_GATEWAY: u16 = 5;

/// The selection policies the §3 swamped-server runs compare.
const SWAMP_POLICIES: [&str; 3] = ["radar", "closest", "round-robin"];

/// The paper's §3 swamped-server example: one gateway's clients overload
/// the co-located server. 160 req/s of locally concentrated demand: far
/// above the 90 req/s high watermark but below the 200 req/s hard
/// capacity, so queues stay bounded (the paper chose capacity ≫ hw for
/// the same reason: "a backlog of messages is not representative of the
/// real world").
fn swamp_job(h: &Harness, policy: &str) -> Job {
    let hot_objects = 40u32;
    let num_objects = h.cfg.num_objects.max(hot_objects);
    let mut rates = vec![20.0; 53];
    rates[SWAMP_GATEWAY as usize] = 160.0;
    // The hot objects live on the swamped gateway's own node.
    let mut placement: Vec<Vec<u16>> = (0..num_objects).map(|i| vec![(i % 53) as u16]).collect();
    for assignment in placement.iter_mut().take(hot_objects as usize) {
        *assignment = vec![SWAMP_GATEWAY];
    }
    let scenario = h
        .cfg
        .scenario()
        .num_objects(num_objects)
        .node_request_rates(rates)
        .initial_placement(InitialPlacement::Explicit(placement))
        .tracked_host(SWAMP_GATEWAY)
        .build()
        .expect("valid scenario");
    let workload = LocalSwamp::new(num_objects, NodeId::new(SWAMP_GATEWAY), hot_objects, 0.95);
    let selection = radar_baselines::selection(policy, h.cfg.seed).expect("known policy");
    let simulation = Simulation::with_selection(scenario, Box::new(workload), selection);
    (format!("swamp    {policy}"), simulation)
}

/// The §3 swamped-server runs, head to head. Closest-replica routing can
/// never shed the local load; RaDaR's distribution algorithm can.
fn swamp_comparison(h: &Harness, reports: &[RunReport]) -> String {
    let swamped_load: Column = ("swamped node load (req/s, final)", &|r| {
        // The swamped node's peak load over the final quarter of samples.
        let tail = r.load_estimates.len() * 3 / 4;
        let load = r.load_estimates[tail..].iter().map(|s| s.actual);
        format!("{:.1}", load.fold(0.0f64, f64::max))
    });
    let runs = SWAMP_POLICIES.iter().zip(reports);
    let columns = [swamped_load, EQ_LAT, REPLICAS];
    format!(
        "\n-- §3 swamped server: one gateway drives 160 req/s at objects on its own node --\n{}\
         \n(closest keeps the swamped node at capacity no matter how many replicas\n\
         exist; RaDaR sheds the local overload — the paper's central §3 claim)\n",
        h.runs_table("baselines_swamp", "policy", runs, &columns)
    )
}

/// Sweep of the request-distribution constant (the \"2\" in Fig. 2).
/// Larger constants favor proximity harder before shedding load.
pub fn ablation_constant(h: &mut Harness) -> String {
    let constants = [1.5, 2.0, 4.0, 8.0];
    let jobs = constants
        .iter()
        .map(|&constant| {
            let params = Params::builder().distribution_constant(constant).build();
            let scenario = h.cfg.scenario().params(params.expect("valid params"));
            let simulation = simulation(scenario, "zipf", "radar", "radar");
            (format!("constant {constant}"), simulation)
        })
        .collect();
    let peak: Column = ("peak load", &|r| {
        format!("{:.1}", r.peak_load_after(r.max_load.len() / 4))
    });
    let reports = Harness::sweep(jobs);
    let runs = constants.iter().zip(&reports);
    let columns = [EQ_BW, EQ_LAT, peak, REPLICAS];
    format!(
        "== Ablation: distribution constant (Fig. 2's \"2\") ==\n{}",
        h.runs_table("ablation_constant", "constant", runs, &columns)
    )
}

/// Sweep of the deletion threshold `u` (with `m = 6u` as in the paper):
/// lower thresholds replicate more aggressively.
pub fn ablation_thresholds(h: &mut Harness) -> String {
    let thresholds = [0.01, 0.03, 0.09];
    let jobs = thresholds
        .iter()
        .map(|&u| {
            let params = Params::builder().thresholds(u, 6.0 * u).build();
            let scenario = h.cfg.scenario().params(params.expect("valid params"));
            let simulation = simulation(scenario, "zipf", "radar", "radar");
            (format!("u={u}"), simulation)
        })
        .collect();
    let reports = Harness::sweep(jobs);
    let runs = thresholds.iter().zip(&reports);
    let columns = [EQ_BW, EQ_LAT, REPLICAS, RELOCATIONS, PEAK_OVERHEAD];
    format!(
        "== Ablation: deletion/replication thresholds (m = 6u) ==\n{}",
        h.runs_table("ablation_thresholds", "u (req/s)", runs, &columns)
    )
}

/// Sweep of the placement period: responsiveness vs. churn.
pub fn ablation_period(h: &mut Harness) -> String {
    let periods = [50.0, 100.0, 200.0];
    let jobs = periods
        .iter()
        .map(|&period| {
            let params = Params::builder().placement_period(period).build();
            let scenario = h.cfg.scenario().params(params.expect("valid params"));
            let simulation = simulation(scenario.metric_bin(100.0), "regional", "radar", "radar");
            (format!("period={period}"), simulation)
        })
        .collect();
    let reports = Harness::sweep(jobs);
    let runs = periods.iter().zip(&reports);
    let columns = [ADJUSTMENT, EQ_BW, REPLICAS, RELOCATIONS];
    format!(
        "== Ablation: placement period ==\n{}",
        h.runs_table("ablation_period", "period (s)", runs, &columns)
    )
}

/// Responsiveness to a demand change: the hot-site set is replaced
/// mid-run and we measure how long the protocol takes to re-settle.
pub fn demand_shift(h: &mut Harness) -> String {
    let cfg = &h.cfg;
    let shift_at = cfg.duration / 2.0;
    let before = radar_workload::hot_sites(cfg.num_objects, 53, cfg.seed);
    let after = radar_workload::hot_sites(cfg.num_objects, 53, cfg.seed.wrapping_add(777));
    let workload = DemandShift::new(Box::new(before), Box::new(after), shift_at);
    let scenario = cfg.scenario().build().expect("valid scenario");
    let label = format!("demand shift at t={shift_at}");
    let jobs = vec![(label, Simulation::new(scenario, Box::new(workload)))];
    let r = Harness::sweep(jobs).remove(0);

    let mut out = format!("== Demand shift: hot-site set replaced at t={shift_at:.0}s ==\n");
    let rates = r.total_bandwidth_rates();
    let spec = r.client_bandwidth.spec();
    let rows = time_rows(spec, std::slice::from_ref(&rates), 1, fmt_bw);
    let headers = ["t(s)", "total bw (MB·hops/s)"];
    out.push_str(&h.table("demand_shift", &headers, &rows));

    // Re-adjustment time: settle point of the post-shift suffix.
    let shift_bin = spec.bin_index(shift_at);
    let suffix = &rates[shift_bin.min(rates.len())..];
    if !suffix.is_empty() {
        let tail_len = (suffix.len() / 4).max(1);
        let eq: f64 = suffix[suffix.len() - tail_len..].iter().sum::<f64>() / tail_len as f64;
        let threshold = 1.1 * eq;
        let mut settled_from = 0usize;
        for (i, &v) in suffix.iter().enumerate() {
            if v > threshold {
                settled_from = i + 1;
            }
        }
        if settled_from < suffix.len() {
            let _ = writeln!(
                out,
                "\nre-adjustment after shift: {:.0} min (threshold {:.2} MB·hops/s)",
                (settled_from as f64 * spec.width()) / 60.0,
                threshold / 1e6
            );
        } else {
            let _ = writeln!(out, "\nre-adjustment after shift: did not settle");
        }
    }
    out
}

/// §5 update propagation: sweep the aggregate provider-update rate and
/// compare an uncapped catalog against a replica-capped one. More
/// replicas mean faster reads but costlier updates; caps trade the other
/// way — the §5 design space.
pub fn updates(h: &mut Harness) -> String {
    use radar_core::{Catalog, ObjectKind};
    let configurations = [
        ("uncapped, no updates", None, 0.0),
        ("uncapped, 10 upd/s", None, 10.0),
        ("uncapped, 50 upd/s", None, 50.0),
        ("cap 2, 50 upd/s", Some(2u32), 50.0),
        ("cap 1 (migrate-only), 50 upd/s", Some(1), 50.0),
    ];
    let objects = h.cfg.num_objects;
    let jobs = configurations
        .iter()
        .map(|&(label, cap, rate)| {
            let mut builder = h.cfg.scenario().update_rate(rate);
            if let Some(max_replicas) = cap {
                let kinds = vec![ObjectKind::NonCommuting { max_replicas }; objects as usize];
                let primaries = (0..objects).map(|i| NodeId::new((i % 53) as u16)).collect();
                builder = builder.catalog(Catalog::from_parts(kinds, 12 * 1024, primaries));
            }
            let simulation = simulation(builder, "zipf", "radar", "radar");
            (format!("updates  {label}"), simulation)
        })
        .collect();
    let update_share: Column = ("update traffic share", &|r| {
        let total_traffic: f64 = r.total_bandwidth_sums().iter().sum();
        let share = if total_traffic > 0.0 {
            (r.update_bandwidth.total() / total_traffic * 100.0).max(0.0)
        } else {
            0.0
        };
        format!("{share:.2}%")
    });
    let columns = [
        EQ_BW,
        REPLICAS,
        ("updates", &|r| r.updates_propagated.to_string()),
        update_share,
        ("primary moves", &|r| r.primary_reassignments.to_string()),
    ];
    let reports = Harness::sweep(jobs);
    let runs = configurations.iter().map(|c| c.0).zip(&reports);
    format!(
        "== §5 update propagation: provider-update rate × replica caps ==\n{}\
         \n(replica caps bound the update fan-out at the cost of serving reads from\n\
         farther away — §5's consistency/performance trade)\n",
        h.runs_table("updates", "configuration", runs, &columns)
    )
}

/// A run's total update traffic, MB·hops. `.max(0.0)` normalizes the
/// empty series' `-0.0` sum.
fn update_traffic(r: &RunReport) -> f64 {
    r.update_bandwidth.sums().iter().sum::<f64>().max(0.0) / 1e6
}

/// Placement-policy head-to-head across §5 consistency mixes: the
/// paper's distribution algorithm against the availability-target and
/// cluster-replication baselines, each run under read-only, mixed, and
/// write-heavy catalogs with live provider updates. Besides the table,
/// writes the machine-readable `BENCH_policies.json` artifact at the
/// workspace root (next to the perf baselines) so CI can gate on the
/// sweep's presence and shape.
pub fn policies(h: &mut Harness) -> String {
    use radar_core::{Catalog, ConsistencyMix};
    use radar_sim::obs::json::Value;

    let workload = "zipf";
    // Aggregate provider-update rate for the update-bearing mixes; zero
    // for read-only keeps that column the exact default configuration.
    let update_rate = 2.0;
    let placements = ["radar", "availability", "cluster"];
    let mut mixes = Vec::new();
    let mut jobs = Vec::new();
    for &mix in ConsistencyMix::ALL {
        for placement in placements {
            let mut builder = h.cfg.scenario();
            if mix != ConsistencyMix::ReadOnly {
                let catalog = Catalog::with_mix(h.cfg.num_objects, 12 * 1024, 53, mix);
                builder = builder.update_rate(update_rate).catalog(catalog);
            }
            let label = format!("placement {placement} / {mix}");
            jobs.push((label, simulation(builder, workload, "radar", placement)));
            mixes.push(mix.name());
        }
    }
    let reports = Harness::sweep(jobs);
    let columns: [Column; 7] = [
        ("placement", &|r| r.placement_policy.clone()),
        ("eq bw (MB·hops/s)", EQ_BW.1),
        SETTLED_PEAK,
        REPLICAS,
        PEAK_OVERHEAD,
        ("t1 staleness (s)", &|r| match r.update_lag_type1.count {
            0 => "-".into(),
            _ => format!("{:.2}", r.update_lag_type1.mean),
        }),
        ("update traffic (MB·hops)", &|r| {
            format!("{:.2}", update_traffic(r))
        }),
    ];
    let mut out =
        String::from("== Placement policies × consistency mixes (BENCH_policies.json) ==\n");
    out.push_str(&h.runs_table("policies", "mix", mixes.iter().zip(&reports), &columns));

    let num = |key: &str, v| (key.to_string(), Value::Num(v));
    let uint = |key: &str, v| (key.to_string(), Value::UInt(v));
    let runs = mixes.iter().zip(&reports).map(|(&mix, r)| {
        let warmup = r.max_load.len() * 3 / 4;
        let peak_overhead = r.overhead_fractions().into_iter().fold(0.0f64, f64::max) * 100.0;
        Value::Obj(vec![
            ("placement".into(), Value::Str(r.placement_policy.clone())),
            ("mix".into(), Value::Str(mix.into())),
            num(
                "eq_bandwidth_mb_hops_per_s",
                r.equilibrium_bandwidth_rate() / 1e6,
            ),
            num("peak_load_final_quarter", r.peak_load_after(warmup)),
            num("avg_replicas", r.equilibrium_avg_replicas()),
            num("peak_relocation_overhead_pct", peak_overhead),
            uint("relocations", r.relocations()),
            uint("updates", r.updates_propagated),
            num("update_traffic_mb_hops", update_traffic(r)),
            num("staleness_t1_mean_s", r.update_lag_type1.mean),
            num("staleness_t1_max_s", r.update_lag_type1.max),
            uint("wasted_deliveries", r.wasted_deliveries),
        ])
    });
    let config = vec![
        uint("objects", h.cfg.num_objects as u64),
        num("rate", h.cfg.node_rate),
        num("duration", h.cfg.duration),
        uint("seed", h.cfg.seed),
        ("workload".into(), Value::Str(workload.into())),
        num("update_rate", update_rate),
    ];
    let doc = Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("radar-bench-policies-v1".into()),
        ),
        ("config".into(), Value::Obj(config)),
        ("runs".into(), Value::Arr(runs.collect())),
    ]);
    // CARGO_MANIFEST_DIR is crates/bench; the artifact lives at the
    // workspace root next to BENCH_protocol_health.json.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_policies.json");
    let mut body = doc.pretty();
    body.push('\n');
    std::fs::write(&path, body).expect("write BENCH_policies.json");
    let _ = writeln!(out, "\nwrote {}", path.display());
    out.push_str(
        "(availability pins a replica target and ignores load; cluster replicates\n\
         to the heaviest-demand node only — the §4 algorithm is the one that\n\
         trades all four columns at once)\n",
    );
    out
}

/// Redirector partitioning (§2): more hash-partitioned redirectors at
/// central nodes shorten the control round-trip every request pays.
pub fn redirectors(h: &mut Harness) -> String {
    let counts = [1u16, 2, 4, 8];
    let jobs = counts
        .iter()
        .map(|&n| {
            let scenario = h.cfg.scenario().num_redirectors(n);
            let simulation = simulation(scenario, "zipf", "radar", "radar");
            (format!("redirectors={n}"), simulation)
        })
        .collect();
    let busiest: Column = ("busiest redirector share", &|r| {
        let busiest = r.redirector_requests.values().copied().max().unwrap_or(0);
        let total: u64 = r.redirector_requests.values().sum();
        format!("{:.0}%", busiest as f64 / total.max(1) as f64 * 100.0)
    });
    let reports = Harness::sweep(jobs);
    let runs = counts.iter().zip(&reports);
    let columns = [EQ_LAT, EQ_BW, REPLICAS, busiest];
    format!(
        "== §2 redirector partitioning ==\n{}",
        h.runs_table("redirectors", "redirectors", runs, &columns)
    )
}

/// Host heterogeneity (§2 weights): double-capacity hosts get
/// proportionally higher watermarks and absorb proportionally more
/// replica mass, keeping every host under its own high watermark.
pub fn heterogeneous(h: &mut Harness) -> String {
    let mut doubled = vec![200.0; 53];
    for capacity in doubled.iter_mut().step_by(2) {
        *capacity = 400.0;
    }
    let configurations = [
        ("uniform 200 req/s", None),
        ("every 2nd host 400 req/s", Some(doubled)),
    ];
    let jobs = configurations
        .iter()
        .map(|(label, capacities)| {
            let mut builder = h.cfg.scenario();
            if let Some(capacities) = capacities {
                builder = builder.node_capacities(capacities.clone());
            }
            let simulation = simulation(builder, "hot-pages", "radar", "radar");
            (format!("capacities: {label}"), simulation)
        })
        .collect();
    let mut rows = Vec::new();
    for ((label, capacities), r) in configurations.iter().zip(Harness::sweep(jobs)) {
        let big_host = |node: u16| {
            capacities
                .as_ref()
                .is_some_and(|c| c[node as usize] > 200.0)
        };
        // Replica affinity on [big, standard] hosts.
        let mut affinity = [0u64; 2];
        for &(node, units) in r.final_replicas.iter().flatten() {
            affinity[usize::from(!big_host(node))] += u64::from(units);
        }
        let mut row = vec![label.to_string()];
        row.extend([EQ_BW, EQ_LAT, SETTLED_PEAK].map(|(_, cell)| cell(&r)));
        row.extend(affinity.map(|units| units.to_string()));
        rows.push(row);
    }
    let headers = [
        "capacities",
        "eq bw",
        "eq lat (ms)",
        "peak load (final)",
        "replicas on big hosts",
        "on standard hosts",
    ];
    format!(
        "== §2 heterogeneous hosts (weights) ==\n{}",
        h.table("heterogeneous", &headers, &rows)
    )
}

/// Per-link view of the bandwidth story: which backbone links dynamic
/// replication relieves. The paper's bytes×hops metric aggregates this
/// away; the trunk links are where the reduction actually lands.
pub fn links(h: &mut Harness) -> String {
    use radar_simnet::builders;
    let workload = "regional";
    let mut out = String::from("== Per-link traffic: where the bandwidth reduction lands ==\n");
    h.preload(&[workload], true);
    let dynamic = h.dynamic(workload);
    let static_run = h.static_run(workload);
    let topo = builders::uunet();
    // Rank links by static traffic.
    let mut ranked: Vec<usize> = (0..static_run.link_traffic.len()).collect();
    ranked.sort_by(|&a, &b| {
        static_run.link_traffic[b]
            .1
            .partial_cmp(&static_run.link_traffic[a].1)
            .expect("finite traffic")
    });
    let mut rows = Vec::new();
    for &i in ranked.iter().take(12) {
        let ((a, b), s_bytes) = static_run.link_traffic[i];
        let (_, d_bytes) = dynamic.link_traffic[i];
        let (na, nb) = (NodeId::new(a), NodeId::new(b));
        let kind = if topo.region(na) == topo.region(nb) {
            "intra"
        } else {
            "TRUNK"
        };
        rows.push(vec![
            format!("{} — {}", topo.name(na), topo.name(nb)),
            kind.to_string(),
            format!("{:.1}", s_bytes / 1e9),
            format!("{:.1}", d_bytes / 1e9),
            format!("{:.0}%", (1.0 - d_bytes / s_bytes.max(1.0)) * 100.0),
        ]);
    }
    let headers = ["link", "kind", "static GB", "dynamic GB", "relief"];
    out.push_str(&h.table("links", &headers, &rows));

    // Aggregate: trunk vs intra-region bytes.
    let mut sums = [[0.0f64; 2]; 2]; // [static/dynamic][trunk/intra]
    for (run, row) in [static_run, dynamic].iter().zip(0..) {
        for &((a, b), bytes) in &run.link_traffic {
            let trunk = topo.region(NodeId::new(a)) != topo.region(NodeId::new(b));
            sums[row][usize::from(!trunk)] += bytes;
        }
    }
    out.push_str(&format!(
        "\ntransoceanic/transcontinental trunks: {:.1} GB static → {:.1} GB dynamic ({:.0}% relief)\n\
         intra-region links:                   {:.1} GB static → {:.1} GB dynamic ({:.0}% relief)\n",
        sums[0][0] / 1e9,
        sums[1][0] / 1e9,
        (1.0 - sums[1][0] / sums[0][0].max(1.0)) * 100.0,
        sums[0][1] / 1e9,
        sums[1][1] / 1e9,
        (1.0 - sums[1][1] / sums[0][1].max(1.0)) * 100.0,
    ));
    out
}

/// Storage-pressure sweep (§4's motivation): the protocol should buy
/// most of its bandwidth reduction with few replicas, so modest per-host
/// storage caps barely hurt — "it is better to spend money on a greater
/// number of inexpensive hosts".
pub fn storage(h: &mut Harness) -> String {
    let per_host_baseline = h.cfg.num_objects / 53 + 1;
    let limits = [
        ("unbounded", None),
        ("3× initial", Some(per_host_baseline * 3)),
        ("2× initial", Some(per_host_baseline * 2)),
        ("1.25× initial", Some(per_host_baseline * 5 / 4)),
    ];
    let jobs = limits
        .iter()
        .map(|&(label, limit)| {
            let mut builder = h.cfg.scenario();
            if let Some(l) = limit {
                builder = builder.storage_limit(l);
            }
            let simulation = simulation(builder, "zipf", "radar", "radar");
            (format!("storage  {label}"), simulation)
        })
        .collect();
    let reports = Harness::sweep(jobs);
    let runs = limits.iter().map(|l| l.0).zip(&reports);
    let columns = [EQ_BW, EQ_LAT, REPLICAS, RELOCATIONS];
    format!(
        "== Storage pressure (initial placement needs ~{per_host_baseline} objects/host) ==\n{}",
        h.runs_table("storage", "per-host storage", runs, &columns)
    )
}

/// Seed-variance check: Table 2's metrics across independent seeds, as
/// mean ± population standard deviation. Guards the headline numbers
/// against being artifacts of one random stream.
pub fn variance(h: &mut Harness) -> String {
    let seeds = 3u64;
    let mut jobs = Vec::new();
    for workload in crate::WORKLOADS {
        for s in 0..seeds {
            let scenario = h.cfg.scenario().seed(h.cfg.seed + s * 1000);
            let simulation = simulation(scenario, workload, "radar", "radar");
            jobs.push((format!("{workload} seed {s}"), simulation));
        }
    }
    let reports = Harness::sweep(jobs);
    let mut rows = Vec::new();
    for (workload, runs) in crate::WORKLOADS.iter().zip(reports.chunks(seeds as usize)) {
        // Mean ± population standard deviation of `value` over the seeds.
        let stat = |value: &dyn Fn(&RunReport) -> Option<f64>, precision: usize| {
            let xs: Vec<f64> = runs.iter().filter_map(value).collect();
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
            format!("{mean:.precision$} ± {sd:.precision$}")
        };
        rows.push(vec![
            workload.to_string(),
            stat(&|r| Some(r.equilibrium_bandwidth_rate() / 1e6), 1),
            stat(&|r| Some(r.equilibrium_avg_replicas()), 2),
            stat(
                &|r| Some(r.adjustment(EquilibriumSpec::default())?.adjustment_time / 60.0),
                0,
            ),
        ]);
    }
    let headers = [
        "workload",
        "eq bw (MB·hops/s)",
        "avg replicas",
        "adjustment (min)",
    ];
    format!(
        "== Seed variance: Table 2 metrics over {seeds} seeds ==\n{}",
        h.table("variance", &headers, &rows)
    )
}
