//! Baseline comparisons, parameter ablations, and the demand-shift
//! responsiveness experiment.

use std::fmt::Write as _;

use radar_baselines::{ClosestSelection, RandomSelection, RoundRobinSelection};
use radar_core::Params;
use radar_sim::{InitialPlacement, RunReport, SelectionPolicy, Simulation};
use radar_simnet::NodeId;
use radar_stats::EquilibriumSpec;
use radar_workload::DemandShift;

use crate::{fmt_bw, fmt_ms, format_table, make_workload, write_csv, LocalSwamp};

use super::Harness;

/// §1/§3 comparison: the protocol's request distribution against
/// round-robin, closest-replica, and random selection — all running the
/// same dynamic placement — plus the fully static configuration.
pub fn baselines(h: &mut Harness) -> String {
    let workload = "hot-sites";
    let mut out = format!(
        "== Baselines: request distribution policies under dynamic placement ({workload}) ==\n"
    );
    let mut rows = Vec::new();
    let run_policy = |h: &mut Harness, policy: Box<dyn SelectionPolicy + Send>| -> RunReport {
        eprintln!("  [sim] policy   {}", policy.name());
        let scenario = h.cfg.scenario().build().expect("valid scenario");
        Simulation::with_selection(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
            policy,
        )
        .run()
    };
    let radar = h.dynamic(workload).clone();
    let reports: Vec<RunReport> = vec![
        radar,
        run_policy(h, Box::new(RoundRobinSelection::new())),
        run_policy(h, Box::new(ClosestSelection::new())),
        run_policy(h, Box::new(RandomSelection::new(h.cfg.seed))),
        h.static_run(workload).clone(),
    ];
    for r in &reports {
        let label = if r.dynamic_placement {
            r.policy.clone()
        } else {
            format!("{} (static)", r.policy)
        };
        // Peak over the final quarter: the settled regime.
        let warmup = r.max_load.len() * 3 / 4;
        rows.push(vec![
            label,
            fmt_bw(r.equilibrium_bandwidth_rate()),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.1}", r.peak_load_after(warmup)),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            r.relocations().to_string(),
        ]);
    }
    let headers = [
        "policy",
        "eq bw (MB·hops/s)",
        "eq lat (ms)",
        "peak load (final quarter)",
        "avg replicas",
        "relocations",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "baselines", &headers, &rows);
    out.push_str(
        "\nExpected shape (paper §3): round-robin/random ignore proximity (high\n\
         bandwidth); the protocol serves nearby while spreading load.\n",
    );
    out.push_str(&swamp_comparison(h));
    out
}

/// The paper's §3 swamped-server example, run head-to-head: one
/// gateway's clients overload the co-located server. Closest-replica
/// routing can never shed that load; RaDaR's distribution algorithm can.
fn swamp_comparison(h: &mut Harness) -> String {
    // 160 req/s of locally concentrated demand: far above the 90 req/s
    // high watermark but below the 200 req/s hard capacity, so queues
    // stay bounded (the paper chose capacity ≫ hw for the same reason:
    // "a backlog of messages is not representative of the real world").
    let mut out = String::from(
        "\n-- §3 swamped server: one gateway drives 160 req/s at objects on its own node --\n",
    );
    let hot_gateway = 5u16; // Los Angeles
    let hot_objects = 40u32;
    let num_objects = h.cfg.num_objects.max(hot_objects);
    let mut rows = Vec::new();
    let policies: Vec<Box<dyn SelectionPolicy + Send>> = vec![
        Box::new(radar_sim::RadarSelection::new()),
        Box::new(ClosestSelection::new()),
        Box::new(RoundRobinSelection::new()),
    ];
    for policy in policies {
        eprintln!("  [sim] swamp    {}", policy.name());
        let mut rates = vec![20.0; 53];
        rates[hot_gateway as usize] = 160.0;
        // The hot objects live on the swamped gateway's own node.
        let mut placement: Vec<Vec<u16>> =
            (0..num_objects).map(|i| vec![(i % 53) as u16]).collect();
        for assignment in placement.iter_mut().take(hot_objects as usize) {
            *assignment = vec![hot_gateway];
        }
        let scenario = h
            .cfg
            .scenario()
            .num_objects(num_objects)
            .node_request_rates(rates)
            .initial_placement(InitialPlacement::Explicit(placement))
            .tracked_host(hot_gateway)
            .build()
            .expect("valid scenario");
        let name = policy.name().to_string();
        let r = Simulation::with_selection(
            scenario,
            Box::new(LocalSwamp::new(
                num_objects,
                NodeId::new(hot_gateway),
                hot_objects,
                0.95,
            )),
            policy,
        )
        .run();
        // Swamped node's load over the final quarter of samples.
        let tail = r.load_estimates.len() * 3 / 4;
        let final_load = r.load_estimates[tail..]
            .iter()
            .map(|s| s.actual)
            .fold(0.0f64, f64::max);
        rows.push(vec![
            name,
            format!("{final_load:.1}"),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
        ]);
    }
    let headers = [
        "policy",
        "swamped node load (req/s, final)",
        "eq lat (ms)",
        "avg replicas",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "baselines_swamp", &headers, &rows);
    out.push_str(
        "\n(closest keeps the swamped node at capacity no matter how many replicas\n\
         exist; RaDaR sheds the local overload — the paper's central §3 claim)\n",
    );
    out
}

/// Sweep of the request-distribution constant (the \"2\" in Fig. 2).
/// Larger constants favor proximity harder before shedding load.
pub fn ablation_constant(h: &mut Harness) -> String {
    let workload = "zipf";
    let mut out = String::from("== Ablation: distribution constant (Fig. 2's \"2\") ==\n");
    let mut rows = Vec::new();
    for constant in [1.5, 2.0, 4.0, 8.0] {
        eprintln!("  [sim] constant {constant}");
        let params = Params::builder()
            .distribution_constant(constant)
            .build()
            .expect("valid params");
        let scenario = h
            .cfg
            .scenario()
            .params(params)
            .build()
            .expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let warmup = r.max_load.len() / 4;
        rows.push(vec![
            format!("{constant}"),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.1}", r.peak_load_after(warmup)),
            format!("{:.2}", r.equilibrium_avg_replicas()),
        ]);
    }
    let headers = [
        "constant",
        "eq bw",
        "eq lat (ms)",
        "peak load",
        "avg replicas",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "ablation_constant", &headers, &rows);
    out
}

/// Sweep of the deletion threshold `u` (with `m = 6u` as in the paper):
/// lower thresholds replicate more aggressively.
pub fn ablation_thresholds(h: &mut Harness) -> String {
    let workload = "zipf";
    let mut out = String::from("== Ablation: deletion/replication thresholds (m = 6u) ==\n");
    let mut rows = Vec::new();
    for u in [0.01, 0.03, 0.09] {
        eprintln!("  [sim] u={u}");
        let params = Params::builder()
            .thresholds(u, 6.0 * u)
            .build()
            .expect("valid params");
        let scenario = h
            .cfg
            .scenario()
            .params(params)
            .build()
            .expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let peak_overhead = r.overhead_fractions().into_iter().fold(0.0f64, f64::max) * 100.0;
        rows.push(vec![
            format!("{u}"),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            r.relocations().to_string(),
            format!("{peak_overhead:.3}%"),
        ]);
    }
    let headers = [
        "u (req/s)",
        "eq bw",
        "eq lat (ms)",
        "avg replicas",
        "relocations",
        "peak overhead",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "ablation_thresholds", &headers, &rows);
    out
}

/// Sweep of the placement period: responsiveness vs. churn.
pub fn ablation_period(h: &mut Harness) -> String {
    let workload = "regional";
    let mut out = String::from("== Ablation: placement period ==\n");
    let mut rows = Vec::new();
    for period in [50.0, 100.0, 200.0] {
        eprintln!("  [sim] period={period}");
        let params = Params::builder()
            .placement_period(period)
            .build()
            .expect("valid params");
        let scenario = h
            .cfg
            .scenario()
            .params(params)
            .metric_bin(100.0)
            .build()
            .expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let adj = r
            .adjustment(EquilibriumSpec::default())
            .map(|a| format!("{:.0}", a.adjustment_time / 60.0))
            .unwrap_or_else(|| "n/a".into());
        rows.push(vec![
            format!("{period}"),
            adj,
            fmt_bw(r.equilibrium_bandwidth_rate()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            r.relocations().to_string(),
        ]);
    }
    let headers = [
        "period (s)",
        "adjustment (min)",
        "eq bw",
        "avg replicas",
        "relocations",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "ablation_period", &headers, &rows);
    out
}

/// Responsiveness to a demand change: the hot-site set is replaced
/// mid-run and we measure how long the protocol takes to re-settle.
pub fn demand_shift(h: &mut Harness) -> String {
    let cfg = h.cfg.clone();
    let shift_at = cfg.duration / 2.0;
    eprintln!("  [sim] demand shift at t={shift_at}");
    let before = make_workload("hot-sites", cfg.num_objects, cfg.seed);
    let after = make_workload("hot-sites", cfg.num_objects, cfg.seed.wrapping_add(777));
    let workload = Box::new(DemandShift::new(before, after, shift_at));
    // Run twice as long so both phases have room to settle.
    let scenario = cfg.scenario().build().expect("valid scenario");
    let r = Simulation::new(scenario, workload).run();

    let mut out = format!("== Demand shift: hot-site set replaced at t={shift_at:.0}s ==\n");
    let rates = r.total_bandwidth_rates();
    let spec = r.client_bandwidth.spec();
    let mut rows = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        rows.push(vec![format!("{:.0}", spec.bin_start(i)), fmt_bw(rate)]);
    }
    let headers = ["t(s)", "total bw (MB·hops/s)"];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&cfg, "demand_shift", &headers, &rows);

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
    use radar_simnet::NodeId as Node;
    let workload = "zipf";
    let mut out =
        String::from("== §5 update propagation: provider-update rate × replica caps ==\n");
    let mut rows = Vec::new();
    for (label, cap, rate) in [
        ("uncapped, no updates", None, 0.0),
        ("uncapped, 10 upd/s", None, 10.0),
        ("uncapped, 50 upd/s", None, 50.0),
        ("cap 2, 50 upd/s", Some(2u32), 50.0),
        ("cap 1 (migrate-only), 50 upd/s", Some(1), 50.0),
    ] {
        eprintln!("  [sim] updates  {label}");
        let mut builder = h.cfg.scenario().update_rate(rate);
        if let Some(max_replicas) = cap {
            let kinds = vec![ObjectKind::NonCommuting { max_replicas }; h.cfg.num_objects as usize];
            let primaries = (0..h.cfg.num_objects)
                .map(|i| Node::new((i % 53) as u16))
                .collect();
            builder = builder.catalog(Catalog::from_parts(kinds, 12 * 1024, primaries));
        }
        let scenario = builder.build().expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let total_traffic: f64 = r.total_bandwidth_sums().iter().sum();
        let update_share = if total_traffic > 0.0 {
            (r.update_bandwidth.total() / total_traffic * 100.0).max(0.0)
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            r.updates_propagated.to_string(),
            format!("{update_share:.2}%"),
            r.primary_reassignments.to_string(),
        ]);
    }
    let headers = [
        "configuration",
        "eq bw",
        "avg replicas",
        "updates",
        "update traffic share",
        "primary moves",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "updates", &headers, &rows);
    out.push_str(
        "\n(replica caps bound the update fan-out at the cost of serving reads from\n\
         farther away — §5's consistency/performance trade)\n",
    );
    out
}

/// Placement-policy head-to-head across §5 consistency mixes: the
/// paper's distribution algorithm against the availability-target and
/// cluster-replication baselines, each run under read-only, mixed, and
/// write-heavy catalogs with live provider updates. Besides the table,
/// writes the machine-readable `BENCH_policies.json` artifact at the
/// workspace root (next to the perf baselines) so CI can gate on the
/// sweep's presence and shape.
pub fn policies(h: &mut Harness) -> String {
    use radar_baselines::{AvailabilityPlacement, ClusterPlacement};
    use radar_core::{Catalog, ConsistencyMix};
    use radar_sim::obs::json::Value;
    use radar_sim::{PlacementPolicy, RadarPlacement, RadarSelection};

    let workload = "zipf";
    // Aggregate provider-update rate for the update-bearing mixes; zero
    // for read-only keeps that column the exact default configuration.
    let update_rate = 2.0;
    let mut out =
        String::from("== Placement policies × consistency mixes (BENCH_policies.json) ==\n");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for &mix in ConsistencyMix::ALL {
        for placement_name in ["radar", "availability", "cluster"] {
            eprintln!("  [sim] placement {placement_name} / {mix}");
            let mut builder = h.cfg.scenario();
            if mix != ConsistencyMix::ReadOnly {
                builder = builder.update_rate(update_rate).catalog(Catalog::with_mix(
                    h.cfg.num_objects,
                    12 * 1024,
                    53,
                    mix,
                ));
            }
            let scenario = builder.build().expect("valid scenario");
            let placement: Box<dyn PlacementPolicy + Send> = match placement_name {
                "radar" => Box::new(RadarPlacement::new()),
                "availability" => Box::new(AvailabilityPlacement::new()),
                _ => Box::new(ClusterPlacement::new()),
            };
            let r = Simulation::with_policies(
                scenario,
                make_workload(workload, h.cfg.num_objects, h.cfg.seed),
                Box::new(RadarSelection::new()),
                placement,
            )
            .run();
            let warmup = r.max_load.len() * 3 / 4;
            let peak_overhead = r.overhead_fractions().into_iter().fold(0.0f64, f64::max) * 100.0;
            // `.max(0.0)` normalizes the empty series' `-0.0` sum.
            let update_traffic: f64 = r.update_bandwidth.sums().iter().sum::<f64>().max(0.0);
            rows.push(vec![
                mix.name().to_string(),
                r.placement_policy.clone(),
                fmt_bw(r.equilibrium_bandwidth_rate()),
                format!("{:.1}", r.peak_load_after(warmup)),
                format!("{:.2}", r.equilibrium_avg_replicas()),
                format!("{peak_overhead:.3}%"),
                if r.update_lag_type1.count > 0 {
                    format!("{:.2}", r.update_lag_type1.mean)
                } else {
                    "-".into()
                },
                format!("{:.2}", update_traffic / 1e6),
            ]);
            runs.push(Value::Obj(vec![
                ("placement".into(), Value::Str(r.placement_policy.clone())),
                ("mix".into(), Value::Str(mix.name().into())),
                (
                    "eq_bandwidth_mb_hops_per_s".into(),
                    Value::Num(r.equilibrium_bandwidth_rate() / 1e6),
                ),
                (
                    "peak_load_final_quarter".into(),
                    Value::Num(r.peak_load_after(warmup)),
                ),
                (
                    "avg_replicas".into(),
                    Value::Num(r.equilibrium_avg_replicas()),
                ),
                (
                    "peak_relocation_overhead_pct".into(),
                    Value::Num(peak_overhead),
                ),
                ("relocations".into(), Value::UInt(r.relocations())),
                ("updates".into(), Value::UInt(r.updates_propagated)),
                (
                    "update_traffic_mb_hops".into(),
                    Value::Num(update_traffic / 1e6),
                ),
                (
                    "staleness_t1_mean_s".into(),
                    Value::Num(r.update_lag_type1.mean),
                ),
                (
                    "staleness_t1_max_s".into(),
                    Value::Num(r.update_lag_type1.max),
                ),
                ("wasted_deliveries".into(), Value::UInt(r.wasted_deliveries)),
            ]));
        }
    }
    let headers = [
        "mix",
        "placement",
        "eq bw (MB·hops/s)",
        "peak load (final quarter)",
        "avg replicas",
        "peak overhead",
        "t1 staleness (s)",
        "update traffic (MB·hops)",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "policies", &headers, &rows);

    let doc = Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("radar-bench-policies-v1".into()),
        ),
        (
            "config".into(),
            Value::Obj(vec![
                ("objects".into(), Value::UInt(h.cfg.num_objects as u64)),
                ("rate".into(), Value::Num(h.cfg.node_rate)),
                ("duration".into(), Value::Num(h.cfg.duration)),
                ("seed".into(), Value::UInt(h.cfg.seed)),
                ("workload".into(), Value::Str(workload.into())),
                ("update_rate".into(), Value::Num(update_rate)),
            ]),
        ),
        ("runs".into(), Value::Arr(runs)),
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
    let workload = "zipf";
    let mut out = String::from("== §2 redirector partitioning ==\n");
    let mut rows = Vec::new();
    for n in [1u16, 2, 4, 8] {
        eprintln!("  [sim] redirectors={n}");
        let scenario = h
            .cfg
            .scenario()
            .num_redirectors(n)
            .build()
            .expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let busiest = r.redirector_requests.values().copied().max().unwrap_or(0);
        let total: u64 = r.redirector_requests.values().sum();
        rows.push(vec![
            n.to_string(),
            fmt_ms(r.equilibrium_latency()),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            format!("{:.0}%", busiest as f64 / total.max(1) as f64 * 100.0),
        ]);
    }
    let headers = [
        "redirectors",
        "eq lat (ms)",
        "eq bw",
        "avg replicas",
        "busiest redirector share",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "redirectors", &headers, &rows);
    out
}

/// Host heterogeneity (§2 weights): double-capacity hosts get
/// proportionally higher watermarks and absorb proportionally more
/// replica mass, keeping every host under its own high watermark.
pub fn heterogeneous(h: &mut Harness) -> String {
    let workload = "hot-pages";
    let mut out = String::from("== §2 heterogeneous hosts (weights) ==\n");
    let mut rows = Vec::new();
    for (label, big_every) in [
        ("uniform 200 req/s", None),
        ("every 2nd host 400 req/s", Some(2)),
    ] {
        eprintln!("  [sim] capacities: {label}");
        let mut builder = h.cfg.scenario();
        let mut capacities = vec![200.0; 53];
        if let Some(step) = big_every {
            for i in (0..53).step_by(step) {
                capacities[i] = 400.0;
            }
            builder = builder.node_capacities(capacities.clone());
        }
        let scenario = builder.build().expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        let (mut big, mut small) = (0u64, 0u64);
        for reps in &r.final_replicas {
            for &(node, aff) in reps {
                if capacities[node as usize] > 200.0 {
                    big += aff as u64;
                } else {
                    small += aff as u64;
                }
            }
        }
        let warmup = r.max_load.len() * 3 / 4;
        rows.push(vec![
            label.to_string(),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.1}", r.peak_load_after(warmup)),
            big.to_string(),
            small.to_string(),
        ]);
    }
    let headers = [
        "capacities",
        "eq bw",
        "eq lat (ms)",
        "peak load (final)",
        "replicas on big hosts",
        "on standard hosts",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "heterogeneous", &headers, &rows);
    out
}

/// Per-link view of the bandwidth story: which backbone links dynamic
/// replication relieves. The paper's bytes×hops metric aggregates this
/// away; the trunk links are where the reduction actually lands.
pub fn links(h: &mut Harness) -> String {
    use radar_simnet::builders;
    let workload = "regional";
    let mut out = String::from("== Per-link traffic: where the bandwidth reduction lands ==\n");
    let dynamic = h.dynamic(workload).clone();
    let static_run = h.static_run(workload).clone();
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
        let (na, nb) = (radar_simnet::NodeId::new(a), radar_simnet::NodeId::new(b));
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
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "links", &headers, &rows);

    // Aggregate: trunk vs intra-region bytes.
    let mut sums = [[0.0f64; 2]; 2]; // [static/dynamic][trunk/intra]
    for (run, row) in [&static_run, &dynamic].iter().zip(0..) {
        for &((a, b), bytes) in &run.link_traffic {
            let trunk = topo.region(radar_simnet::NodeId::new(a))
                != topo.region(radar_simnet::NodeId::new(b));
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
    let workload = "zipf";
    let per_host_baseline = h.cfg.num_objects / 53 + 1;
    let mut out = format!(
        "== Storage pressure (initial placement needs ~{per_host_baseline} objects/host) ==\n"
    );
    let mut rows = Vec::new();
    for (label, limit) in [
        ("unbounded", None),
        ("3× initial", Some(per_host_baseline * 3)),
        ("2× initial", Some(per_host_baseline * 2)),
        ("1.25× initial", Some(per_host_baseline * 5 / 4)),
    ] {
        eprintln!("  [sim] storage  {label}");
        let mut builder = h.cfg.scenario();
        if let Some(l) = limit {
            builder = builder.storage_limit(l);
        }
        let scenario = builder.build().expect("valid scenario");
        let r = Simulation::new(
            scenario,
            make_workload(workload, h.cfg.num_objects, h.cfg.seed),
        )
        .run();
        rows.push(vec![
            label.to_string(),
            fmt_bw(r.equilibrium_bandwidth_rate()),
            fmt_ms(r.equilibrium_latency()),
            format!("{:.2}", r.equilibrium_avg_replicas()),
            r.relocations().to_string(),
        ]);
    }
    let headers = [
        "per-host storage",
        "eq bw",
        "eq lat (ms)",
        "avg replicas",
        "relocations",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "storage", &headers, &rows);
    out
}

/// Seed-variance check: Table 2's metrics across independent seeds, as
/// mean ± population standard deviation. Guards the headline numbers
/// against being artifacts of one random stream.
pub fn variance(h: &mut Harness) -> String {
    let seeds = 3u64;
    let mut out = format!("== Seed variance: Table 2 metrics over {seeds} seeds ==\n");
    let mut rows = Vec::new();
    for workload in crate::WORKLOADS {
        let mut bw = Vec::new();
        let mut replicas = Vec::new();
        let mut adjustment = Vec::new();
        for s in 0..seeds {
            eprintln!("  [sim] {workload} seed {s}");
            let mut cfg = h.cfg.clone();
            cfg.seed = h.cfg.seed + s * 1000;
            let r = crate::run_dynamic(&cfg, workload);
            bw.push(r.equilibrium_bandwidth_rate() / 1e6);
            replicas.push(r.equilibrium_avg_replicas());
            if let Some(a) = r.adjustment(EquilibriumSpec::default()) {
                adjustment.push(a.adjustment_time / 60.0);
            }
        }
        let stat = |xs: &[f64]| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            (mean, var.sqrt())
        };
        let (bw_m, bw_s) = stat(&bw);
        let (re_m, re_s) = stat(&replicas);
        let (ad_m, ad_s) = stat(&adjustment);
        rows.push(vec![
            workload.to_string(),
            format!("{bw_m:.1} ± {bw_s:.1}"),
            format!("{re_m:.2} ± {re_s:.2}"),
            format!("{ad_m:.0} ± {ad_s:.0}"),
        ]);
    }
    let headers = [
        "workload",
        "eq bw (MB·hops/s)",
        "avg replicas",
        "adjustment (min)",
    ];
    out.push_str(&format_table(&headers, &rows));
    write_csv(&h.cfg, "variance", &headers, &rows);
    out
}
