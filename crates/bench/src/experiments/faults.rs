//! Availability under injected faults: host crashes, a network
//! partition, and link degradation, with the protocol's graceful
//! degradation (skip dead replicas, fall back to the primary,
//! re-replicate on declared death) measured against a fault-free run.

use radar_sim::FaultSpec;
use radar_simnet::builders;

use super::{simulation, Column, Harness, EQ_BW};

/// Builds the fault schedules the experiment compares, scaled to the
/// configured duration. Link endpoints are real UUNET links so the
/// schedules validate against the default topology.
fn schedules(duration: f64) -> Vec<(&'static str, FaultSpec)> {
    let topo = builders::uunet();
    let links = topo.links();
    let (a1, b1) = links[0];
    let (a2, b2) = links[links.len() / 2];
    let crash = FaultSpec::new()
        // One host fails mid-run and recovers after 20% of the run.
        .host_down(5, 0.3 * duration, Some(0.5 * duration));
    let crash_permanent = FaultSpec::new()
        .with_declare_dead_after(0.02 * duration)
        // Recovers...
        .host_down(5, 0.3 * duration, Some(0.5 * duration))
        // ...and a second host is lost for good: declared dead, its
        // objects re-replicated from their primaries.
        .host_down(12, 0.45 * duration, None);
    let partition = FaultSpec::new()
        .with_declare_dead_after(0.02 * duration)
        .host_down(5, 0.3 * duration, Some(0.5 * duration))
        .host_down(12, 0.45 * duration, None)
        // A backbone link drops (reachability recomputed both times)...
        .link_down(
            a1.index() as u16,
            b1.index() as u16,
            0.35 * duration,
            Some(0.65 * duration),
        )
        // ...and another runs at 4× its normal latency for a while.
        .link_slow(
            a2.index() as u16,
            b2.index() as u16,
            4.0,
            0.5 * duration,
            Some(0.8 * duration),
        );
    vec![
        ("fault-free", FaultSpec::new()),
        ("crash+recover", crash),
        ("+permanent loss", crash_permanent),
        ("+partition+slow", partition),
    ]
}

/// Availability table: request success rate and recovery metrics for
/// increasingly hostile fault schedules, all at the paper's scale and
/// workload.
pub fn faults(h: &mut Harness) -> String {
    let workload = "zipf";
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for (label, spec) in schedules(h.cfg.duration) {
        let scenario = h.cfg.scenario().faults(spec);
        let simulation = simulation(scenario, workload, "radar", "radar");
        jobs.push((format!("faults   {label}"), simulation));
        labels.push(label);
    }
    let columns: [Column; 7] = [
        ("availability %", &|r| {
            format!("{:.5}", r.availability() * 100.0)
        }),
        ("failed reqs", &|r| r.failed_requests.to_string()),
        ("unavail obj-s", &|r| {
            format!("{:.1}", r.unavailable_object_seconds)
        }),
        ("re-replications", &|r| r.re_replications.to_string()),
        ("mean restore (s)", &|r| {
            format!("{:.1}", r.restore_time.mean)
        }),
        ("primary fallbacks", &|r| r.primary_fallbacks.to_string()),
        EQ_BW,
    ];
    let reports = Harness::sweep(jobs);
    let runs = labels.into_iter().zip(&reports);
    format!(
        "== Availability under injected faults ({workload}) ==\n{}",
        h.runs_table("faults", "fault schedule", runs, &columns)
    )
}
