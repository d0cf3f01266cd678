//! Human-readable run summaries.

use radar_sim::RunReport;

/// Renders the headline numbers of a finished run.
pub fn summary(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "workload {} | policy {} | placement {} ({})\n",
        report.workload,
        report.policy,
        report.placement_policy,
        if report.dynamic_placement {
            "dynamic"
        } else {
            "static"
        }
    ));
    out.push_str(&format!(
        "requests           {:>12}\n",
        report.total_requests
    ));
    out.push_str(&format!(
        "latency            {:>9.1} ms mean | {:.1} ms p50 | {:.1} ms p99\n",
        report.latency.mean * 1e3,
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
    ));
    out.push_str(&format!(
        "  breakdown        {:>9.1} ms redirect | {:.1} ms queueing | {:.1} ms travel\n",
        report.redirect_delay.mean * 1e3,
        report.queueing_delay.mean * 1e3,
        report.response_travel.mean * 1e3,
    ));
    let initial = report.initial_bandwidth_rate();
    let equilibrium = report.equilibrium_bandwidth_rate();
    out.push_str(&format!(
        "bandwidth          {:>9.2} MB·hops/s initial → {:.2} at equilibrium ({:+.1}%)\n",
        initial / 1e6,
        equilibrium / 1e6,
        if initial > 0.0 {
            (equilibrium - initial) / initial * 100.0
        } else {
            0.0
        }
    ));
    let peak_overhead = report
        .overhead_fractions()
        .into_iter()
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "relocation traffic {:>9.2}% of total at peak\n",
        peak_overhead * 100.0
    ));
    out.push_str(&format!(
        "replicas/object    {:>9.2} at equilibrium\n",
        report.equilibrium_avg_replicas()
    ));
    out.push_str(&format!(
        "relocations        {:>9} geo-migrations | {} geo-replications | {} offload | {} drops\n",
        report.geo_migrations,
        report.geo_replications,
        report.offload_migrations + report.offload_replications,
        report.drops,
    ));
    if report.updates_propagated > 0 {
        out.push_str(&format!(
            "updates            {:>9} propagated | {} primary moves\n",
            report.updates_propagated, report.primary_reassignments
        ));
        let [t1, t2, t3] = report.updates_by_class;
        out.push_str(&format!(
            "  by class         {:>9} type-1 | {} type-2 | {} type-3\n",
            t1, t2, t3
        ));
        out.push_str(&format!(
            "  deliveries       {:>9} applied | {} merged (type-2) | {} wasted\n",
            report.update_deliveries, report.updates_merged, report.wasted_deliveries
        ));
        if report.update_lag_type1.count > 0 || report.update_lag_type2.count > 0 {
            out.push_str(&format!(
                "  staleness        {:>9.2} s mean type-1 lag (max {:.2}) | {:.2} s mean type-2\n",
                report.update_lag_type1.mean,
                report.update_lag_type1.max,
                report.update_lag_type2.mean,
            ));
        }
        let update_total: f64 = report.update_bandwidth.sums().iter().sum();
        out.push_str(&format!(
            "  propagation      {:>9.2} MB·hops of update traffic\n",
            update_total / 1e6
        ));
    }
    if report.faults_injected > 0 {
        out.push_str(&format!(
            "faults             {:>9} injected | {} failed requests | {:.4}% availability\n",
            report.faults_injected,
            report.failed_requests,
            report.availability() * 100.0
        ));
        out.push_str(&format!(
            "  degradation      {:>9.1} object-seconds unavailable | {} re-replications | {:.1} s mean restore\n",
            report.unavailable_object_seconds,
            report.re_replications,
            report.restore_time.mean,
        ));
    }
    match report.adjustment() {
        Some(adj) => out.push_str(&format!(
            "adjustment time    {:>9.1} min\n",
            adj.adjustment_time / 60.0
        )),
        None => out.push_str("adjustment time        (did not settle)\n"),
    }
    let warmup = report.max_load.len() * 3 / 4;
    out.push_str(&format!(
        "peak host load     {:>9.1} req/s overall | {:.1} in the final quarter\n",
        report.peak_load(),
        report.peak_load_after(warmup)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_sim::{Scenario, Simulation};
    use radar_workload::ZipfReeds;

    #[test]
    fn summary_contains_headlines() {
        let scenario = Scenario::builder()
            .num_objects(60)
            .node_request_rate(1.0)
            .duration(60.0)
            .build()
            .expect("valid scenario");
        let report = Simulation::new(scenario, Box::new(ZipfReeds::new(60))).run();
        let text = summary(&report);
        for needle in [
            "workload zipf",
            "policy radar",
            "requests",
            "latency",
            "bandwidth",
            "replicas/object",
            "peak host load",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
