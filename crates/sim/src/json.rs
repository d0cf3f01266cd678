//! The [`RunReport`] → JSON mapping.
//!
//! Builds a [`Value`] tree (the workspace's one JSON model, in
//! [`radar_obs::json`]) in the report's field order and prints it in
//! the two-space-indent layout. Non-finite numbers print as `null`.

use crate::report::RunReport;
use radar_obs::json::Value;
use radar_obs::ProtocolHealth;

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn uint(v: u64) -> Value {
    Value::UInt(v)
}

fn summary(s: &radar_stats::Summary) -> Value {
    Value::Obj(vec![
        ("count".into(), uint(s.count)),
        ("mean".into(), num(s.mean)),
        ("std_dev".into(), num(s.std_dev)),
        ("min".into(), num(s.min)),
        ("max".into(), num(s.max)),
    ])
}

fn timeseries(ts: &radar_stats::TimeSeries) -> Value {
    Value::Obj(vec![
        ("bin_width".into(), num(ts.spec().width())),
        (
            "sums".into(),
            Value::Arr(ts.sums().iter().map(|&v| num(v)).collect()),
        ),
        (
            "counts".into(),
            Value::Arr(ts.counts().iter().map(|&c| uint(c)).collect()),
        ),
    ])
}

/// Serializes a [`ProtocolHealth`] snapshot as the `protocol_health`
/// report section (the content of `BENCH_protocol_health.json`).
pub fn protocol_health_json(h: &ProtocolHealth) -> Value {
    Value::Obj(vec![
        ("events_seen".into(), uint(h.events_seen)),
        ("active_replicas".into(), uint(h.active_replicas)),
        ("requests".into(), uint(h.requests)),
        ("served".into(), uint(h.served)),
        ("relocations".into(), uint(h.relocations)),
        ("bytes_moved".into(), uint(h.bytes_moved)),
        ("bytes_per_served".into(), num(h.bytes_per_served())),
        ("churn_window".into(), num(h.churn_window)),
        ("ping_pong".into(), uint(h.ping_pong)),
        ("replicate_drop".into(), uint(h.replicate_drop)),
        ("violations".into(), uint(h.violations)),
        (
            "violation_seqs".into(),
            Value::Arr(h.violation_seqs.iter().map(|&s| uint(s)).collect()),
        ),
        (
            "top_objects".into(),
            Value::Arr(
                h.top_objects
                    .iter()
                    .map(|&(object, c)| {
                        Value::Obj(vec![
                            ("object".into(), uint(object as u64)),
                            ("requests".into(), uint(c.requests)),
                            ("served".into(), uint(c.served)),
                            ("relocations".into(), uint(c.relocations)),
                            ("bytes_moved".into(), uint(c.bytes_moved)),
                            ("ping_pong".into(), uint(c.ping_pong)),
                            ("replicate_drop".into(), uint(c.replicate_drop)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl RunReport {
    /// Serializes the full report as pretty-printed JSON.
    ///
    /// The layout is stable: object keys follow the struct's field order,
    /// so two runs with identical results produce byte-identical output.
    pub fn to_json_pretty(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("policy".into(), Value::Str(self.policy.clone())),
            (
                "placement_policy".into(),
                Value::Str(self.placement_policy.clone()),
            ),
            (
                "dynamic_placement".into(),
                Value::Bool(self.dynamic_placement),
            ),
            ("duration".into(), num(self.duration)),
            ("total_requests".into(), uint(self.total_requests)),
            ("failed_requests".into(), uint(self.failed_requests)),
            ("primary_fallbacks".into(), uint(self.primary_fallbacks)),
            ("availability".into(), num(self.availability())),
            (
                "unavailable_object_seconds".into(),
                num(self.unavailable_object_seconds),
            ),
            ("re_replications".into(), uint(self.re_replications)),
            ("restore_time".into(), summary(&self.restore_time)),
            ("faults_injected".into(), uint(self.faults_injected)),
            ("latency".into(), summary(&self.latency)),
            ("latency_p50".into(), num(self.latency_p50)),
            ("latency_p99".into(), num(self.latency_p99)),
            (
                "client_bandwidth".into(),
                timeseries(&self.client_bandwidth),
            ),
            (
                "overhead_bandwidth".into(),
                timeseries(&self.overhead_bandwidth),
            ),
            (
                "update_bandwidth".into(),
                timeseries(&self.update_bandwidth),
            ),
            ("latency_series".into(), timeseries(&self.latency_series)),
            ("max_load".into(), timeseries(&self.max_load)),
            (
                "load_estimates".into(),
                Value::Arr(
                    self.load_estimates
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("t".into(), num(s.t)),
                                ("actual".into(), num(s.actual)),
                                ("upper".into(), num(s.upper)),
                                ("lower".into(), num(s.lower)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "replica_series".into(),
                Value::Arr(
                    self.replica_series
                        .iter()
                        .map(|c| {
                            Value::Obj(vec![
                                ("t".into(), num(c.t)),
                                ("avg_replicas".into(), num(c.avg_replicas)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("geo_migrations".into(), uint(self.geo_migrations)),
            ("geo_replications".into(), uint(self.geo_replications)),
            ("offload_migrations".into(), uint(self.offload_migrations)),
            (
                "offload_replications".into(),
                uint(self.offload_replications),
            ),
            ("drops".into(), uint(self.drops)),
            ("affinity_reductions".into(), uint(self.affinity_reductions)),
            (
                "final_replicas".into(),
                Value::Arr(
                    self.final_replicas
                        .iter()
                        .map(|replicas| {
                            Value::Arr(
                                replicas
                                    .iter()
                                    .map(|&(node, aff)| {
                                        Value::Arr(vec![uint(node as u64), uint(aff as u64)])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "relocation_log".into(),
                Value::Arr(
                    self.relocation_log
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("t".into(), num(e.t)),
                                ("host".into(), uint(e.host as u64)),
                                ("object".into(), uint(e.object as u64)),
                                (
                                    "target".into(),
                                    e.target.map(|n| uint(n as u64)).unwrap_or(Value::Null),
                                ),
                                ("action".into(), Value::Str(format!("{:?}", e.action))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "max_load_host".into(),
                Value::Arr(
                    self.max_load_host
                        .iter()
                        .map(|&(t, host, load)| {
                            Value::Arr(vec![num(t), uint(host as u64), num(load)])
                        })
                        .collect(),
                ),
            ),
            (
                "trace".into(),
                match &self.trace {
                    None => Value::Null,
                    Some(trace) => Value::Arr(
                        trace
                            .entries()
                            .iter()
                            .map(|e| {
                                Value::Arr(vec![
                                    num(e.t),
                                    uint(e.gateway as u64),
                                    uint(e.object as u64),
                                ])
                            })
                            .collect(),
                    ),
                },
            ),
            (
                "redirector_requests".into(),
                Value::Obj(
                    self.redirector_requests
                        .iter()
                        .map(|(&node, &count)| (node.to_string(), uint(count)))
                        .collect(),
                ),
            ),
            (
                "link_traffic".into(),
                Value::Arr(
                    self.link_traffic
                        .iter()
                        .map(|&((a, b), bytes)| {
                            Value::Arr(vec![uint(a as u64), uint(b as u64), num(bytes)])
                        })
                        .collect(),
                ),
            ),
            (
                "region_matrix".into(),
                Value::Arr(
                    self.region_matrix
                        .iter()
                        .map(|row| Value::Arr(row.iter().map(|&v| num(v)).collect()))
                        .collect(),
                ),
            ),
            ("redirect_delay".into(), summary(&self.redirect_delay)),
            ("queueing_delay".into(), summary(&self.queueing_delay)),
            ("response_travel".into(), summary(&self.response_travel)),
            ("updates_propagated".into(), uint(self.updates_propagated)),
            (
                "updates_by_class".into(),
                Value::Arr(self.updates_by_class.iter().map(|&c| uint(c)).collect()),
            ),
            ("update_deliveries".into(), uint(self.update_deliveries)),
            ("wasted_deliveries".into(), uint(self.wasted_deliveries)),
            ("updates_merged".into(), uint(self.updates_merged)),
            ("update_lag_type1".into(), summary(&self.update_lag_type1)),
            ("update_lag_type2".into(), summary(&self.update_lag_type2)),
        ];
        fields.push((
            "primary_reassignments".into(),
            uint(self.primary_reassignments),
        ));
        // Opt-in: only ledger-enabled runs carry the section, so reports
        // from runs without the ledger stay byte-identical.
        if let Some(health) = &self.protocol_health {
            fields.push(("protocol_health".into(), protocol_health_json(health)));
        }
        Value::Obj(fields).pretty()
    }
}
