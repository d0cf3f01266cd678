//! A dependency-free JSON emitter for [`RunReport`].
//!
//! The workspace builds fully offline, so report serialization is
//! hand-rolled: a tiny [`Json`] document model plus a pretty printer that
//! matches the conventional two-space-indent layout. Numbers use Rust's
//! shortest-roundtrip `f64` formatting; non-finite values become `null`.

use crate::report::RunReport;
use radar_obs::ProtocolHealth;

/// A JSON document: the minimal tree the report emitter needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values print as `null`).
    Num(f64),
    /// An unsigned integer, printed without a decimal point.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders with two-space indentation (serde_json "pretty" layout).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(v) => out.push_str(&format!("{v}")),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn uint(v: u64) -> Json {
    Json::UInt(v)
}

fn summary(s: &radar_stats::Summary) -> Json {
    Json::Obj(vec![
        ("count".into(), uint(s.count)),
        ("mean".into(), num(s.mean)),
        ("std_dev".into(), num(s.std_dev)),
        ("min".into(), num(s.min)),
        ("max".into(), num(s.max)),
    ])
}

fn timeseries(ts: &radar_stats::TimeSeries) -> Json {
    Json::Obj(vec![
        ("bin_width".into(), num(ts.spec().width())),
        (
            "sums".into(),
            Json::Arr(ts.sums().iter().map(|&v| num(v)).collect()),
        ),
        (
            "counts".into(),
            Json::Arr(ts.counts().iter().map(|&c| uint(c)).collect()),
        ),
    ])
}

/// Serializes a [`ProtocolHealth`] snapshot as the `protocol_health`
/// report section (also reused by the check-suite's deterministic
/// `BENCH_protocol_health.json` artifact, which is why it is public).
pub fn protocol_health_json(h: &ProtocolHealth) -> Json {
    Json::Obj(vec![
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
            Json::Arr(h.violation_seqs.iter().map(|&s| uint(s)).collect()),
        ),
        (
            "top_objects".into(),
            Json::Arr(
                h.top_objects
                    .iter()
                    .map(|&(object, c)| {
                        Json::Obj(vec![
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
        let mut fields: Vec<(String, Json)> = vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("policy".into(), Json::Str(self.policy.clone())),
            (
                "placement_policy".into(),
                Json::Str(self.placement_policy.clone()),
            ),
            (
                "dynamic_placement".into(),
                Json::Bool(self.dynamic_placement),
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
                Json::Arr(
                    self.load_estimates
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
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
                Json::Arr(
                    self.replica_series
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
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
                Json::Arr(
                    self.final_replicas
                        .iter()
                        .map(|replicas| {
                            Json::Arr(
                                replicas
                                    .iter()
                                    .map(|&(node, aff)| {
                                        Json::Arr(vec![uint(node as u64), uint(aff as u64)])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "relocation_log".into(),
                Json::Arr(
                    self.relocation_log
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("t".into(), num(e.t)),
                                ("host".into(), uint(e.host as u64)),
                                ("object".into(), uint(e.object as u64)),
                                (
                                    "target".into(),
                                    e.target.map(|n| uint(n as u64)).unwrap_or(Json::Null),
                                ),
                                ("action".into(), Json::Str(format!("{:?}", e.action))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "max_load_host".into(),
                Json::Arr(
                    self.max_load_host
                        .iter()
                        .map(|&(t, host, load)| {
                            Json::Arr(vec![num(t), uint(host as u64), num(load)])
                        })
                        .collect(),
                ),
            ),
            (
                "trace".into(),
                match &self.trace {
                    None => Json::Null,
                    Some(trace) => Json::Arr(
                        trace
                            .entries()
                            .iter()
                            .map(|e| {
                                Json::Arr(vec![
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
                Json::Obj(
                    self.redirector_requests
                        .iter()
                        .map(|(&node, &count)| (node.to_string(), uint(count)))
                        .collect(),
                ),
            ),
            (
                "link_traffic".into(),
                Json::Arr(
                    self.link_traffic
                        .iter()
                        .map(|&((a, b), bytes)| {
                            Json::Arr(vec![uint(a as u64), uint(b as u64), num(bytes)])
                        })
                        .collect(),
                ),
            ),
            (
                "region_matrix".into(),
                Json::Arr(
                    self.region_matrix
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|&v| num(v)).collect()))
                        .collect(),
                ),
            ),
            ("redirect_delay".into(), summary(&self.redirect_delay)),
            ("queueing_delay".into(), summary(&self.queueing_delay)),
            ("response_travel".into(), summary(&self.response_travel)),
            ("updates_propagated".into(), uint(self.updates_propagated)),
            (
                "updates_by_class".into(),
                Json::Arr(self.updates_by_class.iter().map(|&c| uint(c)).collect()),
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
        Json::Obj(fields).pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_layout() {
        let doc = Json::Obj(vec![
            ("a\"b".into(), Json::Str("x\ny".into())),
            ("n".into(), Json::Num(1.5)),
            ("i".into(), Json::UInt(7)),
            ("z".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let s = doc.pretty();
        assert!(s.contains("\"a\\\"b\": \"x\\ny\""));
        assert!(s.contains("\"n\": 1.5"));
        assert!(s.contains("\"i\": 7"));
        assert!(s.contains("\"empty\": []"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }
}
