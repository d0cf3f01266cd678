//! `radar perf` — render shard-profile telemetry from a report or a
//! bench artifact.
//!
//! Accepts either a `radar simulate --json --profile` report (a
//! `shard_profile` section), a `BENCH_profile.json` artifact from the
//! throughput bench (a `profiles` array), a bare profile object — or a
//! `BENCH_throughput.json` baseline, whose `scaling` section is
//! rendered as a speedup/efficiency table. Profile files print each
//! profile's utilization table with a top-stalls breakdown.
//!
//! Two options turn the renderer into a gate: `--check-coverage PCT`
//! errors unless every lane of every profile attributes at least `PCT`
//! percent of the run's wall-clock to named span categories (how CI
//! asserts the profiler itself stays honest), and
//! `--check-batch-p50 N` errors unless every profile recorded hand-offs
//! and the *lowest-shard-count* profile's batch-size p50 is at least
//! `N` items per message (how CI asserts the batched hand-off transport
//! has not silently degenerated to one message per decision; higher
//! shard counts split the same decision stream across more lanes, so
//! only the lowest count yields a stable amortization median).

use radar_obs::{BarrierCause, LaneProfile, Log2Histogram, ShardProfile, SpanKind};

use crate::args::Parsed;
use crate::json::Value;

const OPTIONS: &[&str] = &["top", "check-coverage", "check-batch-p50"];
const SWITCHES: &[&str] = &["help"];

/// Default number of stall rows in the breakdown.
const DEFAULT_TOP: usize = 8;

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, OPTIONS, SWITCHES).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Err(help());
    }
    let path = match parsed.positionals.as_slice() {
        [path] => path,
        [] => return Err(format!("perf expects a FILE argument\n\n{}", help())),
        extra => return Err(format!("perf takes one FILE, got {extra:?}")),
    };
    let top = parsed
        .get_parsed("top", DEFAULT_TOP, "a row count")
        .map_err(|e| e.to_string())?;
    let min_coverage: Option<f64> = match parsed.get("check-coverage") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--check-coverage expects a percentage, got {raw:?}"))?,
        ),
    };
    let min_batch_p50: Option<u64> = match parsed.get("check-batch-p50") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--check-batch-p50 expects an item count, got {raw:?}"))?,
        ),
    };

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Value::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let profiles = match extract_profiles(&value) {
        Ok(profiles) => profiles,
        Err(e) => {
            // Not a profile file — a throughput baseline's scaling
            // section still renders (but cannot satisfy profile gates).
            if let Some(table) = render_scaling(&value) {
                if min_coverage.is_some() || min_batch_p50.is_some() {
                    return Err(format!(
                        "{path}: the coverage/batch gates need shard profiles, \
                         but this file only has a throughput scaling section"
                    ));
                }
                return Ok(table);
            }
            return Err(format!("{path}: {e}"));
        }
    };

    let mut out = String::new();
    for (i, profile) in profiles.iter().enumerate() {
        if profiles.len() > 1 {
            out.push_str(&format!("== profile {} ==\n", i + 1));
        }
        out.push_str(&profile.render(top));
        if profiles.len() > 1 && i + 1 < profiles.len() {
            out.push('\n');
        }
    }
    if let Some(pct) = min_coverage {
        for (i, profile) in profiles.iter().enumerate() {
            for (label, lane) in profile.lanes() {
                let cov = 100.0 * profile.coverage(lane);
                if cov < pct {
                    return Err(format!(
                        "coverage check failed: profile {} lane {label} attributes \
                         {cov:.1}% of wall-clock (< {pct}%)",
                        i + 1
                    ));
                }
            }
        }
        out.push_str(&format!(
            "coverage check passed: every lane ≥ {pct}% attributed\n"
        ));
    }
    if let Some(min) = min_batch_p50 {
        for (i, profile) in profiles.iter().enumerate() {
            if profile.handoff_ns.count() == 0 {
                return Err(format!(
                    "batch check failed: profile {} recorded no hand-offs \
                     (the hand-off histogram is empty)",
                    i + 1
                ));
            }
        }
        // The p50 bar applies to the lowest-shard-count profile only:
        // it is the canonical amortization measurement. Higher counts
        // split the same decision stream ~1/N per worker lane, so
        // their per-message medians shrink toward 1 even when the
        // transport is healthy — gating them would measure the
        // workload's parallel width, not the batching.
        let (i, reference) = profiles
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.shards)
            .expect("extract_profiles rejects empty files");
        let p50 = reference.batch_items.percentile(0.50).unwrap_or(0);
        if p50 < min {
            return Err(format!(
                "batch check failed: profile {} ({} shards) batch-size p50 \
                 ≤{p50} item(s)/message is below the required {min} — the \
                 batched hand-off has degenerated toward one message per \
                 decision",
                i + 1,
                reference.shards
            ));
        }
        out.push_str(&format!(
            "batch check passed: {}-shard batch-size p50 ≥ {min}, every \
             profile recorded hand-offs\n",
            reference.shards
        ));
    }
    Ok(out)
}

/// Renders the `scaling` section of a `BENCH_throughput.json` baseline
/// as a per-shard-count table with the derived speedup/efficiency
/// columns. `None` when the document has no such section.
fn render_scaling(value: &Value) -> Option<String> {
    let Value::Obj(members) = value.get("scaling")? else {
        return None;
    };
    let mut out = String::from("throughput scaling");
    if let Some(cores) = value
        .get("config")
        .and_then(|c| c.get("host_cores"))
        .and_then(Value::as_u64)
    {
        out.push_str(&format!(" — measured on {cores} host core(s)"));
    }
    out.push('\n');
    out.push_str(&format!(
        "  {:<7} {:>14} {:>10} {:>11}\n",
        "shards", "events/sec", "speedup", "efficiency"
    ));
    let mut rows = 0;
    for (key, val) in members {
        let Some(n) = key
            .strip_prefix("shard")
            .and_then(|rest| rest.strip_suffix("_events_per_sec"))
        else {
            continue;
        };
        let eps = val.as_f64()?;
        let lookup = |suffix: &str| {
            value
                .get("scaling")
                .and_then(|s| s.get(&format!("shard{n}_{suffix}")))
                .and_then(Value::as_f64)
        };
        let speedup = match lookup("speedup_vs_serial") {
            Some(s) => format!("{s:.2}×"),
            None if n == "1" => "1.00×".to_string(), // the serial reference
            None => "-".to_string(),
        };
        let efficiency = match lookup("parallel_efficiency") {
            Some(e) => format!("{:.1}%", 100.0 * e),
            None if n == "1" => "100.0%".to_string(),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {n:<7} {eps:>14.1} {speedup:>10} {efficiency:>11}\n"
        ));
        rows += 1;
    }
    (rows > 0).then_some(out)
}

/// Pulls every profile object out of whichever container the file is:
/// a report (`shard_profile`), a bench artifact (`profiles`), or a
/// bare profile object (`lanes` at top level).
fn extract_profiles(value: &Value) -> Result<Vec<ShardProfile>, String> {
    if let Some(section) = value.get("shard_profile") {
        return Ok(vec![parse_profile(section)?]);
    }
    if let Some(list) = value.get("profiles").and_then(Value::as_array) {
        if list.is_empty() {
            return Err("the `profiles` array is empty".to_string());
        }
        return list.iter().map(parse_profile).collect();
    }
    if value.get("lanes").is_some() {
        return Ok(vec![parse_profile(value)?]);
    }
    Err(
        "no shard profile found — run `radar simulate --profile --shards N --json` \
         or point at a BENCH_profile.json artifact"
            .to_string(),
    )
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("profile field {key:?} is missing or not an integer"))
}

fn parse_histogram(v: &Value, key: &str) -> Result<Log2Histogram, String> {
    let h = v
        .get(key)
        .ok_or_else(|| format!("profile field {key:?} is missing"))?;
    let buckets: Vec<u64> = h
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{key}.buckets is missing"))?
        .iter()
        .map(|b| {
            b.as_u64()
                .ok_or_else(|| format!("{key}.buckets holds a non-integer"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Log2Histogram::from_parts(
        need_u64(h, "count")?,
        need_u64(h, "sum")?,
        need_u64(h, "max")?,
        &buckets,
    ))
}

fn parse_lane(v: &Value) -> Result<(String, LaneProfile), String> {
    let label = v
        .get("lane")
        .and_then(Value::as_str)
        .ok_or("lane entry is missing its `lane` label")?
        .to_string();
    // A lane written by an older build (candidate-cache tallies) or a
    // newer one must not be half-read as if it were this schema.
    if let Value::Obj(members) = v {
        if let Some((name, _)) = members
            .iter()
            .find(|(name, _)| !matches!(name.as_str(), "lane" | "spans_ns" | "items"))
        {
            return Err(format!(
                "lane {label}: unknown field {name:?} (profile written by a different \
                 version; regenerate it)"
            ));
        }
    }
    let mut lane = LaneProfile {
        items: need_u64(v, "items")?,
        ..LaneProfile::default()
    };
    let spans = v
        .get("spans_ns")
        .ok_or_else(|| format!("lane {label} is missing spans_ns"))?;
    match spans {
        Value::Obj(members) => {
            for (name, ns) in members {
                let kind = SpanKind::from_str_opt(name)
                    .ok_or_else(|| format!("lane {label}: unknown span category {name:?}"))?;
                let ns = ns
                    .as_u64()
                    .ok_or_else(|| format!("lane {label}: span {name:?} is not an integer"))?;
                lane.add_span(kind, ns);
            }
        }
        _ => return Err(format!("lane {label}: spans_ns is not an object")),
    }
    Ok((label, lane))
}

fn parse_profile(v: &Value) -> Result<ShardProfile, String> {
    let mut profile = ShardProfile {
        shards: need_u64(v, "shards")? as usize,
        wall_ns: need_u64(v, "wall_ns")?,
        handoff_ns: parse_histogram(v, "handoff_ns")?,
        batch_items: parse_histogram(v, "batch_items")?,
        ..ShardProfile::default()
    };
    let lanes = v
        .get("lanes")
        .and_then(Value::as_array)
        .ok_or("profile is missing its `lanes` array")?;
    for entry in lanes {
        let (label, lane) = parse_lane(entry)?;
        if label == "sequencer" {
            profile.sequencer = lane;
        } else {
            // Worker lanes are serialized in shard order.
            profile.workers.push(lane);
        }
    }
    let barriers = v.get("barriers").ok_or("profile is missing `barriers`")?;
    for cause in BarrierCause::ALL {
        profile.barriers[cause as usize] = need_u64(barriers, cause.as_str())?;
    }
    Ok(profile)
}

fn help() -> String {
    "radar perf — render shard-profile telemetry from a profiled run\n\
     \n\
     USAGE:\n\
     \x20 radar perf FILE [--top N] [--check-coverage PCT] [--check-batch-p50 N]\n\
     \n\
     FILE is a `radar simulate --profile --shards N --json` report, a\n\
     BENCH_profile.json bench artifact, a bare profile object, or a\n\
     BENCH_throughput.json baseline (its scaling section is rendered as\n\
     a speedup/efficiency table).\n\
     \n\
     OPTIONS:\n\
     \x20 --top N               stall rows in the breakdown (default 8)\n\
     \x20 --check-coverage PCT  error unless every lane attributes at least\n\
     \x20                       PCT percent of wall-clock to named categories\n\
     \x20 --check-batch-p50 N   error unless every profile recorded hand-offs\n\
     \x20                       and the lowest-shard-count profile's batch-size\n\
     \x20                       p50 is at least N items per message\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> ShardProfile {
        let mut p = ShardProfile {
            shards: 2,
            wall_ns: 1_000_000,
            ..ShardProfile::default()
        };
        p.sequencer.add_span(SpanKind::Busy, 300_000);
        p.sequencer.add_span(SpanKind::ChannelWait, 690_000);
        p.sequencer.items = 500;
        let mut w = LaneProfile::default();
        w.add_span(SpanKind::Busy, 100_000);
        w.add_span(SpanKind::Idle, 890_000);
        w.items = 200;
        p.workers = vec![w, w];
        for _ in 0..400 {
            p.handoff_ns.record(58_000);
        }
        p.batch_items.record(3);
        p.barriers[BarrierCause::Placement as usize] = 4;
        p.barriers[BarrierCause::Fault as usize] = 1;
        p
    }

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("radar-perf-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path
    }

    #[test]
    fn profile_round_trips_through_json_and_renders() {
        let profile = sample_profile();
        let json = format!(
            "{{\"total_requests\": 1,\n\"shard_profile\": {}\n}}",
            radar_sim::shard_profile_json(&profile).pretty()
        );
        let reparsed = extract_profiles(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(reparsed, vec![profile.clone()]);

        let path = write_temp("report.json", &json);
        let out = command(&[path.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("sequencer"), "{out}");
        assert!(out.contains("worker-1"), "{out}");
        assert!(out.contains("channel-wait"), "{out}");
        assert!(out.contains("hand-off latency"), "{out}");
        assert!(out.contains("placement 4"), "{out}");
    }

    #[test]
    fn lane_from_the_candidate_cache_schema_is_a_named_error() {
        // A BENCH_profile.json written before the candidate cache was
        // removed carries two tallies per lane; reading it as the
        // current schema would silently drop them.
        let json = format!(
            "{{\"shard_profile\": {}}}",
            radar_sim::shard_profile_json(&sample_profile()).pretty()
        )
        .replace("\"items\": 200", "\"items\": 200, \"cache_hits\": 150");
        let path = write_temp("old-schema.json", &json);
        let err = command(&[path.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("worker-0"), "{err}");
        assert!(err.contains("unknown field \"cache_hits\""), "{err}");
    }

    #[test]
    fn bench_artifact_with_multiple_profiles_renders_each() {
        let profile = sample_profile();
        let json = format!(
            "{{\"config\": {{\"seed\": 42}}, \"profiles\": [{p}, {p}]}}",
            p = radar_sim::shard_profile_json(&profile).pretty()
        );
        let path = write_temp("bench.json", &json);
        let out = command(&[path.to_str().unwrap(), "--top", "3"]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("== profile 1 =="), "{out}");
        assert!(out.contains("== profile 2 =="), "{out}");
    }

    #[test]
    fn coverage_gate_passes_and_fails() {
        let profile = sample_profile();
        let json = format!(
            "{{\"shard_profile\": {}}}",
            radar_sim::shard_profile_json(&profile).pretty()
        );
        let path = write_temp("gate.json", &json);
        let ok = command(&[path.to_str().unwrap(), "--check-coverage", "95"]).unwrap();
        assert!(ok.contains("coverage check passed"), "{ok}");
        let err = command(&[path.to_str().unwrap(), "--check-coverage", "99.9"]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("coverage check failed"), "{err}");
        assert!(err.contains("sequencer"), "{err}");
    }

    #[test]
    fn batch_p50_gate_passes_and_fails() {
        // sample_profile records one batch of 3 items and 400 hand-offs.
        let profile = sample_profile();
        let json = format!(
            "{{\"shard_profile\": {}}}",
            radar_sim::shard_profile_json(&profile).pretty()
        );
        let path = write_temp("batch-gate.json", &json);
        let ok = command(&[path.to_str().unwrap(), "--check-batch-p50", "2"]).unwrap();
        assert!(ok.contains("batch check passed"), "{ok}");
        let err = command(&[path.to_str().unwrap(), "--check-batch-p50", "16"]).unwrap_err();
        assert!(err.contains("batch check failed"), "{err}");
        std::fs::remove_file(&path).ok();

        // In a multi-profile artifact the p50 bar reads the
        // lowest-shard-count profile; a higher count whose batches
        // thinned to 1 item/message must not trip the gate.
        let mut thin = sample_profile();
        thin.shards = 8;
        thin.batch_items = Log2Histogram::default();
        for _ in 0..10 {
            thin.batch_items.record(1);
        }
        let json = format!(
            "{{\"config\": {{}}, \"profiles\": [{}, {}]}}",
            radar_sim::shard_profile_json(&profile).pretty(),
            radar_sim::shard_profile_json(&thin).pretty()
        );
        let path = write_temp("batch-multi.json", &json);
        let ok = command(&[path.to_str().unwrap(), "--check-batch-p50", "2"]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(ok.contains("2-shard batch-size p50"), "{ok}");

        // A profile that never recorded a hand-off fails regardless of
        // the threshold: an empty histogram means the sharded loop
        // deferred nothing, which the gate must not silently pass.
        let empty = ShardProfile {
            shards: 2,
            wall_ns: 1,
            workers: vec![LaneProfile::default(); 2],
            ..ShardProfile::default()
        };
        let json = format!(
            "{{\"shard_profile\": {}}}",
            radar_sim::shard_profile_json(&empty).pretty()
        );
        let path = write_temp("batch-empty.json", &json);
        let err = command(&[path.to_str().unwrap(), "--check-batch-p50", "1"]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no hand-offs"), "{err}");
    }

    #[test]
    fn throughput_baseline_renders_scaling_table() {
        let json = "{\n  \"config\": {\"seed\": 42, \"host_cores\": 4},\n  \
             \"throughput\": {\"events\": 100, \"events_per_sec\": 1000.0},\n  \
             \"scaling\": {\n    \"shard1_events_per_sec\": 1000.0,\n    \
             \"shard4_events_per_sec\": 2000.0,\n    \
             \"shard4_speedup_vs_serial\": 2.0,\n    \
             \"shard4_parallel_efficiency\": 0.5\n  }\n}\n";
        let path = write_temp("scaling.json", json);
        let out = command(&[path.to_str().unwrap()]).unwrap();
        assert!(out.contains("4 host core(s)"), "{out}");
        assert!(out.contains("2.00×"), "{out}");
        assert!(out.contains("50.0%"), "{out}");
        assert!(out.contains("1.00×"), "{out}");
        // Profile gates cannot run against a scaling-only file.
        let err = command(&[path.to_str().unwrap(), "--check-batch-p50", "2"]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("scaling section"), "{err}");
    }

    #[test]
    fn unprofiled_report_is_a_clear_error() {
        let path = write_temp("plain.json", "{\"total_requests\": 5}");
        let err = command(&[path.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no shard profile found"), "{err}");
    }

    #[test]
    fn help_and_bad_args() {
        assert!(command(&["--help"]).unwrap_err().contains("radar perf"));
        assert!(command(&[]).unwrap_err().contains("FILE"));
        assert!(command(&["a", "b"]).unwrap_err().contains("one FILE"));
    }
}
