//! End-to-end tests of the `radar` CLI through its library entry point.

use radar_cli::json::Value;
use radar_cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn help_paths() {
    let out = run(&args(&["--help"])).unwrap();
    assert!(out.contains("USAGE"));
    let err = run(&args(&["bogus"])).unwrap_err();
    assert!(err.contains("unknown command"));
    // Removed surface fails like any other unknown name, listing what
    // exists.
    let err = run(&args(&["perf", "BENCH_profile.json"])).unwrap_err();
    assert!(err.contains("unknown command \"perf\"") && err.contains("radar simulate"));
    let err = run(&args(&["simulate", "--shards", "2"])).unwrap_err();
    assert!(err.contains("unknown argument \"--shards\"") && err.contains("--seed N"));
    let out = run(&args(&[])).unwrap();
    assert!(out.contains("radar simulate"));
}

#[test]
fn simulate_text_summary() {
    let out = run(&args(&[
        "simulate",
        "--objects",
        "100",
        "--rate",
        "2",
        "--duration",
        "120",
        "--workload",
        "hot-pages",
    ]))
    .unwrap();
    assert!(out.contains("workload hot-pages"), "{out}");
    assert!(out.contains("replicas/object"));
}

#[test]
fn simulate_json_report() {
    let out = run(&args(&[
        "simulate",
        "--objects",
        "60",
        "--rate",
        "1",
        "--duration",
        "60",
        "--json",
    ]))
    .unwrap();
    let value = Value::parse(&out).expect("valid JSON");
    assert_eq!(value["workload"], "zipf");
    assert!(value["total_requests"].as_u64().unwrap() > 0);
    assert!(value["final_replicas"].as_array().unwrap().len() == 60);
}

/// The JSON report of a 200-object, 600-s, seed-1 `simulate` run with
/// `extra` flags.
fn report_with(extra: &[&str]) -> Value {
    let base = [
        "simulate",
        "--objects",
        "200",
        "--duration",
        "600",
        "--seed",
        "1",
        "--json",
    ];
    let out = run(&args(&[&base[..], extra].concat())).unwrap();
    Value::parse(&out).expect("valid JSON")
}

#[test]
fn simulate_storage_limit_caps_objects_per_host() {
    // Without the flag the busiest host ends with 69 distinct objects.
    let value = report_with(&["--storage-limit", "5"]);
    let final_replicas = value["final_replicas"].as_array().unwrap();
    assert_eq!(final_replicas.len(), 200);
    let mut per_host = std::collections::BTreeMap::<u64, usize>::new();
    for replicas in final_replicas {
        for replica in replicas.as_array().unwrap() {
            let host = replica.as_array().unwrap()[0].as_u64().unwrap();
            *per_host.entry(host).or_default() += 1;
        }
    }
    let busiest = per_host.values().copied().max().unwrap();
    assert!(busiest <= 5, "a host holds {busiest} objects");
}

#[test]
fn simulate_redirectors_partition_the_requests() {
    let value = report_with(&["--redirectors", "4"]);
    let Value::Obj(homes) = &value["redirector_requests"] else {
        panic!("redirector_requests is an object");
    };
    assert_eq!(homes.len(), 4, "{homes:?}");
}

#[test]
fn simulate_static_never_relocates() {
    let value = report_with(&["--static"]);
    assert!(matches!(value["dynamic_placement"], Value::Bool(false)));
    assert!(value["relocation_log"].as_array().unwrap().is_empty());
}

#[test]
fn simulate_record_then_replay_round_trip() {
    let trace_path = std::env::temp_dir().join("radar-cli-roundtrip.trace");
    let p = trace_path.to_str().unwrap();
    let original = run(&args(&[
        "simulate",
        "--objects",
        "80",
        "--rate",
        "2",
        "--duration",
        "90",
        "--seed",
        "9",
        "--record-trace",
        p,
        "--json",
    ]))
    .unwrap();
    let replayed = run(&args(&[
        "simulate",
        "--objects",
        "80",
        "--rate",
        "2",
        "--duration",
        "90",
        "--seed",
        "9",
        "--replay",
        p,
        "--json",
    ]))
    .unwrap();
    let a = Value::parse(&original).unwrap();
    let b = Value::parse(&replayed).unwrap();
    assert_eq!(a["total_requests"], b["total_requests"]);
    assert_eq!(a["client_bandwidth"], b["client_bandwidth"]);
    assert_eq!(b["workload"], "replay");
    // The trace file itself passes validation.
    let out = run(&args(&["trace", "validate", p])).unwrap();
    assert!(out.contains("valid"));
    // An unknown name under --replay is named, not reported as a replay
    // limit.
    let replaying = |flag, name| run(&args(&["simulate", "--replay", p, flag, name])).unwrap_err();
    assert!(replaying("--policy", "psychic").starts_with("unknown policy"));
    assert!(replaying("--placement", "psychic").starts_with("unknown placement"));
    assert!(replaying("--policy", "closest").contains("only the radar policy"));
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn simulate_rejects_bad_flags() {
    assert!(run(&args(&["simulate", "--objects", "zero"]))
        .unwrap_err()
        .contains("expected an object count"));
    assert!(run(&args(&["simulate", "--workload", "martian"]))
        .unwrap_err()
        .contains("unknown workload"));
    assert!(run(&args(&["simulate", "--watermarks", "90"]))
        .unwrap_err()
        .contains("low,high"));
    assert!(run(&args(&["simulate", "--watermarks", "90,80"]))
        .unwrap_err()
        .contains("below high watermark"));
    for (watermarks, constraint) in [
        (
            "nan,90",
            "low_watermark must be positive and finite, got NaN",
        ),
        ("0,90", "low_watermark must be positive and finite, got 0"),
        ("95,90", "low watermark 95 must be below high watermark 90"),
    ] {
        let err = run(&args(&["simulate", "--watermarks", watermarks])).unwrap_err();
        assert!(
            err.contains(&format!("invalid protocol parameters: {constraint}")),
            "{watermarks}: {err}"
        );
    }
    assert!(run(&args(&["simulate", "--policy", "psychic"]))
        .unwrap_err()
        .contains("unknown policy"));
}

/// Times and periods beyond the microsecond clock are a named error
/// from the binary itself: exit 2, the flag's name, no panic.
#[test]
fn simulate_rejects_spans_beyond_the_clock() {
    for (flags, field) in [
        (&["--duration", "1e19"][..], "duration"),
        (&["--duration", "10", "--rate", "1e-300"][..], "rate"),
        (
            &["--duration", "10", "--update-rate", "1e-300"][..],
            "update_rate",
        ),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_radar"))
            .args(["simulate", "--objects", "100"])
            .args(flags)
            .output()
            .expect("radar runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.contains(field) && stderr.contains("2^53") && !stderr.contains("panicked"),
            "{flags:?}: {stderr}"
        );
    }
}

#[test]
fn simulate_with_custom_topology_and_baseline_policy() {
    let topo_path = std::env::temp_dir().join("radar-cli-topo.spec");
    std::fs::write(
        &topo_path,
        "node a eu\nnode b eu\nnode c wna\nlink a b\nlink b c\n",
    )
    .unwrap();
    let out = run(&args(&[
        "simulate",
        "--topology",
        topo_path.to_str().unwrap(),
        "--objects",
        "30",
        "--rate",
        "1",
        "--duration",
        "60",
        "--policy",
        "closest",
        "--workload",
        "uniform",
    ]))
    .unwrap();
    assert!(out.contains("policy closest"), "{out}");
    let _ = std::fs::remove_file(topo_path);
}

#[test]
fn simulate_with_fault_schedule_file() {
    let spec_path = std::env::temp_dir().join("radar-cli-faults.spec");
    std::fs::write(
        &spec_path,
        "# two crashes, one for good\n\
         min-replicas 2\n\
         declare-dead-after 30\n\
         host-down 5 60 180\n\
         host-down 12 120\n",
    )
    .unwrap();
    let p = spec_path.to_str().unwrap();
    let out = run(&args(&[
        "simulate",
        "--objects",
        "100",
        "--rate",
        "2",
        "--duration",
        "300",
        "--faults",
        p,
    ]))
    .unwrap();
    assert!(out.contains("faults"), "{out}");
    assert!(out.contains("availability"), "{out}");

    let json = run(&args(&[
        "simulate",
        "--objects",
        "100",
        "--rate",
        "2",
        "--duration",
        "300",
        "--faults",
        p,
        "--json",
    ]))
    .unwrap();
    let value = Value::parse(&json).expect("valid JSON");
    assert_eq!(value["faults_injected"].as_u64(), Some(3));
    assert!(value["re_replications"].as_u64().unwrap() > 0);
    let _ = std::fs::remove_file(spec_path);
}

#[test]
fn simulate_rejects_bad_fault_schedules() {
    let err = run(&args(&["simulate", "--faults", "/nonexistent/file.spec"])).unwrap_err();
    assert!(err.contains("cannot read fault schedule"), "{err}");

    let spec_path = std::env::temp_dir().join("radar-cli-bad-faults.spec");
    std::fs::write(&spec_path, "host-down not-a-host 10\n").unwrap();
    let err = run(&args(&[
        "simulate",
        "--faults",
        spec_path.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    let _ = std::fs::remove_file(spec_path);
}
