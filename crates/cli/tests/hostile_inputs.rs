//! Inputs that used to hang or abort the `radar` binary: each must end in
//! exit code 2 with a message naming the flag or the line, quickly, and
//! without a panic or a stack overflow. The tests drive the binary itself
//! — a stack overflow aborts the process, which no in-process test could
//! report.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

struct TempFile(PathBuf);

impl TempFile {
    fn new(stem: &str, content: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("radar-hostile-{stem}-{}", std::process::id()));
        std::fs::write(&path, content).expect("temp file writable");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `radar ARGS`, killing it after five seconds; returns stderr after
/// asserting exit code 2 and the absence of a panic or stack overflow.
fn rejected(args: &[&str]) -> String {
    rejected_from(Command::new(env!("CARGO_BIN_EXE_radar")).args(args), args)
}

/// [`rejected`] for a prepared command.
fn rejected_from(command: &mut Command, args: &[&str]) -> String {
    let mut child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("radar runs");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("child is waitable").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("hung child is killable");
            panic!("radar {args:?} did not finish within 5 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // The messages are a few hundred bytes, far below the pipe buffer,
    // so reading after exit cannot have blocked the child.
    let output = child.wait_with_output().expect("child output readable");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("overflowed its stack"),
        "{args:?}: {stderr}"
    );
    stderr
}

#[test]
fn deeply_nested_log_lines_are_a_named_error_not_a_stack_overflow() {
    let good = r#"{"seq":1,"t":0,"parent":null,"qd":0,"type":"request","gateway":0,"object":0}"#;
    for (stem, hostile) in [
        ("brackets", "[".repeat(300_000)),
        ("objects", "{\"a\":".repeat(200_000)),
    ] {
        let log = TempFile::new(stem, &format!("{good}\n{hostile}\n"));
        for command in [["events", "summary"], ["objects", "audit"]] {
            let stderr = rejected(&[command[0], command[1], log.path()]);
            assert!(
                stderr.contains("line 2") && stderr.contains("nesting deeper than 64 levels"),
                "{command:?} on {stem}: {stderr}"
            );
        }
    }
}

const SIMULATE: [&str; 5] = ["simulate", "--objects", "100", "--duration", "5"];

#[test]
fn an_object_count_beyond_memory_is_rejected_before_allocating() {
    // `--objects 4000000000` used to abort (exit 134) allocating 96 GB in
    // `Directory::new`; a mix's catalog is allocated even earlier. The
    // shell caps the address space at 1 GiB, so a build that tries the
    // allocation fails this test instead of taking the memory.
    for extra in [&[][..], &["--consistency", "mixed"]] {
        let args = [
            &["simulate", "--objects", "4000000000", "--duration", "5"][..],
            extra,
        ]
        .concat();
        let mut capped = Command::new("sh");
        capped
            .args(["-c", r#"ulimit -v 1048576 && exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_radar"))
            .args(&args);
        let stderr = rejected_from(&mut capped, &args);
        assert!(
            stderr.contains("--objects: 4000000000 objects exceed the limit of 16777216 (2^24)")
                && stderr.contains("would exhaust memory"),
            "{extra:?}: {stderr}"
        );
    }
}

#[test]
fn a_rate_whose_period_rounds_to_zero_microseconds_is_rejected() {
    for (flag, rate, field) in [
        ("--rate", "3e6", "1/node_request_rate"),
        ("--update-rate", "1e7", "1/update_rate"),
    ] {
        let stderr = rejected(&[&SIMULATE[..], &[flag, rate]].concat());
        assert!(
            stderr.contains(field) && stderr.contains("1 µs"),
            "{stderr}"
        );
    }
}

#[test]
fn replay_names_the_trace_line_of_a_time_beyond_the_clock_or_a_foreign_id() {
    for (stem, bad_line, what) in [
        ("time", "1e300 0 0", "2^53"),
        ("gateway", "2 99 0", "gateway 99 is out of range"),
        ("object", "2 0 100", "object 100 is out of range"),
    ] {
        // The comment and the blank line count: the bad entry is on line 4.
        let trace = TempFile::new(stem, &format!("# t gateway object\n1 0 0\n\n{bad_line}\n"));
        let stderr = rejected(&[&SIMULATE[..], &["--replay", trace.path()]].concat());
        assert!(
            stderr.contains("line 4") && stderr.contains(what),
            "{stem}: {stderr}"
        );
    }
}

#[test]
fn workloads_too_small_for_their_constructor_are_rejected() {
    // Each used to panic building the workload (exit 101).
    let one_node = TempFile::new("one-node", "node a eu\n");
    for (args, wanted) in [
        (
            vec!["--workload", "hot-pages", "--objects", "1"],
            "--workload hot-pages needs at least 2 objects, got 1",
        ),
        (
            vec!["--workload", "hot-sites", "--topology", one_node.path()],
            "--workload hot-sites needs at least 2 topology nodes, got 1",
        ),
        (
            vec!["--workload", "regional", "--objects", "3"],
            "--workload regional needs at least 4 objects, got 3",
        ),
    ] {
        let stderr = rejected(&[&["simulate", "--duration", "5"][..], &args].concat());
        assert!(stderr.contains(wanted), "{args:?}: {stderr}");
    }
}

#[test]
fn a_topology_beyond_16_bit_node_ids_names_its_line() {
    // The 65 537th node used to panic in `TopologyBuilder::add_node`.
    let spec: String = (0..=65_536).map(|i| format!("node n{i} eu\n")).collect();
    let topology = TempFile::new("too-many-nodes", &spec);
    for args in [
        vec!["topology", topology.path()],
        vec!["simulate", "--topology", topology.path()],
    ] {
        let stderr = rejected(&args);
        assert!(
            stderr.contains(&format!(
                "{}: line 65537: more than 65536 nodes",
                topology.path()
            )),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn an_update_rate_below_zero_names_the_accepted_range() {
    // Zero, the default, is accepted: the message used to say "positive".
    for rate in ["-1", "nan", "inf"] {
        let stderr = rejected(&[&SIMULATE[..], &["--update-rate", rate]].concat());
        assert!(
            stderr.contains("update_rate must be finite and ≥ 0, got"),
            "{rate}: {stderr}"
        );
    }
}

#[test]
fn a_zero_storage_limit_or_redirector_count_names_its_field() {
    for (flag, field) in [
        ("--storage-limit", "storage_limit"),
        ("--redirectors", "num_redirectors"),
    ] {
        let stderr = rejected(&[&SIMULATE[..], &[flag, "0"]].concat());
        assert!(
            stderr.contains(&format!("{field} must be positive")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn events_watch_rejects_bin_interval_and_duration_it_cannot_fold() {
    let log = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/events-seed42.jsonl"
    );
    // The first four used to panic in `BinSpec::new` (exit 101); the last
    // three never returned, recording one bin per interval.
    for (flag, value) in [
        ("--bin", "0"),
        ("--bin", "nan"),
        ("--interval", "0"),
        ("--interval", "-1"),
        ("--interval", "1e-9"),
        ("--bin", "1e-9"),
        ("--duration", "inf"),
    ] {
        let stderr = rejected(&["events", "watch", log, flag, value]);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn ledger_and_watch_flags_reject_a_window_or_size_that_answers_wrongly() {
    let log = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/events-seed42.jsonl"
    );
    // These used to exit 0: a NaN window printed `churn (window NaNs) 0`,
    // a negative one counted no churn, and a zero object size priced
    // every copy and every response at nothing.
    let cases: [&[&str]; 7] = [
        &["objects", "churn", log, "--window", "nan"],
        &["objects", "churn", log, "--window", "-5"],
        &["objects", "churn", log, "--window", "inf"],
        &["objects", "churn", log, "--object-size", "0"],
        &["objects", "timeline", "1", log, "--window", "nan"],
        &["objects", "timeline", "1", log, "--object-size", "0"],
        &["events", "watch", log, "--object-size", "0"],
    ];
    for args in cases {
        let stderr = rejected(args);
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn events_filter_rejects_a_nan_time_bound() {
    let log = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/events-seed42.jsonl"
    );
    // NaN compares false with every time, so these used to print
    // `0 of 1227 events matched` and exit 0.
    for (flag, value) in [("--since", "nan"), ("--until", "NaN")] {
        let stderr = rejected(&["events", "filter", log, flag, value]);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn fault_schedule_validation_names_the_line_of_the_fault() {
    for (bad_line, what) in [
        ("host-down 5 nan", "bad fault window"),
        ("host-down 99 10", "unknown host 99"),
        ("link-down 0 52 10", "unknown link 0-52"),
        ("link-slow 0 1 0.5 10", "factor must be finite and > 1"),
    ] {
        // The knob, the comment and the blank line count: the bad fault,
        // the second of the schedule, is on line 5.
        let faults = TempFile::new(
            "faults",
            &format!("min-replicas 2\nhost-down 3 10 20\n# then\n\n{bad_line}\n"),
        );
        let stderr = rejected(&[&SIMULATE[..], &["--faults", faults.path()]].concat());
        assert!(
            stderr.contains(&format!("{}: line 5: ", faults.path())) && stderr.contains(what),
            "{bad_line}: {stderr}"
        );
    }
}
