//! End-to-end replica-set-invariant auditing through the CLI.
//!
//! The audit is the PR's CI gate: the committed golden log and a
//! faulted run must both satisfy the paper's replica-set
//! invariant, seeded violations must fail with the offending event
//! seq (exit 2 via `main`), and enabling the ledger must not perturb
//! the event stream. `objects churn` must count on a log what the run's
//! own ledger counted.

use radar_cli::json::Value;
use radar_cli::run;
use radar_obs::{Event, EventKind, PlacementActionEvent, PlacementActionKind, ResetCause};
use std::path::PathBuf;

fn args(a: &[&str]) -> Vec<String> {
    a.iter().map(|s| s.to_string()).collect()
}

/// The committed baseline (kept in sync with scripts/golden-diff.sh).
fn golden_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/events-seed42.jsonl"
    )
    .to_string()
}

struct TempPath(PathBuf);
impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp(stem: &str, ext: &str) -> (TempPath, String) {
    let path =
        std::env::temp_dir().join(format!("radar-audit-{stem}-{}.{ext}", std::process::id()));
    let s = path.to_string_lossy().into_owned();
    (TempPath(path), s)
}

fn ev(seq: u64, t: f64, kind: EventKind) -> Event {
    Event {
        seq,
        parent: None,
        t,
        queue_depth: 0,
        kind,
    }
}

fn placement(
    seq: u64,
    t: f64,
    host: u16,
    object: u32,
    action: PlacementActionKind,
    target: Option<u16>,
) -> Event {
    ev(
        seq,
        t,
        EventKind::PlacementAction(PlacementActionEvent {
            host,
            object,
            action,
            target,
            unit_rate: 0.3,
            share: None,
            ratio: None,
            deletion_threshold: 0.01,
            replication_threshold: 0.18,
        }),
    )
}

fn write_log(stem: &str, events: &[Event]) -> (TempPath, String) {
    let body: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    let (guard, path) = temp(stem, "jsonl");
    std::fs::write(&path, body).expect("temp log writable");
    (guard, path)
}

/// Golden scenario flags from tests/golden/README.md, plus extras.
fn simulate(extra: &[&str], events_path: &str) {
    let mut a = vec![
        "simulate",
        "--objects",
        "16",
        "--rate",
        "0.05",
        "--duration",
        "150",
        "--seed",
        "42",
        "--events",
        events_path,
    ];
    a.extend_from_slice(extra);
    run(&args(&a)).expect("scenario runs");
}

#[test]
fn golden_log_audits_clean() {
    let out = run(&args(&["objects", "audit", &golden_path()]))
        .expect("golden log satisfies the replica-set invariant");
    assert!(out.contains("audit clean"), "{out}");
    assert!(out.contains("0 violations"), "{out}");
}

#[test]
fn seeded_drop_before_notify_fails_naming_the_seq() {
    // A drop placement action with no counts-reset(dropped) pairing:
    // the host deleted its copy without notifying the directory.
    let (_g, path) = write_log(
        "drop-before-notify",
        &[placement(17, 60.0, 3, 9, PlacementActionKind::Drop, None)],
    );
    let err = run(&args(&["objects", "audit", &path])).expect_err("violation must fail the audit");
    assert!(err.contains("audit FAILED"), "{err}");
    assert!(err.contains("seq 17"), "{err}");
    assert!(err.contains("drop-before-notify"), "{err}");
}

#[test]
fn seeded_orphaned_replica_fails_naming_the_seq() {
    // A replicate with no counts-reset(created) pairing: a physical
    // copy the directory was never told about.
    let (_g, path) = write_log(
        "orphan",
        &[
            ev(
                1,
                10.0,
                EventKind::RequestServed {
                    gateway: 0,
                    object: 4,
                    host: 1,
                    latency: 0.05,
                    hops: 2,
                },
            ),
            placement(23, 60.0, 1, 4, PlacementActionKind::GeoReplicate, Some(6)),
        ],
    );
    let err = run(&args(&["objects", "audit", &path])).expect_err("violation must fail the audit");
    assert!(err.contains("audit FAILED"), "{err}");
    assert!(err.contains("seq 23"), "{err}");
    assert!(err.contains("orphaned-replica"), "{err}");
}

#[test]
fn notified_lifecycle_passes_the_audit() {
    let (_g, path) = write_log(
        "notified",
        &[
            ev(
                1,
                60.0,
                EventKind::CountsReset {
                    object: 7,
                    cause: ResetCause::Created,
                },
            ),
            placement(2, 60.0, 1, 7, PlacementActionKind::GeoReplicate, Some(2)),
            ev(
                3,
                120.0,
                EventKind::CountsReset {
                    object: 7,
                    cause: ResetCause::Dropped,
                },
            ),
            placement(4, 120.0, 2, 7, PlacementActionKind::Drop, None),
        ],
    );
    let out = run(&args(&["objects", "audit", &path])).expect("notified lifecycle is clean");
    assert!(out.contains("audit clean"), "{out}");
}

#[test]
fn faulted_run_audits_clean() {
    // Crash-and-recover plus a permanent loss, exercising purges,
    // re-replication, and the primary-fallback origin fetch — the
    // paths where a lenient-but-sound auditor earns its keep.
    let (_gf, faults) = temp("faults", "txt");
    std::fs::write(
        &faults,
        "min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n",
    )
    .expect("fault spec writable");

    let (_g, log) = temp("faulted", "jsonl");
    simulate(&["--faults", &faults], &log);
    let out = run(&args(&["objects", "audit", &log]))
        .expect("faulted run satisfies the replica-set invariant");
    assert!(out.contains("0 violations"), "{out}");
}

#[test]
fn unknown_trailer_line_is_a_parse_error_naming_the_line() {
    // Logs written by older versions can end with a trailer this reader
    // no longer knows — the parallel loop's reorder statistics, or the
    // recorder ring's eviction counts; it must not be skipped.
    let (_g, path) = temp("old-trailer", "jsonl");
    let event = ev(
        1,
        60.0,
        EventKind::CountsReset {
            object: 7,
            cause: ResetCause::Created,
        },
    );
    for trailer in [
        r#"{"type":"reorder","reserved":12,"max_in_flight":3,"max_held":2,"drains":5}"#,
        r#"{"type":"evictions","routine":10,"notable":0,"critical":3}"#,
    ] {
        std::fs::write(&path, format!("{}\n{trailer}\n", event.to_json_line()))
            .expect("temp log writable");
        for command in [
            ["objects", "audit"],
            ["events", "summary"],
            ["events", "watch"],
        ] {
            let err = run(&args(&[command[0], command[1], &path])).expect_err("must not parse");
            assert!(
                err.contains("line 2: missing field \"seq\""),
                "{command:?}: {err}"
            );
        }
    }
}

#[test]
fn ledger_does_not_perturb_the_event_stream() {
    // The ledger is observation only: the golden scenario re-run with
    // --ledger must reproduce the committed log byte-for-byte.
    let (_g, fresh) = temp("ledger-golden", "jsonl");
    simulate(&["--ledger"], &fresh);
    assert_eq!(
        std::fs::read_to_string(golden_path()).expect("golden log committed"),
        std::fs::read_to_string(&fresh).expect("fresh log written"),
        "--ledger changed the event stream"
    );
}

/// `objects churn` replays a log through a ledger with the default
/// window and object size, which must be the ones the simulator's
/// ledger used (two 100 s placement periods, the catalog's 12 KiB
/// copies, with or without §5 updates): the replay then counts the
/// churn and the bytes moved the report counted. The first run's churn
/// depends on the window: a 120 s one counts ping-pong 1 and
/// replicate-then-drop 3.
#[test]
fn churn_replay_counts_what_the_report_counted() {
    let updates: &[&str] = &["--consistency", "mixed", "--update-rate", "1"];
    for (rate, extra) in [("0.1", &[][..]), ("0.2", updates)] {
        let (_g, log) = temp("churn", "jsonl");
        let mut a = vec![
            "simulate",
            "--objects",
            "200",
            "--rate",
            rate,
            "--duration",
            "500",
            "--seed",
            "3",
            "--ledger",
            "--json",
            "--events",
            &log,
        ];
        a.extend_from_slice(extra);
        let report = run(&args(&a)).expect("scenario runs");
        let health = &Value::parse(&report).expect("valid JSON")["protocol_health"];
        let count = |key: &str| health[key].as_u64().expect("a count");
        let (ping_pong, replicate_drop) = (count("ping_pong"), count("replicate_drop"));
        let bytes_moved = count("bytes_moved");
        assert!(
            ping_pong > 0 && replicate_drop > 0 && bytes_moved > 0,
            "{extra:?}: the run churns: {health}"
        );
        let churn = run(&args(&["objects", "churn", &log])).expect("the log replays");
        for want in [
            format!("ping-pong {ping_pong} · replicate-then-drop {replicate_drop}"),
            format!("bytes moved {bytes_moved} ("),
        ] {
            assert!(
                churn.contains(&want),
                "{extra:?}: report: {want}; replay:\n{churn}"
            );
        }
    }
}
