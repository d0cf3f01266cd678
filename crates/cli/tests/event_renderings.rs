//! Every listing `radar events` and `radar objects` print, pinned by
//! FNV-1a-64 and length on two logs: the committed golden log and a
//! faulted, update-heavy run this test records. Between them the logs
//! hold all ten event types, so every per-kind rendering arm shows here.
//!
//! `explain` and the detail sections of `diff` render events in full;
//! the other commands print one line per event (`brief`) or folded
//! aggregates, and their pins must not move when the renderers do.

use std::path::PathBuf;

use radar_cli::run;
use radar_obs::{parse_jsonl, EventKind, EVENT_TYPES};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A file in the temp dir, removed when dropped.
struct TempPath(PathBuf);

impl TempPath {
    fn new(stem: &str) -> Self {
        TempPath(
            std::env::temp_dir().join(format!("radar-renderings-{stem}-{}", std::process::id())),
        )
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What `radar ARGS` prints, on stdout (exit 0) or stderr (exit 2).
fn radar(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&args).unwrap_or_else(|err| err)
}

fn golden_log() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/events-seed42.jsonl"
    )
    .to_string()
}

/// The golden scenario with provider updates and a fault schedule: two
/// host crashes (crash failures, purges, re-replication) and Sydney
/// (node 51) cut off from the backbone for two minutes, so requests
/// entering there fail as unreachable. `extra` flags ride along; the
/// run's report is returned.
fn record_faulted_log(faults: &TempPath, log: &TempPath, extra: &[&str]) -> String {
    std::fs::write(
        &faults.0,
        "min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n\
         link-down 50 51 20 140\nlink-down 51 52 20 140\nlink-down 5 51 20 140\n",
    )
    .unwrap();
    let mut args = vec![
        "simulate",
        "--objects",
        "16",
        "--rate",
        "0.05",
        "--duration",
        "150",
        "--seed",
        "42",
        "--update-rate",
        "2",
        "--faults",
        faults.as_str(),
        "--events",
        log.as_str(),
    ];
    args.extend_from_slice(extra);
    radar(&args)
}

/// Each command family's output on `log`, several invocations joined;
/// the log's path, which some headers print, reads `LOG`.
fn renderings(log: &str) -> Vec<(&'static str, String)> {
    let events = parse_jsonl(&std::fs::read_to_string(log).unwrap()).unwrap();
    let radar = |args: &[&str]| radar(args).replace(log, "LOG");
    let filter: String = EVENT_TYPES
        .iter()
        .map(|t| radar(&["events", "filter", log, "--type", t]))
        .collect();
    // The first event of each type the log holds.
    let explain: String = EVENT_TYPES
        .iter()
        .filter_map(|t| events.iter().find(|e| e.type_name() == *t))
        .map(|e| radar(&["events", "explain", &e.seq.to_string(), log]))
        .collect();
    let relocated = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::PlacementAction(p) if p.target.is_some() => Some(p.object),
            _ => None,
        })
        .expect("the log relocates an object")
        .to_string();
    vec![
        ("tail", radar(&["events", "tail", log, "--count", "40"])),
        ("filter", filter),
        ("summary", radar(&["events", "summary", log])),
        ("watch", radar(&["events", "watch", log])),
        ("timeline", radar(&["objects", "timeline", &relocated, log])),
        ("churn", radar(&["objects", "churn", log])),
        ("audit", radar(&["objects", "audit", log])),
        ("explain", explain),
    ]
}

#[test]
fn listings_keep_their_bytes_and_explanations_are_pinned() {
    let golden = golden_log();
    let (faults, faulted) = (TempPath::new("faults.txt"), TempPath::new("faulted.jsonl"));
    record_faulted_log(&faults, &faulted, &[]);

    let mut seen: Vec<String> = [golden.as_str(), faulted.as_str()]
        .iter()
        .flat_map(|log| parse_jsonl(&std::fs::read_to_string(log).unwrap()).unwrap())
        .map(|e| e.type_name().to_string())
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut all: Vec<&str> = EVENT_TYPES.to_vec();
    all.sort_unstable();
    assert_eq!(seen, all, "the two logs hold every event type");

    let mut got = Vec::new();
    for (log_label, log) in [("golden", golden.as_str()), ("faulted", faulted.as_str())] {
        for (command, text) in renderings(log) {
            got.push((log_label, command, fnv1a64(text.as_bytes()), text.len()));
        }
    }
    let diff = radar(&["events", "diff", &golden, faulted.as_str()])
        .replace(&golden, "GOLDEN")
        .replace(faulted.as_str(), "FAULTED");
    got.push(("both", "diff", fnv1a64(diff.as_bytes()), diff.len()));

    let expected: [(&str, &str, u64, usize); 17] = [
        ("golden", "tail", 0xcc24_af03_6041_9928, 3_303),
        ("golden", "filter", 0x756f_596d_6889_4ada, 100_602),
        ("golden", "summary", 0xfb6c_2ff7_c0b5_3559, 747),
        ("golden", "watch", 0x12c4_c7dd_4a8f_b4af, 1_600),
        ("golden", "timeline", 0x6694_c7fe_be2a_755b, 250),
        ("golden", "churn", 0xdf52_71e8_08cd_9500, 1_958),
        ("golden", "audit", 0x81f7_7160_991f_694d, 59),
        ("golden", "explain", 0x7227_9a38_7908_9e07, 1_635),
        ("faulted", "tail", 0x4d27_2044_e383_28ee, 3_332),
        ("faulted", "filter", 0xffe0_5264_648a_ed44, 140_218),
        ("faulted", "summary", 0x2f1e_d48b_e008_d964, 1_058),
        ("faulted", "watch", 0xfe0c_d129_1285_c748, 1_963),
        ("faulted", "timeline", 0xccec_d0a5_9a11_f5c3, 344),
        ("faulted", "churn", 0x6da8_3c29_2a89_e607, 2_055),
        ("faulted", "audit", 0x6db9_0101_d16e_fb8c, 59),
        ("faulted", "explain", 0xd494_d4cd_2a20_35a8, 2_440),
        ("both", "diff", 0xad78_46a7_cd4a_104d, 632),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, _, fnv, len), (_, _, want_fnv, want_len))| {
            (*fnv, *len) != (*want_fnv, *want_len)
        })
        .map(|((log, command, fnv, len), _)| {
            format!("(\"{log}\", \"{command}\", {fnv:#018x}, {len}),")
        })
        .collect();
    assert_eq!(got.len(), expected.len());
    assert!(
        mismatches.is_empty(),
        "renderings moved:\n{}",
        mismatches.join("\n")
    );
}

/// A cold sole replica logs one `drop-refused` per 100-s placement
/// period, so over 26 000 s each of four unrequested objects gathers
/// more steps than the timeline prints: the listing opens with the
/// count of the earlier ones.
#[test]
fn a_timeline_past_its_cap_keeps_its_bytes() {
    let log = TempPath::new("cold.jsonl");
    radar(&[
        "simulate",
        "--objects",
        "4",
        "--rate",
        "0.0001",
        "--duration",
        "26000",
        "--seed",
        "1",
        "--events",
        log.as_str(),
    ]);
    let text = radar(&["objects", "timeline", "0", log.as_str()]).replace(log.as_str(), "LOG");
    assert!(
        text.contains("\n… 3 earlier steps beyond the timeline cap\n"),
        "{text}"
    );
    assert_eq!(text.matches("\n#").count(), 256, "{text}");
    assert_eq!(
        (fnv1a64(text.as_bytes()), text.len()),
        (0xa0b1_5d53_3d8a_a69e, 15_853),
        "timeline past the cap moved"
    );
}

#[test]
fn the_live_dashboard_and_the_replay_print_the_same_frame() {
    let (faults, log) = (
        TempPath::new("dash-faults.txt"),
        TempPath::new("dash.jsonl"),
    );
    let report = record_faulted_log(&faults, &log, &["--dashboard"]);
    // The report appends the dashboard's final frame, then the loop
    // profile `--events` turns on.
    let start = report
        .find("RaDaR dashboard")
        .expect("the report holds the frame");
    let end = report
        .find("\nevent-loop profile")
        .expect("the profile follows");
    let replay = radar(&["events", "watch", log.as_str(), "--duration", "150"]);
    assert_eq!(&report[start..end], replay);
}
