//! `radar simulate` builds its workload through
//! `radar_workload::by_name`, the factory the experiments use. Each
//! workload name's JSON report is pinned by FNV-1a-64 and length; the
//! constants were taken before the CLI's own factory was merged into
//! it, so a drift in what a name builds shows here.
//!
//! The baseline policies are pinned the same way: the comparator
//! placements' reports (their relocation logs included) and the event
//! logs of the baseline selections, whose decisions carry the `policy`
//! branch, plus a faulted run whose decisions take `primary-fallback`.
//! Those constants were taken before the protocol wrote its decisions
//! straight into the flight recorder's types. Each baseline also runs
//! under that fault file, so its log holds both branches; those
//! constants were taken before the failover of an unusable pick moved
//! from the selection trait into the platform. The placement baselines'
//! event logs under crashes and a consistency mix were pinned before
//! their placement environment stopped reaching the directory through
//! the redirector.

use std::path::PathBuf;

use radar_cli::run;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn args(a: &[&str]) -> Vec<String> {
    a.iter().map(|s| s.to_string()).collect()
}

/// A file in the temp dir, removed when dropped.
struct TempPath(PathBuf);

impl TempPath {
    fn new(stem: &str) -> Self {
        TempPath(std::env::temp_dir().join(format!("radar-factory-{stem}-{}", std::process::id())))
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

#[test]
fn baseline_policies_keep_their_report_and_event_bytes() {
    let mut got = Vec::new();
    // Cluster on zipf drops cold copies between its replications, so its
    // relocation log regroups interleaved actions; on hot-sites it also
    // sheds load.
    for (label, placement, workload, rate) in [
        ("availability", "availability", "zipf", "2"),
        ("cluster", "cluster", "zipf", "2"),
        ("cluster-hot", "cluster", "hot-sites", "20"),
    ] {
        let report = run(&args(&[
            "simulate",
            "--placement",
            placement,
            "--workload",
            workload,
            "--objects",
            "300",
            "--rate",
            rate,
            "--duration",
            "400",
            "--seed",
            "3",
            "--json",
        ]))
        .unwrap();
        assert!(report.contains("\"action\": \"GeoReplicate\""), "{label}");
        got.push((label, fnv1a64(report.as_bytes()), report.len()));
    }

    let faults = TempPath::new("faults.txt");
    std::fs::write(
        &faults.0,
        "min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n",
    )
    .unwrap();
    // A baseline's pick on a crashed host falls back to the primary copy.
    let policy: &[&str] = &["policy"];
    let fallback: &[&str] = &["primary-fallback"];
    let both: &[&str] = &["policy", "primary-fallback"];
    for (label, extra, branches) in [
        ("round-robin", &["--policy", "round-robin"][..], policy),
        ("closest", &["--policy", "closest"], policy),
        ("random", &["--policy", "random"], policy),
        ("faulted", &["--faults", faults.as_str()], fallback),
        (
            "round-robin-faulted",
            &["--policy", "round-robin", "--faults", faults.as_str()],
            both,
        ),
        (
            "closest-faulted",
            &["--policy", "closest", "--faults", faults.as_str()],
            both,
        ),
        (
            "random-faulted",
            &["--policy", "random", "--faults", faults.as_str()],
            both,
        ),
    ] {
        let log = TempPath::new(&format!("{label}.jsonl"));
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
            log.as_str(),
        ];
        a.extend_from_slice(extra);
        run(&args(&a)).unwrap();
        let bytes = std::fs::read(&log.0).unwrap();
        for branch in branches {
            let tag = format!("\"branch\":\"{branch}\"");
            assert!(
                String::from_utf8_lossy(&bytes).contains(&tag),
                "{label}: no {tag} decision"
            );
        }
        got.push((label, fnv1a64(&bytes), bytes.len()));
    }

    // The placement baselines under crashes, a declare-dead purge and a
    // consistency mix with provider updates. No `min-replicas` line: the
    // re-replication sweep would already meet availability's target,
    // leaving it nothing to do.
    let placement_faults = TempPath::new("placement-faults.txt");
    std::fs::write(
        &placement_faults.0,
        "declare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n",
    )
    .unwrap();
    for (label, placement) in [
        ("availability-faulted", "availability"),
        ("cluster-faulted", "cluster"),
    ] {
        let log = TempPath::new(&format!("{label}.jsonl"));
        run(&args(&[
            "simulate",
            "--objects",
            "60",
            "--rate",
            "0.2",
            "--duration",
            "400",
            "--seed",
            "3",
            "--placement",
            placement,
            "--consistency",
            "mixed",
            "--update-rate",
            "1",
            "--events",
            log.as_str(),
            "--faults",
            placement_faults.as_str(),
        ]))
        .unwrap();
        let bytes = std::fs::read(&log.0).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        for tag in [
            "\"type\":\"placement\"",
            "\"branch\":\"primary-fallback\"",
            "\"type\":\"provider-update\"",
        ] {
            assert!(text.contains(tag), "{label}: no {tag}");
        }
        got.push((label, fnv1a64(&bytes), bytes.len()));
    }

    // Overlapping windows on one host and one non-bridge link: two
    // crashes of host 7, two partitions of Seattle–Portland and two
    // degradations of it (×2 and ×3), with provider updates crossing
    // it. Pinned before the fault layer compiled a window to one fault
    // opened and closed, so every transition text and the factor
    // unwinding show here.
    let overlap_faults = TempPath::new("overlap-faults.txt");
    std::fs::write(
        &overlap_faults.0,
        "min-replicas 2\ndeclare-dead-after 30\n\
         host-down 7 60 200\nhost-down 7 120 260\n\
         link-down 0 1 50 150\nlink-down 0 1 100 250\n\
         link-slow 0 1 2 40 180\nlink-slow 0 1 3 90 220\n",
    )
    .unwrap();
    let overlap: &[&str] = &[
        "simulate",
        "--objects",
        "60",
        "--rate",
        "0.2",
        "--duration",
        "300",
        "--seed",
        "3",
        "--update-rate",
        "1",
        "--faults",
        overlap_faults.as_str(),
    ];
    let log = TempPath::new("overlap-faulted.jsonl");
    run(&args(&[overlap, &["--events", log.as_str()]].concat())).unwrap();
    let bytes = std::fs::read(&log.0).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    for desc in [
        "link-degrade 0-1 x2",
        "link-degrade 0-1 x3",
        "link-restore 0-1 x2",
        "link-restore 0-1 x3",
    ] {
        assert!(text.contains(desc), "overlap-faulted: no {desc}");
    }
    got.push(("overlap-faulted-log", fnv1a64(&bytes), bytes.len()));
    let report = run(&args(&[overlap, &["--json"]].concat())).unwrap();
    got.push((
        "overlap-faulted-report",
        fnv1a64(report.as_bytes()),
        report.len(),
    ));

    let expected = [
        ("availability", 0x840b_0656_3918_d2d3, 76_275),
        ("cluster", 0xa2d7_a8ba_50bc_bb25, 71_099),
        ("cluster-hot", 0x51cf_c3d1_4bd8_ff4e, 109_591),
        ("round-robin", 0xd224_f18a_5eee_a786, 175_476),
        ("closest", 0x06b2_e2b9_b5f1_043f, 175_462),
        ("random", 0x93bb_d6c6_b324_3faf, 175_441),
        ("faulted", 0xd3ff_44f7_31b0_39b8, 205_419),
        ("round-robin-faulted", 0x99e6_3061_2d98_0b33, 181_232),
        ("closest-faulted", 0xfb4a_0d56_4195_69f4, 181_239),
        ("random-faulted", 0x36f7_c649_a339_dfd8, 181_485),
        ("availability-faulted", 0x66a2_bdbf_5be2_618d, 2_304_807),
        ("cluster-faulted", 0x0052_7d67_6529_1786, 2_324_908),
        ("overlap-faulted-log", 0xcbce_bc5c_c43e_2432, 1_802_682),
        ("overlap-faulted-report", 0x101f_2460_d0ef_bcaa, 30_668),
    ];
    assert_eq!(got.len(), expected.len());
    for ((label, fnv, len), (_, want_fnv, want_len)) in got.iter().zip(expected) {
        assert_eq!(
            (*fnv, *len),
            (want_fnv, want_len),
            "{label}: got {fnv:#018x}"
        );
    }
}

#[test]
fn every_workload_name_builds_what_it_built_before_the_merge() {
    for (workload, fnv, len) in [
        ("zipf", 0xbccc_d07a_3711_12a2, 23_156),
        ("hot-sites", 0x9248_6ccb_62e2_3301, 23_136),
        ("hot-pages", 0xb4c0_084e_3fd9_63f0, 23_162),
        ("regional", 0xe968_4727_3269_843f, 23_112),
        ("uniform", 0x7bc0_153a_8b5e_9b0a, 23_174),
    ] {
        let args: Vec<String> = [
            "simulate",
            "--workload",
            workload,
            "--objects",
            "300",
            "--duration",
            "60",
            "--seed",
            "3",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = run(&args).unwrap();
        assert_eq!(
            (fnv1a64(report.as_bytes()), report.len()),
            (fnv, len),
            "{workload}: got {:#018x}",
            fnv1a64(report.as_bytes())
        );
    }
}
