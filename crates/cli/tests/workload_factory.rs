//! `radar simulate` builds its workload through
//! `radar_workload::by_name`, the factory the experiments use. Each
//! workload name's JSON report is pinned by FNV-1a-64 and length; the
//! constants were taken before the CLI's own factory was merged into
//! it, so a drift in what a name builds shows here.

use radar_cli::run;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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
