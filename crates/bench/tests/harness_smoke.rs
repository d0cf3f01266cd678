//! Smoke tests of the experiment harness at miniature scale: every
//! experiment function produces non-trivial output without panicking.
//! (The paper-scale numbers are produced by the `experiments` binary;
//! these tests guard the plumbing.)

use radar_bench::experiments::{self, Harness, Job};
use radar_bench::{format_table, ExpConfig};
use radar_sim::{PlacementMode, RunReport};

fn micro() -> ExpConfig {
    ExpConfig {
        num_objects: 200,
        node_rate: 2.0,
        duration: 250.0,
        seed: 5,
        out_dir: None,
    }
}

#[test]
fn table1_lists_parameters() {
    let mut h = Harness::new(micro());
    let out = experiments::table1(&mut h);
    assert!(out.contains("Table 1"));
    assert!(out.contains("Deletion threshold"));
    assert!(out.contains("0.03"));
}

#[test]
fn figures_and_tables_share_cached_runs() {
    // fig7, fig8a and table2 all consume the same four dynamic runs; the
    // harness must simulate each workload once.
    let mut h = Harness::new(micro());
    let fig7 = experiments::fig7(&mut h);
    assert!(fig7.contains("hot-sites %"));
    let fig8a = experiments::fig8a(&mut h);
    assert!(fig8a.contains("peak loads"));
    let table2 = experiments::table2(&mut h);
    assert!(table2.contains("Average Number of Replicas"));
    // Four data rows, one per workload.
    let rows = table2.lines().filter(|l| l.contains("  ")).count();
    assert!(rows >= 4, "table2 output:\n{table2}");
}

#[test]
fn csv_series_written_when_requested() {
    let dir = std::env::temp_dir().join("radar-harness-smoke-csv");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = micro();
    cfg.out_dir = Some(dir.clone());
    let mut h = Harness::new(cfg);
    let _ = experiments::table2(&mut h);
    assert!(dir.join("table2.csv").exists());
    let body = std::fs::read_to_string(dir.join("table2.csv")).unwrap();
    assert!(body.lines().count() >= 5, "csv:\n{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_written_when_dir_set() {
    let dir = std::env::temp_dir().join("radar-harness-smoke-table");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = micro();
    cfg.out_dir = Some(dir.clone());
    let h = Harness::new(cfg);
    let _ = h.table("t", &["x", "y"], &[vec!["1".into(), "2".into()]]);
    let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
    assert_eq!(body, "x,y\n1,2\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_skipped_without_dir() {
    let h = Harness::new(micro());
    // Must not panic or create anything; the table is still formatted.
    assert_eq!(h.table("t", &["x"], &[]), format_table(&["x"], &[]));
}

#[test]
fn sweep_matches_serial_runs() {
    let cfg = micro();
    let job = |label: &str, scenario, workload| {
        let simulation = experiments::simulation(scenario, workload, "radar", "radar");
        (label.to_string(), simulation)
    };
    let jobs = || -> Vec<Job> {
        vec![
            job("zipf", cfg.scenario(), "zipf"),
            job("hot-pages", cfg.scenario(), "hot-pages"),
            job(
                "regional static",
                cfg.scenario().placement(PlacementMode::Static),
                "regional",
            ),
            job("zipf seed 9", cfg.scenario().seed(9), "zipf"),
        ]
    };
    let swept: Vec<String> = Harness::sweep(jobs())
        .iter()
        .map(RunReport::to_json_pretty)
        .collect();
    let serial: Vec<String> = jobs()
        .into_iter()
        .map(|(_, simulation)| simulation.run().to_json_pretty())
        .collect();
    assert_eq!(swept, serial);
    // Distinct jobs, so input order is observable.
    assert!(swept.windows(2).all(|w| w[0] != w[1]));
}
