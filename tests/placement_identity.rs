//! Byte identity of the report across placement epochs: three small
//! runs that each cross at least three rounds of Fig. 3 — a zipf run
//! (deletions, geo-migrations, geo-replications), a hot-sites run whose
//! low watermarks force Fig. 5 offloading, and a faulted run (host
//! outage, link outage, provider updates, two redirectors) — pin the
//! FNV-1a-64 of `RunReport::to_json_pretty()`. The constants were taken
//! before `HostState` became a dense table walked by cursor and before
//! the redirect layer lost its candidate cache, so a placement decision
//! that moves, or a replica chosen differently, fails tier-1 instead of
//! the next benchmark evaluation.

use radar::core::{Catalog, ConsistencyMix, Params};
use radar::sim::{FaultSpec, RunReport, Scenario, ScenarioBuilder, Simulation};
use radar::simcore::SimRng;
use radar::simnet::builders;
use radar::workload::{HotSites, ZipfReeds};

mod common;
use common::fnv1a64;

const OBJECTS: u32 = 600;

/// 600 objects on UUNET for 90 s; a 20 s placement period puts every
/// host through three or four placement runs.
fn scenario(params: Params) -> ScenarioBuilder {
    Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(8.0)
        .duration(90.0)
        .seed(11)
}

fn params(low: f64, high: f64) -> Params {
    Params {
        low_watermark: low,
        high_watermark: high,
        placement_period: 20.0,
        measurement_interval: 4.0,
        ..Params::paper()
    }
}

fn digest(report: &RunReport) -> u64 {
    assert!(report.loop_profile.is_none());
    fnv1a64(report.to_json_pretty().as_bytes())
}

#[test]
fn zipf_dynamic_report_is_byte_identical() {
    let scenario = scenario(params(80.0, 90.0)).build().expect("valid");
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS))).run();
    assert!(report.drops > 0 && report.geo_migrations > 0 && report.geo_replications > 0);
    assert_eq!(digest(&report), ZIPF_FNV, "got {:#018x}", digest(&report));
}

#[test]
fn hot_sites_offloading_report_is_byte_identical() {
    let topology = builders::uunet();
    let mut rng = SimRng::seed_from(5);
    let workload = HotSites::new(OBJECTS, topology.len() as u16, 0.1, 0.9, &mut rng);
    let scenario = scenario(params(12.0, 16.0))
        .topology(topology)
        .build()
        .expect("valid");
    let report = Simulation::new(scenario, Box::new(workload)).run();
    assert!(
        report.offload_migrations + report.offload_replications > 0,
        "the run must exercise Fig. 5"
    );
    assert_eq!(
        digest(&report),
        HOT_SITES_FNV,
        "got {:#018x}",
        digest(&report)
    );
}

#[test]
fn faulted_update_report_is_byte_identical() {
    let topology = builders::uunet();
    let (a, b) = topology.links()[4];
    let faults = FaultSpec::new()
        .with_min_replicas(2)
        .with_declare_dead_after(10.0)
        .host_down(11, 15.0, Some(55.0))
        .link_down(a.index() as u16, b.index() as u16, 30.0, Some(70.0));
    let scenario = scenario(params(80.0, 90.0))
        .catalog(Catalog::with_mix(
            OBJECTS,
            12 * 1024,
            topology.len() as u16,
            ConsistencyMix::Mixed,
        ))
        .update_rate(15.0)
        .num_redirectors(2)
        .faults(faults)
        .topology(topology)
        .build()
        .expect("valid");
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS))).run();
    assert!(report.re_replications > 0 && report.updates_propagated > 0);
    assert_eq!(
        digest(&report),
        FAULTED_FNV,
        "got {:#018x}",
        digest(&report)
    );
}

const ZIPF_FNV: u64 = 0x18a0_15cf_0985_9326;
const HOT_SITES_FNV: u64 = 0x27d9_77cc_2b31_9f8a;
const FAULTED_FNV: u64 = 0xca21_ba27_6728_e855;
