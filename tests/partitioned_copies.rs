//! No copy is made and no byte is charged over a route that does not
//! exist.
//!
//! Two link failures cut San Jose (node 3) off the UUNET backbone for
//! 200 s while objects relocate and provider updates propagate. No
//! relocation may cross the cut while it is open, and no bin of
//! relocation or update traffic may exceed object size × 52 hops (more
//! than any route over 53 nodes has) × the run's copy or update count.
//! A charge across the cut would read `u32::MAX` hops and break that
//! bound by orders of magnitude.

use radar::sim::{FaultSpec, Scenario, Simulation};
use radar::stats::TimeSeries;
use radar::workload::ZipfReeds;

const OBJECTS: u32 = 1_000;
/// The node the two failed links isolate.
const CUT_OFF: u16 = 3;
const CUT_FROM: f64 = 100.0;
const CUT_UNTIL: f64 = 300.0;
/// Hops in the longest route a 53-node backbone can have.
const MAX_HOPS: f64 = 52.0;

#[test]
fn no_copy_or_update_crosses_a_partition() {
    let faults = FaultSpec::new()
        .link_down(2, 3, CUT_FROM, Some(CUT_UNTIL))
        .link_down(3, 4, CUT_FROM, Some(CUT_UNTIL));
    let scenario = Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(10.0)
        .duration(600.0)
        .seed(1)
        .update_rate(5.0)
        .faults(faults)
        .build()
        .expect("valid scenario");
    let size = scenario.catalog.object_size() as f64;
    let report = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS))).run();

    let crossed: Vec<_> = report
        .relocation_log
        .iter()
        .filter(|e| (CUT_FROM..CUT_UNTIL).contains(&e.t))
        .filter(|e| {
            e.target
                .is_some_and(|to| (e.host == CUT_OFF) != (to == CUT_OFF))
        })
        .collect();
    assert!(
        crossed.is_empty(),
        "{} relocations crossed the cut while it was open, the first {:?}",
        crossed.len(),
        crossed.first()
    );

    let copies = report.relocations() + report.re_replications;
    let updates = report.updates_propagated;
    assert!(copies > 0 && updates > 0, "the run relocates and updates");
    let check = |what: &str, series: &TimeSeries, count: u64| {
        let bound = size * MAX_HOPS * count as f64;
        for (bin, &sum) in series.sums().iter().enumerate() {
            assert!(
                sum <= bound,
                "{what} bin {bin}: {sum:e} bytes×hops exceeds {bound:e}"
            );
        }
    };
    check("overhead", &report.overhead_bandwidth, copies);
    check("update", &report.update_bandwidth, updates);
}
