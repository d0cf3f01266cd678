//! Consistency-limited replication (paper §5): objects whose per-access
//! updates do not commute can keep only a bounded number of replicas —
//! or none beyond the primary at all. This example hosts a mixed catalog
//! with live provider updates and shows the placement policy respecting
//! each class's cap while still replicating the unrestricted objects
//! freely; the update stream demonstrates the semantic split — type-1
//! versions propagate asynchronously (each secondary has a measurable
//! staleness window) while type-3 updates apply synchronously at every
//! copy, so capped objects are never stale.
//!
//! ```text
//! cargo run --release --example consistency_caps
//! ```

use radar::core::{Catalog, ObjectId, ObjectKind, OBJECT_SIZE};
use radar::sim::{Scenario, Simulation};
use radar::simcore::SimRng;
use radar::simnet::NodeId;
use radar::workload::{Uniform, Workload};

const OBJECTS: u32 = 300;

/// All objects equally popular and hot enough to invite replication.
#[derive(Debug)]
struct HotEverywhere {
    inner: Uniform,
}

impl Workload for HotEverywhere {
    fn choose(&mut self, now: f64, gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        self.inner.choose(now, gateway, rng)
    }

    fn name(&self) -> &str {
        "hot-everywhere"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-way catalog split:
    //   type 1 (static pages)         → replicate freely,
    //   type 3 relaxed (max 2 copies) → bounded replication,
    //   type 3 strict (single copy)   → migrate-only.
    let kinds: Vec<ObjectKind> = (0..OBJECTS)
        .map(|i| match i % 3 {
            0 => ObjectKind::Immutable,
            1 => ObjectKind::NonCommuting { max_replicas: 2 },
            _ => ObjectKind::NonCommuting { max_replicas: 1 },
        })
        .collect();
    let primaries = (0..OBJECTS).map(|i| NodeId::new((i % 53) as u16)).collect();
    let catalog = Catalog::from_parts(kinds, OBJECT_SIZE, primaries);

    let scenario = Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(8.0)
        .duration(1_200.0)
        .catalog(catalog)
        .update_rate(1.0)
        .seed(21)
        .build()?;

    println!("simulating a mixed-consistency catalog ({OBJECTS} objects)…\n");
    let report = Simulation::new(
        scenario,
        Box::new(HotEverywhere {
            inner: Uniform::new(OBJECTS),
        }),
    )
    .run();

    let mut max_replicas = [0usize; 3];
    let mut sum_replicas = [0usize; 3];
    let mut counts = [0usize; 3];
    for i in 0..OBJECTS {
        let class = (i % 3) as usize;
        let n = report.final_replicas[i as usize].len();
        max_replicas[class] = max_replicas[class].max(n);
        sum_replicas[class] += n;
        counts[class] += 1;
    }
    println!("final physical replicas per consistency class:");
    for (class, label) in [
        "type 1 (immutable, uncapped)",
        "type 3 (non-commuting, cap 2)",
        "type 3 (non-commuting, cap 1)",
    ]
    .iter()
    .enumerate()
    {
        println!(
            "  {label:34} avg {:.2}, max {}",
            sum_replicas[class] as f64 / counts[class] as f64,
            max_replicas[class]
        );
    }
    assert!(max_replicas[1] <= 2, "cap-2 objects exceeded their cap");
    assert!(max_replicas[2] <= 1, "cap-1 objects exceeded their cap");
    println!(
        "\ncaps held: bounded objects never exceeded their replica limits, \
         while migration kept them mobile ({} migrations total).",
        report.geo_migrations + report.offload_migrations
    );

    let [t1_updates, _, t3_updates] = report.updates_by_class;
    println!("\nprovider updates ({} total):", report.updates_propagated);
    println!(
        "  type 1: {t1_updates} propagated asynchronously — \
         {} deliveries, mean staleness {:.2} s (max {:.2} s)",
        report.update_deliveries, report.update_lag_type1.mean, report.update_lag_type1.max
    );
    println!(
        "  type 3: {t3_updates} applied synchronously at every copy — \
         zero staleness by construction"
    );
    assert!(t1_updates > 0, "no type-1 updates were issued");
    assert!(t3_updates > 0, "no type-3 updates were issued");
    assert!(
        report.update_lag_type1.count > 0,
        "asynchronous propagation recorded no staleness samples"
    );
    // The catalog has no type-2 objects, and type-3 updates never travel
    // as deferred deliveries, so every staleness sample is type-1.
    assert_eq!(report.update_lag_type2.count, 0);
    Ok(())
}
