//! Fault injection: a host crashes mid-run and recovers, a second host
//! is lost for good — watch the redirector route around the corpses,
//! the primary absorb orphaned demand, and the catalog re-replicate
//! once the dead host's declare-dead timer fires.
//!
//! ```text
//! cargo run --release --example flaky_hosts
//! ```

use std::sync::{Arc, Mutex};

use radar::obs::{Event, EventKind};
use radar::sim::{FaultSpec, Observer, RequestRecord, Scenario, Simulation};
use radar::workload::ZipfReeds;

const OBJECTS: u32 = 2_000;
const DURATION: f64 = 1_200.0;

/// Per-minute served/failed counts plus the fault transitions as they
/// fire, shared with the caller through a handle.
#[derive(Default)]
struct Timeline {
    /// `minutes[m] = (served, failed)`.
    minutes: Vec<(u64, u64)>,
    /// `(t, description)` of every fault transition.
    transitions: Vec<(f64, String)>,
}

impl Timeline {
    fn bump(&mut self, t: f64, failed: bool) {
        let minute = (t / 60.0) as usize;
        if self.minutes.len() <= minute {
            self.minutes.resize(minute + 1, (0, 0));
        }
        let slot = &mut self.minutes[minute];
        if failed {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }
}

#[derive(Clone, Default)]
struct SharedTimeline(Arc<Mutex<Timeline>>);

impl Observer for SharedTimeline {
    fn on_request_served(&mut self, r: &RequestRecord) {
        self.0.lock().unwrap().bump(r.entered, false);
    }

    // Failures and fault transitions arrive on the flight-recorder feed.
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event) {
        match &event.kind {
            EventKind::RequestFailed { .. } => self.0.lock().unwrap().bump(event.t, true),
            EventKind::Fault { desc } => {
                let mut timeline = self.0.lock().unwrap();
                timeline.transitions.push((event.t, desc.clone()));
            }
            _ => {}
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Host 5 crashes at t=300 and is repaired at t=700. Host 12 crashes
    // at t=500 and never comes back; 60 s later the platform declares it
    // dead and re-replicates its objects up to the 2-replica floor.
    let faults = FaultSpec::new()
        .with_declare_dead_after(60.0)
        .with_min_replicas(2)
        .host_down(5, 300.0, Some(700.0))
        .host_down(12, 500.0, None);

    let scenario = Scenario::builder()
        .num_objects(OBJECTS)
        .node_request_rate(10.0)
        .duration(DURATION)
        .seed(42)
        .faults(faults)
        .build()?;

    let timeline = SharedTimeline::default();
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(timeline.clone()));

    println!("simulating {DURATION:.0} s with two host crashes (one fatal)…\n");
    let report = sim.run();

    let timeline = timeline.0.lock().expect("run finished");
    println!("fault transitions:");
    for (t, desc) in &timeline.transitions {
        println!("  t={t:>6.0}  {desc}");
    }

    println!("\nper-minute availability:");
    for (minute, &(served, failed)) in timeline.minutes.iter().enumerate() {
        let total = served + failed;
        let avail = if total == 0 {
            1.0
        } else {
            served as f64 / total as f64
        };
        let bar = "#".repeat((avail * 50.0) as usize);
        println!("  min {minute:>3}  {:>8.4}%  {bar}", avail * 100.0);
    }

    println!(
        "\nwhole-run: {:.4}% availability, {} of {} requests failed",
        report.availability() * 100.0,
        report.failed_requests,
        report.total_requests,
    );
    println!(
        "degradation: {:.1} object-seconds unavailable, {} primary fallbacks",
        report.unavailable_object_seconds, report.primary_fallbacks,
    );
    println!(
        "recovery: {} re-replications, mean {:.1} s to restore the replica floor",
        report.re_replications, report.restore_time.mean,
    );

    // The declared-dead host must hold nothing at the end of the run.
    let on_dead_host = report
        .final_replicas
        .iter()
        .flatten()
        .filter(|&&(host, _)| host == 12)
        .count();
    println!("replicas still on the dead host 12: {on_dead_host}");
    Ok(())
}
