//! The five benchmark workloads: what each simulates and why it was
//! chosen. All run on the built-in 53-node UUNET topology with the
//! serial loop, radar selection and radar placement.

use radar_core::{Catalog, ConsistencyMix};
use radar_sim::{FaultSpec, Scenario, ScenarioError};
use radar_simnet::Topology;

/// Width of one timed slice in simulated seconds: one placement period.
pub const SLICE_SIM_SECONDS: f64 = 100.0;

/// Which observers the workload itself attaches (the untraced
/// end-to-end runs attach nothing else).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// None: the bare loop.
    Bare,
    /// What `radar simulate --events F --ledger` attaches: a shared
    /// recorder streaming JSONL into a sink, the loop profile, and the
    /// object ledger.
    EventsAndLedger,
}

/// One workload: a stated simulated input.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Hosted objects.
    pub objects: u32,
    /// Requests per second per gateway (simulated, open loop).
    pub rate: f64,
    /// Simulated seconds at full scale.
    pub duration: f64,
    /// Simulated seconds under `--quick`.
    pub quick_duration: f64,
    /// Popularity model, a `radar_bench::make_workload` name.
    pub popularity: &'static str,
    /// Observers the workload attaches.
    pub observers: Observers,
    /// Writes beside reads, four redirectors and a generated fault
    /// schedule.
    pub faulted_updates: bool,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_zipf",
        why: "Table 1 run (10k objects, 53x40 req/s, 3000 s, zipf): shallow queue, redirect cache always hits, so the four per-request handlers are ~98% of handler time; placement and obs do nothing",
        objects: 10_000,
        rate: 40.0,
        duration: 3_000.0,
        quick_duration: 300.0,
        popularity: "zipf",
        observers: Observers::Bare,
        faulted_updates: false,
    },
    Workload {
        name: "hot_sites_backlog",
        why: "same scale, hot-sites, 1000 s: saturated hosts make the event heap two orders deeper and every handler slower; offload-mode placement runs only here; shallow-queue-only gains do not show",
        objects: 10_000,
        rate: 40.0,
        duration: 1_000.0,
        quick_duration: 100.0,
        popularity: "hot-sites",
        observers: Observers::Bare,
        faulted_updates: false,
    },
    Workload {
        name: "placement_heavy_100k",
        why: "100k objects at 2 req/s for 12000 s: a long cold tail makes placement epochs and load sampling dominate and the per-request path idle; where peak_rss_mb and setup_s move",
        objects: 100_000,
        rate: 2.0,
        duration: 12_000.0,
        quick_duration: 1_200.0,
        popularity: "zipf",
        observers: Observers::Bare,
        faulted_updates: false,
    },
    Workload {
        name: "traced_zipf",
        why: "paper_zipf for 600 s with --events and --ledger attached (JSONL into a byte-counting sink): obs fan-out and formatting do most of the work, the core loop a third; paper_zipf must not notice",
        objects: 10_000,
        rate: 40.0,
        duration: 600.0,
        quick_duration: 60.0,
        popularity: "zipf",
        observers: Observers::EventsAndLedger,
        faulted_updates: false,
    },
    Workload {
        name: "faulted_updates",
        why: "paper scale for 1000 s with mixed-consistency writes, 4 redirectors and generated host/link faults: purges, re-replication, set_link recomputes and cache invalidation; read-path-only gains do not show",
        objects: 10_000,
        rate: 40.0,
        duration: 1_000.0,
        // Not a tenth: below 170 s the generator schedules no fault.
        quick_duration: 300.0,
        popularity: "zipf",
        observers: Observers::Bare,
        faulted_updates: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Topology links as the index pairs `FaultSpec` speaks.
pub fn link_pairs(topology: &Topology) -> Vec<(u16, u16)> {
    topology
        .links()
        .iter()
        .map(|&(a, b)| (a.index() as u16, b.index() as u16))
        .collect()
}

/// The `faulted_updates` schedule: a pure function of
/// `(seed, duration, topology)`. Every 50 s one host goes down for 90 s
/// and, 10 s later, one link for 90 s; the declare-dead timeout (60 s)
/// falls inside each host window, so purge and re-replication run.
pub fn generate_faults(seed: u64, duration: f64, topology: &Topology) -> FaultSpec {
    let links = link_pairs(topology);
    let nodes = topology.len() as u64;
    let mut spec = FaultSpec::new()
        .with_min_replicas(2)
        .with_declare_dead_after(60.0);
    let mut i = 0u64;
    loop {
        let t = 50.0 * (i + 1) as f64;
        if t + 120.0 >= duration {
            break;
        }
        let host = (7 * i + seed) % nodes;
        let (a, b) = links[((13 * i + seed) % links.len() as u64) as usize];
        spec = spec.host_down(host as u16, t, Some(t + 90.0)).link_down(
            a,
            b,
            t + 10.0,
            Some(t + 100.0),
        );
        i += 1;
    }
    spec
}

impl Workload {
    /// Builds the scenario for `seed` over `duration` simulated seconds.
    /// The seed feeds the scenario RNG, the workload's structure seed
    /// (see [`Workload::popularity`]) and the fault generator.
    pub fn scenario(&self, seed: u64, duration: f64) -> Result<Scenario, ScenarioError> {
        let mut builder = Scenario::builder()
            .num_objects(self.objects)
            .node_request_rate(self.rate)
            .duration(duration)
            .seed(seed);
        if self.faulted_updates {
            let topology = radar_simnet::builders::uunet();
            let faults = generate_faults(seed, duration, &topology);
            faults.validate(topology.len(), &link_pairs(&topology))?;
            builder = builder
                .catalog(Catalog::with_mix(
                    self.objects,
                    12 * 1024,
                    topology.len() as u16,
                    ConsistencyMix::Mixed,
                ))
                .update_rate(200.0)
                .num_redirectors(4)
                .faults(faults)
                .topology(topology);
        }
        builder.build()
    }

    /// Simulated duration at the given scale.
    pub fn duration(&self, quick: bool) -> f64 {
        if quick {
            self.quick_duration
        } else {
            self.duration
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_generator_is_pure_and_round_trips() {
        let topology = radar_simnet::builders::uunet();
        for seed in [1, 2, 99] {
            let a = generate_faults(seed, 1_000.0, &topology);
            let b = generate_faults(seed, 1_000.0, &topology);
            assert_eq!(a, b);
            assert_eq!(a.faults().len(), 34, "17 host + 17 link windows");
            a.validate(topology.len(), &link_pairs(&topology)).unwrap();
            let back = FaultSpec::from_text(&a.to_text()).unwrap();
            assert_eq!(back, a);
        }
        assert_ne!(
            generate_faults(1, 1_000.0, &topology),
            generate_faults(2, 1_000.0, &topology)
        );
        assert_ne!(
            generate_faults(1, 1_000.0, &topology),
            generate_faults(1, 500.0, &topology)
        );
        assert!(generate_faults(1, 170.0, &topology).is_empty());
        assert_eq!(generate_faults(1, 300.0, &topology).faults().len(), 6);
    }

    #[test]
    fn every_workload_builds_at_both_scales() {
        for w in &WORKLOADS {
            for quick in [false, true] {
                let s = w.scenario(3, w.duration(quick)).unwrap();
                assert_eq!(s.num_objects, w.objects);
                assert_eq!(s.faults.is_empty(), !w.faulted_updates);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
