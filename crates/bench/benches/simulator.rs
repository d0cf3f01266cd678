//! End-to-end simulator benchmarks: events/second of the full platform
//! and the substrate pieces it is built from. These bound how much
//! simulated time a unit of wall time buys, which is what determines the
//! cost of the paper-scale experiment suite.

use radar_bench::timing::{black_box, Bench};
use radar_sim::{Scenario, Simulation};
use radar_simcore::{EventQueue, FifoServer, SimDuration, SimTime};
use radar_workload::ZipfReeds;

/// Short full-platform runs (60 simulated seconds at paper request
/// rates) for each workload family.
fn bench_platform(b: &mut Bench) {
    for workload in ["zipf", "hot-pages", "regional"] {
        b.bench(&format!("platform_60s/{workload}"), || {
            let scenario = Scenario::builder()
                .num_objects(2_000)
                .duration(60.0)
                .seed(7)
                .build()
                .expect("valid scenario");
            let wl = radar_bench::make_workload(workload, 2_000, 7);
            black_box(Simulation::new(scenario, wl).run());
        });
    }
}

/// Raw event-queue throughput (schedule + pop), the DES inner loop.
fn bench_event_queue(b: &mut Bench) {
    b.bench("event_queue/schedule_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_micros(i * 37 % 50_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc);
    });
    // The hold model — pop the earliest event, schedule it again later —
    // at the queue depths of a shallow and of a saturated run. A
    // multiplicative generator spreads the increments over 0–2·mean so a
    // re-inserted event lands about `depth` positions back.
    for (name, depth) in [("hold_d512", 512u64), ("hold_d64k", 65_536)] {
        let mut q = EventQueue::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut increment = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            SimDuration::from_micros((state >> 33) % (2 * 118 * depth))
        };
        for i in 0..depth {
            q.schedule(SimTime::ZERO + increment(), i);
        }
        b.bench(&format!("event_queue/{name}"), || {
            let (t, v) = q.pop().expect("depth stays constant");
            q.schedule(t + increment(), v);
        });
    }
    // 200 000 events on one microsecond, then drained: quadratic under
    // any design that scans a slot per pop.
    b.bench("event_queue/flood_200k_one_us", || {
        let mut q = EventQueue::new();
        for i in 0..200_000u64 {
            q.schedule(SimTime::from_micros(1_000_003), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc);
    });
}

/// FIFO-server arithmetic, the per-request service-time computation.
fn bench_fifo_server(b: &mut Bench) {
    let mut server = FifoServer::new(SimDuration::from_millis(5.0));
    let mut t = SimTime::ZERO;
    b.bench("fifo_server/offer", || {
        t += SimDuration::from_micros(4_900);
        black_box(server.offer(t));
    });
}

/// Workload sampling cost (the Zipf closed form).
fn bench_workload_sampling(b: &mut Bench) {
    use radar_simcore::SimRng;
    use radar_simnet::NodeId;
    use radar_workload::Workload;
    let mut zipf = ZipfReeds::new(10_000);
    let mut rng = SimRng::seed_from(3);
    b.bench("workload/zipf_choose", || {
        black_box(zipf.choose(0.0, NodeId::new(0), &mut rng));
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_platform(&mut b);
    bench_event_queue(&mut b);
    bench_fifo_server(&mut b);
    bench_workload_sampling(&mut b);
}
