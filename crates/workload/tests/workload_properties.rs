//! Property tests of the workload generators: every generator must stay
//! within the object space, switch demand at the exact instant asked,
//! and be a pure function of its seed.
//!
//! Each property is exercised over a deterministic sweep of seeded
//! cases (the seeds feed [`SimRng`], so a failure reproduces exactly).

use radar_simcore::SimRng;
use radar_simnet::{builders, NodeId};
use radar_workload::{
    ArrivalProcess, DemandShift, HotPages, HotSites, Regional, Uniform, Weighted, Workload,
    ZipfReeds,
};

fn draws(w: &mut dyn Workload, seed: u64, n: usize, gateway: u16) -> Vec<usize> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| w.choose(i as f64, NodeId::new(gateway), &mut rng).index())
        .collect()
}

#[test]
fn all_generators_stay_in_range() {
    let topo = builders::uunet();
    for case in 0..64u64 {
        let mut meta = SimRng::seed_from(0xA11_C0DE ^ case);
        let objects = 4 + meta.index(496) as u32;
        let seed = meta.next_u64();
        let gateway = meta.index(53) as u16;
        let mut rng = SimRng::seed_from(seed);
        let mut all: Vec<Box<dyn Workload + Send>> = vec![
            Box::new(ZipfReeds::new(objects)),
            Box::new(Uniform::new(objects)),
            Box::new(HotSites::new(objects, 53, 0.1, 0.9, &mut rng)),
            Box::new(HotPages::new(objects, 0.25, 0.9, &mut rng)),
            Box::new(Weighted::new((0..objects).map(|i| (i + 1) as f64).collect()).unwrap()),
            Box::new(Regional::new(objects, &topo, 0.2, 0.9)),
        ];
        for w in &mut all {
            for idx in draws(w.as_mut(), seed, 300, gateway) {
                assert!(
                    idx < objects as usize,
                    "{} out of range (case {case}, {objects} objects)",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn generators_are_seed_deterministic() {
    for case in 0..32u64 {
        let mut meta = SimRng::seed_from(0xDE7E_2101 ^ case);
        let objects = 4 + meta.index(196) as u32;
        let seed = meta.next_u64();
        let mut a = ZipfReeds::new(objects);
        let mut b = ZipfReeds::new(objects);
        assert_eq!(draws(&mut a, seed, 200, 0), draws(&mut b, seed, 200, 0));
    }
}

#[test]
fn demand_shift_boundary_is_exact() {
    let mut meta = SimRng::seed_from(0x5117F);
    let ats = [1.0, 2.5, 100.0, 999.0]
        .into_iter()
        .chain((0..12).map(|_| 1.0 + 999.0 * meta.unit()));
    for at in ats {
        let mut w = DemandShift::new(
            Box::new(Uniform::new(1)),
            Box::new(Weighted::new(vec![0.0, 1.0]).unwrap()),
            at,
        );
        let mut rng = SimRng::seed_from(3);
        assert_eq!(w.choose(at - 1e-9, NodeId::new(0), &mut rng).index(), 0);
        assert_eq!(w.choose(at, NodeId::new(0), &mut rng).index(), 1);
    }
}

#[test]
fn deterministic_arrivals_sum_to_rate() {
    let mut meta = SimRng::seed_from(0x0A22_17E5);
    let rates = [0.5, 1.0, 7.25, 40.0, 499.5]
        .into_iter()
        .chain((0..12).map(|_| 0.5 + 499.5 * meta.unit()));
    for rate in rates {
        let mut rng = SimRng::seed_from(1);
        let a = ArrivalProcess::Deterministic { rate };
        let total: f64 = (0..1000).map(|_| a.next_interarrival(&mut rng)).sum();
        // 1000 gaps at rate r span 1000/r seconds exactly.
        assert!(
            (total - 1000.0 / rate).abs() < 1e-6,
            "gap sum {total} at rate {rate}"
        );
    }
}
