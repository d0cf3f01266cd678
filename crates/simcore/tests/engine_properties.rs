//! Property tests of the discrete-event engine: total ordering of the
//! event list and conservation laws of the FIFO server, exercised over
//! deterministic seeded sweeps of random schedules.

use radar_simcore::{EventQueue, FifoServer, SimDuration, SimRng, SimTime};

#[test]
fn event_queue_pops_sorted_and_stable() {
    let mut rng = SimRng::seed_from(0xE7E27);
    for _ in 0..256 {
        let times: Vec<u64> = (0..1 + rng.index(199))
            .map(|_| rng.index(1000) as u64)
            .collect();
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), (t, seq));
        }
        let mut popped = Vec::new();
        while let Some((t, payload)) = q.pop() {
            assert_eq!(t.as_micros(), payload.0);
            popped.push(payload);
        }
        assert_eq!(popped.len(), times.len());
        // Non-decreasing times; equal times preserve scheduling order.
        for w in popped.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }
}

#[test]
fn event_queue_interleaved_operations_keep_order() {
    // Mix schedules and pops; popped timestamps must never go
    // backwards, and schedules always land at/after "now".
    let mut rng = SimRng::seed_from(0x17E21);
    for _ in 0..256 {
        let ops: Vec<(u64, bool)> = (0..1 + rng.index(199))
            .map(|_| (rng.index(1000) as u64, rng.chance(0.5)))
            .collect();
        let mut q = EventQueue::new();
        let mut last_popped = SimTime::ZERO;
        for &(dt, pop) in &ops {
            if pop {
                if let Some((t, ())) = q.pop() {
                    assert!(t >= last_popped);
                    last_popped = t;
                }
            } else {
                let t = q.now() + SimDuration::from_micros(dt);
                q.schedule(t, ());
            }
        }
        while let Some((t, ())) = q.pop() {
            assert!(t >= last_popped);
            last_popped = t;
        }
    }
}

#[test]
fn fifo_server_conserves_work() {
    let mut rng = SimRng::seed_from(0xF1F0);
    for _ in 0..256 {
        let gaps: Vec<u64> = (0..1 + rng.index(299))
            .map(|_| rng.index(20_000) as u64)
            .collect();
        let service_us = 1 + rng.index(9_999) as u64;
        let mut server = FifoServer::new(SimDuration::from_micros(service_us));
        let mut t = SimTime::ZERO;
        let mut last_completion = SimTime::ZERO;
        let mut total_busy = 0u64;
        for &gap in &gaps {
            t += SimDuration::from_micros(gap);
            let out = server.offer(t);
            // FIFO: completions never overtake one another.
            assert!(out.completion > last_completion);
            // Service starts no earlier than arrival and no earlier than
            // the previous completion.
            assert!(out.start >= t);
            assert!(out.start >= last_completion);
            // Exactly one service time per request.
            assert_eq!(
                out.completion - out.start,
                SimDuration::from_micros(service_us)
            );
            assert!(out.sojourn(t) >= SimDuration::from_micros(service_us));
            last_completion = out.completion;
            total_busy += service_us;
        }
        assert_eq!(server.serviced(), gaps.len() as u64);
        assert_eq!(server.busy_time().as_micros(), total_busy);
        // Work conservation: the server is never idle while work waits,
        // so the last completion is exactly max over prefixes of
        // (arrival_i + remaining work at i).
        assert!(server.busy_until() == last_completion);
        // Backlog drains to zero after the last completion.
        assert_eq!(server.backlog_at(last_completion), 0);
    }
}

#[test]
fn fifo_backlog_counts_unfinished_work() {
    let mut rng = SimRng::seed_from(0xBAC1);
    for _ in 0..64 {
        let burst = 1 + rng.index(99) as u64;
        let service_ms = 1 + rng.index(49) as u64;
        let service = SimDuration::from_micros(service_ms * 1000);
        let mut server = FifoServer::new(service);
        for _ in 0..burst {
            server.offer(SimTime::ZERO);
        }
        // At time k × service, exactly k requests have finished.
        for k in 0..=burst {
            let now = SimTime::ZERO + service * k;
            assert_eq!(server.backlog_at(now), burst - k);
        }
    }
}
