//! Property tests of the discrete-event engine: total ordering of the
//! event list and conservation laws of the FIFO server, exercised over
//! deterministic seeded sweeps of random schedules.

use radar_simcore::{EventQueue, FifoServer, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The wheel under test beside the model it must equal: a binary heap
/// ordered by `(time, seq)`, the payload being the sequence number.
struct Differential {
    wheel: EventQueue<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    now: u64,
    next_seq: u64,
    steps: u64,
}

impl Differential {
    fn new() -> Self {
        Self {
            wheel: EventQueue::new(),
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            steps: 0,
        }
    }

    /// `len`, `now` and `peek_time` agree; called after every operation.
    fn check(&mut self) {
        self.steps += 1;
        assert_eq!(self.wheel.len(), self.heap.len());
        assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
        assert_eq!(self.wheel.now().as_micros(), self.now);
        let earliest = self.heap.peek().map(|&Reverse((t, _))| t);
        assert_eq!(self.wheel.peek_time().map(SimTime::as_micros), earliest);
    }

    fn schedule(&mut self, time: u64) {
        self.wheel
            .schedule(SimTime::from_micros(time), self.next_seq);
        self.heap.push(Reverse((time, self.next_seq)));
        self.next_seq += 1;
        self.check();
    }

    /// `pop_through(limit)` on both; `true` if an event came out.
    fn pop_through(&mut self, limit: u64) -> bool {
        let expected = match self.heap.peek() {
            Some(&Reverse((t, _))) if t <= limit => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        };
        let got = self.wheel.pop_through(SimTime::from_micros(limit));
        assert_eq!(got.map(|(t, seq)| (t.as_micros(), seq)), expected);
        if let Some((t, _)) = expected {
            self.now = t;
        }
        self.check();
        expected.is_some()
    }

    fn pop(&mut self) -> bool {
        self.pop_through(u64::MAX)
    }

    /// A seeded mix of bursts, pops, bounded pops and drains. Times are
    /// `now` plus one of `deltas`, or a time scheduled earlier and still
    /// in the future — the second event for an instant then arrives after
    /// the first may have been re-filed.
    fn run_mix(&mut self, rng: &mut SimRng, steps: u64, deltas: &[u64], depth: usize) {
        let mut seen = [0u64; 16];
        let target = self.steps + steps;
        while self.steps < target {
            let pop_chance = if self.heap.len() > depth { 0.7 } else { 0.45 };
            if rng.chance(pop_chance) {
                self.pop();
            } else if rng.chance(0.1) {
                // Bounded pop with the limit below, at and above the
                // earliest time; a refusal leaves `now` schedulable.
                let earliest = self.heap.peek().map_or(self.now, |&Reverse((t, _))| t);
                let limit = match rng.index(4) {
                    0 => earliest.saturating_sub(1).max(self.now),
                    1 => earliest,
                    2 => earliest.saturating_add(1 + rng.index(300) as u64),
                    _ => self.now,
                };
                if !self.pop_through(limit) {
                    self.schedule(self.now);
                }
            } else if rng.chance(0.002) {
                while self.pop() {}
            } else {
                let remembered = seen[rng.index(seen.len())];
                let time = if remembered >= self.now && rng.chance(0.3) {
                    remembered
                } else {
                    self.now.saturating_add(deltas[rng.index(deltas.len())])
                };
                seen[rng.index(seen.len())] = time;
                for _ in 0..1 + rng.index(4) {
                    self.schedule(time);
                }
            }
        }
    }
}

#[test]
fn event_queue_equals_a_time_seq_heap_over_a_million_operations() {
    // Every byte boundary of the wheel, from the same microsecond to
    // the end of the clock.
    let boundaries = [
        0,
        1,
        255,
        256,
        65_535,
        65_536,
        1 << 24,
        1 << 32,
        1 << 56,
        u64::MAX,
    ];
    let mut rng = SimRng::seed_from(0xD1FF);
    let mut total = 0;

    // Dense: a handful of microseconds apart, long equal-time runs.
    let mut dense = Differential::new();
    dense.run_mix(
        &mut rng,
        400_000,
        &[0, 0, 1, 2, 3, 7, 100, 255, 256, 257],
        300,
    );
    total += dense.steps;

    // The simulator's own scales: service times, hop delays, timers.
    let mut scales = Differential::new();
    scales.run_mix(
        &mut rng,
        400_000,
        &[
            0,
            1,
            255,
            256,
            5_000,
            10_000,
            25_000,
            65_535,
            65_536,
            1 << 24,
        ],
        2_000,
    );
    total += scales.steps;

    // Every boundary, restarted often: the far deltas walk the clock to
    // its end, where every time saturates to `SimTime::MAX`.
    for _ in 0..25 {
        let mut far = Differential::new();
        far.run_mix(&mut rng, 10_000, &boundaries, 200);
        while far.pop() {}
        assert!(far.wheel.is_empty());
        // Drained, then reused: freed nodes carry the next events.
        far.run_mix(&mut rng, 2_000, &boundaries[..7], 200);
        total += far.steps;
    }
    assert!(total >= 1_000_000, "only {total} checked steps");
}

#[test]
fn event_queue_keeps_equal_times_together_across_a_refile() {
    let mut d = Differential::new();
    d.schedule(70_000); // a: level 2 seen from time 0
    d.schedule(300);
    assert!(d.pop()); // now = 300; `a` has not moved
    d.schedule(70_000); // b: joins `a`
    d.schedule(66_000); // shares their level-2 slot
    assert!(d.pop()); // now = 66 000: the slot is re-filed, a and b to level 1
    d.schedule(70_000); // c: must land behind a and b
    d.schedule(69_999);
    d.schedule(u64::MAX);
    d.schedule(70_000); // d
    while d.pop() {}
    assert_eq!(d.now, u64::MAX);
    // At the end of the clock the only schedulable time is the clock.
    d.schedule(u64::MAX);
    d.schedule(d.now.saturating_add(1));
    assert!(!d.pop_through(u64::MAX - 1));
    assert!(d.pop() && d.pop() && !d.pop());
}

#[test]
fn event_queue_keeps_the_minimum_of_a_slot_filed_in_decreasing_order() {
    // Each upper slot keeps its earliest time as events are filed. Here
    // every event is earlier than all before it in its slot, so a kept
    // minimum that failed to drop would show in `peek_time`, which the
    // model checks after every operation.
    let mut d = Differential::new();
    // One level-1 slot: 511 down to 256, seen from time 0.
    for t in (256..512).rev() {
        d.schedule(t);
    }
    // One level-2 slot: 2^17 + 256·257 down to 2^17, in strides of 257.
    let base = 2 << 16;
    for k in (0..=256).rev() {
        d.schedule(base + k * 257);
    }
    // The first pop re-files the level-1 slot around now = 256.
    assert!(d.pop());
    assert_eq!(d.now, 256);
    // More of the level-2 slot, decreasing, below and between the rest.
    for k in (0..64).rev() {
        d.schedule(base + 100 + k * 3);
    }
    // Draining re-files the level-2 slot into level-1 slots, whose
    // minima are kept by re-filing alone.
    while d.pop() {}
    assert_eq!(d.now, base + 256 * 257);
    // Every event filed and popped, checked after each step.
    assert_eq!(d.steps, 2 * (256 + 257 + 64) + 1);
}

#[test]
fn event_queue_survives_a_flood_on_one_microsecond() {
    // 200 000 events for the same instant, beside sparse neighbours.
    // Quadratic under any design that scans a slot per pop.
    const FLOOD: u64 = 200_000;
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_micros(1_000_002), u64::MAX);
    for i in 0..FLOOD {
        q.schedule(SimTime::from_micros(1_000_003), i);
    }
    q.schedule(SimTime::from_micros(1_000_004), u64::MAX);
    assert_eq!(q.len() as u64, FLOOD + 2);
    assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_002), u64::MAX)));
    for i in 0..FLOOD {
        if i == FLOOD / 2 {
            // A late joiner still goes to the back.
            q.schedule(SimTime::from_micros(1_000_003), FLOOD);
        }
        assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_003), i)));
    }
    assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_003), FLOOD)));
    assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_004), u64::MAX)));
    assert_eq!(q.pop(), None);
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
        }
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
