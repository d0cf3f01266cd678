//! Allocator-call counting for the allocation-budget tests below and
//! for the repo benchmark's traced binary (`benchmark-traced`), which
//! installs [`CountingAlloc`] as its global allocator. Wall-clock
//! timing of the layers lives in `benchmark/run.sh`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide allocator-call count (allocs plus reallocs) since
/// start, maintained by [`CountingAlloc`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Process-wide bytes requested from the allocator since start.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread mirrors of the global counters, so [`CountingAlloc::measure`]
    // is immune to allocator traffic on other threads (e.g. parallel
    // tests). `const`-initialized Cells: reading or bumping them never
    // allocates, which keeps the allocator hooks re-entrancy-free.
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper over the system allocator, for allocation-budget
/// tests and the repo benchmark's traced binary. Install it with
/// `#[global_allocator]`; it delegates every call to [`System`] and
/// only bumps two counters, so instrumented binaries behave identically
/// apart from the bookkeeping.
///
/// This workspace takes no external dependencies, so the counting is
/// hand-rolled here rather than pulled from a crate.
pub struct CountingAlloc;

/// Allocator activity observed across one [`CountingAlloc::measure`]
/// call, on the calling thread only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocator calls that obtained memory (`alloc` + `realloc`).
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl CountingAlloc {
    /// Allocator calls made by the whole process so far. Zero unless
    /// the running binary installed [`CountingAlloc`] as its
    /// `#[global_allocator]`.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes requested from the allocator by the whole process so far.
    pub fn allocated_bytes() -> u64 {
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    }

    /// Runs `f` and reports how much allocator traffic it generated on
    /// this thread (work `f` moves to other threads is not counted).
    pub fn measure<R>(f: impl FnOnce() -> R) -> (AllocDelta, R) {
        let before = (TL_ALLOCATIONS.get(), TL_BYTES.get());
        let result = f();
        let delta = AllocDelta {
            allocations: TL_ALLOCATIONS.get() - before.0,
            bytes: TL_BYTES.get() - before.1,
        };
        (delta, result)
    }
}

// The workspace's one sanctioned `unsafe` site: a `GlobalAlloc` impl
// is an unsafe trait, and this one only counts and delegates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        TL_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size()) as u64;
        ALLOCATED_BYTES.fetch_add(grown, Ordering::Relaxed);
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        TL_BYTES.with(|c| c.set(c.get() + grown));
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_sees_boxed_allocations() {
        let (delta, b) = CountingAlloc::measure(|| Box::new([0u8; 4096]));
        assert!(delta.allocations >= 1, "{delta:?}");
        assert!(delta.bytes >= 4096, "{delta:?}");
        drop(b);
        let (delta, v) = CountingAlloc::measure(|| Vec::<u64>::with_capacity(8));
        assert_eq!(delta.allocations, 1, "{delta:?}");
        drop(v);
        // A no-op closure allocates nothing.
        let (delta, ()) = CountingAlloc::measure(|| {});
        assert_eq!(delta.allocations, 0, "{delta:?}");
    }

    /// Once the recorder's line buffer is warm, tracing a redirect
    /// `Decision` event — the hottest event type — into a sink performs
    /// zero heap allocations.
    #[test]
    fn traced_decision_event_records_without_allocating() {
        use radar_sim::obs::{
            CandidateSnapshot, DecisionBranch, DecisionEvent, Event, EventKind, Recorder,
            DEFAULT_CAPACITY,
        };
        let probe = |seq: u64| Event {
            seq,
            parent: Some(1),
            t: 2.5,
            queue_depth: 3,
            kind: EventKind::Decision(DecisionEvent {
                object: 7,
                gateway: 1,
                chosen: 4,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(4),
                least: Some(5),
                unit_closest: Some(1.0),
                unit_least: Some(3.0),
                candidates: (0..8)
                    .map(|h| CandidateSnapshot {
                        host: h,
                        rcnt: 2,
                        aff: 1,
                        unit: 2.0,
                        distance: 3,
                    })
                    .collect(),
            }),
        };
        let mut recorder = Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(std::io::sink()));
        // Warm-up: size the line buffer.
        for seq in 0..100 {
            recorder.record(&probe(seq));
        }
        let event = probe(1_000);
        let (delta, ()) = CountingAlloc::measure(|| {
            for _ in 0..1_000 {
                recorder.record(&event);
            }
        });
        assert_eq!(
            delta.allocations, 0,
            "steady-state decision tracing must not allocate: {delta:?}"
        );
        assert_eq!(recorder.recorded(), 1_100);
    }

    /// Reads the allocator calls of the thread it runs on — the
    /// observer thread — each time it is handed an event.
    struct ObserverThreadAllocations(std::sync::Arc<AtomicU64>);

    impl radar_sim::Observer for ObserverThreadAllocations {
        fn wants_events(&self) -> bool {
            true
        }

        fn on_event(&mut self, _event: &radar_sim::obs::Event) {
            self.0
                .store(TL_ALLOCATIONS.with(Cell::get), Ordering::Relaxed);
        }
    }

    /// Satellite: a warmed-up seed-42 traced run stays within a fixed
    /// allocation budget per placement epoch — the steady-state request
    /// path (redirects, host arrivals, completions, their events and
    /// their hand-off to the observer thread) contributes none, so total
    /// allocator traffic is bounded by the per-epoch placement work
    /// alone. The observers are what `traced_zipf` attaches — a streamed
    /// recorder and the object ledger — and their thread's allocations
    /// count too.
    #[test]
    fn seed42_steady_state_run_stays_within_allocation_budget() {
        use radar_sim::obs::{Recorder, SharedRecorder, DEFAULT_CAPACITY};
        use radar_sim::{Scenario, Simulation};
        let scenario = Scenario::builder()
            .num_objects(64)
            .node_request_rate(0.5)
            .duration(600.0)
            .seed(42)
            .build()
            .expect("valid scenario");
        let workload = crate::make_workload("zipf", 64, 42);
        // Streamed to a sink, as `radar simulate --events` does: the
        // recorder's only buffer is one reused line.
        let recorder = SharedRecorder::from_recorder(
            Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(std::io::sink())),
        );
        let mut sim = Simulation::new(scenario, workload);
        sim.attach_observer(Box::new(recorder.clone()));
        sim.enable_object_ledger();
        let observer_thread = std::sync::Arc::new(AtomicU64::new(0));
        sim.attach_observer(Box::new(ObserverThreadAllocations(observer_thread.clone())));
        // Warm-up: two full placement rounds, so every scratch buffer
        // and per-host structure has reached steady state.
        sim.run_until(250.0);
        let before = recorder.with(Recorder::recorded);
        let observer_before = observer_thread.load(Ordering::Relaxed);
        let (delta, ()) = CountingAlloc::measure(|| sim.run_until(450.0));
        let events = recorder.with(Recorder::recorded) - before;
        let observer_allocations = observer_thread.load(Ordering::Relaxed) - observer_before;
        let allocations = delta.allocations + observer_allocations;
        // The 200 s window covers two placement rounds (period 100 s)
        // across 53 hosts = 106 placement epochs, and roughly 5 300
        // traced requests. The budget is per-epoch placement work plus
        // slack; the request path must contribute ~nothing, so the
        // ratio stays far below one allocation per event.
        assert!(events > 10_000, "window saw only {events} events");
        let per_epoch = allocations as f64 / 106.0;
        assert!(
            per_epoch <= 25.0,
            "placement epochs exceed their allocation budget: {delta:?} on the \
             simulation thread and {observer_allocations} on the observer thread \
             over 106 epochs = {per_epoch:.1} per epoch"
        );
        let per_event = allocations as f64 / events as f64;
        assert!(
            per_event < 0.15,
            "steady state allocates too much: {allocations} allocations over \
             {events} events = {per_event:.3} per event"
        );
    }

    /// Set-up memory follows what is hosted (one directory entry and one
    /// host-table row per replica), not catalogue × gateways: 100 000
    /// objects on the 53-node UUNET backbone must bootstrap in under
    /// 16 MB of allocator requests. A per-(gateway, object) table of
    /// even 8-byte slots would alone ask for 42 MB; the candidate cache
    /// that used to sit here asked for > 250 MB. A sole replica holds
    /// no heap block of its own, so the allocator calls stay far below
    /// one per object (a `Vec` per replica set made 104 421).
    #[test]
    fn set_up_memory_does_not_scale_with_objects_times_gateways() {
        use radar_sim::{Scenario, Simulation};
        const OBJECTS: u32 = 100_000;
        let scenario = Scenario::builder()
            .num_objects(OBJECTS)
            .node_request_rate(2.0)
            .duration(100.0)
            .seed(1)
            .build()
            .expect("valid scenario");
        assert_eq!(scenario.topology.len(), 53, "the UUNET default");
        let workload = crate::make_workload("zipf", OBJECTS, 1);
        let (delta, sim) = CountingAlloc::measure(|| {
            let mut sim = Simulation::new(scenario, workload);
            sim.run_until(0.0); // bootstrap: initial placement, first timers
            sim
        });
        assert_eq!(
            sim.redirector().directory().total_replicas(),
            u64::from(OBJECTS)
        );
        assert!(
            delta.bytes < 16 << 20,
            "set-up requested {:.1} MB from the allocator",
            delta.bytes as f64 / (1 << 20) as f64
        );
        assert!(
            delta.allocations < u64::from(OBJECTS / 10),
            "set-up made {} allocator calls for {OBJECTS} objects",
            delta.allocations
        );
    }

    /// The end of a run builds its report's replica table flat (one
    /// block of offsets, one of pairs), so `finish()` on 100 000
    /// objects makes no allocator call per object.
    #[test]
    fn finish_makes_no_heap_block_per_object() {
        use radar_sim::{Scenario, Simulation};
        const OBJECTS: u32 = 100_000;
        let scenario = Scenario::builder()
            .num_objects(OBJECTS)
            .node_request_rate(2.0)
            .duration(150.0)
            .seed(1)
            .build()
            .expect("valid scenario");
        let workload = crate::make_workload("zipf", OBJECTS, 1);
        let mut sim = Simulation::new(scenario, workload);
        sim.run_until(150.0); // one placement round on every host
        let (delta, report) = CountingAlloc::measure(|| sim.finish());
        assert_eq!(report.final_replicas.len(), OBJECTS as usize);
        assert!(report.final_replicas.iter().all(|set| !set.is_empty()));
        assert!(
            delta.allocations < 1_000,
            "finish() made {} allocator calls for {OBJECTS} objects",
            delta.allocations
        );
    }
}
