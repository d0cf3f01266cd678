//! The sharded parallel event loop with deterministic epoch barriers.
//!
//! [`Simulation::run_sharded`] splits the object space across worker
//! threads by the same hash partition the paper uses for redirectors
//! (§2 — contiguous object-id ranges, [`radar_core::shard_ranges`]).
//! Each worker owns its slice of the directory
//! ([`radar_core::RedirectorShard`]) for the length of a window and a
//! [`RedirectEngine`] of its own for the whole run; the main thread
//! keeps sequencing the event queue and handles everything except the
//! hot redirect decision, which it *defers* to the owning shard.
//!
//! # The two modes
//!
//! The loop runs in **parallel mode** only while the platform is inside
//! an all-clear window: no fault of any kind active
//! ([`FaultState`](crate::faults) `all_clear`) and the topology fully
//! connected. Inside such a window every replica host is up and every
//! route intact, so the redirect usability filter passes every replica:
//! a decision can never come up empty, the primary-fallback path can
//! never run, and replica sets can only change at events the loop treats
//! as barriers. Outside the window — from the fault transition that
//! breaks it to the one that restores it — the loop falls back to the
//! **serial** handler for every event, which is trivially equivalent to
//! [`Simulation::run`].
//!
//! # Batched hand-off
//!
//! The unit of deferral is a *run*: a maximal stretch of consecutive
//! `Redirect` pops with no other handler in between
//! ([`ShardRuntime::defer_run`]). The whole run is deferred in one go —
//! its queue and flight-recorder sequence numbers reserved as one
//! contiguous block ([`radar_simcore::EventQueue::reserve_seqs`]),
//! its items appended to a per-shard accumulating batch. Batches
//! persist *across* runs: most runs are cut short by an unrelated
//! event (an arrival, a transmission) sitting between two redirects,
//! and the sequencer dispatches those itself while deferred work keeps
//! piling up, so one [`ToShard::Batch`] typically carries many runs'
//! worth of items. A batch ships when it reaches
//! [`BATCH_FLUSH_TARGET`] items, or immediately when a commit or
//! barrier needs its answers; each worker drains a whole batch before
//! replying with a single [`FromShard::Outcomes`]. Transport is a pair
//! of bounded lock-free SPSC rings per worker
//! ([`radar_simcore::spsc`]); both sides wait with the adaptive
//! spin-then-park [`radar_simcore::spsc::Backoff`], so an idle lane
//! parks instead of burning a core.
//!
//! # Determinism
//!
//! A seeded run is byte-identical for any fixed shard count (and any
//! batch cap), and byte-identical to the serial run, because every
//! observable effect of a deferred redirect is pinned at *defer* time
//! (which happens at the exact position the serial loop would handle
//! it):
//!
//! * **Queue order** — the eventual `ArriveAtHost` gets its tie-break
//!   sequence number reserved at defer time, so it sorts exactly where
//!   the serial loop's immediate `schedule` would have put it. Block
//!   reservation for a run is exact: during an uninterrupted run no
//!   handler executes, so nothing else can claim a sequence number
//!   mid-run, and the per-item reservations the serial loop would make
//!   are precisely consecutive.
//! * **Pop safety** — the sequencer never pops an event that could sort
//!   after a still-uncommitted deferred arrival. Each pending redirect
//!   carries a lower bound on its arrival key (defer time + the minimum
//!   propagation delay over the object's replicas, frozen for the
//!   window); the queue head is popped only while its `(time, seq)` key
//!   is below the minimum pending bound. Floor entries are materialized
//!   lazily — staged per run and folded into the floor heap only when
//!   the sequencer actually reaches an event that could conflict — and
//!   a run may extend through its *own* items' bounds up to equality,
//!   because everything already queued outsorts the run's yet-to-come
//!   arrivals on the sequence tie-break. That widens the dispatch
//!   horizon from one decision to whole runs.
//! * **Recorder order** — the decision event's flight-recorder sequence
//!   is reserved at defer time and the whole stream passes through an
//!   [`radar_obs::EventReorderBuffer`], so observers see sequence order
//!   regardless of commit timing.
//! * **Queue depth** — emitted `queue_depth` values use
//!   [`Simulation::depth`], which counts the arrivals still owed by
//!   in-flight redirects and is therefore invariant to commit timing.
//!   Within one run the serial value is constant (each pop shrinks the
//!   queue exactly as the previous item's owed arrival grows), so one
//!   snapshot at run start covers every item.
//! * **Decisions themselves** — Fig. 2 state is per-object, objects are
//!   partitioned, and each shard processes its items in defer order =
//!   serial pop order restricted to its objects (ring FIFO × in-batch
//!   order), so every request count and every choice evolves exactly as
//!   in the serial run.
//!
//! Epoch barriers (placement runs, provider updates, declare-dead
//! sweeps, fault transitions) flush all pending work, recall every
//! shard's state, and run the handler on the reunited directory; the
//! window is then re-split (or the loop drops to serial mode if the
//! fault broke the invariants).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use radar_core::{shard_ranges, ChoiceExplanation, ObjectId, RedirectorShard};
use radar_obs::{
    BarrierCause, LaneProfile, Log2Histogram, ShardProfile, SharedShardProfile, SpanKind,
};
use radar_simcore::{spsc, SimDuration, SimTime};
use radar_simnet::{NodeId, RoutingView};

use crate::lifecycle::fill_decision;
use crate::platform::{Event, Simulation};
use crate::redirect::RedirectEngine;
use crate::report::RunReport;

/// The read-only network fact a worker needs to build candidate lists:
/// the full hop-distance matrix. Captured once per parallel window
/// (distances cannot change inside one — the window ends at any fault
/// transition).
pub(crate) struct NetSnapshot {
    num_nodes: usize,
    /// Row-major `num_nodes × num_nodes` hop distances.
    distances: Vec<u32>,
}

impl NetSnapshot {
    pub(crate) fn from_view(view: &RoutingView) -> Self {
        let n = view.topology().len();
        let mut distances = vec![0u32; n * n];
        for a in 0..n {
            for b in 0..n {
                distances[a * n + b] = view.distance(NodeId::new(a as u16), NodeId::new(b as u16));
            }
        }
        NetSnapshot {
            num_nodes: n,
            distances,
        }
    }

    /// Hop distance between two nodes, as the routing view reported at
    /// capture time.
    pub(crate) fn distance(&self, from: NodeId, to: NodeId) -> u32 {
        self.distances[from.index() * self.num_nodes + to.index()]
    }
}

/// One deferred redirect, batched to the shard owning its object.
struct WorkItem {
    /// Monotonic defer counter; outcomes are matched back by id.
    id: u64,
    object: ObjectId,
    gateway: NodeId,
    /// Capture the Fig. 2 explanation for the flight recorder.
    explain: bool,
}

/// A shard's answer to one [`WorkItem`].
struct WorkOutcome {
    /// Echo of the item's defer counter.
    id: u64,
    host: NodeId,
    explanation: Option<Box<ChoiceExplanation>>,
}

enum ToShard {
    /// Install this window's directory slice (sent at each split).
    State(Box<RedirectorShard>, Arc<NetSnapshot>),
    /// Decide a whole batch of redirects. The second vector is an empty
    /// reply buffer riding along so the worker answers without
    /// allocating; its capacity cycles sequencer → worker → sequencer.
    Batch(Vec<WorkItem>, Vec<WorkOutcome>),
    /// Return the state (sent at each barrier).
    Collect,
}

enum FromShard {
    /// Answers for one whole [`ToShard::Batch`], in batch order. The
    /// spent item vector rides back for recycling.
    Outcomes(Vec<WorkOutcome>, Vec<WorkItem>),
    State {
        shard: usize,
        state: Box<RedirectorShard>,
        /// Cumulative worker telemetry, piggybacked on every collect
        /// when profiling is on (`None` otherwise).
        lane: Option<LaneProfile>,
    },
}

/// Capacity of each SPSC ring (messages, not items — a full batch is
/// one slot). Rounded up to a power of two by the ring itself.
const RING_CAPACITY: usize = 64;

/// Items a shard's accumulating batch must reach before a run end
/// ships it. Batches persist *across* runs — most runs are cut short
/// by an unrelated event (an arrival or transmission) sitting between
/// two redirects, and the sequencer can dispatch those itself while
/// deferred work keeps accumulating — so this is the lever that turns
/// many short runs into one hand-off message. Commits and barriers
/// flush unconditionally, so a partial batch never stalls progress.
const BATCH_FLUSH_TARGET: usize = 16;

/// Cursor-based span accounting: the cursor marks when the current
/// span began; every transition charges `now - cursor` to exactly one
/// [`SpanKind`] and advances the cursor. One `Instant::now()` per
/// transition, no unattributed gaps.
struct SpanClock {
    cursor: Instant,
}

impl SpanClock {
    fn new() -> Self {
        Self {
            cursor: Instant::now(),
        }
    }

    fn charge(&mut self, lane: &mut LaneProfile, kind: SpanKind) {
        let now = Instant::now();
        // duration_since saturates to zero on a non-monotonic step.
        lane.add_span(kind, now.duration_since(self.cursor).as_nanos() as u64);
        self.cursor = now;
    }
}

/// A worker thread's profiling state (engaged by `--profile`).
struct WorkerProf {
    clock: SpanClock,
    lane: LaneProfile,
}

/// The sequencer's profiling state: its own lane, the latest cumulative
/// lane snapshot from each worker, the sequencer-side histograms, and
/// the barrier counters.
struct SeqProf {
    clock: SpanClock,
    /// Run start, for wall-clock coverage.
    started: Instant,
    lane: LaneProfile,
    worker_lanes: Vec<LaneProfile>,
    handoff_ns: Log2Histogram,
    batch_items: Log2Histogram,
    barriers: [u64; BarrierCause::COUNT],
    /// What a blocking front-commit wait counts as: `ChannelWait` in
    /// steady state, `BarrierDrain` while a barrier flushes pending.
    wait_kind: SpanKind,
}

impl SeqProf {
    fn new(shards: usize) -> Self {
        SeqProf {
            clock: SpanClock::new(),
            started: Instant::now(),
            lane: LaneProfile::default(),
            worker_lanes: vec![LaneProfile::default(); shards],
            handoff_ns: Log2Histogram::new(),
            batch_items: Log2Histogram::new(),
            barriers: [0; BarrierCause::COUNT],
            wait_kind: SpanKind::ChannelWait,
        }
    }

    /// Builds the profile as of now (published live at barriers; the
    /// final call becomes [`crate::RunReport::shard_profile`]).
    fn assemble(&self, shards: usize) -> ShardProfile {
        ShardProfile {
            shards,
            wall_ns: self.started.elapsed().as_nanos() as u64,
            sequencer: self.lane,
            workers: self.worker_lanes.clone(),
            handoff_ns: self.handoff_ns,
            batch_items: self.batch_items,
            barriers: self.barriers,
        }
    }
}

/// A deferred redirect awaiting its outcome, with every serial-order
/// fact pinned at defer time.
struct PendingSlot {
    id: u64,
    object: ObjectId,
    gateway: NodeId,
    rnode: NodeId,
    /// Time the redirect event fired.
    t: SimTime,
    /// Original request arrival time.
    t0: SimTime,
    /// Causal parent (the arrival's recorder sequence).
    cause: u64,
    /// Queue depth snapshot for the decision event.
    qd: u32,
    /// Reserved tie-break for the eventual `ArriveAtHost` (assigned in
    /// one contiguous block when the item's run ends).
    queue_seq: u64,
    /// Reserved flight-recorder sequence for the decision (0 untraced).
    rec_seq: u64,
    /// Wall-clock defer instant, set only when profiling: the hand-off
    /// latency histogram records defer → outcome-received per decision.
    deferred_at: Option<Instant>,
    outcome: Option<WorkOutcome>,
}

/// Sends one message up to the sequencer, yielding while the ring is
/// full. Returns `false` when the sequencer is gone (panic unwinding) —
/// the worker should just exit quietly.
fn send_from(tx: &mut spsc::Sender<FromShard>, mut msg: FromShard) -> bool {
    loop {
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(back) => {
                if tx.is_closed() {
                    return false;
                }
                msg = back;
                std::thread::yield_now();
            }
        }
    }
}

fn worker_loop(
    shard_idx: usize,
    mut rx: spsc::Receiver<ToShard>,
    mut tx: spsc::Sender<FromShard>,
    profiled: bool,
) {
    let mut state: Option<(Box<RedirectorShard>, Arc<NetSnapshot>)> = None;
    let mut engine = RedirectEngine::default();
    // Worker span accounting: time waiting on the ring is `Idle`,
    // deciding a batch is `Busy`, installing/returning window state is
    // `Reunite`. The lane is cumulative for the whole run and a copy
    // rides back on every `Collect`, so the sequencer always holds a
    // complete snapshot after a barrier.
    let mut prof = profiled.then(|| WorkerProf {
        clock: SpanClock::new(),
        lane: LaneProfile::default(),
    });
    // Adaptive wait: spin briefly when batches are streaming, park on
    // the ring's doorbell otherwise — an idle lane (and every lane
    // during a serial window) sleeps instead of pegging a core.
    let mut backoff = spsc::Backoff::new();
    while let Some(msg) = rx.recv(&mut backoff) {
        if let Some(p) = &mut prof {
            p.clock.charge(&mut p.lane, SpanKind::Idle);
        }
        match msg {
            ToShard::State(s, net) => {
                state = Some((s, net));
                if let Some(p) = &mut prof {
                    p.clock.charge(&mut p.lane, SpanKind::Reunite);
                }
            }
            ToShard::Batch(mut items, mut reply) => {
                let (s, net) = state.as_mut().expect("state installed before items");
                debug_assert!(reply.is_empty());
                for item in items.drain(..) {
                    let mut explanation =
                        item.explain.then(|| Box::new(ChoiceExplanation::default()));
                    let host = engine
                        .choose_in_shard(
                            item.object,
                            item.gateway,
                            s,
                            net,
                            explanation.as_deref_mut(),
                        )
                        .expect("a fault-free connected window always has a usable replica");
                    reply.push(WorkOutcome {
                        id: item.id,
                        host,
                        explanation,
                    });
                }
                let decided = reply.len() as u64;
                // The drained item vector rides back for recycling.
                if !send_from(&mut tx, FromShard::Outcomes(reply, items)) {
                    return;
                }
                if let Some(p) = &mut prof {
                    p.lane.items += decided;
                    p.clock.charge(&mut p.lane, SpanKind::Busy);
                }
            }
            ToShard::Collect => {
                let (s, _) = state.take().expect("state installed before collect");
                let lane = prof.as_mut().map(|p| {
                    p.clock.charge(&mut p.lane, SpanKind::Reunite);
                    p.lane
                });
                if !send_from(
                    &mut tx,
                    FromShard::State {
                        shard: shard_idx,
                        state: s,
                        lane,
                    },
                ) {
                    return;
                }
            }
        }
    }
}

/// The sequencer-side runtime: worker ring handles, the pending FIFO,
/// and the arrival-key floor that guards pop order.
struct ShardRuntime {
    to_workers: Vec<spsc::Sender<ToShard>>,
    from_rx: Vec<spsc::Receiver<FromShard>>,
    /// One doorbell shared by every worker→sequencer ring, so the
    /// sequencer parks on all reply lanes at once.
    seq_bell: Arc<spsc::Doorbell>,
    /// The sequencer's adaptive spin-then-park wait state.
    seq_backoff: spsc::Backoff,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Object index → owning shard (contiguous ranges).
    shard_of: Vec<usize>,
    /// Deferred redirects in defer (= serial pop) order.
    pending: VecDeque<PendingSlot>,
    /// Min-heap of `(arrival-key lower bound in µs, queue_seq, id)` over
    /// pending items; entries for committed items are stale and removed
    /// lazily.
    floor: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
    /// Floor entries for the latest run(s), not yet folded into the
    /// heap. Folded — and committed items dropped — only when the
    /// sequencer reaches an event that could actually conflict
    /// ([`floor_key`](Self::floor_key)), so items that commit fast
    /// never touch the heap at all.
    floor_staging: Vec<(u64, u64, u64)>,
    /// Per-object lower bound (µs) on redirector→replica propagation.
    bounds: Vec<u64>,
    /// Membership version each bound was computed at: bounds are
    /// refreshed at a split only for objects whose replica set (or the
    /// routing) actually changed since the last window.
    bound_versions: Vec<u64>,
    /// Routing generation the bounds are valid for.
    bound_routing_gen: Option<u64>,
    /// Per-shard batch under construction during a defer run.
    accum: Vec<Vec<WorkItem>>,
    /// Spent item vectors riding back from workers, reused for the next
    /// batches so steady-state hand-off allocates nothing.
    item_pool: Vec<Vec<WorkItem>>,
    /// Drained reply vectors, sent back out with the next batches.
    reply_pool: Vec<Vec<WorkOutcome>>,
    next_item_id: u64,
    /// Whether shard state is currently out with the workers.
    split: bool,
    /// Sequencer-side telemetry, engaged by `--profile`.
    prof: Option<Box<SeqProf>>,
    /// Live snapshot handle for the dashboard, published at barriers.
    live: Option<SharedShardProfile>,
}

impl ShardRuntime {
    fn new(sim: &Simulation, shards: usize) -> Self {
        let profiled = sim.shard_profile_live.is_some();
        let num_objects = sim.scenario.num_objects as usize;
        let mut shard_of = vec![0usize; num_objects];
        for (s, &(start, end)) in shard_ranges(sim.scenario.num_objects, shards)
            .iter()
            .enumerate()
        {
            for slot in &mut shard_of[start as usize..end as usize] {
                *slot = s;
            }
        }
        let seq_bell = Arc::new(spsc::Doorbell::new());
        let mut to_workers = Vec::with_capacity(shards);
        let mut from_rx = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for s in 0..shards {
            // One ring per direction per worker; each worker parks on
            // its own doorbell, the sequencer on the shared one.
            let (to_tx, to_rx) =
                spsc::channel::<ToShard>(RING_CAPACITY, Arc::new(spsc::Doorbell::new()));
            let (from_tx, from) = spsc::channel::<FromShard>(RING_CAPACITY, Arc::clone(&seq_bell));
            to_workers.push(to_tx);
            from_rx.push(from);
            let handle = std::thread::Builder::new()
                .name(format!("radar-shard-{s}"))
                .spawn(move || worker_loop(s, to_rx, from_tx, profiled))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardRuntime {
            to_workers,
            from_rx,
            seq_bell,
            seq_backoff: spsc::Backoff::new(),
            workers,
            shard_of,
            pending: VecDeque::new(),
            floor: BinaryHeap::new(),
            floor_staging: Vec::new(),
            bounds: vec![0; num_objects],
            bound_versions: vec![u64::MAX; num_objects],
            bound_routing_gen: None,
            accum: (0..shards).map(|_| Vec::new()).collect(),
            item_pool: Vec::new(),
            reply_pool: Vec::new(),
            next_item_id: 0,
            split: false,
            prof: profiled.then(|| Box::new(SeqProf::new(shards))),
            live: sim.shard_profile_live.clone(),
        }
    }

    /// Refreshes each object's arrival-key lower bound: the minimum
    /// propagation delay from its redirector to any replica. Valid for
    /// the whole window because replica sets only change at barriers.
    /// Bounds are memoized across windows keyed on the object's
    /// membership version and the routing generation, so the common
    /// barrier (a placement epoch touching a handful of objects) pays
    /// only for what actually changed instead of a full rebuild.
    fn rebuild_bounds(&mut self, sim: &Simulation) {
        let routing = sim.view.generation();
        let routing_changed = self.bound_routing_gen != Some(routing);
        self.bound_routing_gen = Some(routing);
        for (i, bound) in self.bounds.iter_mut().enumerate() {
            let object = ObjectId::new(i as u32);
            let version = sim.redirector.directory().version(object);
            if !routing_changed && self.bound_versions[i] == version {
                continue;
            }
            self.bound_versions[i] = version;
            let rnode = sim.redirector_node_of(object);
            *bound = sim
                .redirector
                .replicas(object)
                .iter()
                .map(|r| {
                    let delay = sim
                        .scenario
                        .network
                        .propagation_time(sim.view.distance(rnode, r.host));
                    SimDuration::from_secs(delay).as_micros()
                })
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Splits the directory across the workers for a new parallel
    /// window.
    fn split(&mut self, sim: &mut Simulation) {
        debug_assert!(!self.split);
        if let Some(p) = &mut self.prof {
            // Everything since the last transition was handler work.
            p.clock.charge(&mut p.lane, SpanKind::Busy);
        }
        self.rebuild_bounds(sim);
        let net = Arc::new(NetSnapshot::from_view(&sim.view));
        let dirs = sim.redirector.split_shards(self.to_workers.len());
        for (s, redirector) in dirs.into_iter().enumerate() {
            self.send_state(s, ToShard::State(Box::new(redirector), Arc::clone(&net)));
        }
        self.split = true;
        if let Some(p) = &mut self.prof {
            p.clock.charge(&mut p.lane, SpanKind::Reunite);
        }
    }

    /// Ring send for control messages (state installs, collects). The
    /// ring is effectively empty at these points, so a full ring only
    /// means the worker is momentarily behind — just yield.
    fn send_state(&mut self, shard: usize, mut msg: ToShard) {
        loop {
            match self.to_workers[shard].try_send(msg) {
                Ok(()) => return,
                Err(back) => {
                    assert!(
                        !self.to_workers[shard].is_closed(),
                        "a shard worker exited early"
                    );
                    msg = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Ring send for batches. A full ring here means the worker is
    /// saturated; keep the reply lanes draining (store-only, no
    /// commits) so it can make progress, then retry.
    fn send_batch(&mut self, shard: usize, mut msg: ToShard) {
        loop {
            match self.to_workers[shard].try_send(msg) {
                Ok(()) => return,
                Err(back) => {
                    assert!(
                        !self.to_workers[shard].is_closed(),
                        "a shard worker exited early"
                    );
                    msg = back;
                    self.absorb_outcomes();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Ships shard `s`'s accumulated batch if non-empty, recycling
    /// pooled buffers for the next one.
    fn flush_shard(&mut self, s: usize) {
        if self.accum[s].is_empty() {
            return;
        }
        let fresh = self.item_pool.pop().unwrap_or_default();
        let items = std::mem::replace(&mut self.accum[s], fresh);
        let reply = self.reply_pool.pop().unwrap_or_default();
        self.send_batch(s, ToShard::Batch(items, reply));
    }

    /// The object's arrival-key lower bound for the current window.
    fn bound_of(&self, object: ObjectId) -> u64 {
        self.bounds[object.index()]
    }

    /// Pops a maximal run of consecutive `Redirect` events, pinning
    /// every serial-order fact for the whole run in one block, and
    /// appends each item to its owning shard's accumulating batch
    /// (shipped once it reaches [`BATCH_FLUSH_TARGET`], or earlier by
    /// a commit or barrier).
    ///
    /// The caller has already validated the first head: it is a
    /// `Redirect`, within the horizon, and below `heap_floor` (the
    /// folded floor over *previously* pending items, which cannot
    /// change while the run only pops). Run continuation additionally
    /// requires the next head not to outsort the run's own cheapest
    /// possible arrival; equality is fine — everything already queued
    /// wins the sequence tie-break against the run's future-reserved
    /// arrivals.
    fn defer_run(&mut self, sim: &mut Simulation, end: SimTime, heap_floor: Option<(u64, u64)>) {
        let cap = sim.shard_batch_cap.unwrap_or(usize::MAX).max(1);
        let tracing = sim.events.tracing;
        let profiled = self.prof.is_some();
        let start = self.pending.len();
        let mut qd = 0u32;
        let mut run_min_us = u64::MAX;
        let mut count = 0usize;
        loop {
            let (t, ev) = sim.queue.pop().expect("validated head exists");
            let Event::Redirect {
                object,
                gateway,
                t0,
                cause,
            } = ev
            else {
                unreachable!("run continuation only admits redirect heads")
            };
            if count == 0 {
                // Depth snapshot before the run's pending-estimate bump:
                // the serial per-item sample is constant across an
                // uninterrupted run (each pop shrinks the queue exactly
                // as the previous item's owed arrival grows), so the
                // first item's value covers all of them.
                qd = sim.depth();
            }
            let rnode = sim.redirector_node_of(object);
            sim.metrics.redirector_requests[rnode.index()] += 1;
            run_min_us = run_min_us.min(t.as_micros().saturating_add(self.bound_of(object)));
            let id = self.next_item_id;
            self.next_item_id += 1;
            self.pending.push_back(PendingSlot {
                id,
                object,
                gateway,
                rnode,
                t,
                t0,
                cause,
                qd,
                queue_seq: 0,
                rec_seq: 0,
                deferred_at: profiled.then(Instant::now),
                outcome: None,
            });
            self.accum[self.shard_of[object.index()]].push(WorkItem {
                id,
                object,
                gateway,
                explain: tracing,
            });
            count += 1;
            if count >= cap {
                break;
            }
            let Some((head_t, head_seq)) = sim.queue.peek_key() else {
                break;
            };
            if head_t > end {
                break;
            }
            let head_us = head_t.as_micros();
            if head_us > run_min_us {
                break;
            }
            if let Some(floor) = heap_floor {
                if (head_us, head_seq) >= floor {
                    break;
                }
            }
            if !matches!(sim.queue.peek(), Some(Event::Redirect { .. })) {
                break;
            }
        }
        // Pin the run's sequence numbers as contiguous blocks: no
        // handler ran between these pops, so nothing else could have
        // claimed a number — the blocks are exactly the per-item
        // reservations the serial loop would have made.
        let first_queue_seq = sim.queue.reserve_seqs(count as u64);
        let first_rec_seq = if tracing {
            sim.events.reserve_seqs(count as u64)
        } else {
            0
        };
        let ShardRuntime {
            pending,
            bounds,
            floor_staging,
            ..
        } = self;
        for (i, slot) in pending.iter_mut().skip(start).enumerate() {
            slot.queue_seq = first_queue_seq + i as u64;
            if tracing {
                slot.rec_seq = first_rec_seq + i as u64;
            }
            let key = slot
                .t
                .as_micros()
                .saturating_add(bounds[slot.object.index()]);
            floor_staging.push((key, slot.queue_seq, slot.id));
        }
        sim.pending_push_estimate += count as u32;
        // Ship only batches that reached the flush target; the rest
        // stay and keep growing across subsequent runs. A forced cap
        // (tests) lowers the target so capped runs still ship whole.
        let flush_at = cap.min(BATCH_FLUSH_TARGET);
        for s in 0..self.accum.len() {
            if self.accum[s].len() >= flush_at {
                self.flush_shard(s);
            }
        }
        if let Some(p) = &mut self.prof {
            p.lane.items += count as u64;
        }
    }

    /// The smallest `(µs, seq)` key any pending arrival could be
    /// scheduled under, or `None` with nothing pending. The queue head
    /// may be popped only while its key is strictly below this floor.
    /// Staged entries are folded in here — the first moment a conflict
    /// is actually possible — and entries whose items already committed
    /// are dropped on the way.
    fn floor_key(&mut self) -> Option<(u64, u64)> {
        let Some(front) = self.pending.front() else {
            self.floor_staging.clear();
            self.floor.clear();
            return None;
        };
        let front_id = front.id;
        for &(key, seq, id) in &self.floor_staging {
            if id >= front_id {
                self.floor.push(std::cmp::Reverse((key, seq, id)));
            }
        }
        self.floor_staging.clear();
        while let Some(&std::cmp::Reverse((key, seq, id))) = self.floor.peek() {
            if id < front_id {
                self.floor.pop();
            } else {
                return Some((key, seq));
            }
        }
        None
    }

    /// Files one answered batch into the pending FIFO and recycles its
    /// buffers. (`State` messages only appear in the collect loop.)
    fn store_msg(&mut self, msg: FromShard) {
        match msg {
            FromShard::Outcomes(mut outcomes, spent) => {
                if let Some(p) = &mut self.prof {
                    // Batch size histogram: work items per Outcomes
                    // message — the hand-off amortization factor.
                    p.batch_items.record(outcomes.len() as u64);
                }
                let front_id = self
                    .pending
                    .front()
                    .expect("outcomes only arrive while items are pending")
                    .id;
                for out in outcomes.drain(..) {
                    let idx = (out.id - front_id) as usize;
                    let slot = &mut self.pending[idx];
                    // Hand-off latency = defer → outcome received back
                    // on the sequencer, per decision: the full round
                    // trip through batching and the worker.
                    if let Some(at) = slot.deferred_at.take() {
                        let elapsed = at.elapsed().as_nanos() as u64;
                        if let Some(p) = &mut self.prof {
                            p.handoff_ns.record(elapsed);
                        }
                    }
                    slot.outcome = Some(out);
                }
                self.reply_pool.push(outcomes);
                debug_assert!(spent.is_empty());
                self.item_pool.push(spent);
            }
            FromShard::State { .. } => unreachable!("states are only collected at barriers"),
        }
    }

    /// Moves every already-delivered reply message into the pending
    /// FIFO, without blocking or committing. Returns the number of
    /// messages absorbed.
    fn absorb_outcomes(&mut self) -> u32 {
        let mut messages = 0;
        for i in 0..self.from_rx.len() {
            while let Some(msg) = self.from_rx[i].try_recv() {
                messages += 1;
                self.store_msg(msg);
            }
        }
        messages
    }

    /// Absorbs any outcomes already delivered and commits the pending
    /// front as far as it goes, without blocking.
    fn drain_ready(&mut self, sim: &mut Simulation) {
        self.absorb_outcomes();
        while self.pending.front().is_some_and(|s| s.outcome.is_some()) {
            let slot = self.pending.pop_front().expect("front exists");
            commit_slot(sim, slot);
        }
    }

    /// One adaptive wait step on the shared reply bell: spin, yield, or
    /// park until some worker→sequencer ring has traffic.
    fn wait_for_replies(&mut self) {
        assert!(
            self.from_rx.iter().all(|rx| !rx.is_closed()),
            "a shard worker exited early"
        );
        let from_rx = &self.from_rx;
        self.seq_backoff.idle(&self.seq_bell, || {
            from_rx.iter().any(|rx| !rx.is_empty() || rx.is_closed())
        });
    }

    /// Blocks until the pending front's outcome arrives, then commits it.
    fn commit_front_blocking(&mut self, sim: &mut Simulation) {
        // Only the front's answer gates this commit. If its item has
        // not shipped yet it is necessarily the oldest unshipped item
        // of its owning shard — first in that shard's batch — so ship
        // that batch alone and let every other shard's keep growing.
        let front = self.pending.front().expect("caller checked pending");
        let front_shard = self.shard_of[front.object.index()];
        if self.accum[front_shard]
            .first()
            .is_some_and(|item| item.id == front.id)
        {
            self.flush_shard(front_shard);
        }
        if let Some(p) = &mut self.prof {
            // Everything since the last transition was sequencer work.
            p.clock.charge(&mut p.lane, SpanKind::Busy);
        }
        while self.pending.front().is_some_and(|s| s.outcome.is_none()) {
            if self.absorb_outcomes() > 0 {
                self.seq_backoff.success();
            } else {
                self.wait_for_replies();
            }
        }
        if let Some(p) = &mut self.prof {
            // Attributed to the channel in steady state, to the barrier
            // while a flush is draining the pending FIFO.
            let kind = p.wait_kind;
            p.clock.charge(&mut p.lane, kind);
        }
        if let Some(slot) = self.pending.pop_front() {
            commit_slot(sim, slot);
        }
    }

    /// Epoch barrier: flush every pending redirect, recall every shard's
    /// state, and reunite it with the parent directory. On
    /// return the sequencer may run any handler on fully-consistent
    /// state.
    ///
    /// `cause` names the event class that forced the barrier for the
    /// profile's barrier counters; the final end-of-run barrier passes
    /// `None`.
    fn barrier(&mut self, sim: &mut Simulation, cause: Option<BarrierCause>) {
        if !self.split {
            return;
        }
        if let Some(p) = &mut self.prof {
            if let Some(c) = cause {
                p.barriers[c as usize] += 1;
            }
            p.clock.charge(&mut p.lane, SpanKind::Busy);
            // Front-commit waits inside the flush drain the barrier,
            // not the steady-state channel.
            p.wait_kind = SpanKind::BarrierDrain;
        }
        while !self.pending.is_empty() {
            self.commit_front_blocking(sim);
        }
        self.floor.clear();
        self.floor_staging.clear();
        for s in 0..self.to_workers.len() {
            self.send_state(s, ToShard::Collect);
        }
        let mut states: Vec<Option<Box<RedirectorShard>>> =
            (0..self.to_workers.len()).map(|_| None).collect();
        let mut collected = 0;
        while collected < states.len() {
            let mut progressed = false;
            for i in 0..self.from_rx.len() {
                while let Some(msg) = self.from_rx[i].try_recv() {
                    progressed = true;
                    match msg {
                        FromShard::State { shard, state, lane } => {
                            debug_assert!(states[shard].is_none());
                            states[shard] = Some(state);
                            if let (Some(p), Some(lane)) = (&mut self.prof, lane) {
                                // Cumulative snapshot; newer collects
                                // replace older ones outright.
                                p.worker_lanes[shard] = lane;
                            }
                            collected += 1;
                        }
                        FromShard::Outcomes(..) => {
                            unreachable!("all outcomes were committed before collect")
                        }
                    }
                }
            }
            if progressed {
                self.seq_backoff.success();
            } else if collected < states.len() {
                self.wait_for_replies();
            }
        }
        if let Some(p) = &mut self.prof {
            p.clock.charge(&mut p.lane, SpanKind::BarrierDrain);
            p.wait_kind = SpanKind::ChannelWait;
        }
        let dirs = states
            .into_iter()
            .map(|state| *state.expect("collected above"))
            .collect();
        sim.redirector.absorb_shards(dirs);
        self.split = false;
        if let Some(p) = &mut self.prof {
            p.clock.charge(&mut p.lane, SpanKind::Reunite);
            if let Some(live) = &self.live {
                live.publish(p.assemble(self.to_workers.len()));
            }
        }
        debug_assert!(
            sim.events.reorder_drained(),
            "reserved recorder sequences must be emitted by the barrier"
        );
    }

    fn shutdown(mut self) {
        debug_assert!(!self.split && self.pending.is_empty());
        // Every accumulated item has a pending slot, so an empty
        // pending FIFO means every batch shipped.
        debug_assert!(self.accum.iter().all(|b| b.is_empty()));
        // Dropping the senders closes the rings; the doorbell wakes any
        // parked worker so it observes EOF and exits.
        self.to_workers.clear();
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                panic!("a shard worker panicked");
            }
        }
    }
}

/// Commits one answered redirect: emits the decision under its reserved
/// recorder sequence and schedules the `ArriveAtHost` under its reserved
/// queue sequence — reproducing exactly what the serial handler's tail
/// would have done at defer time.
fn commit_slot(sim: &mut Simulation, slot: PendingSlot) {
    sim.pending_push_estimate -= 1;
    let outcome = slot.outcome.expect("committed with an outcome");
    let host = outcome.host;
    let decision = if sim.events.tracing {
        let constant = sim.scenario.params.distribution_constant;
        sim.events.emit_reserved_decision(
            slot.rec_seq,
            slot.t.as_secs(),
            slot.qd,
            slot.cause,
            |d| {
                fill_decision(
                    d,
                    slot.object,
                    slot.gateway,
                    host,
                    outcome.explanation.as_deref(),
                    false,
                    constant,
                );
            },
        );
        slot.rec_seq
    } else {
        0
    };
    let delay = sim.propagation(slot.rnode, host);
    sim.queue.schedule_reserved(
        slot.t + SimDuration::from_secs(delay),
        slot.queue_seq,
        Event::ArriveAtHost {
            object: slot.object,
            gateway: slot.gateway,
            host,
            t0: slot.t0,
            cause: decision,
        },
    );
}

impl Simulation {
    /// `true` while the invariants of a parallel window hold: no active
    /// fault and a fully connected topology, so every replica of every
    /// object is usable from everywhere.
    fn parallel_window_ok(&self) -> bool {
        self.fault_state.all_clear() && self.topology_connected()
    }

    /// `true` when every node is reachable from node 0 (which, on an
    /// undirected topology, makes every pair mutually reachable).
    fn topology_connected(&self) -> bool {
        let zero = NodeId::new(0);
        (1..self.hosts.len()).all(|i| !self.view.path(zero, NodeId::new(i as u16)).is_empty())
    }

    /// Runs the simulation to completion on `shards` worker threads and
    /// returns the finalized report.
    ///
    /// The run is deterministic for any fixed shard count, and its
    /// observable outputs — the flight-recorder stream, the metrics, the
    /// final report — are byte-identical to [`run`](Simulation::run).
    /// `--shards 1`, selection policies that do not delegate to Fig. 2,
    /// and partially-run simulations delegate to the serial loop outright.
    /// See the module docs of `shard.rs` for the design.
    ///
    /// Event-loop profiling ([`Simulation::enable_loop_profile`]) covers
    /// every event the sequencer handles itself; redirects decided on a
    /// worker shard do not appear as loop-profile rows — their cost is
    /// captured by the shard profile
    /// ([`Simulation::enable_shard_profile`]) instead. Observer
    /// callbacks other than the typed event feed (`on_request_served`,
    /// load samples, …) are delivered when their handler runs, which in
    /// parallel windows may interleave differently with the event feed
    /// than in a serial run; the callbacks themselves, their order, and
    /// all aggregates are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn run_sharded(mut self, shards: usize) -> RunReport {
        assert!(shards >= 1, "at least one shard is required");
        // The serial loop IS the single-shard loop; it is also the only
        // correct loop for policies with decisions of their own (workers
        // run Fig. 2) and for simulations that already emitted events
        // serially.
        if shards == 1 || !self.selection.delegates_to_fig2() || self.events.next_seq != 0 {
            self.run_until(self.scenario.duration);
            return self.finish();
        }
        self.events.enable_reorder();
        if !self.started {
            self.bootstrap();
            self.started = true;
        }
        let end = SimTime::from_secs(self.scenario.duration);
        let mut runtime = ShardRuntime::new(&self, shards);
        let mut parallel = self.parallel_window_ok();
        if parallel {
            runtime.split(&mut self);
        }
        loop {
            if parallel {
                runtime.drain_ready(&mut self);
                let Some((head_t, head_seq)) = self.queue.peek_key() else {
                    if runtime.pending.is_empty() {
                        break;
                    }
                    runtime.commit_front_blocking(&mut self);
                    continue;
                };
                if head_t > end {
                    if runtime.pending.is_empty() {
                        break;
                    }
                    runtime.commit_front_blocking(&mut self);
                    continue;
                }
                let floor = runtime.floor_key();
                if let Some(floor) = floor {
                    if (head_t.as_micros(), head_seq) >= floor {
                        // The queue head might sort after a pending
                        // arrival; resolve the front before popping.
                        runtime.commit_front_blocking(&mut self);
                        continue;
                    }
                }
                if matches!(self.queue.peek(), Some(Event::Redirect { .. })) {
                    // The hot path: defer a whole run of consecutive
                    // redirects as one batch per shard.
                    runtime.defer_run(&mut self, end, floor);
                    continue;
                }
                let (t, ev) = self.queue.pop().expect("peeked event exists");
                if let Some(p) = &mut runtime.prof {
                    p.lane.items += 1;
                }
                match ev {
                    Event::Redirect { .. } => {
                        unreachable!("redirect heads take the batched defer path")
                    }
                    ev @ (Event::Placement { .. }
                    | Event::ProviderUpdate
                    | Event::UpdateDeliver { .. }
                    | Event::DeclareDead { .. }) => {
                        let cause = match &ev {
                            Event::Placement { .. } => BarrierCause::Placement,
                            Event::ProviderUpdate | Event::UpdateDeliver { .. } => {
                                BarrierCause::ProviderUpdate
                            }
                            _ => BarrierCause::DeclareDead,
                        };
                        runtime.barrier(&mut self, Some(cause));
                        self.dispatch(t, ev);
                        runtime.split(&mut self);
                    }
                    Event::Fault { .. } => {
                        runtime.barrier(&mut self, Some(BarrierCause::Fault));
                        self.dispatch(t, ev);
                        parallel = self.parallel_window_ok();
                        if parallel {
                            runtime.split(&mut self);
                        }
                    }
                    other => self.dispatch(t, other),
                }
            } else {
                let Some(next) = self.queue.peek_time() else {
                    break;
                };
                if next > end {
                    break;
                }
                let (t, ev) = self.queue.pop().expect("peeked event exists");
                if let Some(p) = &mut runtime.prof {
                    p.lane.items += 1;
                }
                let was_fault = matches!(ev, Event::Fault { .. });
                self.dispatch(t, ev);
                if was_fault {
                    parallel = self.parallel_window_ok();
                    if parallel {
                        runtime.split(&mut self);
                    }
                }
            }
        }
        if parallel {
            runtime.barrier(&mut self, None);
        }
        if let Some(mut p) = runtime.prof.take() {
            // Close the final span.
            p.clock.charge(&mut p.lane, SpanKind::Busy);
            let profile = p.assemble(shards);
            if let Some(live) = &runtime.live {
                live.publish(profile.clone());
            }
            self.shard_profile = Some(profile);
        }
        runtime.shutdown();
        debug_assert!(self.events.reorder_drained());
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simnet::builders;

    #[test]
    fn snapshot_mirrors_the_routing_view() {
        let view = RoutingView::new(builders::uunet());
        let net = NetSnapshot::from_view(&view);
        let n = view.topology().len();
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId::new(a as u16), NodeId::new(b as u16));
                assert_eq!(net.distance(a, b), view.distance(a, b));
            }
        }
    }
}
