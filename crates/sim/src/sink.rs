//! The observer fan-out and flight-recorder sequencing shared by every
//! simulation layer.

use radar_obs::{
    DecisionEvent, Event, EventKind as ObsEventKind, EventReorderBuffer, ReorderStats,
};

use crate::observer::Observer;

/// The platform's observer fan-out plus the flight-recorder sequence
/// counter. Kept as one separable struct so the placement environment
/// can emit events while the rest of the simulation is mutably
/// borrowed.
///
/// In the sharded event loop (`Simulation::run_sharded`), sequence
/// numbers for deferred redirect decisions are reserved up front via
/// [`reserve_seqs`](Self::reserve_seqs) and filled in later with
/// [`emit_reserved_decision`](Self::emit_reserved_decision). While that
/// mode is active ([`enable_reorder`](Self::enable_reorder)), every
/// emission passes through an [`EventReorderBuffer`] so observers still
/// see the stream in strict sequence order — byte-identical to a serial
/// run.
pub(crate) struct EventSink {
    pub(crate) observers: Vec<Box<dyn Observer>>,
    /// Indices into `observers` of those that want the typed event
    /// feed, fixed when each is attached: emission asks nobody twice.
    subscribers: Vec<usize>,
    /// Monotonic flight-recorder sequence. Numbers are 1-based so that
    /// 0 can double as "no causal parent" in scheduled events.
    pub(crate) next_seq: u64,
    /// True when at least one attached observer wants the typed event
    /// feed; with no recorder attached, emission sites pay one branch.
    pub(crate) tracing: bool,
    /// Reusable decision payload: its candidate vector survives across
    /// redirects, so tracing the hottest event type allocates nothing
    /// once the vector reaches the platform's widest replica set.
    decision_scratch: DecisionEvent,
    /// Present while the sharded loop runs: holds back emissions that
    /// complete ahead of a still-reserved predecessor.
    reorder: Option<EventReorderBuffer>,
    /// Total sequence numbers reserved via [`reserve_seq`](Self::reserve_seq).
    reserved_total: u64,
    /// Reserved sequence numbers not yet filled in.
    reserved_outstanding: u64,
    /// High-water mark of `reserved_outstanding`.
    reserved_peak: u64,
}

impl EventSink {
    pub(crate) fn new() -> Self {
        EventSink {
            observers: Vec::new(),
            subscribers: Vec::new(),
            next_seq: 0,
            tracing: false,
            decision_scratch: DecisionEvent::default(),
            reorder: None,
            reserved_total: 0,
            reserved_outstanding: 0,
            reserved_peak: 0,
        }
    }

    /// Adds an observer; one whose [`Observer::wants_events`] returns
    /// `true` subscribes to the event feed and switches tracing on.
    pub(crate) fn attach(&mut self, observer: Box<dyn Observer>) {
        if observer.wants_events() {
            self.subscribers.push(self.observers.len());
            self.tracing = true;
        }
        self.observers.push(observer);
    }

    /// Switches the sink into reorder mode for the sharded loop. Must be
    /// called before the first emission (the reorder buffer starts at
    /// sequence 1).
    pub(crate) fn enable_reorder(&mut self) {
        assert_eq!(self.next_seq, 0, "reorder mode must start before emission");
        self.reorder = Some(EventReorderBuffer::new());
    }

    /// `true` when no emission is held back waiting on a reserved
    /// predecessor (trivially true outside reorder mode). The sharded
    /// loop asserts this at every epoch barrier and at shutdown.
    pub(crate) fn reorder_drained(&self) -> bool {
        self.reorder.as_ref().is_none_or(|buf| buf.is_empty())
    }

    /// Claims `count` consecutive sequence numbers at once — without
    /// emitting anything — and returns the first. The caller must
    /// eventually emit exactly one event per claimed number (see
    /// [`emit_reserved_decision`](Self::emit_reserved_decision)), or
    /// reorder mode will hold back every later emission forever. The
    /// block is exact for a batched defer run in the sharded loop: a
    /// whole run of redirects is reserved before any handler gets a
    /// chance to emit, so the numbers a serial loop would hand out
    /// per-item are precisely consecutive. Reservations are tallied for
    /// the `{"type":"reorder",…}` log trailer of a sharded run.
    pub(crate) fn reserve_seqs(&mut self, count: u64) -> u64 {
        self.reserved_total += count;
        self.reserved_outstanding += count;
        self.reserved_peak = self.reserved_peak.max(self.reserved_outstanding);
        let first = self.next_seq + 1;
        self.next_seq += count;
        first
    }

    /// Advances and returns the sequence counter (internal emissions —
    /// these never sit outstanding, so they stay out of the reserve
    /// tallies).
    fn next(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Reorder-machinery statistics of a sharded run: reservation
    /// tallies from this sink plus buffer high-water marks. `None`
    /// outside reorder mode — serial runs write no trailer.
    pub(crate) fn reorder_stats(&self) -> Option<ReorderStats> {
        self.reorder.as_ref().map(|buf| ReorderStats {
            reserved: self.reserved_total,
            max_in_flight: self.reserved_peak,
            max_held: buf.max_held() as u64,
            drains: buf.drains(),
        })
    }

    /// Hands one event to every subscriber, in attachment order.
    fn fan_out(observers: &mut [Box<dyn Observer>], subscribers: &[usize], event: &Event) {
        for &i in subscribers {
            observers[i].on_event(event);
        }
    }

    /// Fans one finished event out to subscribed observers, routing
    /// through the reorder buffer when reserved sequence numbers may
    /// still be outstanding.
    fn deliver(&mut self, event: Event) {
        if let Some(buf) = &mut self.reorder {
            buf.push(event);
            while let Some(ready) = buf.pop_ready() {
                Self::fan_out(&mut self.observers, &self.subscribers, &ready);
            }
        } else {
            Self::fan_out(&mut self.observers, &self.subscribers, &event);
        }
    }

    /// Emits one flight-recorder event to every subscribed observer and
    /// returns its sequence number — or 0 without side effects when
    /// tracing is off. `cause` is the parent's sequence number (0 for
    /// none). Callers should guard [`radar_obs::EventKind`]
    /// construction behind [`tracing`](Self::tracing) so the disabled
    /// path allocates nothing.
    pub(crate) fn emit(&mut self, t: f64, queue_depth: u32, cause: u64, kind: ObsEventKind) -> u64 {
        if !self.tracing {
            return 0;
        }
        let seq = self.next();
        self.deliver(Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind,
        });
        seq
    }

    /// Emits one [`ObsEventKind::Decision`] without constructing the
    /// payload at the call site: `fill` receives the sink's scratch
    /// decision — candidate vector cleared but capacity kept — and the
    /// finished event is lent to the observers, then reclaimed so the
    /// next redirect reuses the same buffers. Returns the sequence
    /// number, or 0 without calling `fill` when tracing is off.
    pub(crate) fn emit_decision(
        &mut self,
        t: f64,
        queue_depth: u32,
        cause: u64,
        fill: impl FnOnce(&mut DecisionEvent),
    ) -> u64 {
        if !self.tracing {
            return 0;
        }
        let seq = self.next();
        self.emit_decision_with_seq(seq, t, queue_depth, cause, fill);
        seq
    }

    /// Emits the [`ObsEventKind::Decision`] for a sequence number that
    /// was reserved earlier with [`reserve_seq`](Self::reserve_seq).
    /// Only meaningful in reorder mode; the buffer releases the event
    /// (and any emissions it was holding back) in sequence order.
    pub(crate) fn emit_reserved_decision(
        &mut self,
        seq: u64,
        t: f64,
        queue_depth: u32,
        cause: u64,
        fill: impl FnOnce(&mut DecisionEvent),
    ) {
        debug_assert!(self.tracing, "a sequence was reserved without tracing");
        self.reserved_outstanding = self.reserved_outstanding.saturating_sub(1);
        self.emit_decision_with_seq(seq, t, queue_depth, cause, fill);
    }

    fn emit_decision_with_seq(
        &mut self,
        seq: u64,
        t: f64,
        queue_depth: u32,
        cause: u64,
        fill: impl FnOnce(&mut DecisionEvent),
    ) {
        if self.reorder.is_some() {
            // Reorder mode may hold the event, so the scratch payload
            // cannot be lent out and reclaimed; build an owned one.
            let mut decision = DecisionEvent::default();
            fill(&mut decision);
            self.deliver(Event {
                seq,
                parent: (cause != 0).then_some(cause),
                t,
                queue_depth,
                kind: ObsEventKind::Decision(decision),
            });
            return;
        }
        let mut decision = std::mem::take(&mut self.decision_scratch);
        decision.candidates.clear();
        fill(&mut decision);
        let event = Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind: ObsEventKind::Decision(decision),
        };
        Self::fan_out(&mut self.observers, &self.subscribers, &event);
        let ObsEventKind::Decision(decision) = event.kind else {
            unreachable!("constructed as a decision above");
        };
        self.decision_scratch = decision;
    }
}
