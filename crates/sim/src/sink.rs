//! The observer fan-out and flight-recorder sequencing shared by every
//! simulation layer.

use radar_obs::{DecisionEvent, Event, EventKind as ObsEventKind};

use crate::observer::Observer;

/// The platform's observer fan-out plus the flight-recorder sequence
/// counter. Kept as one separable struct so the placement environment
/// can emit events while the rest of the simulation is mutably
/// borrowed.
pub(crate) struct EventSink {
    pub(crate) observers: Vec<Box<dyn Observer>>,
    /// Indices into `observers` of those that want the typed event
    /// feed, fixed when each is attached: emission asks nobody twice.
    subscribers: Vec<usize>,
    /// Monotonic flight-recorder sequence. Numbers are 1-based so that
    /// 0 can double as "no causal parent" in scheduled events.
    next_seq: u64,
    /// True when at least one attached observer wants the typed event
    /// feed; with no recorder attached, emission sites pay one branch.
    pub(crate) tracing: bool,
}

impl EventSink {
    pub(crate) fn new() -> Self {
        EventSink {
            observers: Vec::new(),
            subscribers: Vec::new(),
            next_seq: 0,
            tracing: false,
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

    /// Advances and returns the sequence counter.
    fn next(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Hands one event to every subscriber, in attachment order.
    fn fan_out(&mut self, event: &Event) {
        for &i in &self.subscribers {
            self.observers[i].on_event(event);
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
        self.fan_out(&Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind,
        });
        seq
    }

    /// Emits one [`ObsEventKind::Decision`] whose payload the caller
    /// lends: `decision` moves into the event for the observers and back
    /// out again, so its candidate buffer is reused by the next redirect.
    /// Returns the sequence number, or 0 without side effects when
    /// tracing is off.
    pub(crate) fn emit_decision(
        &mut self,
        t: f64,
        queue_depth: u32,
        cause: u64,
        decision: &mut DecisionEvent,
    ) -> u64 {
        if !self.tracing {
            return 0;
        }
        let seq = self.next();
        let event = Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind: ObsEventKind::Decision(std::mem::take(decision)),
        };
        self.fan_out(&event);
        let ObsEventKind::Decision(lent) = event.kind else {
            unreachable!("constructed as a decision above");
        };
        *decision = lent;
        seq
    }
}
