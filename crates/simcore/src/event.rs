//! Future-event list with deterministic ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A single scheduled entry in the heap. Ordering is by time, then by
/// insertion sequence number, so simultaneous events dequeue in the order
/// they were scheduled (FIFO tie-break) — the property that makes runs
/// reproducible.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The future-event list of a discrete-event simulation.
///
/// Events carry an arbitrary payload `E`. [`pop`](Self::pop) returns
/// events in non-decreasing time order; events scheduled for the same
/// instant come out in scheduling order.
///
/// The queue also tracks the current simulation time: popping an event
/// advances [`now`](Self::now) to that event's timestamp, and scheduling
/// into the past is rejected (a scheduling bug would otherwise silently
/// corrupt causality).
///
/// # Examples
///
/// ```
/// use radar_simcore::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "later");
/// q.schedule(SimTime::from_secs(1.0), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "sooner")));
/// assert_eq!(q.now(), SimTime::from_secs(1.0));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: std::fmt::Debug> std::fmt::Debug for Scheduled<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduled")
            .field("time", &self.time)
            .field("seq", &self.seq)
            .field("payload", &self.payload)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time — the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](Self::now) — scheduling
    /// into the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule event at {time} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now, "event queue emitted out of order");
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), "a");
        q.pop();
        q.schedule(SimTime::from_secs(1.0), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "b")));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(2.0), ());
        q.schedule(SimTime::from_secs(1.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // A popped handler scheduling new events keeps global ordering.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), "first");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + crate::SimDuration::from_secs(1.0), "second");
        q.schedule(t + crate::SimDuration::from_secs(0.5), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "second");
    }
}
