//! Future-event list with deterministic ordering.

use crate::SimTime;

/// One wheel level per byte of the `u64` microsecond clock.
const LEVELS: usize = 8;
/// One slot per value of that byte; a level-0 slot is one microsecond.
const SLOTS: usize = 256;
/// Occupancy words per level.
const WORDS: usize = SLOTS / 64;
/// End-of-list link.
const NIL: u32 = u32::MAX;

/// First and last node of one slot's FIFO list and the earliest time
/// in it; meaningful only while the slot's occupancy bit is set.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    min: u64,
}

/// One slab entry: a pending event linked into its slot's list, or —
/// with `payload` taken — a link of the free list.
struct Node<E> {
    time: u64,
    next: u32,
    payload: Option<E>,
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
/// # Structure
///
/// A hierarchical timing wheel keyed on the clock itself: eight levels
/// of 256 slots, one level per byte of the `u64` microsecond clock. An
/// event is filed at the level of the highest byte in which its time
/// differs from `now` (level 0 if it is due now), in the slot named by
/// that byte of its time. Each slot is a FIFO list threaded by `u32`
/// links through one slab of nodes, so [`schedule`](Self::schedule) is a
/// tail append and a level-0 pop takes a list head: neither compares
/// events nor depends on how many are pending. When level 0 runs dry,
/// `pop` takes the earliest occupied slot of the lowest occupied level —
/// every event in it precedes every event elsewhere — advances `now` to
/// the earliest time in it (each slot keeps its minimum as events are
/// filed, so finding it walks nothing) and re-files its events, in list
/// order, relative to the new `now`; each lands on a lower level, so an
/// event is re-filed at most once per level.
///
/// **Equal times share a slot.** An event at level *k* ≥ 1 agrees with
/// `now` on every byte above *k* and exceeds it in byte *k*, and stays so
/// until its own slot is re-filed (`now` only changes byte *k* by
/// re-filing a level-*k* slot, the earliest one first). So the level and
/// slot of a pending event are a function of its time and `now` alone:
/// two events for the same instant are always in the same list, however
/// far apart they were scheduled. Tail append plus in-order re-filing is
/// therefore scheduling order, which is why no sequence number is stored
/// and nothing is ever compared.
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
pub struct EventQueue<E> {
    /// Pending events and free entries; sized by the peak backlog.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// Slot `s` of level `l` is entry `l * SLOTS + s`.
    slots: Box<[Slot; LEVELS * SLOTS]>,
    /// One bit per slot, in the same order.
    occupied: [u64; LEVELS * WORDS],
    len: usize,
    now: SimTime,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            slots: Box::new(
                [Slot {
                    head: NIL,
                    tail: NIL,
                    min: u64::MAX,
                }; LEVELS * SLOTS],
            ),
            occupied: [0; LEVELS * WORDS],
            len: 0,
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
        let node = Node {
            time: time.as_micros(),
            next: NIL,
            payload: Some(payload),
        };
        let index = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "too many pending events");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.nodes[index as usize], node).next;
            index
        };
        self.file(index);
        self.len += 1;
    }

    /// Appends node `index` to the slot its time names relative to `now`,
    /// keeping the slot's earliest time.
    fn file(&mut self, index: u32) {
        let node = &mut self.nodes[index as usize];
        node.next = NIL;
        let time = node.time;
        let level = (63 - ((time ^ self.now.as_micros()) | 1).leading_zeros() as usize) / 8;
        let slot = level * SLOTS + (time >> (8 * level)) as usize % SLOTS;
        let bit = 1 << (slot % 64);
        let entry = &mut self.slots[slot];
        if self.occupied[slot / 64] & bit == 0 {
            self.occupied[slot / 64] |= bit;
            entry.head = index;
            entry.min = time;
        } else {
            self.nodes[entry.tail as usize].next = index;
            entry.min = entry.min.min(time);
        }
        entry.tail = index;
    }

    /// The slot holding the earliest event, and that event's time: on
    /// level 0 the slot is the time, above it the slot's kept minimum.
    /// An upper slot only ever gains events until it is re-filed whole,
    /// so its minimum never has to be recomputed.
    fn earliest(&self) -> Option<(usize, u64)> {
        let word = self.occupied.iter().position(|&bits| bits != 0)?;
        let slot = word * 64 + self.occupied[word].trailing_zeros() as usize;
        if slot < SLOTS {
            return Some((slot, (self.now.as_micros() & !0xff) | slot as u64));
        }
        Some((slot, self.slots[slot].min))
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(SimTime::MAX)
    }

    /// [`pop`](Self::pop), unless the earliest event is later than
    /// `limit`: then `None`, and neither the clock nor the queue moves —
    /// anything from [`now`](Self::now) on can still be scheduled.
    pub fn pop_through(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (mut slot, time) = self.earliest()?;
        if time > limit.as_micros() {
            return None;
        }
        debug_assert!(
            time >= self.now.as_micros(),
            "event queue emitted out of order"
        );
        self.now = SimTime::from_micros(time);
        if slot >= SLOTS {
            // Level 0 ran dry: re-file the earliest upper slot around the
            // new `now`. Its earliest events land on level 0, in order.
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let mut at = self.slots[slot].head;
            while at != NIL {
                let next = self.nodes[at as usize].next;
                self.file(at);
                at = next;
            }
            slot = (time % SLOTS as u64) as usize;
        }
        let index = self.slots[slot].head;
        let node = &mut self.nodes[index as usize];
        let payload = node.payload.take().expect("a filed node holds its event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = index;
        if next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.slots[slot].head = next;
        }
        self.len -= 1;
        Some((self.now, payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, time)| SimTime::from_micros(time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
