//! The bounded, severity-aware ring-buffer recorder and its shared
//! (post-run inspectable) wrapper.

use crate::event::{CandidateSnapshot, DecisionEvent, Event, EventKind, Severity};
use crate::jsonl::EvictionSummary;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Default ring capacity used by the CLI and examples.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A bounded in-memory flight recorder.
///
/// Events are kept in a ring of fixed total capacity, segregated by
/// [`Severity`]: once full, the oldest event of the *lowest occupied
/// severity* is evicted per new event, so memory stays bounded no
/// matter how long the run while faults, placement actions, and
/// re-replications outlive the routine request traffic around them.
/// An optional *sink* additionally streams every event as a JSONL line
/// the moment it is recorded — the sink sees the full stream even
/// after the ring has started evicting.
///
/// ```
/// use radar_obs::{Event, EventKind, Recorder};
///
/// let mut rec = Recorder::new(2);
/// for seq in 1..=3 {
///     rec.record(&Event {
///         seq,
///         parent: None,
///         t: seq as f64,
///         queue_depth: 0,
///         kind: EventKind::Fault { desc: format!("f{seq}") },
///     });
/// }
/// assert_eq!(rec.len(), 2); // ring holds the newest two
/// assert_eq!(rec.evicted(), 1); // ...and remembers it dropped one
/// assert_eq!(rec.events().next().unwrap().seq, 2);
/// ```
pub struct Recorder {
    capacity: usize,
    /// One FIFO per severity, each internally seq-ascending.
    rings: [VecDeque<Event>; 3],
    /// Events evicted so far, per severity.
    evicted: [u64; 3],
    sink: Option<Box<dyn Write + Send>>,
    sink_error: Option<String>,
    /// Reused serialization buffer for the streaming sink, so a traced
    /// run serializes events without per-event allocations.
    line_buf: Vec<u8>,
    /// Candidate buffers of evicted decision events, handed to the next
    /// decisions stored. A buffer is only allocated while this is
    /// empty, so buffers here plus decisions in the ring never exceed
    /// the ring capacity — no separate cap is needed, and once the ring
    /// is full storing a decision allocates nothing.
    spare_candidates: Vec<Vec<CandidateSnapshot>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("evicted", &self.evicted)
            .field("has_sink", &self.sink.is_some())
            .field("sink_error", &self.sink_error)
            .finish()
    }
}

impl Recorder {
    /// Creates a recorder holding at most `capacity` events (min 1)
    /// across all severities.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            rings: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            evicted: [0; 3],
            sink: None,
            sink_error: None,
            line_buf: Vec::new(),
            spare_candidates: Vec::new(),
        }
    }

    /// Attaches a streaming sink: every subsequently recorded event is
    /// also written to `sink` as one JSONL line. Use this to capture
    /// the *complete* stream of a long run to a file while the
    /// in-memory ring stays bounded.
    pub fn with_sink(mut self, sink: Box<dyn Write + Send>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Records one event. At capacity, the oldest event of the lowest
    /// occupied severity is evicted — served requests go first, faults
    /// and placement actions last.
    ///
    /// Steady-state recording is allocation-free: the sink line buffer
    /// is reused, the victim is evicted *before* the newcomer is stored
    /// so no severity's ring ever holds (or reserves room for) more
    /// than `capacity` events, and decision candidate buffers are
    /// recycled from evicted events instead of freshly cloned.
    pub fn record(&mut self, event: &Event) {
        if let Some(sink) = &mut self.sink {
            self.line_buf.clear();
            event.encode_json_line(&mut self.line_buf);
            self.line_buf.push(b'\n');
            // The first error is kept and the sink dropped.
            if let Err(e) = sink.write_all(&self.line_buf) {
                self.sink_error.get_or_insert_with(|| e.to_string());
                self.sink = None;
            }
        }
        let severity = event.severity() as usize;
        if self.len() == self.capacity {
            // The lowest occupied severity, counting the newcomer.
            let lowest = (0..severity)
                .find(|&s| !self.rings[s].is_empty())
                .unwrap_or(severity);
            self.evicted[lowest] += 1;
            match self.rings[lowest].pop_front() {
                Some(Event {
                    kind: EventKind::Decision(mut d),
                    ..
                }) => {
                    d.candidates.clear();
                    self.spare_candidates.push(d.candidates);
                }
                Some(_) => {}
                // Everything resident outranks the newcomer: it goes.
                None => return,
            }
        }
        let stored = match &event.kind {
            EventKind::Decision(d) => {
                let mut candidates = self.spare_candidates.pop().unwrap_or_default();
                candidates.extend_from_slice(&d.candidates);
                Event {
                    kind: EventKind::Decision(DecisionEvent { candidates, ..*d }),
                    ..*event
                }
            }
            _ => event.clone(),
        };
        let ring = &mut self.rings[severity];
        if ring.len() == ring.capacity() {
            // Doubling, clipped so the slots never exceed the capacity.
            ring.reserve_exact(ring.len().max(4).min(self.capacity - ring.len()));
        }
        ring.push_back(stored);
    }

    /// Flushes the sink, if any. Returns the first write error the
    /// sink ever produced (also set if flushing fails now).
    pub fn finish(&mut self) -> Option<String> {
        if let Some(sink) = &mut self.sink {
            if let Err(e) = sink.flush() {
                self.sink_error.get_or_insert_with(|| e.to_string());
            }
        }
        self.sink_error.clone()
    }

    /// Number of events currently held in the ring.
    pub fn len(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    /// True when no events have been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(VecDeque::is_empty)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were evicted from the ring so far, all
    /// severities combined.
    pub fn evicted(&self) -> u64 {
        self.evicted.iter().sum()
    }

    /// Events evicted so far for one severity class.
    pub fn evicted_of(&self, severity: Severity) -> u64 {
        self.evicted[severity as usize]
    }

    /// The per-severity eviction tally as a serializable summary, or
    /// `None` when nothing was evicted.
    pub fn eviction_summary(&self) -> Option<EvictionSummary> {
        if self.evicted() == 0 {
            return None;
        }
        Some(EvictionSummary {
            routine: self.evicted[Severity::Routine as usize],
            notable: self.evicted[Severity::Notable as usize],
            critical: self.evicted[Severity::Critical as usize],
        })
    }

    /// Iterates the retained events in sequence order (each severity
    /// ring is internally ordered; this merges the three).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let mut refs: Vec<&Event> = self.rings.iter().flatten().collect();
        refs.sort_by_key(|e| e.seq);
        refs.into_iter()
    }

    /// Serializes the retained events as a JSONL document (one event
    /// per line, sequence order, trailing newline). When the ring
    /// evicted anything, a final `{"type":"evictions",…}` trailer line
    /// records the per-severity losses so downstream tools can report
    /// them (see [`crate::parse_jsonl_log`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        for e in self.events() {
            e.encode_json_line(&mut out);
            out.push(b'\n');
        }
        let mut out = String::from_utf8(out).expect("the encoder emits UTF-8");
        if let Some(summary) = self.eviction_summary() {
            out.push_str(&summary.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// A cloneable, thread-safe handle around a [`Recorder`].
///
/// The simulator takes ownership of attached observers, so a plain
/// `Recorder` cannot be inspected after the run. `SharedRecorder`
/// solves this: attach one clone to the simulation and keep another to
/// read the events back afterwards.
#[derive(Clone, Debug)]
pub struct SharedRecorder(Arc<Mutex<Recorder>>);

impl SharedRecorder {
    /// Creates a shared recorder with the given ring capacity.
    pub fn new(capacity: usize) -> Self {
        Self(Arc::new(Mutex::new(Recorder::new(capacity))))
    }

    /// Wraps an already-configured recorder (e.g. one with a sink).
    pub fn from_recorder(recorder: Recorder) -> Self {
        Self(Arc::new(Mutex::new(recorder)))
    }

    /// Records one event.
    pub fn record(&self, event: &Event) {
        self.0.lock().expect("recorder lock").record(event);
    }

    /// Runs `f` with shared access to the inner recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.0.lock().expect("recorder lock"))
    }

    /// Clones out the retained events, sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.with(|r| r.events().cloned().collect())
    }

    /// Serializes the retained events as a JSONL document.
    pub fn to_jsonl(&self) -> String {
        self.with(|r| r.to_jsonl())
    }

    /// Flushes the sink, if any, returning the first sink error.
    pub fn finish(&self) -> Option<String> {
        self.0.lock().expect("recorder lock").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::mpsc;

    fn fault(seq: u64) -> Event {
        Event {
            seq,
            parent: None,
            t: seq as f64,
            queue_depth: 0,
            kind: EventKind::Fault {
                desc: format!("f{seq}"),
            },
        }
    }

    fn served(seq: u64) -> Event {
        Event {
            seq,
            parent: None,
            t: seq as f64,
            queue_depth: 0,
            kind: EventKind::RequestServed {
                gateway: 0,
                object: 1,
                host: 2,
                latency: 0.05,
                hops: 2,
            },
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut rec = Recorder::new(3);
        for seq in 1..=5 {
            rec.record(&fault(seq));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(rec.capacity(), 3);
        assert!(!rec.is_empty());
    }

    #[test]
    fn routine_events_evicted_before_critical() {
        let mut rec = Recorder::new(4);
        // Interleave: served 1, fault 2, served 3, fault 4, served 5…
        rec.record(&served(1));
        rec.record(&fault(2));
        rec.record(&served(3));
        rec.record(&fault(4));
        rec.record(&served(5)); // evicts served #1
        rec.record(&fault(6)); // evicts served #3
        rec.record(&fault(7)); // evicts served #5
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 4, 6, 7], "faults survive, served evicted");
        assert_eq!(rec.evicted_of(Severity::Routine), 3);
        assert_eq!(rec.evicted_of(Severity::Critical), 0);
        let summary = rec.eviction_summary().expect("evictions happened");
        assert_eq!(summary.routine, 3);
        assert_eq!(summary.total(), 3);
    }

    #[test]
    fn critical_events_evict_among_themselves_when_alone() {
        let mut rec = Recorder::new(2);
        for seq in 1..=4 {
            rec.record(&fault(seq));
        }
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(rec.evicted_of(Severity::Critical), 2);
    }

    #[test]
    fn incoming_routine_event_yields_to_resident_critical() {
        let mut rec = Recorder::new(2);
        rec.record(&fault(1));
        rec.record(&fault(2));
        rec.record(&served(3)); // ring full of criticals: the newcomer goes
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(rec.evicted_of(Severity::Routine), 1);
    }

    #[test]
    fn decision_candidate_buffers_recycle_without_corruption() {
        use crate::event::{CandidateSnapshot, DecisionBranch, DecisionEvent};
        let decision = |seq: u64| Event {
            seq,
            parent: None,
            t: seq as f64,
            queue_depth: 0,
            kind: EventKind::Decision(DecisionEvent {
                object: 1,
                gateway: 0,
                chosen: seq as u16,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(seq as u16),
                least: Some(seq as u16),
                unit_closest: Some(1.0),
                unit_least: Some(1.0),
                candidates: vec![CandidateSnapshot {
                    host: seq as u16,
                    rcnt: seq,
                    aff: 1,
                    unit: seq as f64,
                    distance: 2,
                }],
            }),
        };
        let mut rec = Recorder::new(2);
        for seq in 1..=5 {
            rec.record(&decision(seq));
        }
        let held: Vec<&Event> = rec.events().collect();
        assert_eq!(held.len(), 2);
        for e in held {
            match &e.kind {
                EventKind::Decision(d) => {
                    assert_eq!(d.candidates.len(), 1, "recycled buffer was cleared");
                    assert_eq!(d.candidates[0].rcnt, e.seq, "right snapshot retained");
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
        assert_eq!(rec.evicted(), 3);
    }

    #[test]
    fn ring_never_reserves_more_slots_than_its_capacity() {
        let slots = |rec: &Recorder| rec.rings.iter().map(VecDeque::capacity).sum::<usize>();
        let mut rec = Recorder::new(DEFAULT_CAPACITY);
        for seq in 1..=200_000 {
            rec.record(&served(seq));
            assert!(slots(&rec) <= DEFAULT_CAPACITY + 1, "at seq {seq}");
        }
        assert_eq!(rec.len(), DEFAULT_CAPACITY);
        assert_eq!(rec.evicted(), 200_000 - DEFAULT_CAPACITY as u64);
        // Not a power of two, and split across severities: each ring
        // stays within the capacity on its own.
        let mut rec = Recorder::new(1_000);
        for seq in 1..=5_000 {
            rec.record(&if seq % 7 == 0 {
                fault(seq)
            } else {
                served(seq)
            });
            let widest = rec.rings.iter().map(VecDeque::capacity).max();
            assert!(widest <= Some(1_000), "at seq {seq}");
        }
        assert_eq!(rec.len(), 1_000);
    }

    #[test]
    fn candidate_buffers_never_outnumber_the_ring() {
        use crate::event::{CandidateSnapshot, DecisionEvent};
        let decision = |seq: u64| Event {
            kind: EventKind::Decision(DecisionEvent {
                candidates: vec![CandidateSnapshot {
                    host: 1,
                    rcnt: seq,
                    aff: 1,
                    unit: 1.0,
                    distance: 1,
                }],
                ..DecisionEvent::default()
            }),
            ..served(seq)
        };
        let mut rec = Recorder::new(8);
        // Decisions fill the ring, served events flush them out (their
        // buffers go spare), decisions come back and take them again.
        for seq in 1..=64 {
            let as_decision = (seq / 8) % 2 == 0;
            rec.record(&if as_decision {
                decision(seq)
            } else {
                served(seq)
            });
            let in_ring = rec
                .events()
                .filter(|e| matches!(e.kind, EventKind::Decision(_)))
                .count();
            assert!(rec.spare_candidates.len() + in_ring <= 8, "at seq {seq}");
        }
    }

    #[test]
    fn to_jsonl_appends_eviction_trailer() {
        let mut rec = Recorder::new(1);
        rec.record(&served(1));
        rec.record(&fault(2)); // evicts served #1
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"type\":\"evictions\""), "{jsonl}");
        assert!(lines[1].contains("\"routine\":1"), "{jsonl}");
        // No trailer when nothing was evicted.
        let mut quiet = Recorder::new(8);
        quiet.record(&fault(1));
        assert_eq!(quiet.to_jsonl().lines().count(), 1);
    }

    #[test]
    fn sink_sees_evicted_events() {
        struct Chan(mpsc::Sender<Vec<u8>>);
        impl std::io::Write for Chan {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.send(buf.to_vec()).ok();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let mut rec = Recorder::new(1).with_sink(Box::new(Chan(tx)));
        for seq in 1..=4 {
            rec.record(&fault(seq));
        }
        assert_eq!(rec.finish(), None);
        drop(rec);
        let text: String = rx.iter().map(|b| String::from_utf8(b).unwrap()).collect();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "sink sees the full stream");
        assert!(lines[0].contains("\"seq\":1"));
        assert!(lines[3].contains("\"seq\":4"));
    }

    #[test]
    fn sink_errors_are_sticky_not_fatal() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut rec = Recorder::new(8).with_sink(Box::new(Broken));
        rec.record(&fault(1));
        rec.record(&fault(2));
        assert_eq!(rec.len(), 2, "ring still records");
        let err = rec.finish().expect("error reported");
        assert!(err.contains("disk full"), "{err}");
    }

    #[test]
    fn shared_recorder_round_trip() {
        let shared = SharedRecorder::new(16);
        let clone = shared.clone();
        clone.record(&fault(1));
        clone.record(&fault(2));
        assert_eq!(shared.snapshot().len(), 2);
        assert_eq!(shared.with(|r| r.len()), 2);
        let jsonl = shared.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert_eq!(shared.finish(), None);
    }
}
