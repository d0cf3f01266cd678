//! The flight recorder: an event-to-JSONL encoder in front of a sink or
//! an in-memory log.

use crate::event::Event;
use crate::jsonl::parse_jsonl;
use crate::shared::{Fold, Shared};
use std::io::Write;

/// The argument the CLI and examples pass to [`Recorder::new`]. The
/// recorder keeps every event, so the value bounds nothing.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Where a [`Recorder`]'s lines go.
enum Output {
    /// The in-memory log, read back with [`Recorder::to_jsonl`].
    Memory(Vec<u8>),
    /// The writer given to [`Recorder::with_sink`].
    Sink(Box<dyn Write + Send>),
}

/// The flight recorder: encodes each event as one JSONL line and either
/// streams it to a sink or appends it to an in-memory log.
///
/// Nothing is dropped and nothing is reordered: the in-memory log and a
/// sink's stream are the same bytes, and [`crate::parse_jsonl`] reads
/// either back.
///
/// ```
/// use radar_obs::{parse_jsonl, Event, EventKind, Recorder};
///
/// let mut rec = Recorder::new(0); // the argument is ignored
/// for seq in 1..=3 {
///     rec.record(&Event {
///         seq,
///         parent: None,
///         t: seq as f64,
///         queue_depth: 0,
///         kind: EventKind::Fault { desc: format!("f{seq}") },
///     });
/// }
/// assert_eq!(rec.recorded(), 3);
/// let events = parse_jsonl(&rec.to_jsonl()).unwrap();
/// assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2, 3]);
/// ```
pub struct Recorder {
    recorded: u64,
    out: Output,
    /// Reused serialization buffer for the sink, so a traced run
    /// serializes events without per-event allocations.
    line_buf: Vec<u8>,
    /// The sink's first write or flush error; nothing is written after it.
    sink_error: Option<String>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("recorded", &self.recorded)
            .field("sink_error", &self.sink_error)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a recorder that keeps its log in memory. The argument is
    /// ignored: it was the capacity of a ring this recorder no longer
    /// has, and stays so existing callers compile.
    pub fn new(_capacity: usize) -> Self {
        Self {
            recorded: 0,
            out: Output::Memory(Vec::new()),
            line_buf: Vec::new(),
            sink_error: None,
        }
    }

    /// Streams every subsequently recorded event to `sink` as one JSONL
    /// line instead of keeping it in memory.
    pub fn with_sink(mut self, sink: Box<dyn Write + Send>) -> Self {
        self.out = Output::Sink(sink);
        self
    }

    /// Records one event: encodes it as a JSONL line and writes the line
    /// to the sink, or appends it to the in-memory log.
    pub fn record(&mut self, event: &Event) {
        self.recorded += 1;
        match &mut self.out {
            Output::Memory(log) => {
                event.encode_json_line(log);
                log.push(b'\n');
            }
            Output::Sink(sink) if self.sink_error.is_none() => {
                self.line_buf.clear();
                event.encode_json_line(&mut self.line_buf);
                self.line_buf.push(b'\n');
                if let Err(e) = sink.write_all(&self.line_buf) {
                    self.sink_error = Some(e.to_string());
                }
            }
            Output::Sink(_) => {}
        }
    }

    /// Flushes the sink, if any. Returns the first write error the
    /// sink ever produced (also set if flushing fails now).
    pub fn finish(&mut self) -> Option<String> {
        if let (Output::Sink(sink), None) = (&mut self.out, &self.sink_error) {
            if let Err(e) = sink.flush() {
                self.sink_error = Some(e.to_string());
            }
        }
        self.sink_error.clone()
    }

    /// How many events were recorded, in either mode.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The in-memory log: one JSONL line per recorded event, in
    /// recording order, each ending in a newline. Empty when the lines
    /// went to a sink.
    pub fn to_jsonl(&self) -> String {
        match &self.out {
            Output::Memory(log) => String::from_utf8(log.clone()).expect("the encoder emits UTF-8"),
            Output::Sink(_) => String::new(),
        }
    }

    /// The in-memory log parsed back into events, recording order.
    pub fn snapshot(&self) -> Vec<Event> {
        parse_jsonl(&self.to_jsonl()).expect("the recorder's own log parses")
    }
}

impl Fold for Recorder {
    fn fold(&mut self, event: &Event) {
        self.record(event);
    }
}

/// A [`Recorder`] behind a [`Shared`] handle: attach one clone to the
/// simulation and read the log back through another.
pub type SharedRecorder = Shared<Recorder>;

impl SharedRecorder {
    /// Wraps an already-configured recorder (e.g. one with a sink).
    pub fn from_recorder(recorder: Recorder) -> Self {
        Self::from(recorder)
    }

    /// Flushes the sink, if any, returning the first sink error.
    pub fn finish(&self) -> Option<String> {
        self.lock().finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CandidateSnapshot, DecisionBranch, DecisionEvent, EventKind};
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

    fn decision(seq: u64) -> Event {
        Event {
            seq,
            parent: Some(seq - 1),
            t: seq as f64 / 4.0,
            queue_depth: 3,
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
        }
    }

    fn mixed(n: u64) -> Vec<Event> {
        (1..=n)
            .map(|seq| {
                if seq % 3 == 0 {
                    fault(seq)
                } else {
                    decision(seq)
                }
            })
            .collect()
    }

    /// A sink that hands every write to a channel.
    struct Chan(mpsc::Sender<Vec<u8>>);

    impl Write for Chan {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.send(buf.to_vec()).ok();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn in_memory_log_round_trips_to_the_recorded_events() {
        let events = mixed(200);
        let mut rec = Recorder::new(1);
        for e in &events {
            rec.record(e);
        }
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 200, "nothing is dropped");
        assert_eq!(parse_jsonl(&jsonl).expect("parses"), events);
        let lines: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(jsonl, lines);
    }

    #[test]
    fn sink_sees_every_line_and_memory_stays_empty() {
        let (tx, rx) = mpsc::channel();
        let events = mixed(50);
        let mut rec = Recorder::new(1).with_sink(Box::new(Chan(tx)));
        for e in &events {
            rec.record(e);
        }
        assert_eq!(rec.finish(), None);
        assert_eq!(rec.to_jsonl(), "");
        drop(rec);
        let text: String = rx.iter().map(|b| String::from_utf8(b).unwrap()).collect();
        assert_eq!(parse_jsonl(&text).expect("parses"), events);
    }

    #[test]
    fn sink_errors_are_sticky_not_fatal() {
        struct Broken;
        impl Write for Broken {
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
        assert_eq!(rec.recorded(), 2, "recording goes on");
        let err = rec.finish().expect("error reported");
        assert!(err.contains("disk full"), "{err}");
        assert_eq!(rec.finish(), Some(err), "the first error stays");
    }

    #[test]
    fn recorded_counts_in_both_modes() {
        let mut memory = Recorder::new(DEFAULT_CAPACITY);
        let mut streamed = Recorder::new(DEFAULT_CAPACITY).with_sink(Box::new(std::io::sink()));
        assert_eq!((memory.recorded(), streamed.recorded()), (0, 0));
        for e in mixed(70) {
            memory.record(&e);
            streamed.record(&e);
        }
        assert_eq!((memory.recorded(), streamed.recorded()), (70, 70));
    }

    #[test]
    fn shared_recorder_round_trip() {
        let shared = SharedRecorder::from(Recorder::new(16));
        let clone = shared.clone();
        clone.fold(&fault(1));
        clone.fold(&decision(2));
        assert_eq!(shared.with(Recorder::snapshot), vec![fault(1), decision(2)]);
        assert_eq!(shared.with(Recorder::recorded), 2);
        assert_eq!(shared.finish(), None);
    }
}
