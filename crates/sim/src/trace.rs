//! Request traces: capture a run's arrival stream and replay it.
//!
//! The paper's companion report evaluates the protocol on *measured
//! traces* rather than synthetic workloads. This module is that path:
//! capture the `(time, gateway, object)` arrival stream of any run (or
//! convert one from real access logs via [`Trace::from_text`]), then
//! feed it back with [`crate::Simulation::replay`] — e.g. to compare
//! policies on byte-identical demand, or to re-run a production day
//! against candidate parameters.

use crate::config::MAX_CLOCK_SECS;
use radar_simnet::text::{self, LineError};
use std::fmt;

/// One request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Arrival time at the gateway (seconds).
    pub t: f64,
    /// The gateway node.
    pub gateway: u16,
    /// The requested object.
    pub object: u32,
}

impl TraceEntry {
    /// Checks the time against the clock and against `prev`, the time
    /// of the entry before.
    fn check_time(&self, prev: f64) -> Result<(), TraceErrorKind> {
        if !(0.0..=MAX_CLOCK_SECS).contains(&self.t) {
            return Err(TraceErrorKind::BadTime(self.t));
        }
        if self.t < prev {
            return Err(TraceErrorKind::Unsorted);
        }
        Ok(())
    }

    /// Checks the ids against a scenario with `gateways` nodes and
    /// `objects` objects.
    fn check_ids(&self, gateways: u32, objects: u32) -> Result<(), TraceErrorKind> {
        for (field, value, count) in [
            ("gateway", u32::from(self.gateway), gateways),
            ("object", self.object, objects),
        ] {
            if value >= count {
                return Err(TraceErrorKind::OutOfRange {
                    field,
                    value,
                    count,
                });
            }
        }
        Ok(())
    }
}

/// What is wrong with a trace entry; [`TraceError`] adds its line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceErrorKind {
    /// A line did not parse as `time gateway object`; holds it without
    /// its comment.
    Malformed(String),
    /// The entry is earlier than the one before it.
    Unsorted,
    /// A timestamp was negative, not finite or beyond the microsecond
    /// clock (2^53 µs).
    BadTime(f64),
    /// An entry names a gateway or object the replaying scenario does
    /// not have.
    OutOfRange {
        /// `"gateway"` or `"object"`.
        field: &'static str,
        /// The rejected id.
        value: u32,
        /// How many the scenario has (valid ids are below it).
        count: u32,
    },
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceErrorKind::Malformed(content) => {
                write!(f, "expected `time gateway object`, got {content:?}")
            }
            TraceErrorKind::Unsorted => f.write_str("trace entries must be sorted by time"),
            TraceErrorKind::BadTime(t) => write!(
                f,
                "time must be finite, non-negative and at most {MAX_CLOCK_SECS} s \
                 (2^53 µs), got {t:e}"
            ),
            TraceErrorKind::OutOfRange {
                field,
                value,
                count,
            } => write!(
                f,
                "{field} {value} is out of range, the scenario has {count}"
            ),
        }
    }
}

/// An error in a trace, on the line of the offending entry: its line in
/// the parsed text or, for a trace built in code, the line
/// [`Trace::to_text`] writes it on (its index + 1).
pub type TraceError = LineError<TraceErrorKind>;

/// A time-ordered request trace.
///
/// # Examples
///
/// ```
/// use radar_sim::Trace;
/// let trace = Trace::from_text("0.5 3 10\n1.0 7 10\n")?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.entries()[1].gateway, 7);
/// # Ok::<(), radar_sim::TraceError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Builds a trace from entries, validating time order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on unsorted timestamps and on ones that
    /// are negative, not finite or beyond the 2^53 µs clock.
    pub fn new(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        let mut prev = 0.0;
        for (index, e) in entries.iter().enumerate() {
            e.check_time(prev).map_err(|kind| LineError {
                line: index + 1,
                kind,
            })?;
            prev = e.t;
        }
        Ok(Self { entries })
    }

    /// Parses the line format `time gateway object` (whitespace
    /// separated words, read by [`radar_simnet::text::lines`]) — the
    /// shape a sanitized access log reduces to.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] naming the first malformed, unsorted or
    /// out-of-clock line.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        Self::from_text_checked(text, None)
    }

    /// [`from_text`](Self::from_text) that, given `ids = (gateways,
    /// objects)`, also checks each entry's ids as
    /// [`check_ids`](Self::check_ids) does, so that a foreign id's error
    /// names its line.
    ///
    /// # Errors
    ///
    /// As [`from_text`](Self::from_text), plus
    /// [`TraceErrorKind::OutOfRange`].
    pub fn from_text_checked(text: &str, ids: Option<(u32, u32)>) -> Result<Self, TraceError> {
        let mut entries = Vec::new();
        let mut prev = 0.0;
        for line in text::lines(text) {
            let mut words = line.words();
            let parsed = (|| {
                let t: f64 = words.next()?.parse().ok()?;
                let gateway: u16 = words.next()?.parse().ok()?;
                let object: u32 = words.next()?.parse().ok()?;
                words
                    .next()
                    .is_none()
                    .then_some(TraceEntry { t, gateway, object })
            })();
            let e = parsed
                .ok_or_else(|| line.error(TraceErrorKind::Malformed(line.content.to_string())))?;
            e.check_time(prev)
                .and_then(|()| ids.map_or(Ok(()), |(g, o)| e.check_ids(g, o)))
                .map_err(|kind| line.error(kind))?;
            prev = e.t;
            entries.push(e);
        }
        Ok(Self { entries })
    }

    /// Checks every entry's ids against a scenario with `gateways` nodes
    /// and `objects` objects; [`crate::Simulation::replay`] does this
    /// before it accepts a trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceErrorKind::OutOfRange`] naming the first foreign id.
    pub fn check_ids(&self, gateways: u32, objects: u32) -> Result<(), TraceError> {
        for (index, e) in self.entries.iter().enumerate() {
            e.check_ids(gateways, objects).map_err(|kind| LineError {
                line: index + 1,
                kind,
            })?;
        }
        Ok(())
    }

    /// Serializes to the [`from_text`](Self::from_text) line format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 16);
        for e in &self.entries {
            out.push_str(&format!("{} {} {}\n", e.t, e.gateway, e.object));
        }
        out
    }

    /// The entries, in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Time of the last request, or 0 for an empty trace.
    pub fn duration(&self) -> f64 {
        self.entries.last().map_or(0.0, |e| e.t)
    }
}

impl FromIterator<TraceEntry> for Trace {
    /// Collects entries **without** validating order; use [`Trace::new`]
    /// for untrusted input. Intended for recorder internals that emit in
    /// time order by construction.
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_serialize_round_trip() {
        let text = "# a comment\n0 0 5\n1.5 3 10   # trailing comment\n\n2.5 52 9999\n";
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.entries()[1].object, 10);
        assert_eq!(trace.duration(), 2.5);
        let reparsed = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(reparsed, trace);
        // Paper-scale replays hold 6.36 M entries; no line is kept in one.
        assert_eq!(std::mem::size_of::<TraceEntry>(), 16);
    }

    fn error_of(text: &str) -> (usize, TraceErrorKind) {
        let err = Trace::from_text(text).unwrap_err();
        (err.line, err.kind)
    }

    #[test]
    fn malformed_lines_rejected() {
        let short = error_of("0 0  # short\n");
        assert_eq!(short, (1, TraceErrorKind::Malformed("0 0".into())));
        assert!(matches!(
            error_of("0 0 1 extra\n").1,
            TraceErrorKind::Malformed(_)
        ));
        assert!(matches!(
            error_of("zero 0 1\n").1,
            TraceErrorKind::Malformed(_)
        ));
    }

    #[test]
    fn ordering_and_time_validated() {
        assert_eq!(
            error_of("1.0 0 0\n0.5 0 0\n"),
            (2, TraceErrorKind::Unsorted)
        );
        for t in [f64::NAN, -1.0, f64::INFINITY, 1e300, MAX_CLOCK_SECS * 1.01] {
            let err = Trace::new(vec![TraceEntry {
                t,
                gateway: 0,
                object: 0,
            }])
            .unwrap_err();
            assert!(
                matches!(err.kind, TraceErrorKind::BadTime(_)) && err.line == 1,
                "{t}"
            );
        }
        assert!(Trace::from_text(&format!("{MAX_CLOCK_SECS} 0 0\n")).is_ok());
    }

    #[test]
    fn errors_name_the_line_counting_comment_and_blank_lines() {
        let text = "# header\n0 0 0\n\n  # note\n1 0 0 # fine\n1e300 0 0\n";
        let message = Trace::from_text(text).unwrap_err().to_string();
        assert!(message.starts_with("line 6: time must be"), "{message}");
        let text = "# header\n0 0 0\n\n1 53 0\n";
        let err = Trace::from_text_checked(text, Some((53, 1))).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: gateway 53 is out of range, the scenario has 53"
        );
        // Built in code, an entry's line is the one `to_text` writes.
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(trace.check_ids(53, 1).unwrap_err().line, 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_text("# nothing\n").unwrap();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
    }

    #[test]
    fn error_display_nonempty() {
        let kinds = [
            TraceErrorKind::Malformed("x".into()),
            TraceErrorKind::Unsorted,
            TraceErrorKind::BadTime(-1.0),
            TraceErrorKind::OutOfRange {
                field: "gateway",
                value: 99,
                count: 53,
            },
        ];
        for kind in kinds {
            let e = TraceError { line: 3, kind };
            assert!(e.to_string().starts_with("line 3: "), "{e}");
        }
    }
}
