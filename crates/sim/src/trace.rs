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

/// Errors from trace parsing and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A line did not parse as `time gateway object`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// Entries are not sorted by time.
    Unsorted {
        /// Index of the first out-of-order entry.
        index: usize,
    },
    /// A timestamp was negative, not finite or beyond the microsecond
    /// clock (2^53 µs).
    BadTime {
        /// Index of the offending entry.
        index: usize,
        /// The rejected value.
        t: f64,
    },
    /// An entry names a gateway or object the replaying scenario does
    /// not have.
    OutOfRange {
        /// Index of the offending entry.
        index: usize,
        /// `"gateway"` or `"object"`.
        field: &'static str,
        /// The rejected id.
        value: u32,
        /// How many the scenario has (valid ids are below it).
        count: u32,
    },
}

impl TraceError {
    /// The error as a message naming the 1-based line of `text` — the
    /// text the trace was parsed from — that holds the offending entry.
    pub fn located_in(&self, text: &str) -> String {
        let index = match *self {
            TraceError::Malformed { .. } => return self.to_string(),
            TraceError::Unsorted { index }
            | TraceError::BadTime { index, .. }
            | TraceError::OutOfRange { index, .. } => index,
        };
        let line = text
            .lines()
            .enumerate()
            .filter(|(_, raw)| !content_of(raw).is_empty())
            .nth(index)
            .map_or(0, |(i, _)| i + 1);
        format!("line {line}: {self}")
    }
}

/// A trace or fault-schedule line without its `#` comment and
/// surrounding blanks.
pub(crate) fn content_of(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { line, content } => {
                write!(
                    f,
                    "line {line}: expected `time gateway object`, got {content:?}"
                )
            }
            TraceError::Unsorted { index } => {
                write!(f, "trace entries must be sorted by time (entry {index})")
            }
            TraceError::BadTime { index, t } => {
                write!(
                    f,
                    "entry {index}: time must be finite, non-negative and at most \
                     {MAX_CLOCK_SECS} s (2^53 µs), got {t:e}"
                )
            }
            TraceError::OutOfRange {
                index,
                field,
                value,
                count,
            } => write!(
                f,
                "entry {index}: {field} {value} is out of range, the scenario has {count}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

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
        for (index, e) in entries.iter().enumerate() {
            if !(0.0..=MAX_CLOCK_SECS).contains(&e.t) {
                return Err(TraceError::BadTime { index, t: e.t });
            }
            if index > 0 && e.t < entries[index - 1].t {
                return Err(TraceError::Unsorted { index });
            }
        }
        Ok(Self { entries })
    }

    /// Parses the line format `time gateway object` (whitespace
    /// separated; `#` comments and blank lines ignored) — the shape a
    /// sanitized access log reduces to.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed lines or ordering violations.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = content_of(raw);
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            let parsed = (|| {
                let t: f64 = words.next()?.parse().ok()?;
                let gateway: u16 = words.next()?.parse().ok()?;
                let object: u32 = words.next()?.parse().ok()?;
                if words.next().is_some() {
                    return None;
                }
                Some(TraceEntry { t, gateway, object })
            })();
            match parsed {
                Some(e) => entries.push(e),
                None => {
                    return Err(TraceError::Malformed {
                        line,
                        content: content.to_string(),
                    })
                }
            }
        }
        Self::new(entries)
    }

    /// Checks every entry's ids against a scenario with `gateways` nodes
    /// and `objects` objects; [`crate::Simulation::replay`] does this
    /// before it accepts a trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfRange`] naming the first foreign id.
    pub fn check_ids(&self, gateways: u32, objects: u32) -> Result<(), TraceError> {
        for (index, e) in self.entries.iter().enumerate() {
            for (field, value, count) in [
                ("gateway", u32::from(e.gateway), gateways),
                ("object", e.object, objects),
            ] {
                if value >= count {
                    return Err(TraceError::OutOfRange {
                        index,
                        field,
                        value,
                        count,
                    });
                }
            }
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
    }

    #[test]
    fn malformed_lines_rejected() {
        let err = Trace::from_text("0 0\n").unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
        let err = Trace::from_text("0 0 1 extra\n").unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
        let err = Trace::from_text("zero 0 1\n").unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }));
    }

    #[test]
    fn ordering_and_time_validated() {
        let err = Trace::from_text("1.0 0 0\n0.5 0 0\n").unwrap_err();
        assert!(matches!(err, TraceError::Unsorted { index: 1 }));
        for t in [f64::NAN, -1.0, f64::INFINITY, 1e300, MAX_CLOCK_SECS * 1.01] {
            let err = Trace::new(vec![TraceEntry {
                t,
                gateway: 0,
                object: 0,
            }])
            .unwrap_err();
            assert!(matches!(err, TraceError::BadTime { index: 0, .. }), "{t}");
        }
        assert!(Trace::from_text(&format!("{MAX_CLOCK_SECS} 0 0\n")).is_ok());
    }

    #[test]
    fn located_in_counts_comment_and_blank_lines() {
        let text = "# header\n0 0 0\n\n  # note\n1 0 0 # fine\n1e300 0 0\n";
        let err = Trace::from_text(text).unwrap_err();
        assert!(matches!(err, TraceError::BadTime { index: 2, .. }));
        let message = err.located_in(text);
        assert!(
            message.starts_with("line 6: entry 2: time must be"),
            "{message}"
        );
        let malformed = Trace::from_text("0 0 0\nnope\n").unwrap_err();
        assert!(malformed.located_in("0 0 0\nnope\n").starts_with("line 2:"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_text("# nothing\n").unwrap();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            TraceError::Malformed {
                line: 1,
                content: "x".into(),
            },
            TraceError::Unsorted { index: 2 },
            TraceError::BadTime { index: 0, t: -1.0 },
            TraceError::OutOfRange {
                index: 3,
                field: "gateway",
                value: 99,
                count: 53,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
