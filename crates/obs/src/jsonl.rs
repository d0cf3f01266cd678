//! JSONL (one JSON object per line) serialization of [`Event`]s.
//!
//! The writer emits keys in a fixed order through the scalar encoders of
//! [`crate::json`] (shortest-roundtrip `f64` text), so a seeded run
//! produces byte-identical output across invocations. The reader parses
//! each line with [`Value::parse`] and picks the event's fields out of
//! the tree, naming the field (and, for a whole log, the line) that is
//! missing or malformed.

use std::fmt;
use std::io::BufRead;

use crate::event::{
    CandidateSnapshot, ConsistencyClass, DecisionBranch, DecisionEvent, Event, EventKind,
    FailReason, PlacementActionEvent, PlacementActionKind, ProviderUpdateEvent, ResetCause,
    UpdateDeliveredEvent,
};
use crate::json::{push_f64, push_str_escaped, push_u64, ParseError, Value};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------
//
// One encoder, [`Event::encode_json_line`], appends bytes to a caller-owned
// `Vec<u8>`: static key fragments plus the scalar encoders of `crate::json`.
// It never enters `core::fmt` (bar the float fallback), never builds a tree
// and never allocates once the buffer's capacity plateaus.

// Field writers: `key` is the whole static fragment up to the value,
// e.g. `,"gateway":`.

fn field_u64(out: &mut Vec<u8>, key: &'static str, v: u64) {
    out.extend_from_slice(key.as_bytes());
    push_u64(out, v);
}

fn field_f64(out: &mut Vec<u8>, key: &'static str, v: f64) {
    out.extend_from_slice(key.as_bytes());
    push_f64(out, v);
}

fn field_opt_u64(out: &mut Vec<u8>, key: &'static str, v: Option<u64>) {
    out.extend_from_slice(key.as_bytes());
    match v {
        Some(v) => push_u64(out, v),
        None => out.extend_from_slice(b"null"),
    }
}

/// `None` and non-finite values both serialize as `null`.
fn field_opt_f64(out: &mut Vec<u8>, key: &'static str, v: Option<f64>) {
    field_f64(out, key, v.unwrap_or(f64::NAN));
}

/// Interned tags contain no characters needing escapes, so they skip
/// the per-character scan.
fn field_tag(out: &mut Vec<u8>, key: &'static str, tag: &'static str) {
    out.extend_from_slice(key.as_bytes());
    out.push(b'"');
    out.extend_from_slice(tag.as_bytes());
    out.push(b'"');
}

fn field_bool(out: &mut Vec<u8>, key: &'static str, v: bool) {
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// Key order is fixed per event type, so identical event sequences
    /// serialize byte-identically. Convenience wrapper around
    /// [`write_json_line`](Self::write_json_line).
    pub fn to_json_line(&self) -> String {
        let mut o = Vec::with_capacity(128);
        self.encode_json_line(&mut o);
        String::from_utf8(o).expect("the encoder emits UTF-8")
    }

    /// Serializes the event into a caller-owned buffer (appended; no
    /// trailing newline). Reusing the buffer across events makes the
    /// serialization path allocation-free once its capacity plateaus.
    pub fn write_json_line(&self, o: &mut String) {
        let mut bytes = std::mem::take(o).into_bytes();
        self.encode_json_line(&mut bytes);
        *o = String::from_utf8(bytes).expect("the encoder emits UTF-8");
    }

    /// The encoder behind every line writer: appends the event as one
    /// JSON object (no trailing newline) to a byte buffer.
    pub(crate) fn encode_json_line(&self, o: &mut Vec<u8>) {
        field_u64(o, "{\"seq\":", self.seq);
        field_f64(o, ",\"t\":", self.t);
        field_opt_u64(o, ",\"parent\":", self.parent);
        field_u64(o, ",\"qd\":", self.queue_depth.into());
        field_tag(o, ",\"type\":", self.type_name());
        match &self.kind {
            EventKind::RequestArrived { gateway, object } => {
                field_u64(o, ",\"gateway\":", (*gateway).into());
                field_u64(o, ",\"object\":", (*object).into());
            }
            EventKind::Decision(d) => {
                field_u64(o, ",\"object\":", d.object.into());
                field_u64(o, ",\"gateway\":", d.gateway.into());
                field_u64(o, ",\"chosen\":", d.chosen.into());
                field_tag(o, ",\"branch\":", d.branch.as_str());
                field_f64(o, ",\"constant\":", d.constant);
                field_opt_u64(o, ",\"closest\":", d.closest.map(u64::from));
                field_opt_u64(o, ",\"least\":", d.least.map(u64::from));
                field_opt_f64(o, ",\"unit_closest\":", d.unit_closest);
                field_opt_f64(o, ",\"unit_least\":", d.unit_least);
                o.extend_from_slice(b",\"candidates\":[");
                for (i, c) in d.candidates.iter().enumerate() {
                    field_u64(
                        o,
                        if i == 0 { "{\"host\":" } else { ",{\"host\":" },
                        c.host.into(),
                    );
                    field_u64(o, ",\"rcnt\":", c.rcnt);
                    field_u64(o, ",\"aff\":", c.aff.into());
                    field_f64(o, ",\"unit\":", c.unit);
                    field_u64(o, ",\"distance\":", c.distance.into());
                    o.push(b'}');
                }
                o.push(b']');
            }
            EventKind::RequestServed {
                gateway,
                object,
                host,
                latency,
                hops,
            } => {
                field_u64(o, ",\"gateway\":", (*gateway).into());
                field_u64(o, ",\"object\":", (*object).into());
                field_u64(o, ",\"host\":", (*host).into());
                field_f64(o, ",\"latency\":", *latency);
                field_u64(o, ",\"hops\":", (*hops).into());
            }
            EventKind::RequestFailed {
                gateway,
                object,
                reason,
            } => {
                field_u64(o, ",\"gateway\":", (*gateway).into());
                field_u64(o, ",\"object\":", (*object).into());
                field_tag(o, ",\"reason\":", reason.as_str());
            }
            EventKind::PlacementAction(p) => {
                field_u64(o, ",\"host\":", p.host.into());
                field_u64(o, ",\"object\":", p.object.into());
                field_tag(o, ",\"action\":", p.action.as_str());
                field_opt_u64(o, ",\"target\":", p.target.map(u64::from));
                field_f64(o, ",\"unit_rate\":", p.unit_rate);
                field_opt_f64(o, ",\"share\":", p.share);
                field_opt_f64(o, ",\"ratio\":", p.ratio);
                field_f64(o, ",\"u\":", p.deletion_threshold);
                field_f64(o, ",\"m\":", p.replication_threshold);
            }
            EventKind::CountsReset { object, cause } => {
                field_u64(o, ",\"object\":", (*object).into());
                field_tag(o, ",\"cause\":", cause.as_str());
            }
            EventKind::Fault { desc } => {
                o.extend_from_slice(b",\"desc\":");
                push_str_escaped(o, desc);
            }
            EventKind::ReReplication {
                object,
                target,
                elapsed,
            } => {
                field_u64(o, ",\"object\":", (*object).into());
                field_u64(o, ",\"target\":", (*target).into());
                field_f64(o, ",\"elapsed\":", *elapsed);
            }
            EventKind::ProviderUpdate(u) => {
                field_u64(o, ",\"object\":", u.object.into());
                field_tag(o, ",\"class\":", u.class.as_str());
                field_u64(o, ",\"version\":", u.version);
                field_u64(o, ",\"primary\":", u.primary.into());
                field_u64(o, ",\"targets\":", u.targets.into());
                field_u64(o, ",\"bytes_hops\":", u.bytes_hops);
                field_bool(o, ",\"reassigned\":", u.reassigned);
            }
            EventKind::UpdateDelivered(u) => {
                field_u64(o, ",\"object\":", u.object.into());
                field_u64(o, ",\"host\":", u.host.into());
                field_tag(o, ",\"class\":", u.class.as_str());
                field_u64(o, ",\"version\":", u.version);
                field_f64(o, ",\"lag\":", u.lag);
                field_bool(o, ",\"wasted\":", u.wasted);
            }
        }
        o.push(b'}');
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ParseError> {
    match v.get(key) {
        Some(f) => Ok(f),
        None => err(format!("missing field {key:?}")),
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ParseError> {
    match need(v, key)? {
        Value::UInt(n) => Ok(*n),
        _ => err(format!("field {key:?} is not an unsigned integer")),
    }
}

fn need_u32(v: &Value, key: &str) -> Result<u32, ParseError> {
    u32::try_from(need_u64(v, key)?).map_err(|_| ParseError(format!("field {key:?} overflows u32")))
}

fn need_u16(v: &Value, key: &str) -> Result<u16, ParseError> {
    u16::try_from(need_u64(v, key)?).map_err(|_| ParseError(format!("field {key:?} overflows u16")))
}

fn need_f64(v: &Value, key: &str) -> Result<f64, ParseError> {
    match need(v, key)? {
        Value::UInt(n) => Ok(*n as f64),
        Value::Num(n) => Ok(*n),
        Value::Null => Ok(f64::NAN),
        _ => err(format!("field {key:?} is not a number")),
    }
}

fn need_bool(v: &Value, key: &str) -> Result<bool, ParseError> {
    match need(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => err(format!("field {key:?} is not a boolean")),
    }
}

fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ParseError> {
    match need(v, key)?.as_str() {
        Some(s) => Ok(s),
        None => err(format!("field {key:?} is not a string")),
    }
}

/// Decodes an interned-tag field, rejecting tags outside the closed
/// vocabulary so a corrupted log fails loudly instead of folding into a
/// catch-all value.
fn need_tag<T>(v: &Value, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, ParseError> {
    let s = need_str(v, key)?;
    match parse(s) {
        Some(t) => Ok(t),
        None => err(format!("field {key:?} has unknown tag {s:?}")),
    }
}

/// A field that may be absent or `null`, otherwise read by `need_*`.
fn opt<T>(
    v: &Value,
    key: &str,
    need: fn(&Value, &str) -> Result<T, ParseError>,
) -> Result<Option<T>, ParseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => need(v, key).map(Some),
    }
}

impl Event {
    /// Parses one JSONL line produced by
    /// [`to_json_line`](Self::to_json_line).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed or
    /// missing field.
    pub fn from_json_line(line: &str) -> Result<Self, ParseError> {
        let root = &Value::parse(line)?;
        let seq = need_u64(root, "seq")?;
        let t = need_f64(root, "t")?;
        let parent = opt(root, "parent", need_u64)?;
        let queue_depth = need_u32(root, "qd")?;
        let kind = match need_str(root, "type")? {
            "request" => EventKind::RequestArrived {
                gateway: need_u16(root, "gateway")?,
                object: need_u32(root, "object")?,
            },
            "decision" => {
                let raw = match need(root, "candidates")? {
                    Value::Arr(items) => items,
                    _ => return err("field \"candidates\" is not an array"),
                };
                let mut candidates = Vec::with_capacity(raw.len());
                for c in raw {
                    candidates.push(CandidateSnapshot {
                        host: need_u16(c, "host")?,
                        rcnt: need_u64(c, "rcnt")?,
                        aff: need_u32(c, "aff")?,
                        unit: need_f64(c, "unit")?,
                        distance: need_u32(c, "distance")?,
                    });
                }
                EventKind::Decision(DecisionEvent {
                    object: need_u32(root, "object")?,
                    gateway: need_u16(root, "gateway")?,
                    chosen: need_u16(root, "chosen")?,
                    branch: need_tag(root, "branch", DecisionBranch::from_tag)?,
                    constant: need_f64(root, "constant")?,
                    closest: opt(root, "closest", need_u16)?,
                    least: opt(root, "least", need_u16)?,
                    unit_closest: opt(root, "unit_closest", need_f64)?,
                    unit_least: opt(root, "unit_least", need_f64)?,
                    candidates,
                })
            }
            "served" => EventKind::RequestServed {
                gateway: need_u16(root, "gateway")?,
                object: need_u32(root, "object")?,
                host: need_u16(root, "host")?,
                latency: need_f64(root, "latency")?,
                hops: need_u32(root, "hops")?,
            },
            "failed" => EventKind::RequestFailed {
                gateway: need_u16(root, "gateway")?,
                object: need_u32(root, "object")?,
                reason: need_tag(root, "reason", FailReason::from_tag)?,
            },
            "placement" => EventKind::PlacementAction(PlacementActionEvent {
                host: need_u16(root, "host")?,
                object: need_u32(root, "object")?,
                action: need_tag(root, "action", PlacementActionKind::from_tag)?,
                target: opt(root, "target", need_u16)?,
                unit_rate: need_f64(root, "unit_rate")?,
                share: opt(root, "share", need_f64)?,
                ratio: opt(root, "ratio", need_f64)?,
                deletion_threshold: need_f64(root, "u")?,
                replication_threshold: need_f64(root, "m")?,
            }),
            "counts-reset" => EventKind::CountsReset {
                object: need_u32(root, "object")?,
                cause: need_tag(root, "cause", ResetCause::from_tag)?,
            },
            "fault" => EventKind::Fault {
                desc: need_str(root, "desc")?.to_string(),
            },
            "re-replication" => EventKind::ReReplication {
                object: need_u32(root, "object")?,
                target: need_u16(root, "target")?,
                elapsed: need_f64(root, "elapsed")?,
            },
            "provider-update" => EventKind::ProviderUpdate(ProviderUpdateEvent {
                object: need_u32(root, "object")?,
                class: need_tag(root, "class", ConsistencyClass::from_tag)?,
                version: need_u64(root, "version")?,
                primary: need_u16(root, "primary")?,
                targets: need_u16(root, "targets")?,
                bytes_hops: need_u64(root, "bytes_hops")?,
                reassigned: need_bool(root, "reassigned")?,
            }),
            "update-delivered" => EventKind::UpdateDelivered(UpdateDeliveredEvent {
                object: need_u32(root, "object")?,
                host: need_u16(root, "host")?,
                class: need_tag(root, "class", ConsistencyClass::from_tag)?,
                version: need_u64(root, "version")?,
                lag: need_f64(root, "lag")?,
                wasted: need_bool(root, "wasted")?,
            }),
            other => return err(format!("unknown event type {other:?}")),
        };
        Ok(Event {
            seq,
            parent,
            t,
            queue_depth,
            kind,
        })
    }
}

/// Why a JSONL log could not be read: the reader failed, or a line is
/// not an event.
#[derive(Debug)]
pub enum JsonlError {
    /// The underlying reader failed (including on a line that is not
    /// UTF-8).
    Read(std::io::Error),
    /// A line is not an event; the message names its 1-based number.
    Parse(ParseError),
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Read(e) => e.fmt(f),
            JsonlError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JsonlError {}

/// Reads a JSONL log one line at a time, handing each event to `each`
/// as soon as it is parsed, so memory is one line plus what `each`
/// keeps. Lines end in `\n` or `\r\n`; blank lines are skipped. Every
/// other line must be an event: a trailer line that old logs may end
/// with is an error, not skipped. Returns the number of events read.
///
/// # Errors
///
/// Returns [`JsonlError::Read`] when the reader fails, and
/// [`JsonlError::Parse`] naming the 1-based line that is not an event.
pub fn for_each_jsonl(
    mut reader: impl BufRead,
    mut each: impl FnMut(Event),
) -> Result<u64, JsonlError> {
    let mut line = String::new();
    let mut events = 0;
    for number in 1.. {
        line.clear();
        if reader.read_line(&mut line).map_err(JsonlError::Read)? == 0 {
            break;
        }
        let text = line
            .strip_suffix('\n')
            .map_or(line.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        if text.trim().is_empty() {
            continue;
        }
        let event = Event::from_json_line(text)
            .map_err(|e| JsonlError::Parse(ParseError(format!("line {number}: {e}"))))?;
        events += 1;
        each(event);
    }
    Ok(events)
}

/// Parses a whole JSONL document with [`for_each_jsonl`]'s rules,
/// reporting the first error with its 1-based line number.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    match for_each_jsonl(text.as_bytes(), |e| events.push(e)) {
        Ok(_) => Ok(events),
        Err(JsonlError::Parse(e)) => Err(e),
        // Reading a `&str`'s bytes cannot fail, but say so if it does.
        Err(JsonlError::Read(e)) => Err(ParseError(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simcore::SimRng;
    use std::fmt::Write as _;

    // -----------------------------------------------------------------
    // The oracle: the `write!`-based writer the encoder replaced, kept
    // here only so the differential tests below can hold the encoder to
    // its bytes.
    // -----------------------------------------------------------------

    fn oracle_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    fn oracle_opt_u64(out: &mut String, v: Option<u64>) {
        match v {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
    }

    fn oracle_opt_f64(out: &mut String, v: Option<f64>) {
        match v {
            Some(v) => oracle_f64(out, v),
            None => out.push_str("null"),
        }
    }

    fn oracle_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn oracle_line(e: &Event) -> String {
        let mut o = String::new();
        let _ = write!(o, "{{\"seq\":{},\"t\":", e.seq);
        oracle_f64(&mut o, e.t);
        o.push_str(",\"parent\":");
        oracle_opt_u64(&mut o, e.parent);
        let _ = write!(
            o,
            ",\"qd\":{},\"type\":\"{}\"",
            e.queue_depth,
            e.type_name()
        );
        match &e.kind {
            EventKind::RequestArrived { gateway, object } => {
                let _ = write!(o, ",\"gateway\":{gateway},\"object\":{object}");
            }
            EventKind::Decision(d) => {
                let _ = write!(
                    o,
                    ",\"object\":{},\"gateway\":{},\"chosen\":{},\"branch\":\"{}\",\"constant\":",
                    d.object, d.gateway, d.chosen, d.branch
                );
                oracle_f64(&mut o, d.constant);
                o.push_str(",\"closest\":");
                oracle_opt_u64(&mut o, d.closest.map(u64::from));
                o.push_str(",\"least\":");
                oracle_opt_u64(&mut o, d.least.map(u64::from));
                o.push_str(",\"unit_closest\":");
                oracle_opt_f64(&mut o, d.unit_closest);
                o.push_str(",\"unit_least\":");
                oracle_opt_f64(&mut o, d.unit_least);
                o.push_str(",\"candidates\":[");
                for (i, c) in d.candidates.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    let _ = write!(
                        o,
                        "{{\"host\":{},\"rcnt\":{},\"aff\":{},\"unit\":",
                        c.host, c.rcnt, c.aff
                    );
                    oracle_f64(&mut o, c.unit);
                    let _ = write!(o, ",\"distance\":{}}}", c.distance);
                }
                o.push(']');
            }
            EventKind::RequestServed {
                gateway,
                object,
                host,
                latency,
                hops,
            } => {
                let _ = write!(
                    o,
                    ",\"gateway\":{gateway},\"object\":{object},\"host\":{host},\"latency\":"
                );
                oracle_f64(&mut o, *latency);
                let _ = write!(o, ",\"hops\":{hops}");
            }
            EventKind::RequestFailed {
                gateway,
                object,
                reason,
            } => {
                let _ = write!(
                    o,
                    ",\"gateway\":{gateway},\"object\":{object},\"reason\":\"{reason}\""
                );
            }
            EventKind::PlacementAction(p) => {
                let _ = write!(
                    o,
                    ",\"host\":{},\"object\":{},\"action\":\"{}\",\"target\":",
                    p.host, p.object, p.action
                );
                oracle_opt_u64(&mut o, p.target.map(u64::from));
                o.push_str(",\"unit_rate\":");
                oracle_f64(&mut o, p.unit_rate);
                o.push_str(",\"share\":");
                oracle_opt_f64(&mut o, p.share);
                o.push_str(",\"ratio\":");
                oracle_opt_f64(&mut o, p.ratio);
                o.push_str(",\"u\":");
                oracle_f64(&mut o, p.deletion_threshold);
                o.push_str(",\"m\":");
                oracle_f64(&mut o, p.replication_threshold);
            }
            EventKind::CountsReset { object, cause } => {
                let _ = write!(o, ",\"object\":{object},\"cause\":\"{cause}\"");
            }
            EventKind::Fault { desc } => {
                o.push_str(",\"desc\":");
                oracle_str(&mut o, desc);
            }
            EventKind::ReReplication {
                object,
                target,
                elapsed,
            } => {
                let _ = write!(o, ",\"object\":{object},\"target\":{target},\"elapsed\":");
                oracle_f64(&mut o, *elapsed);
            }
            EventKind::ProviderUpdate(u) => {
                let _ = write!(
                    o,
                    ",\"object\":{},\"class\":\"{}\",\"version\":{},\"primary\":{},\
                     \"targets\":{},\"bytes_hops\":{},\"reassigned\":{}",
                    u.object, u.class, u.version, u.primary, u.targets, u.bytes_hops, u.reassigned
                );
            }
            EventKind::UpdateDelivered(u) => {
                let _ = write!(
                    o,
                    ",\"object\":{},\"host\":{},\"class\":\"{}\",\"version\":{},\"lag\":",
                    u.object, u.host, u.class, u.version
                );
                oracle_f64(&mut o, u.lag);
                let _ = write!(o, ",\"wasted\":{}", u.wasted);
            }
        }
        o.push('}');
        o
    }

    fn every_variant(seq: u64, t: f64, width: usize) -> Vec<Event> {
        let candidates: Vec<CandidateSnapshot> = (0..width)
            .map(|i| CandidateSnapshot {
                host: i as u16,
                rcnt: seq.wrapping_mul(i as u64 + 1),
                aff: 1 + i as u32 % 3,
                unit: (seq % 1000) as f64 / (1 + i % 3) as f64,
                distance: i as u32 % 9,
            })
            .collect();
        let some = seq.is_multiple_of(2);
        [
            EventKind::RequestArrived {
                gateway: 52,
                object: 9_999,
            },
            EventKind::Decision(DecisionEvent {
                object: 42,
                gateway: 7,
                chosen: 3,
                branch: DecisionBranch::LeastRequested,
                constant: 2.0,
                closest: some.then_some(5),
                least: some.then_some(3),
                unit_closest: some.then_some(t / 3.0),
                unit_least: some.then_some(2.5),
                candidates,
            }),
            EventKind::RequestServed {
                gateway: 1,
                object: 2,
                host: 3,
                latency: t / 1000.0,
                hops: 4,
            },
            EventKind::RequestFailed {
                gateway: 1,
                object: 2,
                reason: FailReason::CrashedMidService,
            },
            EventKind::PlacementAction(PlacementActionEvent {
                host: 3,
                object: 42,
                action: PlacementActionKind::LoadMigrate,
                target: some.then_some(9),
                unit_rate: 0.21,
                share: some.then_some(0.4),
                ratio: some.then_some(1.0 / 6.0),
                deletion_threshold: 0.01,
                replication_threshold: 0.18,
            }),
            EventKind::CountsReset {
                object: 42,
                cause: ResetCause::Purge,
            },
            EventKind::Fault {
                desc: "link \"3-12\"\t\\ x4 \u{1}\u{1f} caf\u{e9} \u{1F980}\n".into(),
            },
            EventKind::ReReplication {
                object: 42,
                target: 9,
                elapsed: 61.5,
            },
            EventKind::ProviderUpdate(ProviderUpdateEvent {
                object: 42,
                class: ConsistencyClass::Type3,
                version: u64::MAX,
                primary: 7,
                targets: 2,
                bytes_hops: (1 << 53) + 1,
                reassigned: some,
            }),
            EventKind::UpdateDelivered(UpdateDeliveredEvent {
                object: 42,
                host: 11,
                class: ConsistencyClass::Type1,
                version: 3,
                lag: 0.31,
                wasted: !some,
            }),
        ]
        .into_iter()
        .map(|kind| Event {
            seq,
            parent: some.then_some(seq / 2),
            t,
            queue_depth: (seq % 100_000) as u32,
            kind,
        })
        .collect()
    }

    #[test]
    fn whole_lines_match_the_oracle_for_every_variant() {
        let mut rng = SimRng::seed_from(11);
        let mut buf = String::new();
        for round in 0..2_000 {
            let seq = rng.next_u64() >> rng.index(64);
            let t = (rng.next_u64() % 3_000_000_000) as f64 / 1e6;
            // Empty, the platform's widest (53 hosts) and in between.
            let width = [0, 53, 1, 3][round % 4];
            for event in every_variant(seq, t, width) {
                let want = oracle_line(&event);
                assert_eq!(event.to_json_line(), want);
                buf.clear();
                event.write_json_line(&mut buf);
                assert_eq!(buf, want);
                assert_eq!(Event::from_json_line(&want).expect("parses"), event);
            }
        }
    }

    #[test]
    fn u64_fields_round_trip_above_2_pow_53() {
        let rcnt = (1u64 << 53) + 1;
        let event = Event {
            seq: u64::MAX,
            parent: Some(u64::MAX - 1),
            t: 1.0,
            queue_depth: 0,
            kind: EventKind::Decision(DecisionEvent {
                candidates: vec![CandidateSnapshot {
                    host: 1,
                    rcnt,
                    aff: 1,
                    unit: rcnt as f64,
                    distance: 2,
                }],
                ..DecisionEvent::default()
            }),
        };
        let line = event.to_json_line();
        assert!(line.contains("\"rcnt\":9007199254740993"), "{line}");
        assert_eq!(Event::from_json_line(&line).expect("parses"), event);
    }

    #[test]
    fn non_integer_tokens_in_u64_fields_are_named_errors() {
        let line = |seq: &str| {
            format!(
                "{{\"seq\":{seq},\"t\":0,\"parent\":null,\"qd\":0,\
                 \"type\":\"request\",\"gateway\":0,\"object\":0}}"
            )
        };
        assert!(Event::from_json_line(&line("7")).is_ok());
        for bad in ["1e300", "1.5", "-1", "5.0", "18446744073709551616"] {
            let e = Event::from_json_line(&line(bad)).unwrap_err().to_string();
            assert!(
                e.contains("\"seq\"") && e.contains("unsigned integer"),
                "{bad}: {e}"
            );
        }
        // A float field still takes any of them.
        let t = "{\"seq\":1,\"t\":18446744073709551616,\"parent\":null,\"qd\":0,\
                 \"type\":\"request\",\"gateway\":0,\"object\":0}";
        assert_eq!(
            Event::from_json_line(t).unwrap().t,
            18_446_744_073_709_551_616.0
        );
    }

    fn round_trip(event: Event) {
        let line = event.to_json_line();
        let back = Event::from_json_line(&line).expect("round trip parses");
        assert_eq!(back, event, "line: {line}");
        // Re-serialization is byte-stable.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn round_trips_every_variant() {
        let base = |kind| Event {
            seq: 9,
            parent: Some(3),
            t: 12.5,
            queue_depth: 4,
            kind,
        };
        round_trip(base(EventKind::RequestArrived {
            gateway: 1,
            object: 2,
        }));
        round_trip(base(EventKind::Decision(DecisionEvent {
            object: 42,
            gateway: 7,
            chosen: 3,
            branch: DecisionBranch::LeastRequested,
            constant: 2.0,
            closest: Some(5),
            least: Some(3),
            unit_closest: Some(10.0),
            unit_least: Some(2.5),
            candidates: vec![
                CandidateSnapshot {
                    host: 3,
                    rcnt: 5,
                    aff: 2,
                    unit: 2.5,
                    distance: 6,
                },
                CandidateSnapshot {
                    host: 5,
                    rcnt: 10,
                    aff: 1,
                    unit: 10.0,
                    distance: 1,
                },
            ],
        })));
        round_trip(base(EventKind::RequestServed {
            gateway: 1,
            object: 2,
            host: 3,
            latency: 0.125,
            hops: 4,
        }));
        round_trip(base(EventKind::RequestFailed {
            gateway: 1,
            object: 2,
            reason: FailReason::Unreachable,
        }));
        round_trip(base(EventKind::PlacementAction(PlacementActionEvent {
            host: 3,
            object: 42,
            action: PlacementActionKind::GeoReplicate,
            target: Some(9),
            unit_rate: 0.21,
            share: Some(0.4),
            ratio: Some(0.3),
            deletion_threshold: 0.01,
            replication_threshold: 0.18,
        })));
        round_trip(base(EventKind::CountsReset {
            object: 42,
            cause: ResetCause::Created,
        }));
        round_trip(base(EventKind::Fault {
            desc: "link-degrade 3-12 x4".into(),
        }));
        round_trip(base(EventKind::ReReplication {
            object: 42,
            target: 9,
            elapsed: 61.5,
        }));
        round_trip(base(EventKind::ProviderUpdate(ProviderUpdateEvent {
            object: 42,
            class: ConsistencyClass::Type1,
            version: 3,
            primary: 7,
            targets: 2,
            bytes_hops: 98_304,
            reassigned: true,
        })));
        round_trip(base(EventKind::UpdateDelivered(UpdateDeliveredEvent {
            object: 42,
            host: 11,
            class: ConsistencyClass::Type2,
            version: 3,
            lag: 0.31,
            wasted: false,
        })));
    }

    #[test]
    fn none_parent_serializes_as_null() {
        let e = Event {
            seq: 1,
            parent: None,
            t: 0.0,
            queue_depth: 0,
            kind: EventKind::RequestArrived {
                gateway: 0,
                object: 0,
            },
        };
        let line = e.to_json_line();
        assert!(line.contains("\"parent\":null"), "{line}");
        round_trip(e);
    }

    #[test]
    fn string_escapes_round_trip() {
        round_trip(Event {
            seq: 2,
            parent: None,
            t: 1.0,
            queue_depth: 0,
            kind: EventKind::Fault {
                desc: "weird \"desc\"\n\\tab\t".into(),
            },
        });
    }

    #[test]
    fn unknown_interned_tag_is_a_parse_error() {
        let line = "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\
                    \"type\":\"counts-reset\",\"object\":3,\"cause\":\"vibes\"}";
        let e = Event::from_json_line(line).unwrap_err();
        assert!(e.to_string().contains("unknown tag"), "{e}");
        assert!(e.to_string().contains("vibes"), "{e}");
    }

    #[test]
    fn write_json_line_appends_to_reused_buffer() {
        let e = Event {
            seq: 4,
            parent: None,
            t: 1.5,
            queue_depth: 2,
            kind: EventKind::RequestArrived {
                gateway: 3,
                object: 8,
            },
        };
        let mut buf = String::from("prefix|");
        e.write_json_line(&mut buf);
        assert_eq!(buf, format!("prefix|{}", e.to_json_line()));
        buf.clear();
        e.write_json_line(&mut buf);
        assert_eq!(buf, e.to_json_line());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line(
            "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\"type\":\"mystery\"}"
        )
        .is_err());
        let valid = "{\"seq\":1,\"t\":0,\"parent\":null,\"qd\":0,\
                     \"type\":\"request\",\"gateway\":0,\"object\":0}";
        assert!(Event::from_json_line(valid).is_ok());
        assert!(Event::from_json_line(&format!("{valid} extra")).is_err());
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = Event {
            seq: 1,
            parent: None,
            t: 0.0,
            queue_depth: 0,
            kind: EventKind::RequestArrived {
                gateway: 0,
                object: 0,
            },
        }
        .to_json_line();
        let text = format!("{good}\n\nbroken\n");
        let e = parse_jsonl(&text).unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        assert_eq!(parse_jsonl(&format!("{good}\n{good}\n")).unwrap().len(), 2);
        // Every non-event line — here a trailer type old logs can end
        // with — is an error naming its line, never skipped.
        let trailer =
            r#"{"type":"reorder","reserved":4210,"max_in_flight":7,"max_held":12,"drains":905}"#;
        let e = parse_jsonl(&format!("{good}\n{trailer}\n")).unwrap_err();
        assert_eq!(e.to_string(), "line 2: missing field \"seq\"");
    }

    #[test]
    fn for_each_jsonl_streams_crlf_lines_and_reports_read_failures() {
        let line = |seq| {
            Event {
                seq,
                parent: None,
                t: 0.5,
                queue_depth: 0,
                kind: EventKind::RequestArrived {
                    gateway: 0,
                    object: 0,
                },
            }
            .to_json_line()
        };
        // CRLF endings, a blank line and an unterminated last line.
        let text = format!("{}\r\n\r\n{}", line(1), line(2));
        let mut seqs = Vec::new();
        let count = for_each_jsonl(text.as_bytes(), |e| seqs.push(e.seq)).unwrap();
        assert_eq!((count, seqs), (2, vec![1, 2]));
        // A line that is not UTF-8 is the reader's failure, not a parse
        // error.
        let mut bytes = format!("{}\n", line(1)).into_bytes();
        bytes.extend_from_slice(b"\xff\n");
        let e = for_each_jsonl(bytes.as_slice(), |_| ()).unwrap_err();
        assert!(matches!(e, JsonlError::Read(_)), "{e}");
    }
}
