//! `radar events` — inspect a flight-recorder JSONL log.
//!
//! Logs come from `radar simulate --events FILE` (or any
//! [`radar_obs::Recorder`] sink). Six subcommands: `tail` shows the
//! most recent events, `filter` selects by type/object/gateway/host/
//! time, `explain` prints one event's full decision narrative plus its
//! causal chain, `summary` aggregates per-event-type counts, rates,
//! and queue-depth statistics, `watch` replays a log through the
//! streaming metrics fold and the object ledger and renders the
//! dashboard, and `diff` compares two logs and pinpoints the first
//! divergence with both sides' causal context. `summary`, `watch` and
//! `objects audit` say when a log has sequence gaps, because their
//! aggregates then cover only part of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use radar_obs::{
    diff_events, for_each_jsonl, DiffOutcome, Event, EventKind, JsonlError, MetricsConfig,
    MetricsObserver, ObjectLedger, EVENT_TYPES,
};

use crate::args::Parsed;
use crate::dashboard;

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let Some((&sub, rest)) = args.split_first() else {
        return Ok(help());
    };
    match sub {
        "tail" => tail(rest),
        "filter" => filter(rest),
        "explain" => explain(rest),
        "summary" => summary(rest),
        "watch" => watch(rest),
        "diff" => diff(rest),
        "--help" | "-h" => Ok(help()),
        other => Err(format!("unknown events subcommand {other:?}\n\n{}", help())),
    }
}

pub(crate) fn load(path: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    stream(path, |e| events.push(e))?;
    Ok(events)
}

/// Reads a log one line at a time with [`radar_obs::for_each_jsonl`],
/// handing each event to `fold` as soon as it is parsed, so memory is
/// one line plus what `fold` keeps rather than the whole log. Errors
/// name the file.
pub(crate) fn stream(path: &str, mut fold: impl FnMut(Event)) -> Result<Extent, String> {
    let read_error = |e: std::io::Error| format!("cannot read events file {path}: {e}");
    let file = std::fs::File::open(path).map_err(read_error)?;
    let mut last = None;
    let events = for_each_jsonl(std::io::BufReader::new(file), |e| {
        last = Some((e.seq, e.t));
        fold(e);
    })
    .map_err(|e| match e {
        JsonlError::Read(e) => read_error(e),
        JsonlError::Parse(e) => format!("{path}: {e}"),
    })?;
    Ok(Extent { events, last })
}

/// How far a log reaches: its event count and its last event's `seq`
/// and time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) events: u64,
    pub(crate) last: Option<(u64, f64)>,
}

impl Extent {
    pub(crate) fn of(events: &[Event]) -> Self {
        Self {
            events: events.len() as u64,
            last: events.last().map(|e| (e.seq, e.t)),
        }
    }

    /// The recorder numbers events densely from 1, so a log whose last
    /// `seq` exceeds its length was cut or filtered, and anything
    /// folded over it covers only part of the run. Returns the note
    /// saying so, or `None` for a gap-free log.
    pub(crate) fn gap_note(&self) -> Option<String> {
        let last = self.last.map_or(0, |(seq, _)| seq);
        let missing = last.saturating_sub(self.events);
        (missing > 0).then(|| format!("{missing} events missing from this log (sequence gaps)\n"))
    }
}

/// The single FILE positional every subcommand except `explain` takes.
fn one_positional(parsed: &Parsed, sub: &str) -> Result<String, String> {
    match parsed.positionals.as_slice() {
        [path] => Ok(path.clone()),
        [] => Err(format!("events {sub} expects an events FILE\n\n{}", help())),
        more => Err(format!(
            "events {sub} takes one FILE, got {} positionals",
            more.len()
        )),
    }
}

fn tail(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &["count"], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let path = one_positional(&parsed, "tail")?;
    let count: usize = parsed
        .get_parsed("count", 10, "an event count")
        .map_err(|e| e.to_string())?;
    let events = load(&path)?;
    if events.is_empty() {
        return Ok("no events\n".to_string());
    }
    let mut out = String::new();
    let skip = events.len().saturating_sub(count);
    if skip > 0 {
        let _ = writeln!(out, "… {skip} earlier events");
    }
    for e in &events[skip..] {
        out.push_str(&e.brief());
        out.push('\n');
    }
    Ok(out)
}

fn filter(args: &[&str]) -> Result<String, String> {
    const OPTIONS: &[&str] = &[
        "type", "object", "gateway", "host", "since", "until", "limit",
    ];
    let parsed = Parsed::parse(args, OPTIONS, &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let path = one_positional(&parsed, "filter")?;
    let type_name = parsed.get("type").map(str::to_string);
    if let Some(t) = &type_name {
        if !EVENT_TYPES.contains(&t.as_str()) {
            return Err(format!(
                "unknown event type {t:?} (one of: {})",
                EVENT_TYPES.join(", ")
            ));
        }
    }
    let object: Option<u32> = opt_num(&parsed, "object", "an object id")?;
    let gateway: Option<u16> = opt_num(&parsed, "gateway", "a node id")?;
    let host: Option<u16> = opt_num(&parsed, "host", "a node id")?;
    let since: Option<f64> = opt_num(&parsed, "since", "a time in seconds")?;
    let until: Option<f64> = opt_num(&parsed, "until", "a time in seconds")?;
    // NaN compares false with every time, so it would match nothing.
    for (flag, bound) in [("since", since), ("until", until)] {
        if bound.is_some_and(f64::is_nan) {
            return Err(format!(
                "flag --{flag}: expected a time in seconds, got NaN"
            ));
        }
    }
    let limit: usize = parsed
        .get_parsed("limit", usize::MAX, "an event count")
        .map_err(|e| e.to_string())?;

    let events = load(&path)?;
    let total = events.len();
    let mut out = String::new();
    let mut shown = 0usize;
    let mut matched = 0usize;
    for e in &events {
        let keep = type_name.as_deref().is_none_or(|t| e.type_name() == t)
            && object.is_none_or(|o| e.object() == Some(o))
            && gateway.is_none_or(|g| e.gateway() == Some(g))
            && host.is_none_or(|h| e.host() == Some(h))
            && since.is_none_or(|s| e.t >= s)
            && until.is_none_or(|u| e.t <= u);
        if !keep {
            continue;
        }
        matched += 1;
        if shown < limit {
            out.push_str(&e.brief());
            out.push('\n');
            shown += 1;
        }
    }
    let _ = writeln!(out, "{matched} of {total} events matched");
    if shown < matched {
        let _ = writeln!(out, "(showing first {shown}; raise --limit for more)");
    }
    Ok(out)
}

fn opt_num<T: std::str::FromStr>(
    parsed: &Parsed,
    key: &str,
    expected: &'static str,
) -> Result<Option<T>, String> {
    match parsed.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("flag --{key}: expected {expected}, got {raw:?}")),
    }
}

fn explain(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &[], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let [seq, path] = parsed.positionals.as_slice() else {
        return Err(format!("events explain expects SEQ FILE\n\n{}", help()));
    };
    let seq: u64 = seq
        .parse()
        .map_err(|_| format!("expected an event sequence number, got {seq:?}"))?;
    let events = load(path)?;
    let causes = Causality::new(&events);
    let Some(event) = causes.get(seq) else {
        return Err(format!(
            "no event #{seq} in {path} ({} events, seq {}..={})",
            events.len(),
            events.first().map_or(0, |e| e.seq),
            events.last().map_or(0, |e| e.seq)
        ));
    };

    let mut out = event.explain();
    out.push_str(&causes.chain(event));
    Ok(out)
}

/// A log's causal links, indexed once so that any number of chains can
/// be rendered without another pass over the log. Shared by `explain`,
/// `diff`, and `objects timeline`.
pub(crate) struct Causality<'a> {
    events: &'a [Event],
    /// `(seq, position)` of every event, sorted.
    by_seq: Vec<(u64, usize)>,
    /// `(parent seq, position)` of every event with a parent, sorted:
    /// one parent's children sit together, in log order.
    children: Vec<(u64, usize)>,
}

impl<'a> Causality<'a> {
    pub(crate) fn new(events: &'a [Event]) -> Self {
        let positions = || events.iter().enumerate();
        let mut by_seq: Vec<(u64, usize)> = positions().map(|(i, e)| (e.seq, i)).collect();
        by_seq.sort_unstable();
        let mut children: Vec<(u64, usize)> = positions()
            .filter_map(|(i, e)| Some((e.parent?, i)))
            .collect();
        children.sort_unstable();
        Self {
            events,
            by_seq,
            children,
        }
    }

    /// The event numbered `seq` (the last one, should a log repeat it).
    pub(crate) fn get(&self, seq: u64) -> Option<&'a Event> {
        let end = self.by_seq.partition_point(|&(s, _)| s <= seq);
        let &(found, i) = self.by_seq[..end].last()?;
        (found == seq).then(|| &self.events[i])
    }

    /// Renders `event`'s causal context: its ancestors back to the root
    /// ("caused by") and its direct consequences ("led to").
    pub(crate) fn chain(&self, event: &Event) -> String {
        let mut out = String::new();
        let mut ancestors = Vec::new();
        let mut cursor = event.parent;
        while let Some(p) = cursor {
            match self.get(p) {
                Some(e) => {
                    ancestors.push(e);
                    cursor = e.parent;
                }
                None => {
                    // Cut or filtered out of this log.
                    ancestors.push(&MISSING);
                    break;
                }
            }
        }
        if !ancestors.is_empty() {
            out.push_str("\ncaused by:\n");
            for e in ancestors.iter().rev() {
                if e.seq == 0 {
                    out.push_str("  (earlier event not in this log)\n");
                } else {
                    let _ = writeln!(out, "  {}", e.brief());
                }
            }
        }
        let start = self.children.partition_point(|&(p, _)| p < event.seq);
        let end = self.children.partition_point(|&(p, _)| p <= event.seq);
        let children = &self.children[start..end];
        if !children.is_empty() {
            out.push_str("\nled to:\n");
            for &(_, i) in children {
                let _ = writeln!(out, "  {}", self.events[i].brief());
            }
        }
        out
    }
}

/// Placeholder for a causal parent that is absent from the log (the
/// log was cut or filtered); `seq` 0 never occurs in real events.
static MISSING: Event = Event {
    seq: 0,
    parent: None,
    t: 0.0,
    queue_depth: 0,
    kind: EventKind::RequestArrived {
        gateway: 0,
        object: 0,
    },
};

/// Most bandwidth bins or load samples `events watch` folds over one
/// replay (a 3 000-s paper run needs 150).
const MAX_WATCH_BINS: f64 = 1e6;

fn watch(args: &[&str]) -> Result<String, String> {
    const OPTIONS: &[&str] = &["top", "duration"];
    let parsed = Parsed::parse(args, OPTIONS, &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let path = one_positional(&parsed, "watch")?;
    let top: usize = parsed
        .get_parsed("top", 8, "a row count")
        .map_err(|e| e.to_string())?;
    // Every `radar simulate` log has the default object size, bandwidth
    // bin and load interval.
    let cfg = MetricsConfig::default();
    let events = load(&path)?;
    if events.is_empty() {
        return Ok("no events\n".to_string());
    }
    let t_end: f64 = parsed
        .get_parsed("duration", events.last().expect("non-empty").t, "seconds")
        .map_err(|e| e.to_string())?;
    if !(t_end.is_finite() && t_end >= 0.0) {
        return Err(format!(
            "flag --duration: expected a finite number of seconds >= 0, got {t_end}"
        ));
    }
    // The fold records one bin per width up to the horizon.
    let horizon = events.iter().map(|e| e.t).fold(t_end, f64::max);
    let bins = horizon / cfg.bandwidth_bin.min(cfg.load_interval);
    if bins > MAX_WATCH_BINS {
        return Err(format!(
            "flag --duration: {bins:.3e} bins over the {horizon}-s replay, \
             more than {MAX_WATCH_BINS:.0}"
        ));
    }
    let mut m = MetricsObserver::new(cfg);
    let mut ledger = ObjectLedger::default();
    // On a terminal, replay the log as an animated dashboard on stderr;
    // otherwise just fold and print the final frame.
    let live = {
        use std::io::IsTerminal;
        std::io::stderr().is_terminal()
    };
    let frames = 60usize;
    let chunk = (events.len() / frames).max(1);
    for (i, e) in events.iter().enumerate() {
        m.fold(e);
        ledger.fold(e);
        if live && (i + 1) % chunk == 0 {
            use std::io::Write as _;
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\x1b[H\x1b[J{}", dashboard::render(&m, &ledger, top));
            let _ = err.flush();
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }
    m.finalize(t_end);
    let mut out = dashboard::render(&m, &ledger, top);
    // A log missing events renders a misleading dashboard.
    if let Some(note) = Extent::of(&events).gap_note() {
        out.push('\n');
        out.push_str(&note);
    }
    Ok(out)
}

fn diff(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &[], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let [left_path, right_path] = parsed.positionals.as_slice() else {
        return Err(format!("events diff expects two FILEs (A B)\n\n{}", help()));
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    match diff_events(&left, &right) {
        DiffOutcome::Identical { events } => {
            Ok(format!("logs identical: {events} events, no divergence\n"))
        }
        DiffOutcome::Divergent {
            index,
            seq,
            left: le,
            right: re,
        } => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "logs diverge at position {index} (first differing seq {seq}):"
            );
            let _ = writeln!(out, "  left  ({left_path}):  {}", side_brief(le.as_deref()));
            let _ = writeln!(out, "  right ({right_path}): {}", side_brief(re.as_deref()));
            out.push_str(&side_detail("left", left_path, &left, le.as_deref()));
            out.push_str(&side_detail("right", right_path, &right, re.as_deref()));
            Err(out)
        }
    }
}

fn side_brief(event: Option<&Event>) -> String {
    match event {
        Some(e) => e.brief(),
        None => "(log ends here)".to_string(),
    }
}

/// The divergent event in full — its decision/placement narrative plus
/// the causal chain that led to it — for one side of a diff.
fn side_detail(label: &str, path: &str, events: &[Event], event: Option<&Event>) -> String {
    match event {
        None => format!("\n{label} log {path} ends after {} events\n", events.len()),
        Some(e) => format!(
            "\n{label} event in {path}:\n{}{}",
            e.explain(),
            Causality::new(events).chain(e)
        ),
    }
}

fn summary(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &["top"], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let path = one_positional(&parsed, "summary")?;
    let top: usize = parsed
        .get_parsed("top", 5, "a row count")
        .map_err(|e| e.to_string())?;
    let events = load(&path)?;
    if events.is_empty() {
        return Ok("no events\n".to_string());
    }
    let first = events.first().expect("non-empty").t;
    let last = events.last().expect("non-empty").t;
    let span = last - first;
    let total = events.len();

    #[derive(Default)]
    struct TypeRow {
        count: u64,
        qd_sum: u64,
        qd_max: u32,
    }
    let mut rows: BTreeMap<&'static str, TypeRow> = BTreeMap::new();
    let mut objects: BTreeMap<u32, u64> = BTreeMap::new();
    let mut hosts: BTreeMap<u16, u64> = BTreeMap::new();
    for e in &events {
        let row = rows.entry(e.type_name()).or_default();
        row.count += 1;
        row.qd_sum += u64::from(e.queue_depth);
        row.qd_max = row.qd_max.max(e.queue_depth);
        if let Some(o) = e.object() {
            *objects.entry(o).or_default() += 1;
        }
        if let Some(h) = e.host() {
            *hosts.entry(h).or_default() += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{total} events over t=[{first:.3}, {last:.3}] ({span:.3} s)"
    );
    out.push_str(&Extent::of(&events).gap_note().unwrap_or_default());
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<15} {:>9} {:>7} {:>10} {:>8} {:>7}",
        "type", "count", "share", "rate/s", "mean qd", "max qd"
    );
    // Known types first, in their canonical order; anything else after.
    let ordered = EVENT_TYPES
        .iter()
        .copied()
        .filter(|t| rows.contains_key(t))
        .chain(rows.keys().copied().filter(|t| !EVENT_TYPES.contains(t)));
    for name in ordered {
        let row = &rows[name];
        let share = 100.0 * row.count as f64 / total as f64;
        let rate = if span > 0.0 {
            format!("{:>10.2}", row.count as f64 / span)
        } else {
            format!("{:>10}", "n/a")
        };
        let _ = writeln!(
            out,
            "{:<15} {:>9} {:>6.1}% {} {:>8.1} {:>7}",
            name,
            row.count,
            share,
            rate,
            row.qd_sum as f64 / row.count as f64,
            row.qd_max
        );
    }

    let mut top_objects: Vec<(u64, u32)> = objects.into_iter().map(|(o, c)| (c, o)).collect();
    top_objects.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    if !top_objects.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "busiest objects (by event count)");
        for (count, object) in top_objects.iter().take(top) {
            let _ = writeln!(out, "  object {object:<6} {count:>9}");
        }
    }
    let mut top_hosts: Vec<(u64, u16)> = hosts.into_iter().map(|(h, c)| (c, h)).collect();
    top_hosts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    if !top_hosts.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "busiest hosts (by event count)");
        for (count, host) in top_hosts.iter().take(top) {
            let _ = writeln!(out, "  host {host:<8} {count:>9}");
        }
    }
    Ok(out)
}

fn help() -> String {
    "radar events — inspect a flight-recorder JSONL log\n\
     \n\
     Produce a log with `radar simulate --events FILE …`.\n\
     \n\
     USAGE:\n\
     \x20 radar events tail FILE [--count N]        last N events (default 10)\n\
     \x20 radar events filter FILE [FILTERS]        matching events, oldest first\n\
     \x20 radar events explain SEQ FILE             one event in full: the Fig. 2\n\
     \x20                                           decision or placement test that\n\
     \x20                                           produced it, plus its causal chain\n\
     \x20 radar events summary FILE [--top N]       per-type counts, rates, queue\n\
     \x20                                           depths, busiest objects/hosts\n\
     \x20 radar events watch FILE [--top N]         replay the log through the\n\
     \x20                                           metrics fold and object ledger and\n\
     \x20                                           render the dashboard (animated on\n\
     \x20                                           a TTY)\n\
     \x20         [--duration S]                    fold up to S seconds (default: the\n\
     \x20                                           last event's time)\n\
     \x20 radar events diff A B                     compare two logs; report the first\n\
     \x20                                           diverging event with its causal\n\
     \x20                                           chain (exit 2 on divergence)\n\
     \n\
     FILTERS:\n\
     \x20 --type T      request | decision | served | failed | placement |\n\
     \x20               counts-reset | fault | re-replication |\n\
     \x20               provider-update | update-delivered\n\
     \x20 --object N    events concerning object N\n\
     \x20 --gateway N   events entering at gateway node N\n\
     \x20 --host N      events involving host node N\n\
     \x20 --since S     events at simulated time >= S seconds\n\
     \x20 --until S     events at simulated time <= S seconds\n\
     \x20 --limit N     print at most N matches\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_log(events: &[Event]) -> (tempdir::TempPath, String) {
        let mut text = String::new();
        for e in events {
            text.push_str(&e.to_json_line());
            text.push('\n');
        }
        let path = tempdir::path("events-test");
        std::fs::write(&path, text).unwrap();
        let s = path.to_string_lossy().into_owned();
        (tempdir::TempPath(path), s)
    }

    /// Minimal self-cleaning temp files (std-only).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn path(stem: &str) -> PathBuf {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("radar-{stem}-{}-{n}.jsonl", std::process::id()))
        }
    }

    fn served(seq: u64, parent: Option<u64>, t: f64, object: u32) -> Event {
        Event {
            seq,
            parent,
            t,
            queue_depth: 2,
            kind: EventKind::RequestServed {
                gateway: 1,
                object,
                host: 4,
                latency: 0.05,
                hops: 2,
            },
        }
    }

    #[test]
    fn tail_shows_last_events() {
        let events: Vec<Event> = (1..=20).map(|i| served(i, None, i as f64, 7)).collect();
        let (_guard, path) = write_log(&events);
        let out = tail(&[path.as_str(), "--count", "3"]).unwrap();
        assert!(out.contains("… 17 earlier events"), "{out}");
        assert!(out.contains("#18"), "{out}");
        assert!(out.contains("#20"), "{out}");
        assert!(!out.contains("#17 "), "{out}");
    }

    #[test]
    fn filter_by_object_and_limit() {
        let events = vec![
            served(1, None, 1.0, 7),
            served(2, None, 2.0, 9),
            served(3, None, 3.0, 7),
        ];
        let (_guard, path) = write_log(&events);
        let out = filter(&[path.as_str(), "--object", "7"]).unwrap();
        assert!(out.contains("2 of 3 events matched"), "{out}");
        assert!(!out.contains("object 9"), "{out}");
        let limited = filter(&[path.as_str(), "--limit", "1"]).unwrap();
        assert!(limited.contains("showing first 1"), "{limited}");
    }

    #[test]
    fn filter_rejects_unknown_type() {
        let (_guard, path) = write_log(&[served(1, None, 1.0, 7)]);
        let err = filter(&[path.as_str(), "--type", "bogus"]).unwrap_err();
        assert!(err.contains("unknown event type"), "{err}");
    }

    #[test]
    fn explain_walks_causal_chain() {
        let events = vec![
            Event {
                seq: 1,
                parent: None,
                t: 1.0,
                queue_depth: 0,
                kind: EventKind::RequestArrived {
                    gateway: 1,
                    object: 7,
                },
            },
            Event {
                seq: 2,
                parent: Some(1),
                t: 1.1,
                queue_depth: 1,
                kind: EventKind::Decision(radar_obs::DecisionEvent {
                    object: 7,
                    gateway: 1,
                    chosen: 4,
                    branch: radar_obs::DecisionBranch::Closest,
                    constant: 2.0,
                    closest: Some(4),
                    least: Some(5),
                    unit_closest: Some(1.0),
                    unit_least: Some(3.0),
                    candidates: Vec::new(),
                }),
            },
            served(3, Some(2), 1.2, 7),
        ];
        let (_guard, path) = write_log(&events);
        let out = explain(&["2", path.as_str()]).unwrap();
        assert!(out.starts_with(&events[1].brief()), "{out}");
        assert!(out.contains("queue depth 1"), "{out}");
        assert!(out.contains("caused by:"), "{out}");
        assert!(out.contains("led to:"), "{out}");
        assert!(out.contains("#3"), "{out}");
        let err = explain(&["99", path.as_str()]).unwrap_err();
        assert!(err.contains("no event #99"), "{err}");
    }

    #[test]
    fn watch_renders_final_dashboard_frame() {
        let events: Vec<Event> = (1..=30).map(|i| served(i, None, i as f64, 7)).collect();
        let (_guard, path) = write_log(&events);
        let out = watch(&[path.as_str(), "--top", "3", "--duration", "40"]).unwrap();
        assert!(out.contains("RaDaR dashboard"), "{out}");
        assert!(out.contains("30 events"), "{out}");
        assert!(out.contains("object 7"), "{out}");
        assert!(out.contains("t=40.0s"), "{out}");
    }

    #[test]
    fn watch_notes_sequence_gaps() {
        let (_g, complete) = write_log(&[served(1, None, 1.0, 7), served(2, None, 2.0, 7)]);
        let out = watch(&[complete.as_str()]).unwrap();
        assert!(out.contains("RaDaR dashboard"), "{out}");
        assert!(!out.contains("missing"), "{out}");
        let (_g, cut) = write_log(&[served(1, None, 1.0, 7), served(9, None, 2.0, 7)]);
        let out = watch(&[cut.as_str()]).unwrap();
        assert!(out.contains("RaDaR dashboard"), "{out}");
        assert!(
            out.contains("7 events missing from this log (sequence gaps)"),
            "{out}"
        );
    }

    #[test]
    fn diff_reports_identical_and_divergent_logs() {
        let a: Vec<Event> = (1..=5).map(|i| served(i, None, i as f64, 7)).collect();
        let mut b = a.clone();
        let (_ga, pa) = write_log(&a);
        let same = diff(&[pa.as_str(), pa.as_str()]).unwrap();
        assert!(same.contains("logs identical: 5 events"), "{same}");

        // Perturb one payload field: first divergence at seq 3.
        if let EventKind::RequestServed { host, .. } = &mut b[2].kind {
            *host = 9;
        }
        let (_gb, pb) = write_log(&b);
        let err = diff(&[pa.as_str(), pb.as_str()]).unwrap_err();
        assert!(err.contains("position 2"), "{err}");
        assert!(err.contains("first differing seq 3"), "{err}");
        assert!(err.contains("left event in"), "{err}");
        assert!(err.contains("right event in"), "{err}");
    }

    #[test]
    fn diff_handles_truncated_logs() {
        let a: Vec<Event> = (1..=3).map(|i| served(i, None, i as f64, 7)).collect();
        let (_ga, pa) = write_log(&a);
        let (_gb, pb) = write_log(&a[..2]);
        let err = diff(&[pa.as_str(), pb.as_str()]).unwrap_err();
        assert!(err.contains("(log ends here)"), "{err}");
        assert!(err.contains("ends after 2 events"), "{err}");
    }

    #[test]
    fn summary_notes_sequence_gaps() {
        // Seqs 5 and 9 are left of a run that emitted 9 events: 7 missing.
        let events = vec![served(5, None, 1.0, 7), served(9, None, 2.0, 7)];
        let (_guard, path) = write_log(&events);
        let out = summary(&[path.as_str()]).unwrap();
        assert!(
            out.contains("7 events missing from this log (sequence gaps)"),
            "{out}"
        );
        let (_guard, path) = write_log(&[served(1, None, 1.0, 7), served(2, None, 2.0, 7)]);
        let out = summary(&[path.as_str()]).unwrap();
        assert!(!out.contains("missing"), "{out}");
    }

    #[test]
    fn summary_counts_types_and_guards_zero_span() {
        let events = vec![
            served(1, None, 5.0, 7),
            served(2, None, 5.0, 7),
            Event {
                seq: 3,
                parent: None,
                t: 5.0,
                queue_depth: 9,
                kind: EventKind::Fault {
                    desc: "host-crash 4".into(),
                },
            },
        ];
        let (_guard, path) = write_log(&events);
        let out = summary(&[path.as_str()]).unwrap();
        assert!(out.contains("3 events"), "{out}");
        assert!(out.contains("served"), "{out}");
        assert!(out.contains("fault"), "{out}");
        // All three events share one timestamp: no rate is computable.
        assert!(out.contains("n/a"), "{out}");
        assert!(out.contains("busiest objects"), "{out}");
    }
}
