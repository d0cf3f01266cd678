//! `radar objects` — protocol-level inspection of a flight-recorder
//! log: per-object lifecycle timelines, churn/cost attribution, and
//! the replica-set-invariant audit.
//!
//! All three subcommands replay a JSONL event log through the same
//! [`radar_obs::ObjectLedger`] streaming fold the simulator uses for
//! its `protocol_health` report section, so offline inspection and
//! in-run accounting can never disagree. Each folds the file as it reads
//! it, so `churn` and `audit` hold only the ledger, whatever the log's
//! size; `timeline` also keeps the events, because it walks causal
//! chains back through them.

use std::fmt::Write as _;

use radar_obs::{Event, ObjectLedger, ReplicaChange};

use crate::args::Parsed;
use crate::events::{stream, Causality, Extent};

/// Steps `objects timeline` lists: the latest ones, after a count of
/// the earlier ones.
const TIMELINE_CAP: usize = 256;

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let Some((&sub, rest)) = args.split_first() else {
        return Ok(help());
    };
    match sub {
        "timeline" => timeline(rest),
        "churn" => churn(rest),
        "audit" => audit(rest),
        "--help" | "-h" => Ok(help()),
        other => Err(format!(
            "unknown objects subcommand {other:?}\n\n{}",
            help()
        )),
    }
}

/// Folds a log file through a fresh ledger line by line, handing each
/// event and the replica-set change it made, if any, to `each`. The log
/// itself is never held: memory is the ledger's per-object state plus
/// what `each` keeps. The ledger prices copies and counts churn with
/// [`radar_obs::LedgerConfig::default`], the values of every
/// `radar simulate` run.
fn fold_file(
    path: &str,
    mut each: impl FnMut(Event, Option<ReplicaChange>),
) -> Result<(ObjectLedger, Extent), String> {
    let mut ledger = ObjectLedger::default();
    let extent = stream(path, |e| {
        let change = ledger.fold(&e);
        each(e, change);
    })?;
    if let Some((_, t)) = extent.last {
        ledger.finalize(t);
    }
    Ok((ledger, extent))
}

fn timeline(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &[], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let [id, path] = parsed.positionals.as_slice() else {
        return Err(format!("objects timeline expects ID FILE\n\n{}", help()));
    };
    let object: u32 = id
        .parse()
        .map_err(|_| format!("expected an object id, got {id:?}"))?;
    // The log, kept for the causal chains, and the object's replica-set
    // changes with the indices of the events that made them.
    let mut events = Vec::new();
    let mut steps = Vec::new();
    let (ledger, _) = fold_file(path, |event, change| {
        if let Some(change) = change.filter(|_| event.object() == Some(object)) {
            steps.push((events.len(), change));
        }
        events.push(event);
    })?;

    let Some(c) = ledger.object(object) else {
        return Err(format!("no events concern object {object} in {path}"));
    };
    let mut out = String::new();
    let _ = writeln!(out, "object {object} — lifecycle from {path}");
    let _ = writeln!(
        out,
        "  requests {} · served {} · relocations {} · bytes moved {} ({:.1} B/served)",
        c.requests,
        c.served,
        c.relocations,
        c.bytes_moved,
        c.bytes_per_served()
    );
    let _ = writeln!(
        out,
        "  churn: ping-pong {} · replicate-then-drop {} (window {:.0}s)",
        c.ping_pong,
        c.replicate_drop,
        ledger.config().churn_window
    );
    let replicas = ledger.replicas_of(object);
    if replicas.is_empty() {
        let _ = writeln!(out, "  replicas now: none observed");
    } else {
        let hosts: Vec<String> = replicas.iter().map(|h| h.to_string()).collect();
        let _ = writeln!(out, "  replicas now: hosts {}", hosts.join(", "));
    }
    let violations: Vec<_> = ledger
        .auditor()
        .violations()
        .iter()
        .filter(|v| v.object == object)
        .collect();
    if !violations.is_empty() {
        let _ = writeln!(out, "  INVARIANT VIOLATIONS involving this object:");
        for v in &violations {
            let _ = writeln!(out, "    {v}");
        }
    }

    if steps.is_empty() {
        let _ = writeln!(out, "\nno replica-set changes recorded");
        return Ok(out);
    }
    let dropped = steps.len().saturating_sub(TIMELINE_CAP);
    if dropped > 0 {
        let _ = writeln!(out, "\n… {dropped} earlier steps beyond the timeline cap");
    }
    let causes = Causality::new(&events);
    for &(step, change) in &steps[dropped..] {
        let event = &events[step];
        let _ = writeln!(
            out,
            "\n#{:<6} t={:<9.3} {}",
            event.seq,
            event.t,
            change.describe()
        );
        // The paper-facing "why": the Fig. 2 decision / placement-test
        // narrative of the chain that produced this step.
        let chain = causes.chain(event);
        for line in chain.lines().filter(|l| !l.is_empty()) {
            let _ = writeln!(out, "    {line}");
        }
    }
    Ok(out)
}

fn churn(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &["top"], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let [path] = parsed.positionals.as_slice() else {
        return Err(format!(
            "objects churn expects an events FILE\n\n{}",
            help()
        ));
    };
    let top: usize = parsed
        .get_parsed("top", 10, "a row count")
        .map_err(|e| e.to_string())?;
    let (ledger, extent) = fold_file(path, |_, _| ())?;
    if extent.events == 0 {
        return Ok("no events\n".to_string());
    }

    let mut out = ledger.health().render();
    let rows = ledger.churn_table(top);
    if !rows.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>8} {:>6} {:>10} {:>9} {:>10} {:>9}",
            "object", "requests", "served", "reloc", "bytes", "B/served", "ping-pong", "rep-drop"
        );
        for (object, c) in &rows {
            let _ = writeln!(
                out,
                "{:<8} {:>9} {:>8} {:>6} {:>10} {:>9.1} {:>10} {:>9}",
                object,
                c.requests,
                c.served,
                c.relocations,
                c.bytes_moved,
                c.bytes_per_served(),
                c.ping_pong,
                c.replicate_drop
            );
        }
    }
    let nodes = ledger.node_table();
    if !nodes.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>10} {:>10} {:>9}",
            "node", "served", "bytes-in", "bytes-out", "B/served"
        );
        for (node, c) in &nodes {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>10} {:>10} {:>9.1}",
                node,
                c.served,
                c.bytes_in,
                c.bytes_out,
                c.bytes_per_served()
            );
        }
    }
    Ok(out)
}

/// Violations printed in full before the audit verdict truncates.
const AUDIT_VIOLATION_LINES: usize = 20;

fn audit(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &[], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Ok(help());
    }
    let [path] = parsed.positionals.as_slice() else {
        return Err(format!(
            "objects audit expects an events FILE\n\n{}",
            help()
        ));
    };
    let (ledger, extent) = fold_file(path, |_, _| ())?;
    let auditor = ledger.auditor();
    let events = auditor.events_seen();
    let caveat = extent.gap_note().unwrap_or_default();

    let violations = auditor.violations();
    if violations.is_empty() {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit clean: {events} events, {} active replicas, 0 violations",
            auditor.active_replicas()
        );
        out.push_str(&caveat);
        return Ok(out);
    }
    // A dirty audit is an error: the caller's exit code becomes 2, so
    // CI can gate on it.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit FAILED: {} violations in {events} events of {path}",
        violations.len()
    );
    out.push_str(&caveat);
    for v in violations.iter().take(AUDIT_VIOLATION_LINES) {
        let _ = writeln!(out, "  {v}");
    }
    if violations.len() > AUDIT_VIOLATION_LINES {
        let _ = writeln!(
            out,
            "  … {} more violations",
            violations.len() - AUDIT_VIOLATION_LINES
        );
    }
    Err(out)
}

fn help() -> String {
    "radar objects — protocol-level behaviour of a flight-recorder log\n\
     \n\
     Produce a log with `radar simulate --events FILE …`. All subcommands\n\
     replay it through the same ObjectLedger fold the simulator uses for\n\
     the `protocol_health` report section.\n\
     \n\
     USAGE:\n\
     \x20 radar objects timeline ID FILE    one object's replica-set lifecycle:\n\
     \x20                                   every create/drop/migrate/re-replication\n\
     \x20                                   with the causal chain that produced it\n\
     \x20 radar objects churn FILE [--top N]\n\
     \x20                                   churn and relocation-cost attribution:\n\
     \x20                                   ping-pong migrations, replicate-then-drop\n\
     \x20                                   cycles, bytes moved per request served,\n\
     \x20                                   per object and per node\n\
     \x20 radar objects audit FILE          replica-set-invariant audit: flags any\n\
     \x20                                   unnotified drop, orphaned replica, or\n\
     \x20                                   directory/host disagreement (exit 2 with\n\
     \x20                                   the offending event seqs on violations)\n\
     \n\
     Relocations are priced at 12288 bytes per copy and churn is counted\n\
     over a 200-s window (two placement periods), the values of every\n\
     `radar simulate` run.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_obs::{Event, EventKind, PlacementActionEvent, PlacementActionKind, ResetCause};

    fn ev(seq: u64, parent: Option<u64>, t: f64, kind: EventKind) -> Event {
        Event {
            seq,
            parent,
            t,
            queue_depth: 0,
            kind,
        }
    }

    fn write_log(lines: &[String]) -> (tempdir::TempPath, String) {
        let path = tempdir::path("objects-test");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
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

    fn replication_log() -> Vec<String> {
        [
            ev(
                1,
                None,
                10.0,
                EventKind::RequestServed {
                    gateway: 0,
                    object: 7,
                    host: 1,
                    latency: 0.05,
                    hops: 2,
                },
            ),
            ev(
                2,
                None,
                60.0,
                EventKind::CountsReset {
                    object: 7,
                    cause: ResetCause::Created,
                },
            ),
            ev(
                3,
                Some(2),
                60.0,
                EventKind::PlacementAction(PlacementActionEvent {
                    host: 1,
                    object: 7,
                    action: PlacementActionKind::GeoReplicate,
                    target: Some(2),
                    unit_rate: 0.3,
                    share: None,
                    ratio: Some(0.4),
                    deletion_threshold: 0.01,
                    replication_threshold: 0.18,
                }),
            ),
        ]
        .iter()
        .map(Event::to_json_line)
        .collect()
    }

    #[test]
    fn timeline_renders_lifecycle_and_chain() {
        let (_g, path) = write_log(&replication_log());
        let out = timeline(&["7", path.as_str()]).unwrap();
        assert!(out.contains("object 7"), "{out}");
        assert!(out.contains("replica created on host 2"), "{out}");
        assert!(out.contains("replicas now: hosts 1, 2"), "{out}");
        assert!(out.contains("caused by:"), "{out}");
        assert!(out.contains("bytes moved 12288"), "{out}");
    }

    #[test]
    fn timeline_rejects_unknown_object() {
        let (_g, path) = write_log(&replication_log());
        let err = timeline(&["99", path.as_str()]).unwrap_err();
        assert!(err.contains("no events concern object 99"), "{err}");
    }

    #[test]
    fn churn_prices_relocations_per_object_and_node() {
        let (_g, path) = write_log(&replication_log());
        let out = churn(&[path.as_str()]).unwrap();
        assert!(out.contains("protocol health"), "{out}");
        assert!(out.contains("bytes moved 12288"), "{out}");
        assert!(out.contains("[ok]"), "{out}");
        // Node table: host 1 shipped the copy out, host 2 received it.
        assert!(out.contains("bytes-in"), "{out}");
    }

    #[test]
    fn audit_passes_clean_log_and_fails_dirty_one() {
        let (_g, path) = write_log(&replication_log());
        let out = audit(&[path.as_str()]).unwrap();
        assert!(out.contains("audit clean"), "{out}");

        // A drop with no matching directory notification.
        let dirty = vec![ev(
            1,
            None,
            30.0,
            EventKind::PlacementAction(PlacementActionEvent {
                host: 3,
                object: 9,
                action: PlacementActionKind::Drop,
                target: None,
                unit_rate: 0.001,
                share: None,
                ratio: None,
                deletion_threshold: 0.01,
                replication_threshold: 0.18,
            }),
        )
        .to_json_line()];
        let (_g2, dirty_path) = write_log(&dirty);
        let err = audit(&[dirty_path.as_str()]).unwrap_err();
        assert!(err.contains("audit FAILED"), "{err}");
        assert!(err.contains("seq 1"), "{err}");
        assert!(err.contains("drop-before-notify"), "{err}");
    }

    #[test]
    fn audit_notes_sequence_gaps() {
        let (_g, path) = write_log(&replication_log());
        let out = audit(&[path.as_str()]).unwrap();
        assert!(!out.contains("missing"), "{out}");
        // The same log with its first event cut: seqs 2 and 3 of 3.
        let (_g, path) = write_log(&replication_log()[1..]);
        let out = audit(&[path.as_str()]).unwrap();
        assert!(out.contains("audit clean"), "{out}");
        assert!(
            out.contains("1 events missing from this log (sequence gaps)"),
            "{out}"
        );
    }
}
