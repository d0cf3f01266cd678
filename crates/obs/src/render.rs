//! The English renderings of an event, from one set of per-kind arms.
//!
//! [`Event::brief`] is the one line `radar events tail`, `filter` and
//! the causal chains print. [`Event::explain`], behind
//! `radar events explain`, is that line followed by what it leaves
//! out: the queue depth, and where the kind has more to say, the Fig. 2
//! candidate table and test with why the branch won, the Figs. 3–5
//! threshold tests, the §5 consistency semantics, or why counts reset.

use crate::event::{
    ConsistencyClass, DecisionBranch, DecisionEvent, Event, EventKind, PlacementActionEvent,
    PlacementActionKind,
};
use std::fmt::{Result, Write};

impl Event {
    /// One-line rendering for `radar events tail` / `filter` listings.
    pub fn brief(&self) -> String {
        self.render(false)
    }

    /// Multi-line rendering for `radar events explain`: the
    /// [`brief`](Self::brief) line, then the queue depth and the
    /// reasoning the line leaves out — for decisions the full Fig. 2
    /// input and why the branch won, for placement actions the
    /// threshold test that triggered them with the `u`/`m` values in
    /// force.
    pub fn explain(&self) -> String {
        self.render(true)
    }

    fn render(&self, full: bool) -> String {
        let mut out = String::new();
        self.write(&mut out, full)
            .expect("a String takes every write");
        out
    }

    /// Writes the brief line and, when `full`, the explanation below it.
    fn write(&self, out: &mut String, full: bool) -> Result {
        let (seq, t, kind) = (self.seq, self.t, self.type_name());
        write!(out, "#{seq:<6} t={t:<10.3} {kind:<13} ")?;
        // Each arm writes its detail to `out` and, when `full`, the
        // lines that explain it to `more`.
        let mut more = String::new();
        match &self.kind {
            EventKind::RequestArrived { gateway, object } => {
                write!(out, "object {object} enters at gateway {gateway}")?;
            }
            EventKind::Decision(d) => {
                let (object, gateway, chosen, branch) = (d.object, d.gateway, d.chosen, d.branch);
                write!(
                    out,
                    "object {object} gw {gateway} -> host {chosen} ({branch} branch, "
                )?;
                if d.candidates.is_empty() {
                    write!(out, "degraded: {})", reason(d))?;
                } else {
                    write!(out, "{} candidates)", d.candidates.len())?;
                    if full {
                        explain_decision(d, &mut more)?;
                    }
                }
            }
            EventKind::RequestServed {
                gateway,
                object,
                host,
                latency,
                hops,
            } => {
                let ms = latency * 1e3;
                write!(
                    out,
                    "object {object} served by host {host} to gw {gateway} "
                )?;
                write!(out, "({ms:.1} ms, {hops} hops)")?;
            }
            EventKind::RequestFailed {
                gateway,
                object,
                reason,
            } => write!(out, "object {object} at gw {gateway} failed: {reason}")?,
            EventKind::PlacementAction(p) => {
                write!(out, "host {} {} object {}", p.host, p.action, p.object)?;
                if let Some(target) = p.target {
                    write!(out, " -> host {target}")?;
                }
                write!(out, " (unit rate {:.4})", p.unit_rate)?;
                if full {
                    explain_placement(p, &mut more)?;
                }
            }
            EventKind::CountsReset { object, cause } => {
                write!(out, "object {object} request counts reset ({cause})")?;
                if full {
                    more.push_str(
                        "  the replica set changed, so every replica's request count \
                         restarts at 1 and the Fig. 2 unit counts compare fairly.\n",
                    );
                }
            }
            EventKind::Fault { desc } => out.push_str(desc),
            EventKind::ReReplication {
                object,
                target,
                elapsed,
            } => write!(
                out,
                "object {object} restored on host {target} after {elapsed:.1}s"
            )?,
            EventKind::ProviderUpdate(u) => {
                let (object, version, primary, class) = (u.object, u.version, u.primary, u.class);
                write!(
                    out,
                    "object {object} v{version} updated at primary {primary} "
                )?;
                let moved = if u.reassigned {
                    ", primary reassigned"
                } else {
                    ""
                };
                write!(out, "({class}, {} targets{moved})", u.targets)?;
                if full {
                    let bytes_hops = u.bytes_hops;
                    writeln!(
                        more,
                        "  propagation: {bytes_hops} bytes x hops charged at issue."
                    )?;
                    if u.reassigned {
                        more.push_str(
                            "  the primary's host no longer held the object, so the primary \
                             copy was reassigned before issuing (§5).\n",
                        );
                    }
                    more.push_str(semantics(class));
                }
            }
            EventKind::UpdateDelivered(u) => {
                let (object, version, host, class) = (u.object, u.version, u.host, u.class);
                let fate = if u.wasted { "wasted" } else { "delivered" };
                let ms = u.lag * 1e3;
                write!(out, "object {object} v{version} {fate} at host {host} ")?;
                write!(out, "({class}, lag {ms:.1} ms)")?;
                if full && u.wasted {
                    more.push_str(
                        "  the replica was dropped or migrated away before the update \
                         arrived, so the delivery was wasted.\n",
                    );
                }
                if full {
                    more.push_str(semantics(class));
                }
            }
        }
        if full {
            write!(out, "\n  queue depth {}\n{more}", self.queue_depth)?;
        }
        Ok(())
    }
}

/// Why the decision's branch chose its host: the Fig. 2 rule that won,
/// or why the decision carries no candidate snapshot.
fn reason(d: &DecisionEvent) -> &'static str {
    match (d.branch, d.candidates.is_empty()) {
        (DecisionBranch::PrimaryFallback, _) => {
            "no usable replica was reachable; served from the primary copy"
        }
        (DecisionBranch::Policy, _) => "baseline policy decision; no Fig. 2 candidate data",
        (_, true) => "no candidate snapshot recorded",
        (DecisionBranch::Closest, false) => {
            "p is not sufficiently more loaded than q, so the closest replica serves"
        }
        (DecisionBranch::LeastRequested, false) => {
            "p's unit request count exceeds q's by more than the constant factor, \
             so load wins over proximity"
        }
    }
}

/// The Fig. 2 candidate table, the p/q test and why the branch won.
fn explain_decision(d: &DecisionEvent, out: &mut String) -> Result {
    out.push_str("  host       rcnt   aff       unit  distance\n");
    for c in &d.candidates {
        let (host, rcnt, aff, unit, distance) = (c.host, c.rcnt, c.aff, c.unit, c.distance);
        write!(
            out,
            "  {host:<6} {rcnt:>8} {aff:>5} {unit:>10.3} {distance:>9}"
        )?;
        if Some(host) == d.closest {
            out.push_str("  <- closest (p)");
        }
        if Some(host) == d.least {
            out.push_str("  <- least unit count (q)");
        }
        out.push('\n');
    }
    if let (Some(p), Some(q)) = (d.unit_closest, d.unit_least) {
        let (constant, lhs) = (d.constant, p / d.constant);
        let cmp = if lhs > q { ">" } else { "<=" };
        write!(
            out,
            "  Fig. 2 test: unit_rcnt(p)/constant = {p:.3}/{constant:.1} = "
        )?;
        writeln!(out, "{lhs:.3} {cmp} {q:.3} = unit_rcnt(q)")?;
    } else {
        out.push_str("  Fig. 2 test: not evaluated\n");
    }
    writeln!(out, "  {}.", reason(d))
}

/// The Figs. 3–5 test that triggered a placement action, with the `u`
/// and `m` thresholds in force.
fn explain_placement(p: &PlacementActionEvent, out: &mut String) -> Result {
    use PlacementActionKind as Action;
    let (rate, u, m) = (p.unit_rate, p.deletion_threshold, p.replication_threshold);
    writeln!(
        out,
        "  thresholds in force: deletion u = {u}, replication m = {m}"
    )?;
    match p.action {
        Action::Drop | Action::AffinityReduce | Action::DropRefused => {
            write!(
                out,
                "  deletion test (Fig. 3): unit rate {rate:.4} < u = {u} => "
            )?;
            out.push_str(match p.action {
                Action::Drop => "replica is underused; the copy was deleted.\n",
                Action::AffinityReduce => {
                    "replica is underused; its affinity was reduced instead of deleting.\n"
                }
                _ => {
                    "replica is underused; but the replica floor refused the drop (last live \
                      copy).\n"
                }
            });
        }
        Action::GeoMigrate | Action::GeoReplicate => {
            if let (Some(share), Some(ratio)) = (p.share, p.ratio) {
                write!(
                    out,
                    "  qualifying test (Figs. 4-5): share of accesses whose "
                )?;
                write!(out, "preference path passes the target = {share:.3} > ")?;
                writeln!(out, "required ratio {ratio:.3}")?;
            }
            if p.action == Action::GeoReplicate {
                write!(out, "  replication test: unit rate {rate:.4} > m = {m} => ")?;
                out.push_str("object is hot enough to copy rather than move.\n");
            } else {
                write!(
                    out,
                    "  migration chosen: unit rate {rate:.4} <= m = {m} => "
                )?;
                out.push_str("object moves toward its demand instead of replicating.\n");
            }
        }
        Action::LoadMigrate | Action::LoadReplicate => {
            if let Some(foreign) = p.share {
                write!(
                    out,
                    "  offload ordering: foreign-request share = {foreign:.3} "
                )?;
                out.push_str("(most-foreign objects leave first)\n");
            }
            if p.action == Action::LoadReplicate {
                write!(
                    out,
                    "  host over high watermark and unit rate {rate:.4} > m = {m} "
                )?;
                out.push_str("=> hot object is replicated to the target rather than migrated.\n");
            } else {
                out.push_str(
                    "  host over high watermark => object migrated to a host under the low \
                     watermark.\n",
                );
            }
        }
    }
    Ok(())
}

/// What a consistency class means for the replicas an update reaches
/// (§5).
fn semantics(class: ConsistencyClass) -> &'static str {
    match class {
        ConsistencyClass::Type1 => {
            "  type-1 semantics: replicas receive the new version asynchronously; reads may \
             be stale until delivery.\n"
        }
        ConsistencyClass::Type2 => {
            "  type-2 semantics: the update commutes, so replicas merge it asynchronously in \
             any order.\n"
        }
        ConsistencyClass::Type3 => {
            "  type-3 semantics: non-commuting update applied synchronously at every \
             replica; no staleness window exists.\n"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        CandidateSnapshot, FailReason, ProviderUpdateEvent, ResetCause, UpdateDeliveredEvent,
    };

    fn event(kind: EventKind) -> Event {
        Event {
            seq: 7,
            parent: Some(6),
            t: 1.25,
            queue_depth: 3,
            kind,
        }
    }

    fn degraded(branch: DecisionBranch) -> Event {
        event(EventKind::Decision(DecisionEvent {
            object: 9,
            gateway: 3,
            chosen: 1,
            branch,
            constant: 2.0,
            closest: None,
            least: None,
            unit_closest: None,
            unit_least: None,
            candidates: Vec::new(),
        }))
    }

    #[test]
    fn brief_is_one_line_and_explain_opens_with_it() {
        let served = event(EventKind::RequestServed {
            gateway: 2,
            object: 42,
            host: 5,
            latency: 0.08,
            hops: 3,
        });
        let line = served.brief();
        assert_eq!(
            line,
            "#7      t=1.250      served        object 42 served by host 5 to gw 2 \
             (80.0 ms, 3 hops)"
        );
        assert_eq!(served.explain(), format!("{line}\n  queue depth 3\n"));
    }

    #[test]
    fn decision_explanation_names_branch_and_candidates() {
        let e = event(EventKind::Decision(DecisionEvent {
            object: 42,
            gateway: 1,
            chosen: 3,
            branch: DecisionBranch::LeastRequested,
            constant: 2.0,
            closest: Some(5),
            least: Some(3),
            unit_closest: Some(9.0),
            unit_least: Some(2.0),
            candidates: vec![
                CandidateSnapshot {
                    host: 3,
                    rcnt: 4,
                    aff: 2,
                    unit: 2.0,
                    distance: 7,
                },
                CandidateSnapshot {
                    host: 5,
                    rcnt: 9,
                    aff: 1,
                    unit: 9.0,
                    distance: 1,
                },
            ],
        }));
        let text = e.explain();
        assert!(text.starts_with(&e.brief()), "{text}");
        assert!(
            text.contains("least-requested branch, 2 candidates"),
            "{text}"
        );
        assert!(text.contains("closest (p)"), "{text}");
        assert!(text.contains("least unit count (q)"), "{text}");
        assert!(text.contains("Fig. 2 test"), "{text}");
        assert!(text.contains("9.000/2.0 = 4.500 > 2.000"), "{text}");
        assert!(text.contains("load wins over proximity"), "{text}");
    }

    #[test]
    fn degraded_decisions_say_why_in_the_brief_line() {
        let fallback = degraded(DecisionBranch::PrimaryFallback);
        let line = fallback.brief();
        assert!(!line.contains("0 candidates"), "{line}");
        assert!(
            line.ends_with("(primary-fallback branch, degraded: no usable replica was reachable; served from the primary copy)"),
            "{line}"
        );
        assert_eq!(fallback.explain(), format!("{line}\n  queue depth 3\n"));
        let policy = degraded(DecisionBranch::Policy).brief();
        assert!(policy.contains("no Fig. 2 candidate data"), "{policy}");
        let empty = degraded(DecisionBranch::Closest).brief();
        assert!(empty.contains("no candidate snapshot recorded"), "{empty}");
    }

    #[test]
    fn placement_explanation_shows_thresholds() {
        let e = event(EventKind::PlacementAction(PlacementActionEvent {
            host: 2,
            object: 42,
            action: PlacementActionKind::GeoReplicate,
            target: Some(8),
            unit_rate: 0.31,
            share: Some(0.45),
            ratio: Some(0.3),
            deletion_threshold: 0.01,
            replication_threshold: 0.18,
        }));
        let line = e.brief();
        assert!(
            line.ends_with("host 2 geo-replicate object 42 -> host 8 (unit rate 0.3100)"),
            "{line}"
        );
        let text = e.explain();
        assert!(text.starts_with(&line), "{text}");
        assert!(text.contains("u = 0.01"), "{text}");
        assert!(text.contains("m = 0.18"), "{text}");
        assert!(text.contains("0.450 > required ratio 0.300"), "{text}");
        assert!(text.contains("replication test"), "{text}");
    }

    #[test]
    fn every_variant_explains_as_its_brief_line_and_more() {
        let kinds = vec![
            EventKind::RequestArrived {
                gateway: 0,
                object: 1,
            },
            EventKind::RequestFailed {
                gateway: 0,
                object: 1,
                reason: FailReason::Unreachable,
            },
            EventKind::CountsReset {
                object: 1,
                cause: ResetCause::Created,
            },
            EventKind::Fault {
                desc: "host-crash 7".into(),
            },
            EventKind::ReReplication {
                object: 1,
                target: 3,
                elapsed: 12.0,
            },
            EventKind::ProviderUpdate(ProviderUpdateEvent {
                object: 1,
                class: ConsistencyClass::Type1,
                version: 2,
                primary: 0,
                targets: 3,
                bytes_hops: 1024,
                reassigned: true,
            }),
            EventKind::UpdateDelivered(UpdateDeliveredEvent {
                object: 1,
                host: 4,
                class: ConsistencyClass::Type2,
                version: 2,
                lag: 0.25,
                wasted: true,
            }),
        ];
        for kind in kinds {
            let e = event(kind);
            let line = e.brief();
            assert!(!line.contains('\n'), "{line}");
            let text = e.explain();
            assert!(
                text.starts_with(&format!("{line}\n  queue depth 3\n")),
                "{text}"
            );
            assert!(text.ends_with('\n'), "{text}");
        }
    }
}
