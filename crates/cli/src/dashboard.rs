//! Terminal dashboard rendering over streaming flight-recorder
//! metrics.
//!
//! [`render`] is a pure function from a [`MetricsObserver`] and an
//! [`ObjectLedger`] snapshot to one text frame, so `radar simulate
//! --dashboard` (live) and `radar events watch FILE` (replay) produce
//! identical output from identical event streams. [`LiveDashboard`]
//! wraps a [`SharedMetrics`] as a simulation observer and repaints the
//! frame on stderr while the run progresses (only when stderr is a
//! terminal).

use std::fmt::Write as _;
use std::io::{IsTerminal, Write as _};

use radar_obs::{MetricsObserver, ObjectLedger, SharedMetrics, SharedObjectLedger};
use radar_sim::Observer;

/// Width of the host-load bars, in characters.
const BAR_WIDTH: usize = 28;
/// Minimum wall-clock delay between live repaints.
const FRAME_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

fn bar(value: f64, max: f64) -> String {
    let filled = if max > 0.0 {
        ((value / max) * BAR_WIDTH as f64).round() as usize
    } else {
        0
    };
    let filled = filled.min(BAR_WIDTH);
    format!("{}{}", "#".repeat(filled), ".".repeat(BAR_WIDTH - filled))
}

fn ms(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{:.1} ms", s * 1e3),
        None => "n/a".to_string(),
    }
}

fn secs(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{s:.2} s"),
        None => "n/a".to_string(),
    }
}

/// Renders one dashboard frame from the current aggregates: header,
/// fault banner, rolling rates, latency and bandwidth summaries,
/// per-host load bars, and the top-`top` objects by request count.
pub fn render(m: &MetricsObserver, ledger: &ObjectLedger, top: usize) -> String {
    let tally = m.tally();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "RaDaR dashboard — t={:.1}s · {} events",
        m.last_t(),
        m.events_seen()
    );
    let _ = writeln!(
        out,
        "served {:>8} ({:>7.2}/s) · failed {:>6} ({:>6.2}/s) · requests {:>8}",
        tally.served,
        m.served_rate(),
        tally.failed,
        m.failed_rate(),
        ledger.health().requests
    );
    let _ = writeln!(
        out,
        "faults {:>8} · re-replications {} ({:.2}/s)",
        tally.faults,
        tally.re_replications,
        m.re_replication_rate()
    );
    let recent: Vec<&(f64, String)> = m.recent_faults().collect();
    if !recent.is_empty() {
        let _ = writeln!(out, "!! recent faults:");
        for (t, desc) in recent {
            let _ = writeln!(out, "   t={t:<10.1} {desc}");
        }
    }
    let _ = writeln!(
        out,
        "latency: mean {} · p50 {} · p99 {} · over-scale {}",
        ms(tally.latency.mean()),
        ms(tally.latency_p50.estimate()),
        ms(tally.latency_p99.estimate()),
        m.latency_histogram().overflow()
    );
    let bw = &tally.client_bandwidth;
    let last_bin = bw.len().saturating_sub(1);
    let _ = writeln!(
        out,
        "bandwidth (bytes×hops / {:.0} s bin): current {:.3e} · total {:.3e}",
        bw.spec().width(),
        if bw.is_empty() {
            0.0
        } else {
            bw.bin_sum(last_bin)
        },
        bw.total()
    );
    if tally.updates > 0 {
        let [t1, t2, t3] = tally.updates_by_class;
        let _ = writeln!(
            out,
            "updates {:>8} ({} t1 / {} t2 / {} t3) · {:.3e} bytes×hops · {} moves",
            tally.updates,
            t1,
            t2,
            t3,
            tally.update_bandwidth.total(),
            tally.primary_reassignments
        );
        let _ = writeln!(
            out,
            "  deliveries {:>5} applied · {} merged · {} wasted · staleness {} t1 / {} t2",
            tally.update_deliveries,
            tally.updates_merged,
            tally.wasted_deliveries,
            secs(tally.update_lag_type1.mean()),
            secs(tally.update_lag_type2.mean()),
        );
    }

    let mut hosts = m.host_loads();
    if !hosts.is_empty() {
        let peak = hosts.iter().map(|&(_, load)| load).fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "\nhost load (req/s over the last {:.0} s interval):",
            m.config().load_interval
        );
        // Busiest hosts first, host id breaking ties; cap the panel.
        hosts.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for &(host, load) in hosts.iter().take(top.max(1)) {
            let total = ledger.node(host).map_or(0, |n| n.served);
            let _ = writeln!(
                out,
                "  host {host:<4} {} {load:>7.2}  ({total} served)",
                bar(load, peak)
            );
        }
        if hosts.len() > top.max(1) {
            let _ = writeln!(out, "  … {} more hosts", hosts.len() - top.max(1));
        }
    }

    let objects = ledger.busiest_objects(top.max(1));
    if !objects.is_empty() {
        let _ = writeln!(out, "\ntop objects (by requests):");
        for (object, c) in objects {
            let _ = writeln!(
                out,
                "  object {object:<6} {:>8} req {:>8} served {:>5} failed  Δreplicas {:+}",
                c.requests, c.served, c.failed, c.replica_delta
            );
        }
    }

    if !m.placement_counts().is_empty() {
        let row = m
            .placement_counts()
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(" · ");
        let _ = writeln!(out, "\nplacement: {row}");
    }
    if !m.branch_counts().is_empty() {
        let row = m
            .branch_counts()
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(" · ");
        let _ = writeln!(out, "redirector branches: {row}");
    }
    out
}

/// A simulation observer that folds every event into a [`SharedMetrics`]
/// and repaints the dashboard on stderr as the run progresses, reading
/// a ledger the simulation folds as an observer of its own.
///
/// Repainting is throttled to [`FRAME_INTERVAL`] and only happens when
/// stderr is a terminal, so piped and scripted runs stay clean; the
/// folded aggregates are available from the shared handles either way.
#[derive(Debug)]
pub struct LiveDashboard {
    metrics: SharedMetrics,
    ledger: SharedObjectLedger,
    top: usize,
    live: bool,
    last_frame: Option<std::time::Instant>,
}

impl LiveDashboard {
    /// Creates a live dashboard folding into `metrics` and reading
    /// `ledger`, displaying the `top` busiest hosts/objects per frame.
    pub fn new(metrics: SharedMetrics, ledger: SharedObjectLedger, top: usize) -> Self {
        Self {
            metrics,
            ledger,
            top,
            live: std::io::stderr().is_terminal(),
            last_frame: None,
        }
    }

    fn repaint(&mut self) {
        let due = match self.last_frame {
            None => true,
            Some(at) => at.elapsed() >= FRAME_INTERVAL,
        };
        if !due {
            return;
        }
        self.last_frame = Some(std::time::Instant::now());
        let frame = self.ledger.with(|l| {
            let frame = self.metrics.with(|m| render(m, l, self.top));
            frame + "\n" + &l.health().render()
        });
        let mut err = std::io::stderr().lock();
        // Home the cursor and clear to end-of-screen between frames.
        let _ = write!(err, "\x1b[H\x1b[J{frame}");
        let _ = err.flush();
    }
}

impl Observer for LiveDashboard {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &radar_obs::Event) {
        self.metrics.fold(event);
        if self.live {
            self.repaint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_obs::{
        Event, EventKind, PlacementActionEvent, PlacementActionKind, ResetCause, SharedObjectLedger,
    };

    fn served(seq: u64, t: f64, object: u32, host: u16) -> Event {
        Event {
            seq,
            parent: None,
            t,
            queue_depth: 0,
            kind: EventKind::RequestServed {
                gateway: 0,
                object,
                host,
                latency: 0.05,
                hops: 2,
            },
        }
    }

    /// The frame `render` prints after folding `events` into both folds.
    fn frame_of(events: &[Event]) -> String {
        let mut m = MetricsObserver::default();
        let mut ledger = ObjectLedger::default();
        for e in events {
            m.fold(e);
            ledger.fold(e);
        }
        render(&m, &ledger, 5)
    }

    #[test]
    fn frame_shows_all_panels() {
        let mut events: Vec<Event> = (0..30)
            .map(|i| served(i + 1, i as f64, 7, (i % 3) as u16))
            .collect();
        events.push(Event {
            seq: 31,
            parent: None,
            t: 30.0,
            queue_depth: 0,
            kind: EventKind::Fault {
                desc: "host-crash 1".into(),
            },
        });
        let frame = frame_of(&events);
        assert!(frame.contains("RaDaR dashboard"), "{frame}");
        assert!(frame.contains("host load"), "{frame}");
        assert!(frame.contains("top objects"), "{frame}");
        assert!(frame.contains("recent faults"), "{frame}");
        assert!(frame.contains("object 7"), "{frame}");
        assert!(frame.contains("host-crash 1"), "{frame}");
    }

    #[test]
    fn top_objects_list_what_traffic_or_placement_named() {
        let at = |seq, kind| Event {
            seq,
            parent: None,
            t: 60.0,
            queue_depth: 0,
            kind,
        };
        let frame = frame_of(&[
            served(1, 1.0, 7, 0),
            // Object 3's only event is a purge: it stays off the panel.
            at(
                2,
                EventKind::CountsReset {
                    object: 3,
                    cause: ResetCause::Purge,
                },
            ),
            // Object 5 is only ever placed: it enters with 0 requests.
            at(
                3,
                EventKind::PlacementAction(PlacementActionEvent {
                    host: 1,
                    object: 5,
                    action: PlacementActionKind::GeoReplicate,
                    target: Some(2),
                    unit_rate: 0.2,
                    share: None,
                    ratio: None,
                    deletion_threshold: 0.01,
                    replication_threshold: 0.18,
                }),
            ),
        ]);
        let panel = frame.split("top objects").nth(1).expect("panel shown");
        let rows: Vec<&str> = panel.lines().filter(|l| l.contains("object")).collect();
        assert_eq!(
            rows,
            [
                "  object 5             0 req        0 served     0 failed  Δreplicas +1",
                "  object 7             0 req        1 served     0 failed  Δreplicas +0",
            ],
            "{frame}"
        );
    }

    #[test]
    fn empty_fold_renders_header_only_panels() {
        let frame = frame_of(&[]);
        assert!(frame.contains("0 events"), "{frame}");
        assert!(!frame.contains("host load"), "{frame}");
        assert!(!frame.contains("top objects"), "{frame}");
    }

    #[test]
    fn bars_scale_to_the_peak() {
        assert_eq!(bar(1.0, 1.0).chars().filter(|&c| c == '#').count(), 28);
        assert_eq!(bar(0.5, 1.0).chars().filter(|&c| c == '#').count(), 14);
        assert_eq!(bar(0.0, 1.0).chars().filter(|&c| c == '#').count(), 0);
        assert_eq!(bar(1.0, 0.0).chars().filter(|&c| c == '#').count(), 0);
    }

    #[test]
    fn live_dashboard_folds_through_observer_hook() {
        let shared = SharedMetrics::default();
        let mut dash = LiveDashboard::new(shared.clone(), SharedObjectLedger::default(), 5);
        // Tests never run on a TTY, so repainting stays off; the fold
        // must still happen.
        dash.on_event(&served(1, 1.0, 3, 0));
        assert!(dash.wants_events());
        assert_eq!(shared.with(|m| m.tally().served), 1);
    }
}
