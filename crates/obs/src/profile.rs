//! Event-loop profiling counters: per-event-type wall time and queue
//! depth.
//!
//! The simulator's event loop wraps each handler call in an
//! [`std::time::Instant`] pair and feeds the elapsed nanoseconds plus
//! the queue depth at dispatch into a [`LoopProfile`]. The counters
//! are deliberately tiny (a `BTreeMap` of fixed-size rows keyed by
//! static label) so enabling profiling perturbs the loop as little as
//! possible; wall-clock numbers never enter the event log or report
//! JSON, keeping seeded runs byte-identical.

use std::collections::BTreeMap;
use std::fmt;

/// Accumulated statistics for one event-loop handler label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandlerStats {
    /// Number of events dispatched with this label.
    pub count: u64,
    /// Total wall time spent in the handler (nanoseconds).
    pub total_ns: u64,
    /// Slowest single dispatch (nanoseconds).
    pub max_ns: u64,
    /// Sum of queue depths observed at dispatch (for the mean).
    pub depth_sum: u64,
    /// Deepest queue observed at dispatch.
    pub depth_max: u32,
}

impl HandlerStats {
    /// Mean wall time per dispatch, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean queue depth at dispatch.
    pub fn mean_depth(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.count as f64
        }
    }
}

/// Per-event-type wall-time and queue-depth profile of one run's event
/// loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopProfile {
    rows: BTreeMap<&'static str, HandlerStats>,
}

impl LoopProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handler dispatch: its label, elapsed wall time in
    /// nanoseconds, and the queue depth when it was popped.
    ///
    /// All accumulation is saturating: a clock step backwards (seen
    /// under VM suspend/resume) surfaces as a pinned counter, never a
    /// panic in the recorder.
    pub fn record(&mut self, label: &'static str, nanos: u64, depth: u32) {
        let row = self.rows.entry(label).or_default();
        row.count = row.count.saturating_add(1);
        row.total_ns = row.total_ns.saturating_add(nanos);
        row.max_ns = row.max_ns.max(nanos);
        row.depth_sum = row.depth_sum.saturating_add(u64::from(depth));
        row.depth_max = row.depth_max.max(depth);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(label, stats)` rows in label order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &HandlerStats)> {
        self.rows.iter().map(|(label, stats)| (*label, stats))
    }

    /// Looks up the stats for one label.
    pub fn get(&self, label: &str) -> Option<&HandlerStats> {
        self.rows.get(label)
    }

    /// Total dispatches across all labels.
    pub fn total_events(&self) -> u64 {
        self.rows
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.count))
    }

    /// Total wall time across all labels, in nanoseconds (saturating,
    /// like [`record`](Self::record)).
    pub fn total_ns(&self) -> u64 {
        self.rows
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.total_ns))
    }

    /// Renders the profile as an aligned text table (used by
    /// `radar simulate` text output and `radar events summary`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self));
        out
    }
}

/// Human-readable duration formatting.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl fmt::Display for LoopProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "event-loop profile")?;
        writeln!(
            f,
            "  {:<18} {:>9} {:>11} {:>11} {:>9} {:>7}",
            "handler", "count", "mean", "max", "mean qd", "max qd"
        )?;
        if self.rows.is_empty() {
            writeln!(f, "  (no events dispatched)")?;
            return Ok(());
        }
        for (label, s) in &self.rows {
            writeln!(
                f,
                "  {:<18} {:>9} {:>11} {:>11} {:>9.1} {:>7}",
                label,
                s.count,
                fmt_ns(s.mean_ns()),
                fmt_ns(s.max_ns as f64),
                s.mean_depth(),
                s.depth_max
            )?;
        }
        write!(
            f,
            "  total: {} events, {} wall time in handlers",
            self.total_events(),
            fmt_ns(self.total_ns() as f64)
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_label() {
        let mut p = LoopProfile::new();
        p.record("redirect", 100, 2);
        p.record("redirect", 300, 4);
        p.record("placement", 5_000, 1);
        let r = p.get("redirect").unwrap();
        assert_eq!(r.count, 2);
        assert_eq!(r.total_ns, 400);
        assert_eq!(r.max_ns, 300);
        assert!((r.mean_ns() - 200.0).abs() < 1e-9);
        assert!((r.mean_depth() - 3.0).abs() < 1e-9);
        assert_eq!(r.depth_max, 4);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_ns(), 5_400);
    }

    #[test]
    fn record_saturates_instead_of_panicking() {
        // A clock step backwards can hand the profiler a nonsense
        // elapsed value near u64::MAX; accumulation must pin, not
        // overflow.
        let mut p = LoopProfile::new();
        p.record("redirect", u64::MAX, u32::MAX);
        p.record("redirect", u64::MAX, u32::MAX);
        let r = p.get("redirect").unwrap();
        assert_eq!(r.count, 2);
        assert_eq!(r.total_ns, u64::MAX);
        assert_eq!(r.max_ns, u64::MAX);
        assert_eq!(r.depth_sum, u64::from(u32::MAX) * 2);
        assert_eq!(r.depth_max, u32::MAX);
        // total_ns() sums across labels; it must saturate too.
        p.record("placement", u64::MAX, 0);
        assert_eq!(p.total_ns(), u64::MAX);
    }

    #[test]
    fn rows_iterate_in_label_order() {
        let mut p = LoopProfile::new();
        p.record("zeta", 1, 0);
        p.record("alpha", 1, 0);
        let labels: Vec<&str> = p.rows().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["alpha", "zeta"]);
    }

    #[test]
    fn render_is_aligned_and_handles_empty() {
        let empty = LoopProfile::new();
        assert!(empty.render().contains("no events dispatched"));
        let mut p = LoopProfile::new();
        p.record("arrival", 1_500, 3);
        p.record("service-complete", 2_000_000, 10);
        let table = p.render();
        assert!(table.contains("arrival"), "{table}");
        assert!(table.contains("1.50 us"), "{table}");
        assert!(table.contains("2.00 ms"), "{table}");
        assert!(table.contains("total: 2 events"), "{table}");
    }
}
